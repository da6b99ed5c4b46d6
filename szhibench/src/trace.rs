//! The traced pass: per-layer numbers. Stage spans and pool counters come
//! from `szhi-telemetry` (histogram sums and counts only); everything else
//! is timed from here around calls into the layer crates, by the replay in
//! [`crate::replay`].

use std::cell::Cell;
use std::hint::black_box;
use std::io::{Cursor, Read};
use std::time::Instant;

use szhi_core::{ForwardSource, StreamReader, StreamSource};
use szhi_telemetry::{set_stats_enabled, Snapshot};

use crate::e2e::{check_decode, same_values, start_pool};
use crate::env;
use crate::replay::replay;
use crate::report::Report;
use crate::stats::median;
use crate::workloads::{abs_bound, Workload};

/// Fewest alternating untraced/traced encode pairs, and the number of
/// traced decodes.
const TRACED_ROUNDS: usize = 3;
/// Stream opens timed per reader type.
const OPEN_REPS: usize = 25;

const ENCODE_STAGES: [&str; 4] = ["predict", "reorder", "entropy", "crc"];
const DECODE_STAGES: [&str; 3] = ["predict", "reorder", "entropy"];

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed().as_secs_f64(), v)
}

/// Runs `f` with telemetry stats on, returning its wall time, its result
/// and the telemetry it recorded.
fn traced<T>(f: impl FnOnce() -> T) -> (f64, T, Snapshot) {
    let before = Snapshot::capture();
    set_stats_enabled(true);
    let (t, v) = timed(f);
    set_stats_enabled(false);
    (t, v, Snapshot::capture().delta(&before))
}

/// Sum of the span `name` over `snaps`, in ms, and its event count.
fn span_ms(snaps: &[Snapshot], name: &str) -> (f64, u64) {
    snaps
        .iter()
        .filter_map(|s| s.histogram(name))
        .fold((0.0, 0), |(ms, n), h| {
            (ms + h.sum as f64 / 1e6, n + h.count)
        })
}

/// A `Read` wrapper counting the bytes pulled through it.
struct Counting<'a> {
    inner: &'a [u8],
    pulled: &'a Cell<usize>,
}

impl Read for Counting<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.pulled.set(self.pulled.get() + n);
        Ok(n)
    }
}

fn open_us<T, E: std::fmt::Display>(
    rep: &mut Report,
    what: &str,
    mut open: impl FnMut() -> Result<T, E>,
) -> f64 {
    let mut samples = Vec::with_capacity(OPEN_REPS);
    for _ in 0..OPEN_REPS {
        let (t, r) = timed(&mut open);
        samples.push(t * 1e6);
        if rep.ok(what, r.map(black_box)).is_none() {
            break;
        }
    }
    median(&samples)
}

/// Runs the traced pass of `w` on the field drawn from `seed`; the
/// untraced/traced encode pairs run for at least `seconds`.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut rep = Report::default();
    let field = w.field(seed);
    let nproc = env::nproc();
    let threads = w.threads(nproc);
    let cfg = w.config(&field);
    let bound = abs_bound(&field, &cfg);
    set_stats_enabled(false);
    start_pool(threads);

    let Some(stream) = rep.ok("encode", w.encode(&field, &cfg)) else {
        return rep;
    };
    let Some(full) = rep.ok("decode", w.decode(&stream)) else {
        return rep;
    };
    check_decode(&mut rep, "decode", &field, &full, bound);

    // Untraced and traced encodes alternate, so both see the same machine
    // state; the traced ones give the encode stage spans.
    let mut plain = Vec::new();
    let mut with_trace = Vec::new();
    let mut enc_snaps = Vec::new();
    let start = Instant::now();
    while plain.len() < TRACED_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let (t, bytes) = timed(|| w.encode(black_box(&field), &cfg));
        plain.push(t);
        if let Some(bytes) = rep.ok("untraced encode", bytes) {
            rep.check(bytes == stream, || {
                "untraced encode changed the stream".into()
            });
        }
        let (t, bytes, snap) = traced(|| w.encode(black_box(&field), &cfg));
        with_trace.push(t);
        enc_snaps.push(snap);
        if let Some(bytes) = rep.ok("traced encode", bytes) {
            rep.check(bytes == stream, || "tracing changed the stream".into());
        }
    }
    let mut dec_snaps = Vec::new();
    for _ in 0..TRACED_ROUNDS {
        let (_, out, snap) = traced(|| w.decode(black_box(&stream)));
        dec_snaps.push(snap);
        if let Some(out) = rep.ok("traced decode", out) {
            rep.check(same_values(out.as_slice(), full.as_slice()), || {
                "tracing changed the decode".into()
            });
        }
    }

    // Pool probe: one traced encode on one thread, one on every core.
    start_pool(1);
    let (t1, bytes1, snap1) = traced(|| w.encode(&field, &cfg));
    start_pool(nproc);
    let (tn, bytesn, snapn) = traced(|| w.encode(&field, &cfg));
    start_pool(threads);
    for (what, bytes) in [("1-thread encode", bytes1), ("all-core encode", bytesn)] {
        if let Some(bytes) = rep.ok(what, bytes) {
            rep.check(bytes == stream, || format!("the {what} changed the stream"));
        }
    }

    // Stream opens, and the bytes a forward reader pulls before its first
    // chunk.
    let open = open_us(&mut rep, "StreamSource::new", || {
        StreamSource::new(Cursor::new(&stream[..]))
    });
    let forward_open = open_us(&mut rep, "ForwardSource::new", || {
        ForwardSource::new(&stream[..])
    });
    let reader_open = open_us(&mut rep, "StreamReader::new", || StreamReader::new(&stream));
    let pulled = Cell::new(0usize);
    let first = ForwardSource::new(Counting {
        inner: &stream,
        pulled: &pulled,
    })
    .and_then(|mut src| src.next_chunk().transpose())
    .map(|c| c.map(|(region, sub)| same_values(sub.as_slice(), &full.extract(&region))));
    if let Some(first) = rep.ok("forward first chunk", first) {
        rep.check(first == Some(true), || {
            "the forward reader's first chunk is wrong".into()
        });
    }
    let readahead = pulled.get();

    start_pool(1);
    let r = replay(&field, &cfg, &stream, &full, &mut rep);
    start_pool(threads);
    let valid = if r.consistent {
        ""
    } else {
        " INVALID: replay inconsistent"
    };
    let per_chunk = |what: &str| format!("{what} [replay of {} chunks]{valid}", r.chunks);
    let b = r.bytes;
    let replayed: [(&str, f64, &'static str, &str); 22] = [
        ("ndgrid.extract_ms", r.extract_ms, "ms", "Grid::extract"),
        (
            "predictor.compress_ms",
            r.compress_ms,
            "ms",
            "compress_into",
        ),
        (
            "predictor.decompress_ms",
            r.decompress_ms,
            "ms",
            "decompress",
        ),
        (
            "predictor.autotune_ms",
            r.autotune_ms,
            "ms",
            "autotune::tune on the whole field",
        ),
        ("predictor.anchors", r.anchors as f64, "count", "replayed"),
        ("predictor.outliers", r.outliers as f64, "count", "replayed"),
        (
            "predictor.outlier_frac",
            r.outliers as f64 / r.points.max(1) as f64,
            "frac",
            "outliers / points",
        ),
        (
            "reorder.build_ms",
            r.order_build_ms,
            "ms",
            "LevelOrder::new",
        ),
        ("reorder.reorder_ms", r.reorder_ms, "ms", "reorder_into"),
        ("reorder.restore_ms", r.restore_ms, "ms", "restore"),
        ("codec.encode_ms", r.encode_ms, "ms", "Pipeline::encode"),
        ("codec.decode_ms", r.decode_ms, "ms", "decode_bounded"),
        ("codec.crc_ms", r.crc_ms, "ms", "crc32"),
        ("tuner.select_ms", r.select_ms, "ms", "pipeline selection"),
        ("tuner.interp_ms", r.interp_ms, "ms", "tune_chunk_interp"),
        ("tuner.trials", r.trials as f64, "count", "trial encodes"),
        (
            "tuner.useful_frac",
            r.chunks as f64 / r.trials.max(1) as f64,
            "frac",
            "chunks / trial encodes",
        ),
        (
            "tuner.est_err_pct",
            100.0 * r.est_abs_err / r.est_actual.max(1.0),
            "%",
            "sum |estimate - actual| / sum actual",
        ),
        (
            "bytes.header_table",
            b.header_table as f64,
            "bytes",
            "outside chunk bodies",
        ),
        (
            "bytes.anchors",
            b.anchors as f64,
            "bytes",
            "anchor sections",
        ),
        (
            "bytes.outliers",
            b.outliers as f64,
            "bytes",
            "outlier sections",
        ),
        (
            "bytes.payload",
            b.payload as f64,
            "bytes",
            "payload sections",
        ),
    ];
    for (name, value, unit, what) in replayed {
        rep.metric(name, value, unit, per_chunk(what));
    }
    for (name, value, what) in [
        ("core.open_us", open, "StreamSource::new"),
        ("core.forward_open_us", forward_open, "ForwardSource::new"),
        ("core.reader_open_us", reader_open, "StreamReader::new"),
    ] {
        rep.metric(name, value, "us", format!("{what}, median of {OPEN_REPS}"));
    }
    rep.metric(
        "forward.readahead_bytes",
        readahead as f64,
        "bytes",
        format!("pulled before the first chunk, of {} B", stream.len()),
    );

    for (dir, snaps, stages) in [
        ("encode", &enc_snaps, &ENCODE_STAGES[..]),
        ("decode", &dec_snaps, &DECODE_STAGES[..]),
    ] {
        let (chunk_ms, chunks) = span_ms(snaps, &format!("{dir}.chunk"));
        let n = snaps.len().max(1) as f64;
        let detail = format!("per {dir}, mean of {} traced runs", snaps.len());
        rep.metric(
            &format!("span.{dir}.chunk_ms"),
            chunk_ms / n,
            "ms",
            detail.clone(),
        );
        rep.metric(
            &format!("span.{dir}.chunk_count"),
            chunks as f64 / n,
            "count",
            detail.clone(),
        );
        for stage in stages {
            let (ms, _) = span_ms(snaps, &format!("{dir}.{stage}"));
            rep.metric(
                &format!("span.{dir}.{stage}_ms"),
                ms / n,
                "ms",
                detail.clone(),
            );
        }
    }
    let stage_sum: f64 = ENCODE_STAGES
        .iter()
        .map(|s| span_ms(std::slice::from_ref(&snap1), &format!("encode.{s}")).0)
        .sum();
    rep.metric(
        "core.driver_ms",
        t1 * 1e3 - stage_sum,
        "ms",
        "1-thread traced encode wall minus its encode.* stage spans",
    );

    let (task_ms, _) = span_ms(std::slice::from_ref(&snapn), "pool.task");
    rep.metric(
        "pool.tasks",
        snapn.counter("pool.tasks").unwrap_or(0) as f64,
        "count",
        format!("{nproc}-thread traced encode"),
    );
    rep.metric(
        "pool.steals",
        snapn.counter("pool.steals").unwrap_or(0) as f64,
        "count",
        format!("{nproc}-thread traced encode"),
    );
    rep.metric(
        "pool.busy_frac",
        task_ms / (nproc as f64 * tn * 1e3),
        "frac",
        format!("pool.task time / ({nproc} threads x wall)"),
    );
    rep.metric(
        "pool.speedup",
        t1 / tn,
        "x",
        format!("1-thread / {nproc}-thread traced encode"),
    );
    let (m_plain, m_traced) = (median(&plain), median(&with_trace));
    rep.metric(
        "trace.overhead_pct",
        100.0 * (m_traced - m_plain) / m_plain,
        "%",
        format!(
            "median of {} traced vs {} untraced encodes",
            with_trace.len(),
            plain.len()
        ),
    );
    rep
}
