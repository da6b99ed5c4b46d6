//! The end-to-end pass: telemetry off, the workload's real entry points,
//! every output checked.

use std::hint::black_box;
use std::time::Instant;

use rayon::prelude::*;
use szhi_core::chunk_count;
use szhi_metrics::quality::{verify_error_bound, QualityReport};
use szhi_ndgrid::Grid;

use crate::env;
use crate::report::Report;
use crate::stats::{median, mib_per_s, percentile, samples_needed, MIB};
use crate::workloads::{abs_bound, read_chunk_once, IndexStream, Workload};

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Fewest timed encode/decode round trips per run.
const MIN_ROUNDS: usize = 5;
/// One-shot chunk reads after each timed round trip. They run on one
/// thread in every workload: a one-shot read serves one request, and
/// fanning a single chunk out over the pool made its latency follow the
/// other core's load rather than the decoder.
const READS_PER_ROUND: usize = 20;

/// Starts the pool's workers for `threads` threads.
pub fn start_pool(threads: usize) {
    rayon::set_num_threads(threads);
    let n: usize = (0..threads * 64).into_par_iter().map(black_box).sum();
    black_box(n);
}

/// Checks a full decode against the input under the absolute bound.
pub fn check_decode(rep: &mut Report, what: &str, field: &Grid<f32>, out: &Grid<f32>, bound: f64) {
    let ok = out.dims() == field.dims()
        && verify_error_bound(field.as_slice(), out.as_slice(), bound).is_ok();
    rep.check(ok, || {
        format!("{what}: reconstruction violates the bound {bound:e}")
    });
}

/// Bitwise equality of two reconstructions.
pub fn same_values(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs the end-to-end pass of `w` on the field drawn from `seed`,
/// measuring for at least `seconds`.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut rep = Report::default();
    let field = w.field(seed);
    let nbytes = field.dims().nbytes_f32();
    let threads = w.threads(env::nproc());

    // Set-up: pool start, configuration, and a cold round trip. Repeated,
    // so `setup_s` is a median; the first stream is the reference every
    // later encode must reproduce byte for byte.
    let mut setups = Vec::new();
    let mut reference: Option<(Vec<u8>, Grid<f32>)> = None;
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        start_pool(threads);
        let cfg = w.config(&field);
        let trip = w
            .encode(black_box(&field), &cfg)
            .and_then(|b| w.decode(&b).map(|g| (b, g)));
        setups.push(t.elapsed().as_secs_f64());
        let Some((bytes, out)) = rep.ok("set-up round trip", trip) else {
            continue;
        };
        check_decode(
            &mut rep,
            "set-up decode",
            &field,
            &out,
            abs_bound(&field, &cfg),
        );
        match &reference {
            None => reference = Some((bytes, out)),
            Some((r, _)) => {
                rep.check(*r == bytes, || "set-up encode changed the stream".into());
            }
        }
    }
    let Some((stream, full)) = reference else {
        return rep;
    };
    let cfg = w.config(&field);
    let bound = abs_bound(&field, &cfg);
    let Some(n_chunks) = rep.ok("chunk count", chunk_count(&stream)) else {
        return rep;
    };

    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut reads = Vec::new();
    let mut picks = IndexStream::new(seed, n_chunks);
    let min_reads = samples_needed(0.9);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds
        || enc.len() < MIN_ROUNDS
        || reads.len() < min_reads
    {
        let t = Instant::now();
        let encoded = w.encode(black_box(&field), &cfg);
        enc.push(t.elapsed().as_secs_f64());
        if let Some(bytes) = rep.ok("encode", encoded) {
            rep.check(bytes == stream, || "encode changed the stream".into());
        }

        let t = Instant::now();
        let decoded = w.decode(black_box(&stream));
        dec.push(t.elapsed().as_secs_f64());
        if let Some(out) = rep.ok("decode", decoded) {
            check_decode(&mut rep, "decode", &field, &out, bound);
        }

        rayon::set_num_threads(1);
        for _ in 0..READS_PER_ROUND.min(n_chunks) {
            let i = picks.next_index();
            let t = Instant::now();
            let read = read_chunk_once(black_box(&stream), i);
            reads.push(t.elapsed().as_secs_f64() * 1e6);
            if let Some((region, sub)) = rep.ok("chunk read", read) {
                rep.check(same_values(sub.as_slice(), &full.extract(&region)), || {
                    format!("chunk {i} differs from the full decode")
                });
            }
        }
        rayon::set_num_threads(threads);
    }

    if threads > 1 {
        // The stream must not depend on the thread count.
        rayon::set_num_threads(1);
        let single = w.encode(&field, &cfg);
        if let Some(bytes) = rep.ok("1-thread reference encode", single) {
            rep.check(bytes == stream, || {
                "the 1-thread encode differs from the multi-thread stream".into()
            });
        }
        rayon::set_num_threads(threads);
    }

    let psnr = QualityReport::compare(&field, &full).psnr;
    rep.metric(
        "encode_mib_s",
        mib_per_s(nbytes, median(&enc)),
        "MiB/s",
        format!("median of {} encodes, {} threads", enc.len(), threads),
    );
    rep.metric(
        "decode_mib_s",
        mib_per_s(nbytes, median(&dec)),
        "MiB/s",
        format!("median of {} decodes", dec.len()),
    );
    rep.metric(
        "ratio",
        nbytes as f64 / stream.len() as f64,
        "x",
        format!("{} B in, {} B out", nbytes, stream.len()),
    );
    rep.metric("psnr_db", psnr, "dB", format!("abs bound {bound:e}"));
    rep.metric(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {} set-ups", setups.len()),
    );
    let rss = env::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / MIB);
    rep.metric("peak_rss_mib", rss, "MiB", "VmHWM");
    for (name, p) in [("chunk_read_us_p50", 0.5), ("chunk_read_us_p90", 0.9)] {
        rep.metric(
            name,
            percentile(&reads, p).unwrap_or(f64::NAN),
            "us",
            format!("of {} one-shot reads over {} chunks", reads.len(), n_chunks),
        );
    }
    rep
}
