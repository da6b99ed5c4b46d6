//! The outside-in layer replay: every chunk of a produced stream is run
//! again through each layer crate's public functions, with the
//! configuration and pipeline the stream records, and each call is timed
//! from here. The replay must reproduce the engine's output exactly
//! (anchors, outliers, payload, checksums, chosen pipeline and per-chunk
//! interpolation levels); if it does not, its numbers would time
//! different work than the engine did, and the run is marked invalid.
//!
//! Replayed calls run on one thread, as the engine runs them inside its
//! per-chunk parallel loop.

use std::time::Instant;

use szhi_codec::checksum::crc32;
use szhi_codec::PipelineSpec;
use szhi_core::format::{read_chunk_sections, read_chunk_table};
use szhi_core::{ModeTuning, SzhiConfig};
use szhi_ndgrid::{ChunkPlan, Grid};
use szhi_predictor::{autotune, CompressScratch, InterpOutput, InterpPredictor, LevelOrder};
use szhi_tuner::{estimate_size, sample_codes, select_pipeline, tune_chunk_interp, SelectParams};

use crate::e2e::same_values;
use crate::report::Report;

/// Bytes of one chunk body's framing: the three u64 section counts.
const SECTION_COUNTS: usize = 3 * 8;

/// Stream bytes by section. The four parts sum to the stream length.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SectionBytes {
    /// Header, chunk span, chunk table and trailer: everything outside
    /// the chunk bodies.
    pub header_table: usize,
    /// Anchor sections, each with its u64 count.
    pub anchors: usize,
    /// Outlier sections, each with its u64 count.
    pub outliers: usize,
    /// Lossless payload sections, each with its u64 length.
    pub payload: usize,
}

impl SectionBytes {
    /// Adds one chunk body holding `anchors` anchors, `outliers` outliers
    /// and a `payload`-byte payload; returns the body length that implies.
    pub fn add_chunk(&mut self, anchors: usize, outliers: usize, payload: usize) -> usize {
        self.anchors += 8 + 4 * anchors;
        self.outliers += 8 + 12 * outliers;
        self.payload += 8 + payload;
        SECTION_COUNTS + 4 * anchors + 12 * outliers + payload
    }

    pub fn total(&self) -> usize {
        self.header_table + self.anchors + self.outliers + self.payload
    }
}

/// Per-layer times (ms, summed over chunks) and counts of one replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub extract_ms: f64,
    pub compress_ms: f64,
    pub decompress_ms: f64,
    pub autotune_ms: f64,
    pub anchors: usize,
    pub outliers: usize,
    pub points: usize,
    pub order_build_ms: f64,
    pub reorder_ms: f64,
    pub restore_ms: f64,
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub crc_ms: f64,
    pub select_ms: f64,
    pub interp_ms: f64,
    pub trials: usize,
    pub chunks: usize,
    /// Σ |estimated − actual| and Σ actual payload bytes of the chosen
    /// pipelines.
    pub est_abs_err: f64,
    pub est_actual: f64,
    pub bytes: SectionBytes,
    /// Whether every replayed output matched the engine's.
    pub consistent: bool,
}

fn ms<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    *acc += t.elapsed().as_secs_f64() * 1e3;
    v
}

/// The engine's pipeline-selection policy for `cfg`: the configured mode
/// first (it wins ties), then the tuning candidates.
enum Policy {
    Trial(Vec<PipelineSpec>),
    Estimated(Vec<PipelineSpec>),
}

impl Policy {
    fn of(cfg: &SzhiConfig) -> Policy {
        let default = cfg.mode.pipeline_spec();
        let with_default = |c: &[PipelineSpec]| {
            let mut list = vec![default];
            list.extend(c.iter().filter(|&&s| s != default));
            list
        };
        match &cfg.mode_tuning {
            ModeTuning::Global => Policy::Trial(vec![default]),
            ModeTuning::PerChunk => {
                Policy::Trial(with_default(&[PipelineSpec::CR, PipelineSpec::TP]))
            }
            ModeTuning::Exhaustive { candidates } => Policy::Trial(with_default(candidates)),
            ModeTuning::Estimated { candidates } => Policy::Estimated(with_default(candidates)),
        }
    }

    /// Selects the pipeline for `codes`: (pipeline, payload, trial encodes).
    fn select(&self, codes: &[u8]) -> Result<(PipelineSpec, Vec<u8>, usize), String> {
        match self {
            Policy::Trial(c) => PipelineSpec::try_encode_select(c, codes)
                .map(|(p, payload)| (p, payload, c.len()))
                .map_err(|e| e.to_string()),
            Policy::Estimated(c) => select_pipeline(c, codes, &SelectParams::default())
                .map(|s| (s.pipeline, s.payload, s.trial_encoded))
                .map_err(|e| e.to_string()),
        }
    }
}

/// Replays every chunk of `stream`, produced from `field` under `cfg`,
/// through the layer crates. `full` is the engine's full decode, which
/// the replayed reconstruction must equal bit for bit. Failed checks are
/// counted in `rep`.
pub fn replay(
    field: &Grid<f32>,
    cfg: &SzhiConfig,
    stream: &[u8],
    full: &Grid<f32>,
    rep: &mut Report,
) -> Replay {
    let mut r = Replay {
        consistent: true,
        ..Replay::default()
    };
    let failed_before = rep.failed;
    let Some((header, table)) = rep.ok("read_chunk_table", read_chunk_table(stream)) else {
        r.consistent = false;
        return r;
    };
    let plan = ChunkPlan::new(header.dims, table.span);
    let policy = Policy::of(cfg);
    let params = SelectParams::default();
    let stride = header.interp.anchor_stride;
    let mut scratch = CompressScratch::default();
    let mut out = InterpOutput::default();
    let mut reordered = Vec::new();
    let mut body_bytes = 0usize;

    let tuned = ms(&mut r.autotune_ms, || autotune::tune(field, &cfg.interp).0);
    if cfg.auto_tune {
        rep.check(tuned == header.interp, || {
            "autotune::tune chose another configuration than the header records".into()
        });
    }

    for i in 0..plan.len() {
        let region = plan.chunk_at(i);
        let dims = region.dims();
        let entry = table.entries[i];
        let values = ms(&mut r.extract_ms, || field.extract(&region));
        let sub = Grid::from_vec(dims, values);
        let body = table.chunk_slice(stream, i);
        body_bytes += body.len();
        let crc = ms(&mut r.crc_ms, || crc32(body));
        rep.check(entry.checksum.is_none_or(|c| c == crc), || {
            format!("chunk {i}: crc32 differs from the table")
        });
        let Some((anchors, outliers, payload)) =
            rep.ok("read_chunk_sections", read_chunk_sections(body))
        else {
            continue;
        };

        let interp = table.chunk_interp(&header, i);
        let levels = ms(&mut r.interp_ms, || {
            tune_chunk_interp(&sub, &header.interp).levels
        });
        if cfg.chunk_interp_tuning {
            rep.check(levels == interp.levels, || {
                format!("chunk {i}: tune_chunk_interp chose other levels than the table")
            });
        }

        let Some(predictor) = rep.ok("InterpPredictor::new", InterpPredictor::new(interp)) else {
            continue;
        };
        ms(&mut r.compress_ms, || {
            predictor.compress_into(&sub, header.abs_eb, &mut scratch, &mut out)
        });
        rep.check(
            same_values(&out.anchors, &anchors) && out.outliers == outliers,
            || format!("chunk {i}: replayed anchors or outliers differ from the stream"),
        );
        r.anchors += out.anchors.len();
        r.outliers += out.outliers.len();
        r.points += dims.len();

        let order = header
            .reorder
            .then(|| ms(&mut r.order_build_ms, || LevelOrder::new(dims, stride)));
        let codes: &[u8] = match &order {
            Some(order) => {
                ms(&mut r.reorder_ms, || {
                    order.reorder_into(&out.codes, &mut reordered)
                });
                &reordered
            }
            None => &out.codes,
        };

        if let Some((pipeline, chosen, trials)) = rep.ok(
            "pipeline selection",
            ms(&mut r.select_ms, || policy.select(codes)),
        ) {
            rep.check(pipeline == entry.pipeline && chosen == payload, || {
                format!("chunk {i}: the replayed selection differs from the stream")
            });
            r.trials += trials;
        }
        let sample = sample_codes(codes, params.sample_budget, params.segments);
        let est = estimate_size(entry.pipeline, &sample, codes.len()).bytes;
        r.est_abs_err += (est - payload.len() as f64).abs();
        r.est_actual += payload.len() as f64;

        let coder = entry.pipeline.build();
        let encoded = ms(&mut r.encode_ms, || coder.encode(codes));
        rep.check(encoded == payload, || {
            format!("chunk {i}: Pipeline::encode differs from the stream payload")
        });
        let decoded = ms(&mut r.decode_ms, || {
            coder.decode_bounded(&payload, dims.len())
        });
        let Some(decoded) = rep.ok("decode_bounded", decoded) else {
            continue;
        };
        rep.check(decoded == codes, || {
            format!("chunk {i}: decode_bounded lost codes")
        });

        let restored = match &order {
            Some(order) => {
                ms(&mut r.restore_ms, || order.restore(&decoded)).map_err(|e| e.to_string())
            }
            None => Ok(decoded),
        };
        let Some(restored) = rep.ok("LevelOrder::restore", restored) else {
            continue;
        };
        rep.check(restored == out.codes, || {
            format!("chunk {i}: restore is not the inverse of reorder")
        });

        let parts = InterpOutput {
            anchors,
            codes: restored,
            outliers,
        };
        let recon = ms(&mut r.decompress_ms, || {
            predictor.decompress(dims, header.abs_eb, &parts)
        });
        if let Some(recon) = rep.ok("InterpPredictor::decompress", recon) {
            rep.check(
                same_values(recon.as_slice(), &full.extract(&region)),
                || format!("chunk {i}: replayed reconstruction differs from the full decode"),
            );
        }

        let implied = r
            .bytes
            .add_chunk(out.anchors.len(), out.outliers.len(), encoded.len());
        rep.check(implied == body.len(), || {
            format!(
                "chunk {i}: replayed sections imply {implied} B, the body is {} B",
                body.len()
            )
        });
        r.chunks += 1;
    }
    r.bytes.header_table = stream.len() - body_bytes;
    rep.check(r.bytes.total() == stream.len(), || {
        format!(
            "bytes.* sum to {} B, the stream is {} B",
            r.bytes.total(),
            stream.len()
        )
    });
    r.consistent = rep.failed == failed_before;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use szhi_core::{compress, decompress, ErrorBound};
    use szhi_ndgrid::Dims;

    #[test]
    fn section_bytes_sum_to_the_stream_length() {
        let field = crate::workloads::seeded_smooth_noisy(Dims::d3(16, 32, 64), 3);
        for cfg in [
            SzhiConfig::new(ErrorBound::Absolute(1e-3)).with_chunk_span([16, 16, 32]),
            SzhiConfig::new(ErrorBound::Absolute(1e-3))
                .with_chunk_span([16, 16, 16])
                .with_mode_tuning(ModeTuning::estimated())
                .with_chunk_interp_tuning(true),
        ] {
            let stream = compress(&field, &cfg).expect("compress");
            let full = decompress(&stream).expect("decompress");
            let mut rep = Report::default();
            let r = replay(&field, &cfg, &stream, &full, &mut rep);
            assert!(r.consistent, "{:?}", rep.failures);
            assert_eq!(rep.failed, 0);
            assert_eq!(r.bytes.total(), stream.len());
            assert!(r.bytes.header_table > 0 && r.bytes.payload > 0);
            assert_eq!(
                r.chunks,
                ChunkPlan::new(field.dims(), cfg.chunk_span.unwrap()).len()
            );
        }
    }

    #[test]
    fn a_replay_against_another_stream_is_invalid() {
        let dims = Dims::d3(16, 32, 32);
        let field = crate::workloads::seeded_smooth_noisy(dims, 1);
        let other = crate::workloads::seeded_smooth_noisy(dims, 2);
        let cfg = SzhiConfig::new(ErrorBound::Absolute(1e-3)).with_chunk_span([16, 16, 16]);
        let stream = compress(&other, &cfg).expect("compress");
        let full = decompress(&stream).expect("decompress");
        let mut rep = Report::default();
        assert!(!replay(&field, &cfg, &stream, &full, &mut rep).consistent);
        assert!(rep.failed > 0);
    }
}
