//! Golden-stream compatibility corpus builders.
//!
//! One shared deterministic field is compressed into every container
//! version the workspace has ever shipped (v1 monolithic through v5
//! tuned). The `golden-gen` binary pins the resulting bytes (plus the
//! field and each stream's `inspect` rendering) under `tests/golden/`,
//! and the root `tests/golden_streams.rs` suite holds the codebase to
//! them: the **current** version must re-encode byte-exactly, and every
//! **historical** version must keep decoding to the pinned field within
//! the recorded bound. Builders must therefore stay deterministic —
//! fixed field, fixed span, absolute bound, no whole-field auto-tuning —
//! and any intentional change to the current encoder's output is made
//! visible by regenerating the corpus in the same commit.

use szhi_core::format;
use szhi_core::{compress, ErrorBound, ModeTuning, StreamSink, SzhiConfig, SzhiError};
use szhi_ndgrid::{Dims, Grid};

/// Absolute error bound every golden stream is encoded under (recorded
/// in `tests/golden/README.md` and asserted by the decode checks).
pub const GOLDEN_ABS_EB: f64 = 2e-3;

/// Chunk span of the chunked golden streams: 16³ turns the golden field
/// into a 2×2×2 plan whose low-x chunks are smooth and high-x chunks
/// noisy, so per-chunk tuning exercises both production pipelines.
pub const GOLDEN_SPAN: [usize; 3] = [16, 16, 16];

/// Shape of the golden field.
pub fn golden_dims() -> Dims {
    Dims::d3(24, 20, 32)
}

/// The shared corpus field: deterministic in its dims alone (half
/// smooth ramp, half hash noise — see
/// [`szhi_datagen::mixed_smooth_noisy`]).
pub fn golden_field() -> Grid<f32> {
    szhi_datagen::mixed_smooth_noisy(golden_dims())
}

/// Every container version with a pinned golden stream, oldest first.
pub fn versions() -> [u8; 5] {
    [1, 2, 3, 4, 5]
}

fn base() -> SzhiConfig {
    SzhiConfig::new(ErrorBound::Absolute(GOLDEN_ABS_EB)).with_auto_tune(false)
}

/// Builds the golden stream for one container version from `field`.
///
/// Each version is produced the way it was produced when it shipped:
/// v1 by the monolithic engine, v2 by re-containerizing a global-mode
/// v3 stream (v2 predates per-chunk mode bytes, so its ancestor must
/// use one global pipeline), v3 by the chunked engine with per-chunk
/// CR/TP selection, v4 by a [`StreamSink`] with estimator-guided mode
/// tuning, and v5 by the same sink with per-chunk interpolation tuning
/// on top.
pub fn build(version: u8, field: &Grid<f32>) -> Result<Vec<u8>, SzhiError> {
    match version {
        1 => compress(field, &base()),
        2 => {
            let v3 = compress(field, &base().with_chunk_span(GOLDEN_SPAN))?;
            let (header, table) = format::read_chunk_table(&v3)?;
            let bodies: Vec<Vec<u8>> = (0..table.entries.len())
                .map(|i| table.chunk_slice(&v3, i).to_vec())
                .collect();
            Ok(format::write_stream_v2(&header, table.span, &bodies))
        }
        3 => compress(
            field,
            &base()
                .with_chunk_span(GOLDEN_SPAN)
                .with_mode_tuning(ModeTuning::PerChunk),
        ),
        4 => sink_stream(
            field,
            &base()
                .with_chunk_span(GOLDEN_SPAN)
                .with_mode_tuning(ModeTuning::estimated()),
        ),
        5 => sink_stream(
            field,
            &base()
                .with_chunk_span(GOLDEN_SPAN)
                .with_mode_tuning(ModeTuning::estimated())
                .with_chunk_interp_tuning(true),
        ),
        v => Err(SzhiError::InvalidInput(format!(
            "no golden builder for container version {v}"
        ))),
    }
}

fn sink_stream(field: &Grid<f32>, cfg: &SzhiConfig) -> Result<Vec<u8>, SzhiError> {
    let mut sink = StreamSink::new(Vec::new(), field.dims(), cfg)?;
    while let Some(region) = sink.next_chunk_region() {
        let chunk = Grid::from_vec(region.dims(), field.extract(&region));
        sink.push_chunk(&chunk)?;
    }
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use szhi_core::{decompress, stream_version};

    #[test]
    fn builders_are_deterministic_and_version_correct() {
        let field = golden_field();
        for v in versions() {
            let a = build(v, &field).unwrap();
            let b = build(v, &field).unwrap();
            assert_eq!(a, b, "v{v} builder must be deterministic");
            assert_eq!(stream_version(&a).unwrap(), v, "v{v} builder version");
        }
        assert!(build(6, &field).is_err());
    }

    #[test]
    fn every_golden_version_decodes_within_the_recorded_bound() {
        let field = golden_field();
        for v in versions() {
            let bytes = build(v, &field).unwrap();
            let restored = decompress(&bytes).unwrap();
            assert_eq!(restored.dims(), field.dims());
            for (a, b) in field.as_slice().iter().zip(restored.as_slice()) {
                assert!(
                    ((*a as f64) - (*b as f64)).abs() <= GOLDEN_ABS_EB,
                    "v{v} violates the golden bound"
                );
            }
        }
    }
}
