//! The three workloads: their seeded input fields, their configurations
//! and the real entry points they drive.
//!
//! * `smooth_batch` is predictor-bound and the only multi-threaded
//!   workload, so pool and grain changes show here. It bypasses the
//!   per-chunk tuner.
//! * `mixed_tuned` is tuner- and codec-bound on encode (estimated mode
//!   selection plus per-chunk interpolation tuning), so a predictor-only
//!   speed-up should move it far less than `smooth_batch`.
//! * `stream_serve` is the CLI's serving path in-process: a `StreamSink`
//!   push loop, a forward-only decode over a non-`Seek` reader, and
//!   one-shot random chunk reads. Its tight bound makes entropy decoding a
//!   larger share of decode.

use std::io::Cursor;

use szhi_core::{
    compress, decompress, ErrorBound, ForwardSource, ModeTuning, StreamSink, StreamSource,
    SzhiConfig, SzhiError,
};
use szhi_datagen::DatasetKind;
use szhi_ndgrid::{Dims, Grid, Region};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmoothBatch,
    MixedTuned,
    StreamServe,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SmoothBatch,
        Workload::MixedTuned,
        Workload::StreamServe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmoothBatch => "smooth_batch",
            Workload::MixedTuned => "mixed_tuned",
            Workload::StreamServe => "stream_serve",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the workload runs with: every core for the batch
    /// workload, one for the others.
    pub fn threads(self, nproc: usize) -> usize {
        match self {
            Workload::SmoothBatch => nproc,
            Workload::MixedTuned | Workload::StreamServe => 1,
        }
    }

    /// The shape of the workload's input field.
    pub fn field_dims(self) -> Dims {
        match self {
            Workload::SmoothBatch => Dims::d3(256, 256, 256),
            Workload::MixedTuned => Dims::d3(128, 128, 256),
            Workload::StreamServe => Dims::d3(128, 128, 128),
        }
    }

    /// The workload's input field, a pure function of `seed`.
    pub fn field(self, seed: u64) -> Grid<f32> {
        let dims = self.field_dims();
        match self {
            Workload::SmoothBatch => DatasetKind::Miranda.generate(dims, seed),
            Workload::MixedTuned => seeded_smooth_noisy(dims, seed),
            Workload::StreamServe => DatasetKind::Rtm.generate(dims, seed),
        }
    }

    /// The configuration the workload compresses `field` with.
    pub fn config(self, field: &Grid<f32>) -> SzhiConfig {
        match self {
            Workload::SmoothBatch => {
                SzhiConfig::new(ErrorBound::Relative(1e-3)).with_chunk_span([64, 64, 64])
            }
            Workload::MixedTuned => SzhiConfig::new(ErrorBound::Absolute(2e-3))
                .with_chunk_span([32, 32, 32])
                .with_mode_tuning(ModeTuning::estimated())
                .with_chunk_interp_tuning(true),
            Workload::StreamServe => {
                SzhiConfig::new(ErrorBound::Absolute(1e-4 * field.value_range() as f64))
                    .with_auto_tune(false)
                    .with_chunk_span([32, 32, 32])
            }
        }
    }

    /// Encodes `field` through the workload's entry point.
    pub fn encode(self, field: &Grid<f32>, cfg: &SzhiConfig) -> Result<Vec<u8>, SzhiError> {
        match self {
            Workload::SmoothBatch | Workload::MixedTuned => compress(field, cfg),
            Workload::StreamServe => {
                let mut sink = StreamSink::new(Vec::new(), field.dims(), cfg)?;
                while let Some(region) = sink.next_chunk_region() {
                    let chunk = Grid::from_vec(region.dims(), field.extract(&region));
                    sink.push_chunk(&chunk)?;
                }
                sink.finish()
            }
        }
    }

    /// Decodes the full field through the workload's entry point.
    pub fn decode(self, bytes: &[u8]) -> Result<Grid<f32>, SzhiError> {
        match self {
            Workload::SmoothBatch | Workload::MixedTuned => decompress(bytes),
            // `&[u8]` implements `Read` but not `Seek`: the forward-only
            // path a pipe takes.
            Workload::StreamServe => ForwardSource::new(bytes)?.read_all(),
        }
    }
}

/// The absolute error bound every decode of `field` under `cfg` must
/// honour.
pub fn abs_bound(field: &Grid<f32>, cfg: &SzhiConfig) -> f64 {
    cfg.error_bound.absolute(field.value_range() as f64)
}

/// One-shot random chunk read, as `szhi-cli decode --chunk I` does it:
/// open a `StreamSource` over the stream, then read chunk `index`.
pub fn read_chunk_once(bytes: &[u8], index: usize) -> Result<(Region, Grid<f32>), SzhiError> {
    StreamSource::new(Cursor::new(bytes))?.read_chunk(index)
}

/// A field whose low-`x` half is a smooth trigonometric ramp and whose
/// high-`x` half is full-range hash noise, both drawn from `seed`. Chunks
/// of the smooth half prefer the CR pipeline and chunks of the noisy half
/// prefer TP, which is what gives the per-chunk tuner work. The seed moves
/// the ramp's phase and the noise values but not the split, so every seed
/// compresses to about the same ratio.
pub fn seeded_smooth_noisy(dims: Dims, seed: u64) -> Grid<f32> {
    let key = splitmix64(seed);
    let phase = (key >> 11) as f32 / (1u64 << 53) as f32 * std::f32::consts::TAU;
    Grid::from_fn(dims, |z, y, x| {
        if x < dims.nx() / 2 {
            ((x + y) as f32 * 0.09 + phase).sin() * 0.5 + z as f32 * 0.01
        } else {
            let h = splitmix64(key ^ dims.index(z, y, x) as u64);
            ((h & 0xFFFF) as f32 / 65_535.0) - 0.5
        }
    })
}

/// The SplitMix64 finaliser: a cheap, well-mixed 64-bit hash.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic stream of pseudo-random chunk indices.
pub struct IndexStream {
    state: u64,
    n: usize,
}

impl IndexStream {
    pub fn new(seed: u64, n: usize) -> IndexStream {
        IndexStream { state: seed, n }
    }

    pub fn next_index(&mut self) -> usize {
        self.state = self.state.wrapping_add(1);
        (splitmix64(self.state) % self.n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_field_repeats_and_varies_with_the_seed() {
        let dims = Dims::d3(4, 8, 16);
        let a = seeded_smooth_noisy(dims, 7);
        assert_eq!(a.as_slice(), seeded_smooth_noisy(dims, 7).as_slice());
        assert_ne!(a.as_slice(), seeded_smooth_noisy(dims, 8).as_slice());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
