//! The v3 streaming engine: incremental chunk-at-a-time compression and
//! lazy, checksum-verified decompression.
//!
//! The batch engines in [`crate::compressor`] need the whole field in
//! memory before a single byte is emitted. This module inverts that control
//! flow:
//!
//! * [`StreamWriter`] accepts anchor-aligned chunks **as they arrive**
//!   ([`StreamWriter::push_chunk`]), compresses each one immediately —
//!   running the per-chunk orchestrator to pick the chunk's lossless
//!   pipeline ([`ModeTuning::PerChunk`] trial-encodes the production
//!   modes, [`ModeTuning::Exhaustive`] any candidate list,
//!   [`ModeTuning::Estimated`] the same list through the `szhi-tuner`
//!   sampled cost model) and, with
//!   [`SzhiConfig::with_chunk_interp_tuning`], the chunk's own
//!   interpolation configuration — and finalizes a streamed (v3) or tuned
//!   (v5) container without ever holding the uncompressed field. Only the
//!   compressed chunk bodies are retained until [`StreamWriter::finish`].
//! * One reader core serves three fetch strategies. A chunk-bearing
//!   container (v2–v5) is parsed once into a [`ChunkIndex`] by the one
//!   chunk-table parser in [`crate::format`]. [`StreamReader`] then
//!   borrows chunk bodies from a slice, [`StreamSource`] seeks to them and
//!   [`ForwardSource`] reads them off a pipe. All three share the index's
//!   accessors and one chunk read: fetch the body, verify its CRC32
//!   (v3+) *before* any lossless decoder touches the bytes, then decode it
//!   with the chunk's own pipeline and (v5) dictionary configuration.
//!   Corruption surfaces as the typed [`SzhiError::ChunkChecksum`].
//!   [`StreamReader`] decodes chunks **lazily** ([`StreamReader::chunks`],
//!   [`StreamReader::read_chunk`]) or drains them eagerly in parallel
//!   ([`StreamReader::read_all`]).
//!
//! The writer is deterministic: pushing the chunks of a field one at a time
//! produces a stream byte-identical to [`crate::compress_chunked`] under
//! the same configuration, at every worker-thread count (the batch engine
//! is itself a thin parallel loop over [`StreamWriter::encode_chunk`]).

use crate::compressor::{decompress_chunk_body, CompressionStats};
use crate::config::{ModeTuning, PipelineMode, SzhiConfig};
use crate::error::SzhiError;
use crate::format::{
    self, write_sections, write_stream_v3, write_stream_v5, ChunkEntry, ChunkIndex, Fetch, Header,
    Slice, VERSION_TRAILERED, VERSION_TUNED,
};
use rayon::prelude::*;
use std::borrow::Cow;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Deref;
use std::sync::{Mutex, PoisonError};
use szhi_codec::bitio::put_u32;
use szhi_codec::PipelineSpec;
use szhi_ndgrid::{ChunkPlan, Dims, Grid, Region};
use szhi_predictor::{
    CompressScratch, InterpConfig, InterpOutput, InterpPredictor, LevelConfig, LevelOrder,
};
use szhi_tuner::SelectParams;

/// One compressed chunk, produced by [`StreamWriter::encode_chunk`] and
/// consumed by [`StreamWriter::push_encoded`]. Encoding is a pure function
/// of (chunk data, writer configuration), so chunks can be encoded out of
/// order or in parallel and pushed sequentially.
#[derive(Debug, Clone)]
pub struct EncodedChunk {
    index: usize,
    pipeline: PipelineSpec,
    /// The per-level interpolation configuration this chunk was compressed
    /// with, when per-chunk tuning selected one (recorded in the v5 config
    /// dictionary at push time); `None` when every chunk shares the
    /// header's configuration.
    levels: Option<Vec<LevelConfig>>,
    body: Vec<u8>,
    anchors: usize,
    outliers: usize,
    payload_bytes: usize,
}

impl EncodedChunk {
    /// The chunk's index in plan order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The lossless pipeline chosen for this chunk.
    pub fn pipeline(&self) -> PipelineSpec {
        self.pipeline
    }

    /// Size of the encoded chunk body in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.body.len()
    }
}

/// Metadata returned by [`StreamWriter::push_chunk`]: which chunk was just
/// written, which pipeline its tuner chose, and how large it compressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkReceipt {
    /// The chunk's index in plan order.
    pub index: usize,
    /// The lossless pipeline chosen for the chunk.
    pub pipeline: PipelineSpec,
    /// Size of the encoded chunk body in bytes.
    pub compressed_bytes: usize,
}

/// Incremental writer of streamed (v3) containers: push anchor-aligned
/// chunks as they arrive, finalize without ever holding the whole field.
///
/// ```
/// use szhi_core::{decompress, ErrorBound, StreamWriter, SzhiConfig};
/// use szhi_ndgrid::{Dims, Grid};
///
/// let dims = Dims::d3(40, 32, 32);
/// let cfg = SzhiConfig::new(ErrorBound::Absolute(1e-3))
///     .with_auto_tune(false)
///     .with_chunk_span([32, 32, 32]);
/// let mut writer = StreamWriter::new(dims, &cfg).unwrap();
/// // Produce each chunk only when the writer asks for it: the full field
/// // is never materialised.
/// while let Some(region) = writer.next_chunk_region() {
///     let chunk = Grid::from_fn(region.dims(), |z, y, x| {
///         ((region.x0() + x) as f32 * 0.1).sin()
///             + (region.z0() + z + region.y0() + y) as f32 * 0.01
///     });
///     writer.push_chunk(&chunk).unwrap();
/// }
/// let bytes = writer.finish().unwrap();
/// assert_eq!(decompress(&bytes).unwrap().dims(), dims);
/// ```
#[derive(Debug)]
pub struct StreamWriter {
    enc: ChunkEncoder,
    chunks: Vec<(PipelineSpec, u16, Vec<u8>)>,
    /// The config dictionary of a per-chunk-interp-tuned (v5) stream,
    /// deduplicated in first-use order as chunks are pushed.
    configs: Vec<Vec<LevelConfig>>,
    anchors: usize,
    outliers: usize,
    payload_bytes: usize,
}

/// Resolves a pushed chunk's per-level configuration to its id in the
/// config dictionary, appending a new entry on first use. First-use order
/// over chunks pushed in plan order keeps the dictionary — and therefore
/// the stream bytes — deterministic at any encode-thread count.
fn config_id_for(
    configs: &mut Vec<Vec<LevelConfig>>,
    levels: Option<Vec<LevelConfig>>,
) -> Result<u16, SzhiError> {
    let Some(levels) = levels else { return Ok(0) };
    if let Some(found) = configs.iter().position(|c| *c == levels) {
        return Ok(found as u16);
    }
    // The container stores the dictionary count as a u16, so at most
    // u16::MAX entries (ids 0..u16::MAX-1) are representable — pushing one
    // more would wrap the serialised count and emit an undecodable stream.
    if configs.len() >= u16::MAX as usize {
        return Err(SzhiError::InvalidInput(format!(
            "config dictionary overflow: {} distinct per-chunk configurations",
            configs.len() + 1
        )));
    }
    configs.push(levels);
    Ok((configs.len() - 1) as u16)
}

/// How the chunk encoder picks each chunk's lossless pipeline, resolved
/// from [`ModeTuning`].
#[derive(Debug)]
enum PipelineSelection {
    /// Trial-encode every candidate and keep the smallest payload
    /// ([`ModeTuning::Global`] with one candidate, [`ModeTuning::PerChunk`]
    /// with two, [`ModeTuning::Exhaustive`] with the full list).
    Trial(Vec<PipelineSpec>),
    /// Estimator-guided: rank the candidates with the `szhi-tuner` sampled
    /// cost model and trial-encode only the estimated best few
    /// ([`ModeTuning::Estimated`]).
    Estimated(Vec<PipelineSpec>, SelectParams),
}

impl PipelineSelection {
    /// Resolves a tuning policy into a selection strategy. The configured
    /// default mode is always the first candidate (it wins ties, keeping
    /// output deterministic), and repeated candidates are dropped.
    fn from_tuning(mode: PipelineMode, tuning: ModeTuning) -> PipelineSelection {
        let default_spec = mode.pipeline_spec();
        let normalise = |candidates: Vec<PipelineSpec>| {
            let mut list = vec![default_spec];
            for c in candidates {
                if !list.contains(&c) {
                    list.push(c);
                }
            }
            list
        };
        match tuning {
            ModeTuning::Global => PipelineSelection::Trial(vec![default_spec]),
            ModeTuning::PerChunk => {
                let other = match mode {
                    PipelineMode::Cr => PipelineMode::Tp,
                    PipelineMode::Tp => PipelineMode::Cr,
                };
                PipelineSelection::Trial(vec![default_spec, other.pipeline_spec()])
            }
            ModeTuning::Exhaustive { candidates } => {
                PipelineSelection::Trial(normalise(candidates))
            }
            ModeTuning::Estimated { candidates } => {
                PipelineSelection::Estimated(normalise(candidates), SelectParams::default())
            }
        }
    }

    /// Selects the pipeline for one chunk's codes. Pure: the same codes
    /// always yield the same choice.
    fn select(&self, codes: &[u8]) -> Result<(PipelineSpec, Vec<u8>), SzhiError> {
        match self {
            PipelineSelection::Trial(candidates) => {
                Ok(PipelineSpec::try_encode_select(candidates, codes)?)
            }
            PipelineSelection::Estimated(candidates, params) => {
                let selection = szhi_tuner::select_pipeline(candidates, codes, params)?;
                // Telemetry: the estimator's predicted size for the winner
                // next to the size it actually produced. Exhaustive
                // fallbacks (shortlist covers every candidate) carry no
                // estimate and record nothing.
                let actual = selection.payload.len() as u64;
                if let Some(&(_, est)) = selection
                    .estimates
                    .iter()
                    .find(|(p, _)| *p == selection.pipeline)
                {
                    let estimated = est.max(0.0) as u64;
                    crate::telemetry::TUNER_ESTIMATED.observe(estimated);
                    crate::telemetry::TUNER_ACTUAL.observe(actual);
                    szhi_telemetry::tuner_record(estimated, actual);
                }
                Ok((selection.pipeline, selection.payload))
            }
        }
    }
}

/// Reusable buffers for the per-chunk encode chain: the predictor's
/// reconstruction scratch, its quantization output, the level-reordered
/// code array. Encoding the next chunk of the same shape into a warm
/// scratch touches no new heap beyond the payload the caller keeps.
#[derive(Debug, Default)]
struct EncodeScratch {
    compress: CompressScratch,
    output: InterpOutput,
    reordered: Vec<u8>,
}

/// Everything [`ChunkEncoder::encode_into`] produces besides the body it
/// leaves in the caller's buffer.
struct ChunkMeta {
    pipeline: PipelineSpec,
    levels: Option<Vec<LevelConfig>>,
    anchors: usize,
    outliers: usize,
    payload_bytes: usize,
}

/// The configuration-resolved chunk compressor shared by [`StreamWriter`]
/// (in-memory v3/v5 output) and [`StreamSink`] (io::Write-backed v4/v5
/// output): the validated header, the chunk plan, the predictor instance
/// and the pipeline-selection strategy. Encoding a chunk is a pure `&self`
/// function, so either front end can fan encoding out across threads.
#[derive(Debug)]
pub(crate) struct ChunkEncoder {
    header: Header,
    plan: ChunkPlan,
    predictor: InterpPredictor,
    selection: PipelineSelection,
    /// Per-chunk interpolation tuning: each chunk scores the per-level
    /// candidates on its own blocks and is compressed with the winner
    /// (the container becomes v5 to carry the per-chunk configs).
    chunk_interp: bool,
}

impl ChunkEncoder {
    /// Validates a user-facing streaming configuration (absolute bound, no
    /// whole-field auto-tune) and resolves it into an encoder.
    fn from_config(dims: Dims, cfg: &SzhiConfig) -> Result<ChunkEncoder, SzhiError> {
        let abs_eb = match cfg.error_bound {
            crate::config::ErrorBound::Absolute(eb) => eb,
            crate::config::ErrorBound::Relative(eb) => {
                return Err(SzhiError::InvalidInput(format!(
                    "a streaming writer cannot resolve the value-range-relative bound \
                     {eb:e}: the full field is never held, so the global value range is \
                     unknown; use ErrorBound::Absolute"
                )))
            }
        };
        if cfg.auto_tune {
            return Err(SzhiError::InvalidInput(
                "a streaming writer cannot auto-tune on the whole field; disable it with \
                 with_auto_tune(false), or pre-tune on a representative sample with \
                 szhi_predictor::autotune::tune and pass the result via with_interp"
                    .into(),
            ));
        }
        let span = cfg.chunk_span.unwrap_or(SzhiConfig::DEFAULT_CHUNK_SPAN);
        ChunkEncoder::with_params(
            dims,
            span,
            abs_eb,
            cfg.interp.clone(),
            cfg.reorder,
            cfg.mode,
            cfg.mode_tuning.clone(),
            cfg.chunk_interp_tuning,
        )
    }

    /// Builds an encoder from fully resolved parameters (the batch engine
    /// calls this after resolving the error bound and auto-tuning on the
    /// whole field).
    #[allow(clippy::too_many_arguments)]
    fn with_params(
        dims: Dims,
        span: [usize; 3],
        abs_eb: f64,
        interp: InterpConfig,
        reorder: bool,
        mode: PipelineMode,
        mode_tuning: ModeTuning,
        chunk_interp: bool,
    ) -> Result<ChunkEncoder, SzhiError> {
        interp
            .validate()
            .map_err(|e| SzhiError::InvalidInput(e.to_string()))?;
        if !(abs_eb.is_finite() && abs_eb > 0.0) {
            return Err(SzhiError::InvalidInput(format!(
                "invalid error bound {abs_eb}"
            )));
        }
        if span.contains(&0) {
            return Err(SzhiError::InvalidInput(format!(
                "chunk span {span:?} has a zero axis"
            )));
        }
        let plan = ChunkPlan::new(dims, span);
        if !plan.is_aligned(interp.anchor_stride) {
            return Err(SzhiError::InvalidInput(format!(
                "chunk span {span:?} is not a multiple of the anchor stride {}",
                interp.anchor_stride
            )));
        }
        if plan.span().iter().any(|&s| s > u32::MAX as usize) {
            // The container stores the span as 3×u32; a silent `as u32`
            // truncation would produce a stream the reader must reject.
            return Err(SzhiError::InvalidInput(format!(
                "chunk span {:?} does not fit the container's u32 span fields",
                plan.span()
            )));
        }
        let predictor = InterpPredictor::new(interp.clone())
            .map_err(|e| SzhiError::InvalidInput(e.to_string()))?;
        // The configured mode is always the selection's first candidate:
        // it wins ties, keeping output deterministic — this is the guard
        // that lets outlier-saturated chunks, whose codes every candidate
        // compresses equally well, fall back cleanly to the configured
        // default.
        let selection = PipelineSelection::from_tuning(mode, mode_tuning);
        Ok(ChunkEncoder {
            header: Header {
                dims,
                abs_eb,
                pipeline: mode.pipeline_spec(),
                reorder,
                interp,
            },
            plan,
            predictor,
            selection,
            chunk_interp,
        })
    }

    /// Compresses chunk `index` (pure in `&self`; see
    /// [`StreamWriter::encode_chunk`]). Each encode thread reuses its own
    /// [`EncodeScratch`], so steady-state encoding allocates only the body
    /// the caller keeps.
    pub(crate) fn encode(
        &self,
        index: usize,
        chunk: &Grid<f32>,
    ) -> Result<EncodedChunk, SzhiError> {
        thread_local! {
            static SCRATCH: std::cell::RefCell<EncodeScratch> =
                std::cell::RefCell::new(EncodeScratch::default());
        }
        SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            // szhi-analyzer: allow(steady-alloc) -- this body vector is moved into the returned `EncodedChunk` and owned by the caller, so it cannot be scratch-routed; the steady-state serving path (`StreamSink::push_chunk`) goes through `encode_into` with a reused buffer instead
            let mut body = Vec::new();
            let meta = self.encode_into(index, chunk, &mut scratch, &mut body)?;
            Ok(EncodedChunk {
                index,
                pipeline: meta.pipeline,
                levels: meta.levels,
                anchors: meta.anchors,
                outliers: meta.outliers,
                payload_bytes: meta.payload_bytes,
                body,
            })
        })
    }

    /// The scratch-reusing core of [`ChunkEncoder::encode`]: compresses
    /// chunk `index` through the caller's buffers and leaves the framed
    /// chunk body in `body` (cleared first). [`StreamSink`] feeds its own
    /// scratch and body buffer through here so pushing a chunk performs no
    /// steady-state heap growth beyond the lossless payload itself.
    fn encode_into(
        &self,
        index: usize,
        chunk: &Grid<f32>,
        scratch: &mut EncodeScratch,
        body: &mut Vec<u8>,
    ) -> Result<ChunkMeta, SzhiError> {
        if index >= self.plan.len() {
            return Err(SzhiError::InvalidInput(format!(
                "chunk index {index} out of range for a plan of {} chunks",
                self.plan.len()
            )));
        }
        let expected = self.plan.chunk_dims(index);
        if chunk.dims() != expected {
            return Err(SzhiError::InvalidInput(format!(
                "chunk {index} has shape {}, the plan expects {expected}",
                chunk.dims()
            )));
        }
        let _chunk_span = crate::telemetry::ENCODE_CHUNK.enter();
        // Per-chunk interpolation tuning: score the per-level candidates
        // on this chunk's own blocks and compress with the winner (a pure
        // function of the chunk, so the tuned stream stays deterministic).
        let levels = {
            let _span = crate::telemetry::ENCODE_PREDICT.enter();
            if self.chunk_interp {
                let tuned = szhi_tuner::tune_chunk_interp(chunk, &self.header.interp);
                let predictor = InterpPredictor::new(tuned.clone())
                    .map_err(|e| SzhiError::InvalidInput(e.to_string()))?;
                predictor.compress_into(
                    chunk,
                    self.header.abs_eb,
                    &mut scratch.compress,
                    &mut scratch.output,
                );
                Some(tuned.levels)
            } else {
                self.predictor.compress_into(
                    chunk,
                    self.header.abs_eb,
                    &mut scratch.compress,
                    &mut scratch.output,
                );
                None
            }
        };
        let codes: &[u8] = if self.header.reorder {
            let _span = crate::telemetry::ENCODE_REORDER.enter();
            // szhi-analyzer: allow(steady-alloc) -- `LevelOrder::new` allocates only its (levels + 1)-entry count vector, a few dozen bytes per chunk, never a field-sized buffer
            let order = LevelOrder::new(expected, self.header.interp.anchor_stride);
            order.reorder_into(&scratch.output.codes, &mut scratch.reordered);
            &scratch.reordered
        } else {
            &scratch.output.codes
        };
        // The per-chunk mode tuner: offer the codes to the selection
        // strategy (trial-encoding or the estimator-guided shortlist) and
        // keep the smallest real payload. The fallible selector turns a
        // misconfigured (empty) candidate set into a typed error instead
        // of aborting a long-running stream.
        let (pipeline, payload) = {
            let _span = crate::telemetry::ENCODE_ENTROPY.enter();
            self.selection.select(codes)?
        };
        body.clear();
        write_sections(
            body,
            &scratch.output.anchors,
            &scratch.output.outliers,
            &payload,
        );
        Ok(ChunkMeta {
            pipeline,
            levels,
            anchors: scratch.output.anchors.len(),
            outliers: scratch.output.outliers.len(),
            payload_bytes: payload.len(),
        })
    }
}

impl StreamWriter {
    /// Creates a streaming writer for a field of shape `dims` under `cfg`,
    /// using `cfg.chunk_span` (or [`SzhiConfig::DEFAULT_CHUNK_SPAN`]) as
    /// the chunk span.
    ///
    /// Because the writer never sees the whole field, the configuration
    /// must be resolvable without it: the error bound must be
    /// [`ErrorBound::Absolute`](crate::ErrorBound::Absolute) (a relative
    /// bound needs the global value range) and whole-field auto-tuning must
    /// be disabled (`cfg.with_auto_tune(false)`; pre-tune on a
    /// representative sample with `szhi_predictor::autotune::tune` and pass
    /// the result via [`SzhiConfig::with_interp`] instead). Violations are
    /// reported as typed [`SzhiError::InvalidInput`] errors.
    pub fn new(dims: Dims, cfg: &SzhiConfig) -> Result<StreamWriter, SzhiError> {
        Ok(StreamWriter::from_encoder(ChunkEncoder::from_config(
            dims, cfg,
        )?))
    }

    /// Creates a writer from fully resolved parameters. This is the
    /// constructor the batch engine uses after resolving the error bound
    /// and auto-tuning on the whole field.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_params(
        dims: Dims,
        span: [usize; 3],
        abs_eb: f64,
        interp: InterpConfig,
        reorder: bool,
        mode: PipelineMode,
        mode_tuning: ModeTuning,
        chunk_interp: bool,
    ) -> Result<StreamWriter, SzhiError> {
        Ok(StreamWriter::from_encoder(ChunkEncoder::with_params(
            dims,
            span,
            abs_eb,
            interp,
            reorder,
            mode,
            mode_tuning,
            chunk_interp,
        )?))
    }

    fn from_encoder(enc: ChunkEncoder) -> StreamWriter {
        let n_chunks = enc.plan.len();
        StreamWriter {
            enc,
            chunks: Vec::with_capacity(n_chunks),
            configs: Vec::new(),
            anchors: 0,
            outliers: 0,
            payload_bytes: 0,
        }
    }

    /// The chunk partition the writer expects chunks in (row-major plan
    /// order).
    pub fn plan(&self) -> &ChunkPlan {
        &self.enc.plan
    }

    /// Shape of the full field being written.
    pub fn dims(&self) -> Dims {
        self.enc.header.dims
    }

    /// The absolute error bound every chunk is compressed under.
    pub fn abs_eb(&self) -> f64 {
        self.enc.header.abs_eb
    }

    /// Index of the next chunk [`StreamWriter::push_chunk`] expects.
    pub fn next_index(&self) -> usize {
        self.chunks.len()
    }

    /// The region of the original field the next pushed chunk must cover,
    /// or `None` once every chunk has been pushed.
    pub fn next_chunk_region(&self) -> Option<Region> {
        (self.chunks.len() < self.enc.plan.len()).then(|| self.enc.plan.chunk_at(self.chunks.len()))
    }

    /// Whether every chunk of the plan has been pushed.
    pub fn is_complete(&self) -> bool {
        self.chunks.len() == self.enc.plan.len()
    }

    /// Compresses chunk `index` without appending it to the stream. A pure
    /// function of `(chunk, configuration)` — callers that already hold
    /// several chunks can encode them in parallel and feed the results to
    /// [`StreamWriter::push_encoded`] in order; this is exactly what the
    /// batch engine [`crate::compress_chunked`] does.
    ///
    /// `chunk` must have the standalone shape of chunk `index`
    /// ([`ChunkPlan::chunk_dims`]); any other shape is a typed error.
    pub fn encode_chunk(&self, index: usize, chunk: &Grid<f32>) -> Result<EncodedChunk, SzhiError> {
        self.enc.encode(index, chunk)
    }

    /// Compresses the next chunk and appends it to the stream. Chunks must
    /// arrive in plan order ([`StreamWriter::next_chunk_region`] names the
    /// region the next one must cover) and carry the standalone shape of
    /// their plan slot.
    pub fn push_chunk(&mut self, chunk: &Grid<f32>) -> Result<ChunkReceipt, SzhiError> {
        if self.is_complete() {
            return Err(SzhiError::InvalidInput(format!(
                "all {} chunks have already been pushed",
                self.enc.plan.len()
            )));
        }
        let encoded = self.encode_chunk(self.chunks.len(), chunk)?;
        let receipt = ChunkReceipt {
            index: encoded.index,
            pipeline: encoded.pipeline,
            compressed_bytes: encoded.body.len(),
        };
        self.push_encoded(encoded)?;
        Ok(receipt)
    }

    /// Appends a chunk previously produced by
    /// [`StreamWriter::encode_chunk`]. Chunks must be pushed strictly in
    /// plan order; a gap or repeat is a typed error. With per-chunk
    /// interpolation tuning enabled, the chunk's configuration is interned
    /// into the config dictionary here, in push order.
    pub fn push_encoded(&mut self, chunk: EncodedChunk) -> Result<(), SzhiError> {
        if chunk.index != self.chunks.len() {
            return Err(SzhiError::InvalidInput(format!(
                "chunk {} pushed out of order: the writer expects chunk {}",
                chunk.index,
                self.chunks.len()
            )));
        }
        let config = config_id_for(&mut self.configs, chunk.levels)?;
        self.anchors += chunk.anchors;
        self.outliers += chunk.outliers;
        self.payload_bytes += chunk.payload_bytes;
        self.chunks.push((chunk.pipeline, config, chunk.body));
        Ok(())
    }

    /// Finalizes the container — streamed (v3), or tuned (v5) when
    /// per-chunk interpolation tuning is enabled. Errors if any chunk of
    /// the plan has not been pushed.
    pub fn finish(self) -> Result<Vec<u8>, SzhiError> {
        self.finish_with_stats().map(|(bytes, _)| bytes)
    }

    /// Finalizes the container and reports aggregated statistics.
    pub fn finish_with_stats(self) -> Result<(Vec<u8>, CompressionStats), SzhiError> {
        if !self.is_complete() {
            return Err(SzhiError::InvalidInput(format!(
                "cannot finalize: only {} of {} chunks were pushed",
                self.chunks.len(),
                self.enc.plan.len()
            )));
        }
        let bytes = if self.enc.chunk_interp {
            write_stream_v5(
                &self.enc.header,
                self.enc.plan.span(),
                &self.configs,
                &self.chunks,
            )
        } else {
            let chunks: Vec<(PipelineSpec, Vec<u8>)> = self
                .chunks
                .into_iter()
                .map(|(pipeline, _, body)| (pipeline, body))
                .collect();
            write_stream_v3(&self.enc.header, self.enc.plan.span(), &chunks)
        };
        let original_bytes = self.enc.header.dims.nbytes_f32();
        let stats = CompressionStats {
            original_bytes,
            compressed_bytes: bytes.len(),
            compression_ratio: original_bytes as f64 / bytes.len() as f64,
            abs_eb: self.enc.header.abs_eb,
            anchors: self.anchors,
            outliers: self.outliers,
            encoded_codes_bytes: self.payload_bytes,
        };
        Ok((bytes, stats))
    }
}

/// Incremental, bounded-memory writer of trailered (v4) containers: the
/// header goes to the backing [`io::Write`](std::io::Write) immediately,
/// every pushed chunk's body follows the moment it is encoded, and
/// [`StreamSink::finish`] appends the chunk table plus the fixed-size
/// trailer that locates it. Memory high-water is **O(one encoded chunk +
/// the chunk table)** — never O(field), and unlike [`StreamWriter`] never
/// O(compressed stream) either, so a field larger than RAM can be
/// compressed straight onto a file or socket.
///
/// The sink accepts the same streaming-safe configurations as
/// [`StreamWriter`] (absolute bound, no whole-field auto-tune) and shares
/// its chunk encoder, so the chunk bodies it emits are byte-identical to
/// the v3 writer's — only the container layout differs.
///
/// ```
/// use szhi_core::{decompress, ErrorBound, StreamSink, StreamSource, SzhiConfig};
/// use szhi_ndgrid::{Dims, Grid};
///
/// let dims = Dims::d3(40, 32, 32);
/// let cfg = SzhiConfig::new(ErrorBound::Absolute(1e-3))
///     .with_auto_tune(false)
///     .with_chunk_span([32, 32, 32]);
/// // Any io::Write works: a Vec here, a File or TcpStream in production.
/// let mut sink = StreamSink::new(Vec::new(), dims, &cfg).unwrap();
/// while let Some(region) = sink.next_chunk_region() {
///     let chunk = Grid::from_fn(region.dims(), |z, y, x| {
///         ((region.x0() + x) as f32 * 0.1).sin()
///             + (region.z0() + z + region.y0() + y) as f32 * 0.01
///     });
///     sink.push_chunk(&chunk).unwrap();
/// }
/// let bytes = sink.finish().unwrap();
/// // The trailered stream decompresses like any other container…
/// assert_eq!(decompress(&bytes).unwrap().dims(), dims);
/// // …and `StreamSource` reads it back without holding the whole stream.
/// let mut source = StreamSource::from_bytes(&bytes).unwrap();
/// assert_eq!(source.read_all().unwrap().dims(), dims);
/// ```
#[derive(Debug)]
pub struct StreamSink<W: Write> {
    out: W,
    enc: ChunkEncoder,
    /// One `(offset, len, pipeline, config_id, crc32)` record per pushed
    /// chunk — the only per-chunk state the sink retains (the config id is
    /// 0 and unused unless per-chunk interpolation tuning is on).
    entries: Vec<(u64, u64, PipelineSpec, u16, u32)>,
    /// The config dictionary of a per-chunk-interp-tuned (v5) stream,
    /// interned in push order; empty for v4 output.
    configs: Vec<Vec<LevelConfig>>,
    prefix_len: u64,
    data_written: u64,
    poisoned: bool,
    anchors: usize,
    outliers: usize,
    payload_bytes: usize,
    /// Reusable encode buffers: after the first chunk of each shape, a
    /// push writes the backing stream without growing the heap beyond the
    /// lossless payload (this is what keeps the sink's memory high-water
    /// at O(one encoded chunk + the chunk table)).
    scratch: EncodeScratch,
    body_buf: Vec<u8>,
}

impl<W: Write> StreamSink<W> {
    /// Creates a sink writing a trailered (v4) container for a field of
    /// shape `dims` under `cfg` into `out`, emitting the header and chunk
    /// span immediately. The configuration rules are those of
    /// [`StreamWriter::new`] (absolute bound, auto-tune disabled); write
    /// failures surface as [`SzhiError::Io`].
    pub fn new(out: W, dims: Dims, cfg: &SzhiConfig) -> Result<StreamSink<W>, SzhiError> {
        StreamSink::from_encoder(out, ChunkEncoder::from_config(dims, cfg)?)
    }

    fn from_encoder(mut out: W, enc: ChunkEncoder) -> Result<StreamSink<W>, SzhiError> {
        let version = if enc.chunk_interp {
            VERSION_TUNED
        } else {
            VERSION_TRAILERED
        };
        let mut prefix = Vec::new();
        format::write_header(&mut prefix, &enc.header, version);
        for s in enc.plan.span() {
            put_u32(&mut prefix, s as u32);
        }
        out.write_all(&prefix)?;
        let n_chunks = enc.plan.len();
        Ok(StreamSink {
            out,
            enc,
            entries: Vec::with_capacity(n_chunks),
            configs: Vec::new(),
            prefix_len: prefix.len() as u64,
            data_written: 0,
            poisoned: false,
            anchors: 0,
            outliers: 0,
            payload_bytes: 0,
            scratch: EncodeScratch::default(),
            body_buf: Vec::new(),
        })
    }

    /// The chunk partition the sink expects chunks in (row-major plan
    /// order).
    pub fn plan(&self) -> &ChunkPlan {
        &self.enc.plan
    }

    /// Shape of the full field being written.
    pub fn dims(&self) -> Dims {
        self.enc.header.dims
    }

    /// The absolute error bound every chunk is compressed under.
    pub fn abs_eb(&self) -> f64 {
        self.enc.header.abs_eb
    }

    /// Index of the next chunk [`StreamSink::push_chunk`] expects.
    pub fn next_index(&self) -> usize {
        self.entries.len()
    }

    /// The region of the original field the next pushed chunk must cover,
    /// or `None` once every chunk has been pushed.
    pub fn next_chunk_region(&self) -> Option<Region> {
        (self.entries.len() < self.enc.plan.len())
            .then(|| self.enc.plan.chunk_at(self.entries.len()))
    }

    /// Whether every chunk of the plan has been pushed.
    pub fn is_complete(&self) -> bool {
        self.entries.len() == self.enc.plan.len()
    }

    /// Total bytes handed to the backing writer so far (header + chunk
    /// bodies; the table and trailer are added by [`StreamSink::finish`]).
    pub fn bytes_written(&self) -> u64 {
        self.prefix_len + self.data_written
    }

    /// A reference to the backing writer.
    pub fn get_ref(&self) -> &W {
        &self.out
    }

    /// The sink's chunk encoder, detached from the backing writer so a
    /// parallel encode loop can share it across threads without requiring
    /// `W: Sync` (the job coordinator in [`crate::jobs`] uses this).
    pub(crate) fn encoder(&self) -> &ChunkEncoder {
        &self.enc
    }

    /// Compresses chunk `index` without appending it to the stream — the
    /// same pure function as [`StreamWriter::encode_chunk`], so callers can
    /// encode several chunks in parallel and feed
    /// [`StreamSink::push_encoded`] in plan order.
    pub fn encode_chunk(&self, index: usize, chunk: &Grid<f32>) -> Result<EncodedChunk, SzhiError> {
        self.enc.encode(index, chunk)
    }

    /// Compresses the next chunk and writes its body to the backing writer
    /// immediately. Chunks must arrive in plan order with the standalone
    /// shape of their plan slot ([`StreamSink::next_chunk_region`]).
    ///
    /// This path reuses the sink's own encode scratch, so after the first
    /// chunk of each shape a push performs no heap growth beyond the
    /// lossless payload itself.
    pub fn push_chunk(&mut self, chunk: &Grid<f32>) -> Result<ChunkReceipt, SzhiError> {
        self.check_poisoned()?;
        if self.is_complete() {
            return Err(SzhiError::InvalidInput(format!(
                "all {} chunks have already been pushed",
                self.enc.plan.len()
            )));
        }
        let index = self.entries.len();
        let meta = self
            .enc
            .encode_into(index, chunk, &mut self.scratch, &mut self.body_buf)?;
        let config = config_id_for(&mut self.configs, meta.levels)?;
        let crc = format::body_crc(&self.body_buf);
        if let Err(e) = self.out.write_all(&self.body_buf) {
            self.poisoned = true;
            return Err(e.into());
        }
        crate::telemetry::SINK_BYTES.bump(self.body_buf.len() as u64);
        crate::telemetry::SINK_CHUNKS.bump(1);
        self.entries.push((
            self.data_written,
            self.body_buf.len() as u64,
            meta.pipeline,
            config,
            crc,
        ));
        self.data_written += self.body_buf.len() as u64;
        self.anchors += meta.anchors;
        self.outliers += meta.outliers;
        self.payload_bytes += meta.payload_bytes;
        Ok(ChunkReceipt {
            index,
            pipeline: meta.pipeline,
            compressed_bytes: self.body_buf.len(),
        })
    }

    /// Writes a chunk previously produced by [`StreamSink::encode_chunk`]
    /// to the backing writer. Chunks must be pushed strictly in plan order;
    /// a gap or repeat is a typed error. After a write failure
    /// ([`SzhiError::Io`]) the sink is poisoned — the stream position is
    /// unknown — and every further push or finish fails.
    pub fn push_encoded(&mut self, chunk: EncodedChunk) -> Result<(), SzhiError> {
        self.check_poisoned()?;
        if chunk.index != self.entries.len() {
            return Err(SzhiError::InvalidInput(format!(
                "chunk {} pushed out of order: the sink expects chunk {}",
                chunk.index,
                self.entries.len()
            )));
        }
        let config = config_id_for(&mut self.configs, chunk.levels)?;
        let crc = format::body_crc(&chunk.body);
        if let Err(e) = self.out.write_all(&chunk.body) {
            self.poisoned = true;
            return Err(e.into());
        }
        crate::telemetry::SINK_BYTES.bump(chunk.body.len() as u64);
        crate::telemetry::SINK_CHUNKS.bump(1);
        self.entries.push((
            self.data_written,
            chunk.body.len() as u64,
            chunk.pipeline,
            config,
            crc,
        ));
        self.data_written += chunk.body.len() as u64;
        self.anchors += chunk.anchors;
        self.outliers += chunk.outliers;
        self.payload_bytes += chunk.payload_bytes;
        Ok(())
    }

    /// Finalizes the trailered (v4) container: appends the chunk table and
    /// the trailer, flushes, and returns the backing writer. Errors if any
    /// chunk of the plan has not been pushed.
    pub fn finish(self) -> Result<W, SzhiError> {
        self.finish_with_stats().map(|(out, _)| out)
    }

    /// Finalizes the container and reports aggregated statistics alongside
    /// the backing writer.
    pub fn finish_with_stats(mut self) -> Result<(W, CompressionStats), SzhiError> {
        self.check_poisoned()?;
        if !self.is_complete() {
            return Err(SzhiError::InvalidInput(format!(
                "cannot finalize: only {} of {} chunks were pushed",
                self.entries.len(),
                self.enc.plan.len()
            )));
        }
        let table_offset = self.prefix_len + self.data_written;
        let tail = if self.enc.chunk_interp {
            format::encode_table_tail_v5(table_offset, &self.configs, &self.entries)
        } else {
            let entries: Vec<(u64, u64, PipelineSpec, u32)> = self
                .entries
                .iter()
                .map(|&(offset, len, pipeline, _, crc)| (offset, len, pipeline, crc))
                .collect();
            format::encode_table_tail(table_offset, &entries)
        };
        self.out.write_all(&tail)?;
        self.out.flush()?;
        let compressed_bytes = (table_offset + tail.len() as u64) as usize;
        let original_bytes = self.enc.header.dims.nbytes_f32();
        let stats = CompressionStats {
            original_bytes,
            compressed_bytes,
            compression_ratio: original_bytes as f64 / compressed_bytes as f64,
            abs_eb: self.enc.header.abs_eb,
            anchors: self.anchors,
            outliers: self.outliers,
            encoded_codes_bytes: self.payload_bytes,
        };
        Ok((self.out, stats))
    }

    fn check_poisoned(&self) -> Result<(), SzhiError> {
        if self.poisoned {
            return Err(SzhiError::InvalidInput(
                "the sink is poisoned by an earlier write failure: the stream position is \
                 unknown, so the container cannot be completed"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Poisons the sink explicitly: every further push or finish fails with
    /// a typed error, exactly as after a write failure. A cancelled job
    /// calls this so its half-written stream — which has no chunk table or
    /// trailer — can never be finalized into something that parses.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Whether the sink has been poisoned, by a write failure or by
    /// [`StreamSink::poison`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

/// A decoded chunk: its region of the original field and the
/// reconstructed values.
type Chunk = (Region, Grid<f32>);

/// The chunk reads every reader runs over its [`ChunkIndex`]; the index
/// itself (parsing, accessors) lives in [`crate::format`].
impl ChunkIndex {
    /// The one chunk read of every reader: fetch chunk `index`'s body from
    /// `src`, verify its CRC32, then decode it with the chunk's own
    /// pipeline and interpolation configuration.
    fn read_from<F: Fetch>(&self, src: &mut F, index: usize) -> Result<Chunk, SzhiError> {
        let entry = self.entry(index)?;
        let body = src.fetch(self.body_offset(entry), entry.len as u64, "a chunk body")?;
        F::count_body(body.len());
        entry.verify(index, &body)?;
        let grid = decompress_chunk_body(
            &self.header,
            entry.pipeline,
            &self.table.chunk_interp(&self.header, index),
            self.plan.chunk_dims(index),
            &body,
        )?;
        Ok((self.plan.chunk_at(index), grid))
    }

    /// Verifies chunk `index` against its CRC32 without decoding it. v2
    /// streams carry no checksums, so for them this fetches nothing.
    fn verify_from<F: Fetch>(&self, src: &mut F, index: usize) -> Result<(), SzhiError> {
        let entry = self.entry(index)?;
        if entry.checksum.is_none() {
            return Ok(());
        }
        let body = src.fetch(self.body_offset(entry), entry.len as u64, "a chunk body")?;
        F::count_body(body.len());
        entry.verify(index, &body)
    }

    /// The stream offset of a chunk body. Saturating: a forward source
    /// checks extents against an unbounded data area, so an absurd offset
    /// must fail as a short read, not overflow.
    fn body_offset(&self, entry: &ChunkEntry) -> u64 {
        (self.table.data_start as u64).saturating_add(entry.offset as u64)
    }
}

/// Assembles decoded chunks into the full field, stopping at the first
/// error.
fn assemble<I>(dims: Dims, chunks: I) -> Result<Grid<f32>, SzhiError>
where
    I: IntoIterator<Item = Result<Chunk, SzhiError>>,
{
    let mut out = Grid::zeros(dims);
    for chunk in chunks {
        let (region, sub) = chunk?;
        out.insert(&region, sub.as_slice());
    }
    Ok(out)
}

/// Lazy, checksum-verifying reader of chunk-bearing containers (v2–v5)
/// held in memory: the zero-copy fetch strategy over a [`ChunkIndex`].
///
/// Construction parses and validates the header and chunk table only
/// (located behind the data area via the trailer for v4/v5); chunk bodies
/// are borrowed from the slice and decoded on demand, through `&self`, so
/// [`StreamReader::read_all`] decodes chunks in parallel. Every v3+ chunk
/// is verified against its CRC32 first, so corrupted bytes are rejected
/// ([`SzhiError::ChunkChecksum`]) before any lossless decoder runs. To
/// read a stream without holding it in memory, use [`StreamSource`].
///
/// ```
/// use szhi_core::{compress_chunked, ErrorBound, StreamReader, SzhiConfig};
/// use szhi_ndgrid::{Dims, Grid};
///
/// let field = Grid::from_fn(Dims::d3(40, 32, 32), |z, y, x| {
///     ((x + y) as f32 * 0.1).sin() + z as f32 * 0.02
/// });
/// let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3));
/// let bytes = compress_chunked(&field, &cfg, [32, 32, 32]).unwrap();
///
/// let reader = StreamReader::new(&bytes).unwrap();
/// assert_eq!(reader.chunk_count(), 2);
/// // Iterate decoded chunks lazily, one sub-field at a time…
/// for chunk in reader.chunks() {
///     let (region, sub) = chunk.unwrap();
///     assert_eq!(sub.len(), region.len());
/// }
/// // …or drain eagerly, fanning out across worker threads.
/// assert_eq!(reader.read_all().unwrap().dims(), field.dims());
/// ```
#[derive(Debug)]
pub struct StreamReader<'a> {
    bytes: &'a [u8],
    index: ChunkIndex,
}

impl<'a> StreamReader<'a> {
    /// Parses and validates the header and chunk table of a chunked (v2),
    /// streamed (v3), trailered (v4) or tuned (v5) container. Monolithic
    /// (v1) streams have no chunk table and are rejected with a clear typed
    /// error — decode those with [`crate::decompress`]; unknown future
    /// versions are rejected as unsupported.
    pub fn new(bytes: &'a [u8]) -> Result<StreamReader<'a>, SzhiError> {
        let index = format::parse_chunk_table(&mut Slice(bytes))?;
        Ok(StreamReader { bytes, index })
    }

    /// Verifies chunk `index` against its recorded CRC32 without decoding
    /// it (a no-op returning `Ok` for v2 streams, which carry no
    /// checksums).
    pub fn verify_chunk(&self, index: usize) -> Result<(), SzhiError> {
        self.index.verify_from(&mut Slice(self.bytes), index)
    }

    /// Decodes chunk `index`: verifies its checksum, then reconstructs the
    /// sub-field it covers. Returns the chunk's region of the original
    /// field and the reconstructed values.
    pub fn read_chunk(&self, index: usize) -> Result<(Region, Grid<f32>), SzhiError> {
        self.index.read_from(&mut Slice(self.bytes), index)
    }

    /// Iterates over the decoded chunks **lazily**, in plan order: each
    /// chunk is verified and decoded only when the iterator is advanced,
    /// so a consumer holds one reconstructed sub-field at a time.
    pub fn chunks(&self) -> impl Iterator<Item = Result<(Region, Grid<f32>), SzhiError>> + '_ {
        (0..self.chunk_count()).map(move |i| self.read_chunk(i))
    }

    /// Decodes every chunk **eagerly**, fanning the work out across the
    /// worker threads, and writes each chunk into the full field the
    /// moment it is decoded: besides the field, at most one decoded chunk
    /// per worker is alive. On failure the first error in plan order is
    /// returned.
    pub fn read_all(&self) -> Result<Grid<f32>, SzhiError> {
        let field = Mutex::new(Grid::zeros(self.dims()));
        let errors: Vec<Option<SzhiError>> = (0..self.chunk_count())
            .into_par_iter()
            .map(|i| match self.read_chunk(i) {
                Ok((region, sub)) => {
                    field
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(&region, sub.as_slice());
                    None
                }
                Err(e) => Some(e),
            })
            .collect();
        match errors.into_iter().flatten().next() {
            Some(e) => Err(e),
            None => Ok(field.into_inner().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

impl Deref for StreamReader<'_> {
    type Target = ChunkIndex;

    fn deref(&self) -> &ChunkIndex {
        &self.index
    }
}

/// The seek fetch strategy: one seek plus one read of exactly the
/// requested bytes per fetch, bounded by the stream length measured at
/// open.
#[derive(Debug)]
struct Seekable<R> {
    reader: R,
    len: u64,
}

impl<R: Read + Seek> Fetch for Seekable<R> {
    fn fetch(&mut self, at: u64, len: u64, what: &str) -> Result<Cow<'_, [u8]>, SzhiError> {
        if at.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(SzhiError::Io(format!(
                "reading {what}: {len} bytes at offset {at} run past the {}-byte stream",
                self.len
            )));
        }
        self.reader
            .seek(SeekFrom::Start(at))
            .map_err(|e| SzhiError::Io(format!("seeking to {what}: {e}")))?;
        let mut buf = vec![0u8; len as usize];
        self.reader
            .read_exact(&mut buf)
            .map_err(|e| SzhiError::Io(format!("reading {what}: {e}")))?;
        Ok(Cow::Owned(buf))
    }

    fn known_len(&self) -> Option<u64> {
        Some(self.len)
    }

    fn drain_len(&mut self) -> Result<u64, SzhiError> {
        Ok(self.len)
    }

    fn count_body(len: usize) {
        crate::telemetry::SOURCE_BYTES.bump(len as u64);
        crate::telemetry::SOURCE_CHUNKS.bump(1);
    }
}

/// Bounded-memory reader of chunked containers behind any
/// [`io::Read`](std::io::Read)` + `[`io::Seek`](std::io::Seek) — a
/// [`File`](std::fs::File), a [`Cursor`](std::io::Cursor) over bytes, or
/// anything else seekable: the seek fetch strategy over a [`ChunkIndex`].
///
/// Construction reads and validates only the header and the chunk table:
/// for trailered (v4) and tuned (v5) containers the fixed-size trailer at
/// the end of the stream locates the table region (whose bytes are
/// verified against the trailer's CRC32 before any entry is parsed); for
/// chunked (v2) and streamed (v3) containers the table sits directly after
/// the header. Chunk bodies are then fetched with one seek + bounded read
/// each and verified against their CRC32 (v3+) *before* any lossless
/// decoder sees them — the same discipline as [`StreamReader`], without
/// ever holding more than one compressed chunk in memory. Monolithic (v1)
/// streams and unknown future versions are rejected with clear typed
/// errors.
///
/// ```
/// use std::io::Cursor;
/// use szhi_core::{compress, ErrorBound, StreamSource, SzhiConfig};
/// use szhi_ndgrid::{Dims, Grid};
///
/// let field = Grid::from_fn(Dims::d3(40, 32, 32), |z, y, x| {
///     ((x + y) as f32 * 0.1).sin() + z as f32 * 0.02
/// });
/// let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_chunk_span([32, 32, 32]);
/// let bytes = compress(&field, &cfg).unwrap();
///
/// // In production the reader is a File; a Cursor works the same way.
/// let mut source = StreamSource::new(Cursor::new(&bytes[..])).unwrap();
/// assert_eq!(source.chunk_count(), 2);
/// for chunk in source.chunks() {
///     let (region, sub) = chunk.unwrap();
///     assert_eq!(sub.len(), region.len());
/// }
/// ```
#[derive(Debug)]
pub struct StreamSource<R> {
    src: Seekable<R>,
    index: ChunkIndex,
}

impl<'a> StreamSource<std::io::Cursor<&'a [u8]>> {
    /// Convenience constructor over an in-memory stream.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, SzhiError> {
        StreamSource::new(std::io::Cursor::new(bytes))
    }
}

impl<R: Read + Seek> StreamSource<R> {
    /// Opens a chunked (v2), streamed (v3), trailered (v4) or tuned (v5)
    /// container, reading and validating the header and chunk table only.
    pub fn new(mut reader: R) -> Result<StreamSource<R>, SzhiError> {
        let len = reader
            .seek(SeekFrom::End(0))
            .map_err(|e| SzhiError::Io(format!("seeking to the stream end: {e}")))?;
        let mut src = Seekable { reader, len };
        let index = format::parse_chunk_table(&mut src)?;
        Ok(StreamSource { src, index })
    }

    /// Verifies chunk `index` against its recorded CRC32 without decoding
    /// it. v2 streams carry no checksums, so for them this is a true no-op
    /// returning `Ok` — no seek, no read.
    pub fn verify_chunk(&mut self, index: usize) -> Result<(), SzhiError> {
        self.index.verify_from(&mut self.src, index)
    }

    /// Decodes chunk `index`: reads its body from the backing reader,
    /// verifies the checksum, then reconstructs the sub-field it covers.
    /// Returns the chunk's region of the original field and the
    /// reconstructed values.
    pub fn read_chunk(&mut self, index: usize) -> Result<(Region, Grid<f32>), SzhiError> {
        self.index.read_from(&mut self.src, index)
    }

    /// Iterates over the decoded chunks **lazily**, in plan order: each
    /// chunk is read, verified and decoded only when the iterator is
    /// advanced, so one compressed body and one reconstructed sub-field
    /// are in memory at a time.
    pub fn chunks(&mut self) -> impl Iterator<Item = Result<(Region, Grid<f32>), SzhiError>> + '_ {
        (0..self.chunk_count()).map(move |i| self.read_chunk(i))
    }

    /// Decodes every chunk sequentially and assembles the full field.
    /// (Reads from one seekable source are inherently serial; decode the
    /// stream via [`StreamReader::read_all`] instead if it is already in
    /// memory and parallel decode matters.)
    pub fn read_all(&mut self) -> Result<Grid<f32>, SzhiError> {
        assemble(self.dims(), self.chunks())
    }

    /// Consumes the source, returning the backing reader.
    pub fn into_inner(self) -> R {
        self.src.reader
    }
}

impl<R> Deref for StreamSource<R> {
    type Target = ChunkIndex;

    fn deref(&self) -> &ChunkIndex {
        &self.index
    }
}

/// Reads exactly `n` bytes from a forward-only reader **without trusting
/// `n` for the allocation**: the buffer grows only with bytes actually
/// present, so a corrupt length field fails as a typed error once the
/// stream runs dry — never as an allocation blowup.
fn read_exact_untrusted<R: Read>(reader: &mut R, n: u64, what: &str) -> Result<Vec<u8>, SzhiError> {
    let mut buf = Vec::new();
    reader
        .take(n)
        .read_to_end(&mut buf)
        .map_err(|e| SzhiError::Io(format!("reading {what}: {e}")))?;
    if (buf.len() as u64) != n {
        return Err(SzhiError::Io(format!(
            "reading {what}: the stream ended after {} of {n} bytes",
            buf.len()
        )));
    }
    Ok(buf)
}

/// The forward fetch strategy over a reader that cannot seek. Fetches must
/// come in stream order: the bytes before each fetch are discarded (the gap
/// between two chunk bodies, which a seekable source would seek over).
/// Draining to EOF ([`Fetch::drain_len`]) buffers the rest of the stream,
/// which every later fetch then borrows from.
#[derive(Debug)]
struct Forward<R> {
    reader: R,
    /// Stream offset of the next byte `reader` yields.
    pos: u64,
    /// Everything from `pos` to EOF, once drained.
    rest: Option<Vec<u8>>,
}

impl<R: Read> Fetch for Forward<R> {
    fn fetch(&mut self, at: u64, len: u64, what: &str) -> Result<Cow<'_, [u8]>, SzhiError> {
        let behind = at.checked_sub(self.pos).ok_or_else(|| {
            SzhiError::Io(format!(
                "reading {what}: offset {at} is behind the forward position {}",
                self.pos
            ))
        })?;
        if let Some(rest) = &self.rest {
            return Slice(rest).bytes_at(behind, len, what).map(Cow::Borrowed);
        }
        let skipped = std::io::copy(&mut (&mut self.reader).take(behind), &mut std::io::sink())
            .map_err(|e| SzhiError::Io(format!("skipping to {what}: {e}")))?;
        if skipped != behind {
            return Err(SzhiError::Io(format!(
                "skipping to {what}: the stream ended after {skipped} of {behind} bytes"
            )));
        }
        self.pos = at;
        let bytes = read_exact_untrusted(&mut self.reader, len, what)?;
        self.pos += len;
        Ok(Cow::Owned(bytes))
    }

    fn known_len(&self) -> Option<u64> {
        self.rest.as_ref().map(|rest| self.pos + rest.len() as u64)
    }

    fn drain_len(&mut self) -> Result<u64, SzhiError> {
        let mut rest = self.rest.take().unwrap_or_default();
        self.reader
            .read_to_end(&mut rest)
            .map_err(|e| SzhiError::Io(format!("reading a trailered stream to its end: {e}")))?;
        let len = self.pos + rest.len() as u64;
        self.rest = Some(rest);
        Ok(len)
    }

    fn count_body(len: usize) {
        crate::telemetry::FORWARD_BYTES.bump(len as u64);
        crate::telemetry::FORWARD_CHUNKS.bump(1);
    }
}

/// Forward-only reader of chunked containers (v2–v5) over any
/// [`io::Read`](std::io::Read) — **no `Seek` required** — so a compressed
/// stream can be decoded straight off a pipe, a socket, or `stdin`: the
/// forward fetch strategy over a [`ChunkIndex`].
///
/// Chunks are decoded strictly in offset order (which for streams written
/// by this workspace is plan order). For v2/v3 containers, whose chunk
/// table precedes the data area, decoding is truly incremental: one
/// compressed body and one reconstructed sub-field in memory at a time.
/// For trailered v4/v5 containers the table and trailer live at the end of
/// the stream, so no chunk's pipeline, config or checksum is known until
/// the stream ends: the source buffers the remainder to EOF first (memory
/// high-water O(compressed stream); see [`StreamSource`] for the seekable
/// bounded-memory path) and validates table + trailer in the same order as
/// every other reader, then every chunk body is still verified against its
/// CRC32 before any lossless decoder touches it.
///
/// ```
/// use szhi_core::{compress, decompress, ErrorBound, ForwardSource, SzhiConfig};
/// use szhi_ndgrid::{Dims, Grid};
///
/// let field = Grid::from_fn(Dims::d3(40, 32, 32), |z, y, x| {
///     ((x + y) as f32 * 0.1).sin() + z as f32 * 0.02
/// });
/// let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_chunk_span([32, 32, 32]);
/// let bytes = compress(&field, &cfg).unwrap();
///
/// // A plain `&[u8]` implements `Read` but not `Seek` — the forward
/// // source decodes it anyway, identically to `decompress`.
/// let mut source = ForwardSource::new(&bytes[..]).unwrap();
/// let restored = source.read_all().unwrap();
/// assert_eq!(restored.as_slice(), decompress(&bytes).unwrap().as_slice());
/// ```
#[derive(Debug)]
pub struct ForwardSource<R> {
    src: Forward<R>,
    index: ChunkIndex,
    next: usize,
}

impl<R: Read> ForwardSource<R> {
    /// Opens a chunked (v2), streamed (v3), trailered (v4) or tuned (v5)
    /// container over a forward-only reader. Monolithic (v1) streams and
    /// unknown future versions are rejected with clear typed errors.
    ///
    /// For v2/v3 this reads and validates the header and leading chunk
    /// table only; for v4/v5 it consumes the reader to EOF (see the type
    /// docs for why) and validates the trailing table before returning.
    pub fn new(reader: R) -> Result<ForwardSource<R>, SzhiError> {
        let mut src = Forward {
            reader,
            pos: 0,
            rest: None,
        };
        let index = format::parse_chunk_table(&mut src)?;
        Ok(ForwardSource {
            src,
            index,
            next: 0,
        })
    }

    /// Index of the next chunk [`ForwardSource::next_chunk`] will decode.
    pub fn next_index(&self) -> usize {
        self.next
    }

    /// Decodes the next chunk in offset order: its region of the original
    /// field plus the reconstructed sub-field, or `None` once every chunk
    /// has been decoded. The chunk's CRC32 (v3+) is verified before any
    /// lossless decoder touches the bytes.
    ///
    /// A forward source cannot rewind, so an error consumes the chunk like
    /// a success: after a checksum or decode failure the stream position
    /// is still consistent (the body was fully consumed) and the next call
    /// moves on to the following chunk; after an I/O failure every later
    /// body read reports a typed I/O error of its own.
    #[allow(clippy::should_implement_trait)]
    pub fn next_chunk(&mut self) -> Option<Result<(Region, Grid<f32>), SzhiError>> {
        if self.next >= self.chunk_count() {
            return None;
        }
        let index = self.next;
        self.next += 1;
        Some(self.index.read_from(&mut self.src, index))
    }

    /// Iterates over the remaining decoded chunks in offset order, lazily:
    /// one compressed body and one reconstructed sub-field in memory at a
    /// time (for v2/v3; buffered v4/v5 streams hold the compressed bytes
    /// until the source is dropped).
    pub fn chunks(&mut self) -> impl Iterator<Item = Result<(Region, Grid<f32>), SzhiError>> + '_ {
        std::iter::from_fn(move || self.next_chunk())
    }

    /// Decodes every remaining chunk and assembles the full field (regions
    /// already consumed by [`ForwardSource::next_chunk`] stay zero). On a
    /// fresh source this reconstructs the whole field, identically to
    /// [`crate::decompress`].
    pub fn read_all(&mut self) -> Result<Grid<f32>, SzhiError> {
        assemble(self.dims(), self.chunks())
    }
}

impl<R> Deref for ForwardSource<R> {
    type Target = ChunkIndex;

    fn deref(&self) -> &ChunkIndex {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{compress_chunked, decompress};
    use crate::config::ErrorBound;
    use crate::format::{stream_version, VERSION_STREAMED};
    use szhi_datagen::DatasetKind;

    /// A streaming-safe configuration: absolute bound, no whole-field
    /// auto-tune.
    fn stream_cfg(span: [usize; 3]) -> SzhiConfig {
        SzhiConfig::new(ErrorBound::Absolute(2e-3))
            .with_auto_tune(false)
            .with_chunk_span(span)
    }

    fn push_all(writer: &mut StreamWriter, data: &Grid<f32>) -> Vec<ChunkReceipt> {
        let mut receipts = Vec::new();
        while let Some(region) = writer.next_chunk_region() {
            let dims = writer.plan().chunk_dims(writer.next_index());
            let sub = Grid::from_vec(dims, data.extract(&region));
            receipts.push(writer.push_chunk(&sub).unwrap());
        }
        receipts
    }

    #[test]
    fn pushing_chunks_matches_the_batch_engine_byte_for_byte() {
        let data = DatasetKind::Miranda.generate(Dims::d3(48, 40, 36), 21);
        let cfg = stream_cfg([16, 16, 16]);
        let batch = compress_chunked(&data, &cfg, [16, 16, 16]).unwrap();

        let mut writer = StreamWriter::new(data.dims(), &cfg).unwrap();
        assert_eq!(writer.next_index(), 0);
        let receipts = push_all(&mut writer, &data);
        assert!(writer.is_complete());
        assert_eq!(receipts.len(), writer.plan().len());
        let (streamed, stats) = writer.finish_with_stats().unwrap();

        assert_eq!(
            streamed, batch,
            "streamed and batch outputs must be identical"
        );
        assert_eq!(stream_version(&streamed).unwrap(), VERSION_STREAMED);
        assert_eq!(stats.compressed_bytes, streamed.len());
        assert_eq!(
            receipts.iter().map(|r| r.index).collect::<Vec<_>>(),
            (0..receipts.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn writer_rejects_streaming_hostile_configs() {
        let dims = Dims::d3(32, 32, 32);
        // Relative bound: needs the global value range.
        let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_auto_tune(false);
        assert!(matches!(
            StreamWriter::new(dims, &cfg),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("relative")
        ));
        // Whole-field auto-tune.
        let cfg = SzhiConfig::new(ErrorBound::Absolute(1e-3));
        assert!(matches!(
            StreamWriter::new(dims, &cfg),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("auto-tune")
        ));
        // Misaligned span.
        let cfg = stream_cfg([12, 16, 16]);
        assert!(StreamWriter::new(dims, &cfg).is_err());
    }

    #[test]
    fn writer_enforces_chunk_order_shape_and_completeness() {
        let data = DatasetKind::Nyx.generate(Dims::d3(32, 32, 32), 5);
        let cfg = stream_cfg([16, 16, 16]);
        let mut writer = StreamWriter::new(data.dims(), &cfg).unwrap();
        assert_eq!(writer.plan().len(), 8);

        // Wrong shape: chunk 0 expects 16³.
        let wrong = Grid::zeros(Dims::d3(8, 16, 16));
        assert!(matches!(
            writer.push_chunk(&wrong),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("shape")
        ));

        // Out-of-order push of a pre-encoded chunk.
        let region = writer.plan().chunk_at(3);
        let sub = Grid::from_vec(region.dims(), data.extract(&region));
        let encoded = writer.encode_chunk(3, &sub).unwrap();
        assert_eq!(encoded.index(), 3);
        assert!(encoded.compressed_bytes() > 0);
        assert!(matches!(
            writer.push_encoded(encoded),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("out of order")
        ));

        // Finishing early must fail with a typed error.
        let region = writer.plan().chunk_at(0);
        let sub = Grid::from_vec(region.dims(), data.extract(&region));
        writer.push_chunk(&sub).unwrap();
        assert!(matches!(
            writer.finish(),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("1 of 8")
        ));
    }

    #[test]
    fn reader_iterates_lazily_and_drains_eagerly() {
        let data = DatasetKind::Rtm.generate(Dims::d3(40, 40, 24), 13);
        let cfg = stream_cfg([16, 16, 16]);
        let mut writer = StreamWriter::new(data.dims(), &cfg).unwrap();
        push_all(&mut writer, &data);
        let bytes = writer.finish().unwrap();

        let reader = StreamReader::new(&bytes).unwrap();
        assert_eq!(reader.dims(), data.dims());
        assert_eq!(reader.chunk_count(), 3 * 3 * 2);
        let mut covered = 0usize;
        for (i, chunk) in reader.chunks().enumerate() {
            let (region, sub) = chunk.unwrap();
            assert_eq!(region, reader.chunk_region(i));
            assert_eq!(sub.len(), region.len());
            reader.verify_chunk(i).unwrap();
            for (a, b) in data.extract(&region).iter().zip(sub.as_slice()) {
                assert!(((*a as f64) - (*b as f64)).abs() <= 2e-3 + 1e-12);
            }
            covered += region.len();
        }
        assert_eq!(covered, data.dims().len());

        let eager = reader.read_all().unwrap();
        assert_eq!(eager.dims(), data.dims());
        assert_eq!(eager.as_slice(), decompress(&bytes).unwrap().as_slice());
        assert!(reader.read_chunk(reader.chunk_count()).is_err());
        assert!(reader.chunk_pipeline(reader.chunk_count()).is_err());
        assert!(reader.chunk_interp(reader.chunk_count()).is_err());
    }

    /// An `io::Write` that swallows `fail_after` writes, then fails every
    /// subsequent one — for exercising the sink's poisoning discipline.
    struct FailAfter(usize);

    impl std::io::Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.0 == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            self.0 -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_emits_v4_with_the_same_chunks_as_the_v3_writer() {
        let data = DatasetKind::Miranda.generate(Dims::d3(48, 40, 36), 21);
        let cfg = stream_cfg([16, 16, 16]);
        let v3 = compress_chunked(&data, &cfg, [16, 16, 16]).unwrap();

        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        assert_eq!(sink.next_index(), 0);
        assert_eq!(sink.dims(), data.dims());
        assert!(sink.abs_eb() > 0.0);
        while let Some(region) = sink.next_chunk_region() {
            let dims = sink.plan().chunk_dims(sink.next_index());
            let sub = Grid::from_vec(dims, data.extract(&region));
            sink.push_chunk(&sub).unwrap();
        }
        assert!(sink.is_complete());
        let (v4, stats) = sink.finish_with_stats().unwrap();
        assert_eq!(
            stream_version(&v4).unwrap(),
            crate::format::VERSION_TRAILERED
        );
        assert_eq!(stats.compressed_bytes, v4.len());

        // The sink shares the v3 writer's chunk encoder: rebuilding a v4
        // container from the v3 stream's bodies and pipelines reproduces
        // the sink's bytes exactly.
        let (header, table) = crate::format::read_chunk_table(&v3).unwrap();
        let chunks: Vec<(PipelineSpec, Vec<u8>)> = (0..table.entries.len())
            .map(|i| {
                (
                    table.entries[i].pipeline,
                    table.chunk_slice(&v3, i).to_vec(),
                )
            })
            .collect();
        let rebuilt = crate::format::write_stream_v4(&header, table.span, &chunks);
        assert_eq!(v4, rebuilt, "sink bytes must match write_stream_v4");

        // And the trailered stream decompresses bit-identically to the v3
        // stream through every reader.
        let from_v3 = decompress(&v3).unwrap();
        let from_v4 = decompress(&v4).unwrap();
        assert_eq!(from_v3.as_slice(), from_v4.as_slice());
        let reader = StreamReader::new(&v4).unwrap();
        assert_eq!(reader.read_all().unwrap().as_slice(), from_v4.as_slice());
        let mut source = StreamSource::from_bytes(&v4).unwrap();
        assert_eq!(source.version(), crate::format::VERSION_TRAILERED);
        assert_eq!(source.read_all().unwrap().as_slice(), from_v4.as_slice());
    }

    #[test]
    fn sink_enforces_order_shape_completeness_and_poisoning() {
        let data = DatasetKind::Nyx.generate(Dims::d3(32, 32, 32), 5);
        let cfg = stream_cfg([16, 16, 16]);
        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        assert_eq!(sink.plan().len(), 8);

        // Wrong shape.
        let wrong = Grid::zeros(Dims::d3(8, 16, 16));
        assert!(matches!(
            sink.push_chunk(&wrong),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("shape")
        ));

        // Out-of-order push of a pre-encoded chunk.
        let region = sink.plan().chunk_at(3);
        let sub = Grid::from_vec(region.dims(), data.extract(&region));
        let encoded = sink.encode_chunk(3, &sub).unwrap();
        assert!(matches!(
            sink.push_encoded(encoded),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("out of order")
        ));

        // Finishing early.
        let region = sink.plan().chunk_at(0);
        let sub = Grid::from_vec(region.dims(), data.extract(&region));
        sink.push_chunk(&sub).unwrap();
        assert!(matches!(
            sink.finish(),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("1 of 8")
        ));

        // Streaming-hostile configs are rejected like the v3 writer's.
        let relative = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_auto_tune(false);
        assert!(matches!(
            StreamSink::new(Vec::new(), data.dims(), &relative),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("relative")
        ));

        // A failed write poisons the sink: the error is typed Io, and every
        // further push or finish reports the poisoning.
        let mut sink = StreamSink::new(FailAfter(1), data.dims(), &cfg).unwrap();
        let region = sink.plan().chunk_at(0);
        let sub = Grid::from_vec(region.dims(), data.extract(&region));
        assert!(matches!(sink.push_chunk(&sub), Err(SzhiError::Io(_))));
        assert!(matches!(
            sink.push_chunk(&sub),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("poisoned")
        ));
        assert!(matches!(
            sink.finish(),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("poisoned")
        ));
    }

    #[test]
    fn source_reads_every_chunked_version_like_the_slice_reader() {
        let data = DatasetKind::Rtm.generate(Dims::d3(40, 40, 24), 13);
        let cfg = stream_cfg([16, 16, 16]);
        let v3 = compress_chunked(&data, &cfg, [16, 16, 16]).unwrap();
        // Reassemble v2 and v4 containers carrying the same chunk bodies.
        let (header, table) = crate::format::read_chunk_table(&v3).unwrap();
        let bodies: Vec<Vec<u8>> = (0..table.entries.len())
            .map(|i| table.chunk_slice(&v3, i).to_vec())
            .collect();
        let chunks: Vec<(PipelineSpec, Vec<u8>)> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| (table.entries[i].pipeline, b.clone()))
            .collect();
        let v2 = crate::format::write_stream_v2(&header, table.span, &bodies);
        let v4 = crate::format::write_stream_v4(&header, table.span, &chunks);

        let expect = decompress(&v3).unwrap();
        for (version, bytes) in [(2u8, &v2), (3, &v3), (4, &v4)] {
            let mut source = StreamSource::from_bytes(bytes).unwrap();
            assert_eq!(source.version(), version, "v{version}");
            assert_eq!(source.dims(), data.dims());
            assert_eq!(source.span(), table.span);
            assert_eq!(source.chunk_count(), table.entries.len());
            assert_eq!(source.header().pipeline, header.pipeline);
            for i in 0..source.chunk_count() {
                source.verify_chunk(i).unwrap();
                assert_eq!(source.chunk_pipeline(i).unwrap(), table.entries[i].pipeline);
                assert_eq!(source.chunk_region(i), source.plan().chunk_at(i));
            }
            let mut covered = 0usize;
            for chunk in source.chunks() {
                let (region, sub) = chunk.unwrap();
                assert_eq!(sub.len(), region.len());
                covered += region.len();
            }
            assert_eq!(covered, data.dims().len());
            assert_eq!(
                source.read_all().unwrap().as_slice(),
                expect.as_slice(),
                "v{version} source disagrees with decompress"
            );
            assert!(source.read_chunk(source.chunk_count()).is_err());
            assert!(source.chunk_pipeline(source.chunk_count()).is_err());
            assert!(source.chunk_interp(source.chunk_count()).is_err());
            let _ = source.into_inner();
        }
    }

    #[test]
    fn reader_and_source_reject_v1_and_unknown_versions_clearly() {
        let data = DatasetKind::Nyx.generate(Dims::d3(20, 20, 20), 2);
        let v1 = crate::compressor::compress(&data, &SzhiConfig::new(ErrorBound::Relative(1e-2)))
            .unwrap();
        assert_eq!(stream_version(&v1).unwrap(), crate::format::VERSION);
        let mut v6 = compress_chunked(&data, &stream_cfg([16, 16, 16]), [16, 16, 16]).unwrap();
        v6[4] = 6;

        // v1: named monolithic, pointed at `decompress` — not a confusing
        // chunk-table parse failure.
        for result in [
            StreamReader::new(&v1).err(),
            StreamSource::from_bytes(&v1).err(),
        ] {
            match result {
                Some(SzhiError::InvalidStream(msg)) => {
                    assert!(msg.contains("monolithic"), "unexpected message: {msg}");
                    assert!(msg.contains("decompress"), "unexpected message: {msg}");
                }
                other => panic!("v1 not rejected clearly: {other:?}"),
            }
        }
        // v6: named unsupported, with the version number.
        for result in [
            StreamReader::new(&v6).err(),
            StreamSource::from_bytes(&v6).err(),
        ] {
            match result {
                Some(SzhiError::InvalidStream(msg)) => {
                    assert!(msg.contains("unsupported"), "unexpected message: {msg}");
                    assert!(msg.contains('6'), "unexpected message: {msg}");
                }
                other => panic!("v6 not rejected clearly: {other:?}"),
            }
        }
    }

    #[test]
    fn per_chunk_tuning_never_loses_to_a_global_mode_even_at_tight_bounds() {
        // Regression for the eb-sensitivity PR 3 noted: at tight bounds the
        // noisy half's codes saturate into outliers and both pipelines see
        // similar inputs, so per-chunk selection may stop *winning* — but
        // because every chunk independently keeps the smaller of the two
        // payloads (ties falling back to the configured default), the tuned
        // stream must never be *larger* than the best global mode. The
        // container overhead is identical (v3 entries are fixed-size), so
        // the guarantee is exact, not approximate.
        let data = szhi_datagen::mixed_smooth_noisy(Dims::d3(32, 32, 64));
        let span = [32, 32, 32];
        for abs_eb in [2e-3, 1e-5, 1e-7] {
            let base = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
                .with_auto_tune(false)
                .with_chunk_span(span);
            let cr =
                compress_chunked(&data, &base.clone().with_mode(PipelineMode::Cr), span).unwrap();
            let tp =
                compress_chunked(&data, &base.clone().with_mode(PipelineMode::Tp), span).unwrap();
            let tuned = compress_chunked(
                &data,
                &base.clone().with_mode_tuning(ModeTuning::PerChunk),
                span,
            )
            .unwrap();
            assert!(
                tuned.len() <= cr.len() && tuned.len() <= tp.len(),
                "eb {abs_eb:e}: per-chunk ({} B) larger than global CR ({} B) or TP ({} B)",
                tuned.len(),
                cr.len(),
                tp.len()
            );
            // The clean-fallback guard: if saturation pushed every chunk to
            // the default (CR) mode, the tuned stream must be byte-identical
            // to the global default stream — no stray mode bytes, no size
            // drift.
            let reader = StreamReader::new(&tuned).unwrap();
            let all_default = (0..reader.chunk_count())
                .all(|i| reader.chunk_pipeline(i).unwrap() == PipelineSpec::CR);
            if all_default {
                assert_eq!(
                    tuned, cr,
                    "eb {abs_eb:e}: all-default tuned stream must equal CR"
                );
            }
            // And the stream still honours the bound.
            let recon = decompress(&tuned).unwrap();
            for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
                assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12);
            }
        }
    }

    #[test]
    fn per_chunk_interp_tuning_emits_a_v5_stream_that_roundtrips_everywhere() {
        // The acceptance contract of the tuned (v5) container: with
        // per-chunk interpolation tuning (and estimator-guided pipeline
        // selection) enabled, the batch engine, the incremental writer and
        // the io-backed sink all emit the same v5 bytes, and the stream
        // decodes bit-identically through `decompress`, `StreamReader`
        // and `StreamSource`, honouring the error bound.
        let data = szhi_datagen::mixed_smooth_noisy(Dims::d3(32, 32, 64));
        let abs_eb = 2e-3;
        let cfg = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
            .with_auto_tune(false)
            .with_chunk_span([32, 32, 32])
            .with_mode_tuning(ModeTuning::estimated())
            .with_chunk_interp_tuning(true);

        let batch = compress_chunked(&data, &cfg, [32, 32, 32]).unwrap();
        assert_eq!(stream_version(&batch).unwrap(), VERSION_TUNED);

        // Incremental writer: same bytes.
        let mut writer = StreamWriter::new(data.dims(), &cfg).unwrap();
        push_all(&mut writer, &data);
        let streamed = writer.finish().unwrap();
        assert_eq!(streamed, batch, "writer must match the batch engine");

        // io-backed sink: same bytes again (the v5 tail is identical).
        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        while let Some(region) = sink.next_chunk_region() {
            let dims = sink.plan().chunk_dims(sink.next_index());
            sink.push_chunk(&Grid::from_vec(dims, data.extract(&region)))
                .unwrap();
        }
        let sunk = sink.finish().unwrap();
        assert_eq!(sunk, batch, "sink must match the batch engine");

        // Every reader agrees bit-for-bit and the bound holds.
        let from_decompress = decompress(&batch).unwrap();
        let reader = StreamReader::new(&batch).unwrap();
        assert_eq!(
            reader.read_all().unwrap().as_slice(),
            from_decompress.as_slice()
        );
        let mut source = StreamSource::from_bytes(&batch).unwrap();
        assert_eq!(source.version(), VERSION_TUNED);
        assert_eq!(
            source.read_all().unwrap().as_slice(),
            from_decompress.as_slice()
        );
        for (a, b) in data.as_slice().iter().zip(from_decompress.as_slice()) {
            assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12);
        }

        // The chunk table exposes each chunk's resolved configuration, and
        // the dictionary holds every referenced config.
        for i in 0..reader.chunk_count() {
            let interp = reader.chunk_interp(i).unwrap();
            interp.validate().unwrap();
            assert_eq!(interp.anchor_stride, reader.header().interp.anchor_stride);
            assert_eq!(source.chunk_interp(i).unwrap(), interp);
        }

        // Random access decodes each chunk with its own config.
        let (region, sub) = crate::compressor::decompress_chunk(&batch, 1).unwrap();
        for (a, b) in data.extract(&region).iter().zip(sub.as_slice()) {
            assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12);
        }
    }

    /// Wraps a byte slice in a reader that implements `Read` but not
    /// `Seek` and hands out bytes a few at a time, like a slow pipe.
    struct PipeReader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Read for PipeReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(13).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn forward_source_matches_the_seekable_source_on_every_version() {
        let data = DatasetKind::Rtm.generate(Dims::d3(40, 40, 24), 13);
        let cfg = stream_cfg([16, 16, 16]);
        let v3 = compress_chunked(&data, &cfg, [16, 16, 16]).unwrap();
        let (header, table) = crate::format::read_chunk_table(&v3).unwrap();
        let bodies: Vec<Vec<u8>> = (0..table.entries.len())
            .map(|i| table.chunk_slice(&v3, i).to_vec())
            .collect();
        let chunks: Vec<(PipelineSpec, Vec<u8>)> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| (table.entries[i].pipeline, b.clone()))
            .collect();
        let v2 = crate::format::write_stream_v2(&header, table.span, &bodies);
        let v4 = crate::format::write_stream_v4(&header, table.span, &chunks);
        let v5 = compress_chunked(
            &data,
            &cfg.clone()
                .with_mode_tuning(ModeTuning::estimated())
                .with_chunk_interp_tuning(true),
            [16, 16, 16],
        )
        .unwrap();
        assert_eq!(stream_version(&v5).unwrap(), VERSION_TUNED);

        for (version, bytes) in [(2u8, &v2), (3, &v3), (4, &v4), (5, &v5)] {
            let expect = decompress(bytes).unwrap();
            // A `PipeReader` is Read-only — the compiler proves no Seek is
            // used anywhere on this path.
            let mut forward = ForwardSource::new(PipeReader { bytes, pos: 0 }).unwrap();
            assert_eq!(forward.version(), version, "v{version}");
            assert_eq!(forward.dims(), data.dims());
            assert_eq!(forward.span(), table.span);
            assert_eq!(forward.plan().len(), forward.chunk_count());
            let mut seekable = StreamSource::from_bytes(bytes).unwrap();
            assert_eq!(forward.chunk_count(), seekable.chunk_count());
            for i in 0..forward.chunk_count() {
                assert_eq!(
                    forward.chunk_pipeline(i).unwrap(),
                    seekable.chunk_pipeline(i).unwrap(),
                    "v{version} chunk {i} pipeline"
                );
                assert_eq!(
                    forward.chunk_interp(i).unwrap(),
                    seekable.chunk_interp(i).unwrap(),
                    "v{version} chunk {i} interp"
                );
                assert_eq!(forward.chunk_region(i), seekable.chunk_region(i));
            }
            assert!(forward.chunk_pipeline(forward.chunk_count()).is_err());
            assert_eq!(forward.next_index(), 0);
            let restored = forward.read_all().unwrap();
            assert_eq!(forward.next_index(), forward.chunk_count());
            assert_eq!(
                restored.as_slice(),
                expect.as_slice(),
                "v{version} forward source disagrees with decompress"
            );
            assert_eq!(
                seekable.read_all().unwrap().as_slice(),
                expect.as_slice(),
                "v{version} seekable source disagrees with decompress"
            );
            assert!(forward.next_chunk().is_none(), "the source is drained");

            // And the lazy iterator sees every chunk exactly once.
            let mut forward = ForwardSource::new(&bytes[..]).unwrap();
            let mut covered = 0usize;
            for chunk in forward.chunks() {
                let (region, sub) = chunk.unwrap();
                assert_eq!(sub.len(), region.len());
                covered += region.len();
            }
            assert_eq!(covered, data.dims().len(), "v{version}");
        }

        // v1 and unknown versions are rejected with the same clear typed
        // errors as the seekable source.
        let v1 = crate::compressor::compress(&data, &SzhiConfig::new(ErrorBound::Relative(1e-2)))
            .unwrap();
        assert!(matches!(
            ForwardSource::new(&v1[..]),
            Err(SzhiError::InvalidStream(msg)) if msg.contains("monolithic")
        ));
        let mut v6 = v3.clone();
        v6[4] = 6;
        assert!(matches!(
            ForwardSource::new(&v6[..]),
            Err(SzhiError::InvalidStream(msg)) if msg.contains("unsupported")
        ));
    }

    #[test]
    fn forward_source_skips_gaps_between_chunk_bodies() {
        // The format tolerates unused bytes between chunk bodies (extents
        // must only be non-overlapping and non-decreasing). A seekable
        // source seeks over them; the forward source must discard them.
        let data = DatasetKind::Nyx.generate(Dims::d3(32, 32, 32), 5);
        let v3 = compress_chunked(&data, &stream_cfg([16, 16, 16]), [16, 16, 16]).unwrap();
        let (_, table) = crate::format::read_chunk_table(&v3).unwrap();
        let n = table.entries.len();
        let gap = 5usize;
        let mut gapped = v3[..table.data_start].to_vec();
        let entries_at = table.data_start - n * crate::format::V3_ENTRY_SIZE;
        for (i, e) in table.entries.iter().enumerate() {
            // Patch the entry's offset to account for the gaps inserted
            // before every body, then emit the gap + the body.
            let shifted = (e.offset + gap * (i + 1)) as u64;
            let at = entries_at + i * crate::format::V3_ENTRY_SIZE;
            gapped[at..at + 8].copy_from_slice(&shifted.to_le_bytes());
        }
        for i in 0..n {
            gapped.extend(vec![0xAAu8; gap]);
            gapped.extend_from_slice(table.chunk_slice(&v3, i));
        }
        let expect = decompress(&gapped).unwrap();
        let mut forward = ForwardSource::new(&gapped[..]).unwrap();
        assert_eq!(forward.read_all().unwrap().as_slice(), expect.as_slice());
    }

    /// Decodes `bytes` through every read strategy — in memory
    /// (`decompress`), seek (`StreamSource`) and forward (`ForwardSource`
    /// over a non-`Seek` pipe) — returning each grid's bit pattern, or
    /// `None` for a typed error.
    fn decode_every_way(bytes: &[u8]) -> [Option<Vec<u32>>; 3] {
        let bits = |grid: Result<Grid<f32>, SzhiError>| {
            grid.ok()
                .map(|g| g.as_slice().iter().map(|v| v.to_bits()).collect())
        };
        [
            bits(decompress(bytes)),
            bits(StreamSource::from_bytes(bytes).and_then(|mut s| s.read_all())),
            bits(ForwardSource::new(PipeReader { bytes, pos: 0 }).and_then(|mut s| s.read_all())),
        ]
    }

    /// The differential corruption sweep over one stream. Every single-byte
    /// corruption (xor 0x01, 0x80 and 0xFF at every offset) and five
    /// truncations go through all three read strategies: none may panic,
    /// all three must agree on success vs failure, and wherever they
    /// succeed their grids must be bit-identical.
    fn every_read_strategy_agrees_on_every_corruption_of(version: u8, bytes: &[u8]) {
        assert_eq!(stream_version(bytes).unwrap(), version);
        let check = |label: &str, bytes: &[u8]| {
            let decoded = std::panic::catch_unwind(|| decode_every_way(bytes))
                .unwrap_or_else(|_| panic!("{label}: a read strategy panicked"));
            let [memory, seek, forward] = decoded;
            assert!(
                seek == memory && forward == memory,
                "{label}: strategies disagree (decoded: in-memory {}, seek {}, forward {})",
                memory.is_some(),
                seek.is_some(),
                forward.is_some()
            );
        };
        // The byte offsets are dealt out round-robin over the cores.
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::thread::scope(|scope| {
            for first in 0..workers {
                scope.spawn(move || {
                    for pos in (first..bytes.len()).step_by(workers) {
                        for flip in [0x01u8, 0x80, 0xFF] {
                            let mut corrupt = bytes.to_vec();
                            corrupt[pos] ^= flip;
                            check(&format!("v{version} byte {pos} xor {flip:#x}"), &corrupt);
                        }
                    }
                });
            }
        });
        for cut in [0usize, 4, 40, bytes.len() / 2, bytes.len() - 1] {
            check(&format!("v{version} truncated to {cut}"), &bytes[..cut]);
        }
    }

    #[test]
    fn v4_byte_flips_and_truncations_through_the_source_never_panic() {
        // The trailered (v4) stream a `StreamSink` writes over Qmcpack.
        let data = DatasetKind::Qmcpack.generate(Dims::d3(20, 20, 20), 3);
        let cfg = stream_cfg([16, 16, 16]);
        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        while let Some(region) = sink.next_chunk_region() {
            sink.push_chunk(&Grid::from_vec(region.dims(), data.extract(&region)))
                .unwrap();
        }
        let v4 = sink.finish().unwrap();
        every_read_strategy_agrees_on_every_corruption_of(4, &v4);
    }

    #[test]
    fn v5_byte_flips_and_truncations_never_panic_through_any_reader() {
        // The tuned (v5) stream; its sweep also covers the forward reader.
        let data = szhi_datagen::mixed_smooth_noisy(Dims::d3(16, 16, 32));
        let v5 = compress_chunked(
            &data,
            &stream_cfg([16, 16, 16])
                .with_mode_tuning(ModeTuning::PerChunk)
                .with_chunk_interp_tuning(true),
            [16, 16, 16],
        )
        .unwrap();
        every_read_strategy_agrees_on_every_corruption_of(5, &v5);
    }

    #[test]
    fn forward_source_byte_flips_and_truncations_never_panic() {
        // The leading-table (v3) stream. The forward reader's pass over the
        // trailered v4 and tuned v5 streams runs in the two sweeps above.
        let data = szhi_datagen::mixed_smooth_noisy(Dims::d3(16, 16, 32));
        let v3 = compress_chunked(&data, &stream_cfg([16, 16, 16]), [16, 16, 16]).unwrap();
        every_read_strategy_agrees_on_every_corruption_of(3, &v3);
    }

    #[test]
    fn every_read_strategy_verifies_each_chunk_in_the_crc_span() {
        // `decode.crc` counts one span per verified chunk body on every
        // read path. Spans are observed by a listener on this thread, so
        // concurrent tests cannot perturb the counts, and every read below
        // verifies on the calling thread.
        let data = DatasetKind::Rtm.generate(Dims::d3(40, 40, 24), 13);
        let cfg = stream_cfg([16, 16, 16]);
        let v3 = compress_chunked(&data, &cfg, [16, 16, 16]).unwrap();
        let v5 = compress_chunked(
            &data,
            &cfg.clone()
                .with_mode_tuning(ModeTuning::estimated())
                .with_chunk_interp_tuning(true),
            [16, 16, 16],
        )
        .unwrap();
        let crcs = std::rc::Rc::new(std::cell::Cell::new(0usize));
        let seen = std::rc::Rc::clone(&crcs);
        szhi_telemetry::set_thread_span_listener(Some(Box::new(move |name, entering| {
            if entering && name == "decode.crc" {
                seen.set(seen.get() + 1);
            }
        })));
        for bytes in [&v3, &v5] {
            let n = StreamReader::new(bytes).unwrap().chunk_count();
            let strategies: [(&str, &dyn Fn() -> usize); 4] = [
                ("StreamReader", &|| {
                    let reader = StreamReader::new(bytes).unwrap();
                    reader.chunks().map(Result::unwrap).count()
                }),
                ("decompress_chunk", &|| {
                    for i in 0..n {
                        crate::compressor::decompress_chunk(bytes, i).unwrap();
                    }
                    n
                }),
                ("StreamSource", &|| {
                    let mut source = StreamSource::from_bytes(bytes).unwrap();
                    source.chunks().map(Result::unwrap).count()
                }),
                ("ForwardSource", &|| {
                    let mut source = ForwardSource::new(&bytes[..]).unwrap();
                    source.chunks().map(Result::unwrap).count()
                }),
            ];
            for (what, read) in strategies {
                crcs.set(0);
                assert_eq!(read(), n, "{what} decoded every chunk");
                assert_eq!(
                    crcs.get(),
                    n,
                    "{what} on v{}: one decode.crc span per chunk",
                    stream_version(bytes).unwrap()
                );
            }
        }
        szhi_telemetry::set_thread_span_listener(None);
    }

    #[test]
    fn every_write_path_checksums_each_chunk_in_the_crc_span() {
        // `encode.crc` counts one span per chunk body on every write path:
        // the in-memory v3 and v5 writers (`compress` and `StreamWriter`,
        // which checksum while serialising the container) and the v4
        // `StreamSink`. Every checksum runs on the calling thread, which
        // is the only thread this listener observes.
        let data = DatasetKind::Rtm.generate(Dims::d3(40, 40, 24), 13);
        let span = [16, 16, 16];
        let v3 = stream_cfg(span);
        let v5 = v3.clone().with_chunk_interp_tuning(true);
        let crcs = std::rc::Rc::new(std::cell::Cell::new(0usize));
        let seen = std::rc::Rc::clone(&crcs);
        szhi_telemetry::set_thread_span_listener(Some(Box::new(move |name, entering| {
            if entering && name == "encode.crc" {
                seen.set(seen.get() + 1);
            }
        })));
        for cfg in [&v3, &v5] {
            let writers: [(&str, &dyn Fn() -> Vec<u8>); 3] = [
                ("compress", &|| crate::compress(&data, cfg).unwrap()),
                ("StreamWriter", &|| {
                    let mut writer = StreamWriter::new(data.dims(), cfg).unwrap();
                    push_all(&mut writer, &data);
                    writer.finish().unwrap()
                }),
                ("StreamSink", &|| {
                    let mut sink = StreamSink::new(Vec::new(), data.dims(), cfg).unwrap();
                    while let Some(region) = sink.next_chunk_region() {
                        let dims = sink.plan().chunk_dims(sink.next_index());
                        let chunk = Grid::from_vec(dims, data.extract(&region));
                        sink.push_chunk(&chunk).unwrap();
                    }
                    sink.finish().unwrap()
                }),
            ];
            for (what, write) in writers {
                crcs.set(0);
                let bytes = write();
                let n = StreamReader::new(&bytes).unwrap().chunk_count();
                assert_eq!(
                    crcs.get(),
                    n,
                    "{what} writing v{}: one encode.crc span per chunk",
                    stream_version(&bytes).unwrap()
                );
            }
        }
        szhi_telemetry::set_thread_span_listener(None);
    }

    #[test]
    fn estimated_tuning_is_never_worse_than_the_default_and_tracks_exhaustive() {
        // Per-chunk, the estimator-guided selection always refines the
        // configured default, so the tuned stream can never exceed the
        // global-default stream; and over the full fig6 candidate list it
        // must stay within 5% of the exhaustive trial-encode stream.
        let data = szhi_datagen::mixed_smooth_noisy(Dims::d3(32, 32, 64));
        let span = [32, 32, 32];
        let base = SzhiConfig::new(ErrorBound::Absolute(2e-3))
            .with_auto_tune(false)
            .with_chunk_span(span);
        let global = compress_chunked(&data, &base, span).unwrap();
        let estimated = compress_chunked(
            &data,
            &base.clone().with_mode_tuning(ModeTuning::estimated()),
            span,
        )
        .unwrap();
        let exhaustive = compress_chunked(
            &data,
            &base.clone().with_mode_tuning(ModeTuning::exhaustive()),
            span,
        )
        .unwrap();
        assert!(
            estimated.len() <= global.len(),
            "estimated ({}) worse than the global default ({})",
            estimated.len(),
            global.len()
        );
        assert!(
            (estimated.len() as f64) <= exhaustive.len() as f64 * 1.05,
            "estimated ({}) more than 5% above exhaustive ({})",
            estimated.len(),
            exhaustive.len()
        );
        // Both remain plain v3 streams (no per-chunk interp): the wider
        // candidate set needs no container change.
        assert_eq!(stream_version(&estimated).unwrap(), VERSION_STREAMED);
        assert_eq!(stream_version(&exhaustive).unwrap(), VERSION_STREAMED);
        // And the estimated stream still honours the bound.
        let recon = decompress(&estimated).unwrap();
        for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
            assert!(((*a as f64) - (*b as f64)).abs() <= 2e-3 + 1e-12);
        }
    }

    #[test]
    fn per_chunk_tuning_beats_both_global_modes_on_a_mixed_field() {
        // A field whose left half is smooth (CR-friendly codes) and whose
        // right half is hard noise: per-chunk selection must strictly beat
        // both single-mode streams, because different chunks prefer
        // different pipelines.
        let data = szhi_datagen::mixed_smooth_noisy(Dims::d3(32, 32, 64));
        let span = [32, 32, 32];
        let base = stream_cfg(span);
        let sizes: Vec<usize> = [
            base.clone().with_mode(PipelineMode::Cr),
            base.clone().with_mode(PipelineMode::Tp),
            base.clone().with_mode_tuning(ModeTuning::PerChunk),
        ]
        .iter()
        .map(|cfg| compress_chunked(&data, cfg, span).unwrap().len())
        .collect();
        let (cr, tp, tuned) = (sizes[0], sizes[1], sizes[2]);
        assert!(
            tuned < cr && tuned < tp,
            "per-chunk tuning ({tuned} B) must strictly beat global CR ({cr} B) and \
             global TP ({tp} B)"
        );

        // The tuned stream must actually mix modes and still roundtrip.
        let tuned_bytes = compress_chunked(
            &data,
            &base.clone().with_mode_tuning(ModeTuning::PerChunk),
            span,
        )
        .unwrap();
        let reader = StreamReader::new(&tuned_bytes).unwrap();
        let modes: std::collections::HashSet<u8> = (0..reader.chunk_count())
            .map(|i| reader.chunk_pipeline(i).unwrap().id())
            .collect();
        assert!(modes.len() > 1, "expected a mix of per-chunk modes");
        let recon = reader.read_all().unwrap();
        for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
            assert!(((*a as f64) - (*b as f64)).abs() <= 2e-3 + 1e-12);
        }
    }
}
