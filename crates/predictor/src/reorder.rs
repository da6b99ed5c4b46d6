//! Level-ordered quantization-code reordering (§5.1.4).
//!
//! Quantization codes produced by interpolation levels with large strides
//! have systematically larger magnitudes than codes from small strides.
//! Flattening the code array in raster order interleaves those populations
//! and produces a "noisy" sequence; the paper's Eq. 3 instead maps every code
//! to a position grouped by its interpolation level, with codes from the
//! coarsest levels (and the anchors) first. The reordered sequence is much
//! smoother, which the byte-level reducers (RRE/RZE) exploit.
//!
//! The level of a point is the largest `ℓ ≤ L = log2(anchor_stride)` such
//! that `2^ℓ` divides all of its coordinates (degenerate axes only hold the
//! coordinate 0, which every stride divides), and points are ordered by
//! descending level with raster order inside each level — exactly the
//! grouping Eq. 3 produces. No permutation table is built: the points of
//! level `ℓ < L` are those of the `2^ℓ` lattice that are not on the
//! `2^(ℓ+1)` lattice, so [`LevelOrder::reorder_into`] and
//! [`LevelOrder::restore`] walk the lattices directly. The anchor lattice
//! (stride `2^L`) comes first; then, for `ℓ = L−1 … 0`, every `2^ℓ`-lattice
//! row in raster order, where a row whose `z` and `y` both lie on the
//! `2^(ℓ+1)` lattice contributes only the odd multiples of `2^ℓ` in `x`.
//! Construction is O(levels), so encode and decode both build the order
//! per chunk at no measurable cost.

use crate::error::PredictorError;
use szhi_ndgrid::Dims;

/// The level order of a field shape and anchor stride.
#[derive(Debug, Clone)]
pub struct LevelOrder {
    dims: Dims,
    max_level: u32,
    /// Number of points per level, from level `max_level` (anchors) down to 0.
    level_counts: Vec<usize>,
}

/// The interpolation level of a coordinate triple: the largest `ℓ ≤ cap` such
/// that `2^ℓ` divides every coordinate (axes of extent 1 are ignored; the
/// coordinate 0 is divisible by everything).
#[inline]
pub fn level_of(z: usize, y: usize, x: usize, dims: Dims, cap: u32) -> u32 {
    let mut level = cap;
    if dims.nz() > 1 {
        level = level.min(valuation(z, cap));
    }
    if dims.ny() > 1 {
        level = level.min(valuation(y, cap));
    }
    if dims.nx() > 1 {
        level = level.min(valuation(x, cap));
    }
    level
}

#[inline]
fn valuation(c: usize, cap: u32) -> u32 {
    if c == 0 {
        cap
    } else {
        (c.trailing_zeros()).min(cap)
    }
}

/// Number of points of `dims` whose every coordinate is a multiple of
/// `step`.
fn lattice(dims: Dims, step: usize) -> usize {
    dims.nz().div_ceil(step) * dims.ny().div_ceil(step) * dims.nx().div_ceil(step)
}

impl LevelOrder {
    /// Builds the level order for `dims` with the given anchor stride (a
    /// power of two).
    pub fn new(dims: Dims, anchor_stride: usize) -> Self {
        assert!(anchor_stride.is_power_of_two() && anchor_stride >= 2);
        let max_level = anchor_stride.trailing_zeros();
        let level_counts = (0..=max_level)
            .rev()
            .map(|level| {
                let on = lattice(dims, 1 << level);
                if level == max_level {
                    on
                } else {
                    on - lattice(dims, 2 << level)
                }
            })
            .collect();
        LevelOrder {
            dims,
            max_level,
            level_counts,
        }
    }

    /// The field shape this order was built for.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Number of interpolation levels (excluding the anchor level).
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Number of codes per level, ordered from the anchor level (index 0)
    /// down to level 0 (finest stride).
    pub fn level_counts(&self) -> &[usize] {
        &self.level_counts
    }

    /// Visits the reordered sequence as runs, in order: `visit(start, step,
    /// len)` stands for the `len` raster indices `start, start + step, …`,
    /// all on one x-row. Every raster index is visited exactly once.
    fn for_each_run(&self, mut visit: impl FnMut(usize, usize, usize)) {
        let (nz, ny, nx) = self.dims.as_tuple();
        let anchor = 1usize << self.max_level;
        let anchor_len = nx.div_ceil(anchor);
        for z in (0..nz).step_by(anchor) {
            for y in (0..ny).step_by(anchor) {
                visit((z * ny + y) * nx, anchor, anchor_len);
            }
        }
        for level in (0..self.max_level).rev() {
            let step = 1usize << level;
            let coarse = step << 1;
            // Row lengths: every multiple of `step` below `nx`, or only the
            // odd ones.
            let (all, odd) = (nx.div_ceil(step), nx.saturating_sub(step).div_ceil(coarse));
            for z in (0..nz).step_by(step) {
                for y in (0..ny).step_by(step) {
                    let row = (z * ny + y) * nx;
                    if z % coarse == 0 && y % coarse == 0 {
                        if odd > 0 {
                            visit(row + step, coarse, odd);
                        }
                    } else {
                        visit(row, step, all);
                    }
                }
            }
        }
    }

    /// Applies the level order: the codes of the anchor level first, then
    /// each finer level, raster order within a level.
    pub fn reorder(&self, codes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.reorder_into(codes, &mut out);
        out
    }

    /// Like [`reorder`](LevelOrder::reorder), but writes into a reusable
    /// output buffer (cleared and resized in place), so per-chunk callers
    /// avoid one code-array-sized allocation per chunk.
    pub fn reorder_into(&self, codes: &[u8], out: &mut Vec<u8>) {
        assert_eq!(
            codes.len(),
            self.dims.len(),
            "code array does not match the level order"
        );
        out.clear();
        out.resize(codes.len(), 0);
        let mut pos = 0;
        self.for_each_run(|start, step, len| {
            let dst = &mut out[pos..pos + len];
            if step == 1 {
                dst.copy_from_slice(&codes[start..start + len]);
            } else {
                for (o, &c) in dst.iter_mut().zip(codes[start..].iter().step_by(step)) {
                    *o = c;
                }
            }
            pos += len;
        });
    }

    /// Inverts the level order, returning the codes in raster order. The
    /// input is untrusted (it comes from a decoded stream payload), so a
    /// length mismatch surfaces as a typed error rather than a panic.
    pub fn restore(&self, reordered: &[u8]) -> Result<Vec<u8>, PredictorError> {
        if reordered.len() != self.dims.len() {
            return Err(PredictorError::Inconsistent(format!(
                "{} reordered codes for a level order over {} points",
                reordered.len(),
                self.dims.len()
            )));
        }
        let mut out = vec![0u8; reordered.len()];
        let mut pos = 0;
        self.for_each_run(|start, step, len| {
            let src = &reordered[pos..pos + len];
            if step == 1 {
                out[start..start + len].copy_from_slice(src);
            } else {
                for (o, &c) in out[start..].iter_mut().step_by(step).zip(src) {
                    *o = c;
                }
            }
            pos += len;
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The permutation table the level order was once built from, kept as
    /// the reference the lattice walk must reproduce: `dest[i]` is the
    /// position of raster index `i` in the reordered sequence, and the
    /// counts run from the anchor level down to level 0.
    fn reference(dims: Dims, anchor_stride: usize) -> (Vec<usize>, Vec<usize>) {
        let max_level = anchor_stride.trailing_zeros();
        let levels: Vec<u32> = (0..dims.len())
            .map(|idx| {
                let (z, y, x) = dims.coords(idx);
                level_of(z, y, x, dims, max_level)
            })
            .collect();
        let mut counts = vec![0usize; max_level as usize + 1];
        for &l in &levels {
            counts[(max_level - l) as usize] += 1;
        }
        let mut cursor: Vec<usize> = counts
            .iter()
            .scan(0, |acc, &c| {
                let offset = *acc;
                *acc += c;
                Some(offset)
            })
            .collect();
        let dest = levels
            .iter()
            .map(|&l| {
                let bucket = (max_level - l) as usize;
                cursor[bucket] += 1;
                cursor[bucket] - 1
            })
            .collect();
        (dest, counts)
    }

    /// Asserts that `reorder_into`, `restore` and `level_counts` equal the
    /// reference. The raster index is written in three byte planes, so
    /// equal outputs pin the permutation exactly, not merely up to
    /// repeated code values.
    fn assert_matches_reference(dims: Dims, stride: usize) {
        let (dest, counts) = reference(dims, stride);
        let order = LevelOrder::new(dims, stride);
        assert_eq!(order.level_counts(), &counts[..], "{dims} stride {stride}");
        let mut out = Vec::new();
        for shift in [0, 8, 16] {
            let codes: Vec<u8> = (0..dims.len()).map(|i| (i >> shift) as u8).collect();
            let mut expect = vec![0u8; codes.len()];
            for (&d, &c) in dest.iter().zip(&codes) {
                expect[d] = c;
            }
            order.reorder_into(&codes, &mut out);
            assert_eq!(out, expect, "reorder of {dims}, stride {stride}");
            assert_eq!(
                order.restore(&expect).unwrap(),
                codes,
                "restore of {dims}, stride {stride}"
            );
        }
    }

    #[test]
    fn lattice_walk_matches_the_permutation_reference() {
        let shapes = [
            Dims::d3(20, 17, 33),
            Dims::d3(33, 33, 33),
            Dims::d3(64, 64, 64),
            Dims::d3(65, 40, 7),
            Dims::d3(1, 17, 33),
            Dims::d3(20, 1, 33),
            Dims::d3(20, 17, 1),
            Dims::d3(1, 1, 70),
            Dims::d3(1, 1, 1),
            Dims::d2(50, 41),
            Dims::d2(64, 64),
            Dims::d2(1, 41),
            Dims::d2(50, 1),
            Dims::d1(100),
            Dims::d1(64),
            Dims::d1(2),
            Dims::d1(1),
        ];
        for dims in shapes {
            for stride in [2usize, 4, 8, 16, 32] {
                assert_matches_reference(dims, stride);
            }
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        for dims in [Dims::d3(20, 17, 33), Dims::d2(50, 41), Dims::d1(100)] {
            for stride in [8usize, 16] {
                let order = LevelOrder::new(dims, stride);
                let mut seen = vec![false; dims.len()];
                order.for_each_run(|start, step, len| {
                    for i in (start..).step_by(step).take(len) {
                        assert!(!seen[i], "raster index {i} visited twice");
                        seen[i] = true;
                    }
                });
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn reorder_then_restore_is_identity() {
        let dims = Dims::d3(19, 23, 29);
        let order = LevelOrder::new(dims, 16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(103);
        let codes: Vec<u8> = (0..dims.len()).map(|_| rng.gen()).collect();
        let reordered = order.reorder(&codes);
        assert_eq!(order.restore(&reordered).unwrap(), codes);
        assert!(matches!(
            order.restore(&reordered[1..]),
            Err(crate::PredictorError::Inconsistent(_))
        ));
        assert_ne!(
            reordered, codes,
            "permutation should not be the identity on 3D data"
        );
    }

    #[test]
    fn higher_levels_come_first() {
        let dims = Dims::d3(33, 33, 33);
        let order = LevelOrder::new(dims, 16);
        // Mark each point with its level, reorder, and check monotonicity.
        let levels: Vec<u8> = (0..dims.len())
            .map(|idx| {
                let (z, y, x) = dims.coords(idx);
                level_of(z, y, x, dims, 4) as u8
            })
            .collect();
        let reordered = order.reorder(&levels);
        for w in reordered.windows(2) {
            assert!(
                w[0] >= w[1],
                "levels must be non-increasing in the reordered sequence"
            );
        }
        // The first entries are the anchors (level 4).
        assert_eq!(reordered[0], 4);
        assert_eq!(order.level_counts()[0], 3 * 3 * 3);
    }

    #[test]
    fn level_of_handles_degenerate_axes() {
        let d2 = Dims::d2(64, 64);
        // z is always 0 for 2D data and must not drag the level up or down.
        assert_eq!(level_of(0, 32, 32, d2, 4), 4);
        assert_eq!(level_of(0, 32, 8, d2, 4), 3);
        assert_eq!(level_of(0, 1, 32, d2, 4), 0);
        let d1 = Dims::d1(64);
        assert_eq!(level_of(0, 0, 48, d1, 4), 4);
        assert_eq!(level_of(0, 0, 4, d1, 4), 2);
    }

    #[test]
    fn counts_sum_to_total() {
        let dims = Dims::d3(40, 30, 20);
        let order = LevelOrder::new(dims, 8);
        assert_eq!(order.level_counts().iter().sum::<usize>(), dims.len());
        assert_eq!(order.level_counts().len(), 4); // anchors + 3 levels
    }
}
