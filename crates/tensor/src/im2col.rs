//! Channel-major `im2col`/`col2im` lowering for 2-D convolution.
//!
//! Convolution in `spatl-nn` is implemented as `im2col` followed by a matrix
//! multiplication; `col2im` is the adjoint scatter used in the backward
//! pass. The patch matrix is **channel-major**, `[c·k·k, n·out_h·out_w]`:
//! row `(ch, ky, kx)` is one kernel tap and holds the input value that tap
//! reads at every output position of every image. A tap shifts the image:
//! in a stride-1 "same" geometry (output planes as wide as the input's) the
//! shift is one block per plane, moved through a keep mask ([`SameSize`]);
//! otherwise each patch row is built from copies of input rows (every
//! `stride`-th element when strided) between zero borders. The output
//! positions a tap reads inside the image are one range per axis, computed
//! once per tap ([`tap_range`]), so the copy loops carry no bounds branch,
//! and a tap that never touches the image is one `fill`.
//!
//! Both directions are parallel and race-free: `im2col` over taps (each
//! owns its patch row), `col2im` over images (each scatters into its own
//! `c·h·w` chunk of the gradient). The `_into` variants write
//! **every** element of their output — padding positions are stored as
//! explicit zeros — so recycled workspace buffers need no pre-zeroing.
//!
//! `col2im` visits the taps in **descending** `(ky, kx)` order. For a fixed
//! input pixel that is ascending `(oy, ox)` order of the output positions
//! reading it, so every pixel sums its terms in row-major output order
//! whatever the layout (DESIGN.md §7).

use crate::Tensor;
use rayon::prelude::*;
use std::ops::Range;

/// Geometry of a 2-D convolution: input/output spatial extents and the
/// kernel/stride/padding that relate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Output height after convolution.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width after convolution.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Number of columns produced per image: `out_h * out_w`.
    pub fn cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Rows of the patch matrix: `in_channels * kernel * kernel`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Does kernel tap `tap = ky·k + kx` read inside the image at some
    /// output position? A tap that does not — *dead*, as 8 of a 3×3
    /// kernel's 9 are on a 1×1 map — reads padding everywhere, so its
    /// patch rows are all `+0.0`.
    pub fn tap_live(&self, tap: usize) -> bool {
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let (ys, _) = tap_range(tap / k, s, p, self.in_h, self.out_h());
        let (xs, _) = tap_range(tap % k, s, p, self.in_w, self.out_w());
        !ys.is_empty() && !xs.is_empty()
    }

    /// Live taps per input channel ([`Conv2dGeometry::tap_live`]).
    pub fn live_taps(&self) -> usize {
        (0..self.kernel * self.kernel)
            .filter(|&t| self.tap_live(t))
            .count()
    }

    /// How many rows of the live patch matrix ([`im2col_live_into`]) come
    /// from the rows before `row` of the full one ([`im2col_into`]).
    pub fn live_rows_before(&self, row: usize) -> usize {
        let k2 = self.kernel * self.kernel;
        let before = (0..row % k2).filter(|&t| self.tap_live(t)).count();
        row / k2 * self.live_taps() + before
    }
}

/// Along one axis, the output positions `o` at which kernel index `kk`
/// reads inside the input, `0 ≤ o·stride + kk − padding < len`, as a range
/// of `o` (empty when the tap never touches the image), together with the
/// input index the first of them reads.
fn tap_range(
    kk: usize,
    stride: usize,
    padding: usize,
    len: usize,
    out: usize,
) -> (Range<usize>, usize) {
    let lo = padding.saturating_sub(kk).div_ceil(stride);
    let hi = if kk >= len + padding {
        0
    } else {
        ((len + padding - 1 - kk) / stride + 1).min(out)
    };
    let range = lo.min(hi)..hi;
    let first = (range.start * stride + kk).saturating_sub(padding);
    debug_assert!(
        range.is_empty()
            || (range.start * stride + kk >= padding
                && (range.end - 1) * stride + kk < len + padding),
        "tap {kk} (stride {stride}, padding {padding}) reads outside 0..{len} over {range:?}"
    );
    (range, first)
}

/// Stride-1 "same" geometry (`out_w == in_w`, so `out_h == in_h`): output
/// and input planes share one row stride, and a tap `(ky, kx)` reads the
/// input plane shifted by `(ky − p)·w + (kx − p)`. Its in-image positions
/// then lie in one contiguous block of the plane, from its first to its
/// last, and inside the block the positions whose column falls outside
/// the tap's column range read a neighbouring row's pixel instead of the
/// padding. `im2col` copies the block through a keep mask (those positions
/// become `+0.0`); `col2im` adds it through the same mask, so they add
/// `+0.0`, which leaves any sum that started at `+0.0` unchanged: such a
/// sum is never `−0.0`, the one value `+ (+0.0)` would change (DESIGN.md
/// §7).
struct SameSize {
    w: usize,
    spatial: usize,
    /// Per kernel column `kx`, `spatial` masks for a block starting at
    /// the tap's first in-image column: all ones where the column is in
    /// the tap's range, zero where it is not.
    keep: Vec<u32>,
}

impl SameSize {
    fn of(g: &Conv2dGeometry) -> Option<SameSize> {
        let (k, p, w) = (g.kernel, g.padding, g.in_w);
        if g.stride != 1 || g.out_w() != w {
            return None;
        }
        let spatial = g.in_h * w;
        let mut keep = Vec::with_capacity(k * spatial);
        for kx in 0..k {
            let (xs, _) = tap_range(kx, 1, p, w, w);
            let mut x = xs.start;
            for _ in 0..spatial {
                keep.push(if xs.contains(&x) { u32::MAX } else { 0 });
                x = if x + 1 == w { 0 } else { x + 1 };
            }
        }
        Some(SameSize { w, spatial, keep })
    }

    /// The block of tap `(·, kx)` with in-image ranges `ys` / `xs`
    /// starting at input `(iy0, ix0)`: its start in the output plane, its
    /// length, its start in the input plane, and its keep mask.
    fn block(
        &self,
        kx: usize,
        ys: &Range<usize>,
        iy0: usize,
        xs: &Range<usize>,
        ix0: usize,
    ) -> (usize, usize, usize, &[u32]) {
        let w = self.w;
        let len = (ys.len() - 1) * w + xs.len();
        let keep = &self.keep[kx * self.spatial..kx * self.spatial + len];
        (ys.start * w + xs.start, len, iy0 * w + ix0, keep)
    }
}

/// The tap of a channel's `j`-th row, in a patch matrix of every tap or of
/// the live ones.
fn tap_of_row(g: &Conv2dGeometry, live: bool, j: usize) -> usize {
    (0..g.kernel * g.kernel)
        .filter(|&t| !live || g.tap_live(t))
        .nth(j)
        .expect("row within the channel")
}

/// Unfold a batch of images `[n, c, h, w]` into the channel-major patch
/// matrix `[c * k * k, n * out_h * out_w]`, so that convolution with a
/// weight matrix `[out_c, c * k * k]` is the single matmul `W · cols`.
pub fn im2col(input: &Tensor, g: &Conv2dGeometry) -> Tensor {
    let n = input.dims()[0];
    let mut out = Tensor::zeros([g.patch_len(), n * g.cols()]);
    im2col_into(input, g, &mut out);
    out
}

/// [`im2col`] into a preallocated `[c * k * k, n * out_h * out_w]` tensor.
/// Every element is written (padding as explicit `0.0`), so the previous
/// contents of `out` are irrelevant.
pub fn im2col_into(input: &Tensor, g: &Conv2dGeometry, out: &mut Tensor) {
    lower_into(input, g, false, out);
}

/// [`im2col_into`] without the rows of dead taps: the live patch matrix
/// `[c * live_taps, n * out_h * out_w]` ([`Conv2dGeometry::live_taps`]),
/// channel-major with each channel's live taps in ascending order. Where
/// every tap is live this is [`im2col_into`].
pub fn im2col_live_into(input: &Tensor, g: &Conv2dGeometry, out: &mut Tensor) {
    lower_into(input, g, true, out);
}

fn lower_into(input: &Tensor, g: &Conv2dGeometry, live: bool, out: &mut Tensor) {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "im2col expects [n,c,h,w]");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, g.in_channels, "channel mismatch");
    assert_eq!(h, g.in_h, "height mismatch");
    assert_eq!(w, g.in_w, "width mismatch");

    let (oh, ow, k, s, p) = (g.out_h(), g.out_w(), g.kernel, g.stride, g.padding);
    let spatial = oh * ow;
    let per = if live { g.live_taps() } else { k * k };
    assert_eq!(
        out.dims(),
        &[c * per, n * spatial],
        "im2col output shape mismatch"
    );
    if n == 0 {
        return;
    }
    let src = input.data();
    let same_size = SameSize::of(g);

    // One patch row per tap: rows are disjoint, so this is an
    // embarrassingly parallel gather.
    out.data_mut()
        .par_chunks_mut(n * spatial)
        .enumerate()
        .for_each(|(row, dst)| {
            let (ch, tap) = (row / per, tap_of_row(g, live, row % per));
            let (ky, kx) = (tap / k, tap % k);
            let (ys, iy0) = tap_range(ky, s, p, h, oh);
            let (xs, ix0) = tap_range(kx, s, p, w, ow);
            if ys.is_empty() || xs.is_empty() {
                dst.fill(0.0);
                return;
            }
            if let Some(keep) = &same_size {
                // One shifted block per plane (see `SameSize`).
                let (start, len, from, keep) = keep.block(kx, &ys, iy0, &xs, ix0);
                for (img, plane) in dst.chunks_exact_mut(spatial).enumerate() {
                    let chan = &src[(img * c + ch) * h * w..(img * c + ch + 1) * h * w];
                    let (head, rest) = plane.split_at_mut(start);
                    let (block, tail) = rest.split_at_mut(len);
                    head.fill(0.0);
                    for ((d, &v), &m) in block.iter_mut().zip(&chan[from..from + len]).zip(keep) {
                        *d = f32::from_bits(v.to_bits() & m);
                    }
                    tail.fill(0.0);
                }
                return;
            }
            // Zero the row once, then copy the in-image runs over it: one
            // `fill` per tap, not one per border.
            dst.fill(0.0);
            for (img, plane) in dst.chunks_exact_mut(spatial).enumerate() {
                let chan = &src[(img * c + ch) * h * w..(img * c + ch + 1) * h * w];
                for (oy, iy) in ys.clone().zip((iy0..).step_by(s)) {
                    let row = &mut plane[oy * ow + xs.start..oy * ow + xs.end];
                    let line = &chan[iy * w + ix0..(iy + 1) * w];
                    for (d, &v) in row.iter_mut().zip(line.iter().step_by(s)) {
                        *d = v;
                    }
                }
            }
        });
}

/// Adjoint of [`im2col`]: scatter-add a channel-major patch-matrix gradient
/// `[c * k * k, n * out_h * out_w]` back into an image gradient
/// `[n, c, h, w]`.
pub fn col2im(cols: &Tensor, g: &Conv2dGeometry, n: usize) -> Tensor {
    let mut out = Tensor::zeros([n, g.in_channels, g.in_h, g.in_w]);
    col2im_into(cols, g, &mut out);
    out
}

/// [`col2im`] into a preallocated `[n, c, h, w]` tensor. The output is
/// zeroed before the scatter, so the previous contents of `out` are
/// irrelevant.
pub fn col2im_into(cols: &Tensor, g: &Conv2dGeometry, out: &mut Tensor) {
    scatter_into(cols, g, false, out);
}

/// [`col2im_into`] from the live patch matrix of [`im2col_live_into`]: the
/// same sums, since a dead tap's rows are never read.
pub fn col2im_live_into(cols: &Tensor, g: &Conv2dGeometry, out: &mut Tensor) {
    scatter_into(cols, g, true, out);
}

fn scatter_into(cols: &Tensor, g: &Conv2dGeometry, live_only: bool, out: &mut Tensor) {
    let (oh, ow, k, s, p) = (g.out_h(), g.out_w(), g.kernel, g.stride, g.padding);
    let (c, h, w) = (g.in_channels, g.in_h, g.in_w);
    let dims = out.dims();
    assert_eq!(dims.len(), 4, "col2im output must be [n,c,h,w]");
    let n = dims[0];
    assert_eq!(&dims[1..], &[c, h, w], "col2im output geometry mismatch");
    let spatial = oh * ow;
    let r = n * spatial;
    let per = if live_only { g.live_taps() } else { k * k };
    assert_eq!(cols.dims(), &[c * per, r], "col2im shape mismatch");
    let src = cols.data();
    let same_size = SameSize::of(g);

    // Images scatter into disjoint `c·h·w` chunks of the output, so the
    // accumulation is race-free under per-image parallelism.
    out.data_mut()
        .par_chunks_mut(c * h * w)
        .enumerate()
        .for_each(|(img, dst)| {
            dst.fill(0.0);
            // Descending taps = ascending output positions per pixel;
            // `j` is the tap's row within its channel.
            let mut j = per;
            for ky in (0..k).rev() {
                let (ys, iy0) = tap_range(ky, s, p, h, oh);
                for kx in (0..k).rev() {
                    let (xs, ix0) = tap_range(kx, s, p, w, ow);
                    let live = !ys.is_empty() && !xs.is_empty();
                    if live || !live_only {
                        j -= 1;
                    }
                    if !live {
                        continue;
                    }
                    let tap = j * r + img * spatial;
                    let chans = src.chunks_exact(per * r);
                    if let Some(keep) = &same_size {
                        // One shifted block per plane; the positions
                        // where the tap reads padding add `+0.0`.
                        let (start, len, from, keep) = keep.block(kx, &ys, iy0, &xs, ix0);
                        for (plane, taps) in dst.chunks_exact_mut(h * w).zip(chans) {
                            let terms = &taps[tap + start..tap + start + len];
                            let block = &mut plane[from..from + len];
                            for ((d, &v), &m) in block.iter_mut().zip(terms).zip(keep) {
                                *d += f32::from_bits(v.to_bits() & m);
                            }
                        }
                        continue;
                    }
                    for (plane, taps) in dst.chunks_exact_mut(h * w).zip(chans) {
                        let tap = &taps[tap..tap + spatial];
                        for (oy, iy) in ys.clone().zip((iy0..).step_by(s)) {
                            let row = &tap[oy * ow + xs.start..oy * ow + xs.end];
                            let line = &mut plane[iy * w + ix0..(iy + 1) * w];
                            for (d, &v) in line.iter_mut().step_by(s).zip(row) {
                                *d += v;
                            }
                        }
                    }
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: c,
            in_h: h,
            in_w: w,
            kernel: k,
            stride: s,
            padding: p,
        }
    }

    #[test]
    fn output_dims_formula() {
        let g = geom(3, 8, 8, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (8, 8));
        let g2 = geom(3, 8, 8, 3, 2, 1);
        assert_eq!((g2.out_h(), g2.out_w()), (4, 4));
        let g3 = geom(1, 5, 5, 1, 1, 0);
        assert_eq!((g3.out_h(), g3.out_w()), (5, 5));
    }

    #[test]
    fn tap_range_brackets_the_image() {
        // k = 3, p = 1, stride 1 over 4 pixels: the left tap misses o = 0,
        // the right tap misses o = 3.
        assert_eq!(tap_range(0, 1, 1, 4, 4), (1..4, 0));
        assert_eq!(tap_range(1, 1, 1, 4, 4), (0..4, 0));
        assert_eq!(tap_range(2, 1, 1, 4, 4), (0..3, 1));
        // Stride 2 over 4 pixels, 2 outputs: o·2 + kk − 1 ∈ 0..4.
        assert_eq!(tap_range(0, 2, 1, 4, 2), (1..2, 1));
        assert_eq!(tap_range(2, 2, 1, 4, 2), (0..2, 1));
        // A 1-pixel image: only the centre tap touches it.
        assert!(tap_range(0, 1, 1, 1, 1).0.is_empty());
        assert_eq!(tap_range(1, 1, 1, 1, 1), (0..1, 0));
        assert!(tap_range(2, 1, 1, 1, 1).0.is_empty());
    }

    #[test]
    fn identity_kernel_1x1_is_a_copy() {
        let g = geom(2, 2, 2, 1, 1, 0);
        let x = Tensor::from_vec([1, 2, 2, 2], (0..8).map(|v| v as f32).collect()).unwrap();
        let cols = im2col(&x, &g);
        // Rows iterate over channels, columns over spatial positions.
        assert_eq!(cols.dims(), &[2, 4]);
        assert_eq!(cols.data(), x.data());
    }

    #[test]
    fn batch_lays_images_side_by_side() {
        let g = geom(1, 1, 2, 1, 1, 0);
        let x = Tensor::from_vec([2, 1, 1, 2], vec![1., 2., 3., 4.]).unwrap();
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[1, 4]);
        assert_eq!(cols.data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn padding_fills_zeros() {
        let g = geom(1, 1, 1, 3, 1, 1);
        let x = Tensor::from_vec([1, 1, 1, 1], vec![5.0]).unwrap();
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[9, 1]);
        let mut expect = [0.0; 9];
        expect[4] = 5.0; // centre tap of the 3x3 kernel
        assert_eq!(cols.data(), &expect[..]);
    }

    #[test]
    fn into_variants_overwrite_dirty_buffers() {
        // Recycled workspace buffers arrive dirty; both directions must
        // fully overwrite their output.
        for s in [1, 2] {
            let g = geom(2, 5, 4, 3, s, 1);
            let nimg = 2;
            let x = Tensor::from_vec(
                [nimg, 2, 5, 4],
                (0..nimg * 2 * 5 * 4).map(|v| v as f32 * 0.1).collect(),
            )
            .unwrap();
            let mut cols = Tensor::full([g.patch_len(), nimg * g.cols()], f32::NAN);
            im2col_into(&x, &g, &mut cols);
            assert_eq!(cols, im2col(&x, &g));

            let mut back = Tensor::full([nimg, 2, 5, 4], f32::NAN);
            col2im_into(&cols, &g, &mut back);
            assert_eq!(back, col2im(&cols, &g, nimg));
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint scatter.
        let g = geom(2, 5, 4, 3, 2, 1);
        let nimg = 2;
        let mut x = Tensor::zeros([nimg, 2, 5, 4]);
        let mut state = 1234u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        for v in x.data_mut() {
            *v = next();
        }
        let cols = im2col(&x, &g);
        let mut y = Tensor::zeros(cols.dims().to_vec());
        for v in y.data_mut() {
            *v = next();
        }
        let lhs = cols.dot(&y).unwrap();
        let back = col2im(&y, &g, nimg);
        let rhs = x.dot(&back).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn stride_two_no_padding_counts() {
        let g = geom(1, 4, 4, 2, 2, 0);
        let x = Tensor::from_vec([1, 1, 4, 4], (0..16).map(|v| v as f32).collect()).unwrap();
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[4, 4]);
        // Tap (0, 0) reads the top-left pixel of every 2x2 block.
        assert_eq!(&cols.data()[0..4], &[0., 2., 8., 10.]);
        // Tap (1, 1) reads the bottom-right pixel of every block.
        assert_eq!(&cols.data()[12..16], &[5., 7., 13., 15.]);
    }
}
