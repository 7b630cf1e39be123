//! Spatial pooling layers.

use serde::{Deserialize, Serialize};
use spatl_tensor::{Tensor, Workspace};
use std::hint::select_unpredictable;

/// Max pooling with a square window over NCHW inputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaxPool2d {
    /// Window size.
    pub kernel: usize,
    /// Stride (normally equal to `kernel`).
    pub stride: usize,
    #[serde(skip)]
    cache: Option<PoolCache>,
}

#[derive(Debug, Clone)]
struct PoolCache {
    argmax: Vec<usize>,
    in_dims: [usize; 4],
}

impl MaxPool2d {
    /// Create a max-pool layer.
    pub fn new(kernel: usize, stride: usize) -> Self {
        MaxPool2d {
            kernel,
            stride,
            cache: None,
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        )
    }

    /// Forward pass drawing temporaries from `ws`; the argmax index buffer
    /// is recycled from the previous step's cache.
    pub fn forward_ws(&mut self, input: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let d = input.dims();
        let dims = [d[0], d[1], d[2], d[3]];
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let (oh, ow) = self.out_hw(h, w);
        let mut out = ws.take_tensor([n, c, oh, ow]);
        let mut argmax = match self.cache.take() {
            Some(cache) => {
                let mut v = cache.argmax;
                v.clear();
                v.resize(n * c * oh * ow, 0);
                v
            }
            None => vec![0usize; n * c * oh * ow],
        };
        let (k, s) = (self.kernel, self.stride);
        let src = input.data();
        // Every window meets its elements one tap `(ky, kx)` at a time:
        // the tap's element of every window is gathered into one
        // contiguous buffer, so the compare-and-select loop runs over the
        // whole output and vectorises. `at` holds the offset, from its
        // window's first element, of each window's maximum so far.
        let gather = |dst: &mut [f32], off: usize| {
            for (row, dst) in dst.chunks_exact_mut(ow).enumerate() {
                let (plane, oy) = (row / oh, row % oh);
                let line = src[plane * h * w + oy * s * w + off..].iter().step_by(s);
                for (d, &v) in dst.iter_mut().zip(line) {
                    *d = v;
                }
            }
        };
        let best = out.data_mut();
        let mut tap = ws.take(best.len());
        let mut at = vec![0u32; best.len()];
        // Seeded with each window's first element; then ascending
        // `(ky, kx)`. The first maximum wins, and a NaN beats every number
        // (the first NaN wins), as in PyTorch — as one select per element,
        // not a branch.
        gather(best, 0);
        for ky in 0..k {
            for kx in 0..k {
                let off = ky * w + kx;
                gather(&mut tap, off);
                let off = u32::try_from(off).expect("pooling window offset fits u32");
                for ((b, a), &v) in best.iter_mut().zip(&mut at).zip(&tap) {
                    // `v > b`, or `v` NaN while `b` is not: that is
                    // `!(v <= b)` (true when either is NaN) while `b` is a
                    // number.
                    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN is the point
                    let wins = !(v <= *b) & !b.is_nan();
                    *b = select_unpredictable(wins, v, *b);
                    *a = select_unpredictable(wins, off, *a);
                }
            }
        }
        ws.give(tap);
        let rows = argmax.chunks_exact_mut(ow).zip(at.chunks_exact(ow));
        for (row, (idx, at)) in rows.enumerate() {
            let first = (row / oh) * h * w + (row % oh) * s * w;
            for (ox, (i, &a)) in idx.iter_mut().zip(at).enumerate() {
                *i = first + ox * s + a as usize;
            }
        }
        if train {
            self.cache = Some(PoolCache {
                argmax,
                in_dims: dims,
            });
        }
        out
    }

    /// Backward pass drawing temporaries from `ws`: route each window's
    /// gradient to its argmax position.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("maxpool backward without forward");
        let mut gx = ws.take_zeroed_tensor(cache.in_dims.to_vec());
        let dst = gx.data_mut();
        for (g, &idx) in grad_out.data().iter().zip(&cache.argmax) {
            dst[idx] += g;
        }
        gx
    }

    /// Drop cached state.
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }
}

/// Average pooling with a square window over NCHW inputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AvgPool2d {
    /// Window size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    #[serde(skip)]
    in_dims: Option<[usize; 4]>,
}

impl AvgPool2d {
    /// Create an average-pool layer.
    pub fn new(kernel: usize, stride: usize) -> Self {
        AvgPool2d {
            kernel,
            stride,
            in_dims: None,
        }
    }

    /// Forward pass drawing temporaries from `ws`.
    pub fn forward_ws(&mut self, input: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let d = input.dims();
        let dims = [d[0], d[1], d[2], d[3]];
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let oh = (h - self.kernel) / self.stride + 1;
        let ow = (w - self.kernel) / self.stride + 1;
        let inv = 1.0 / (self.kernel * self.kernel) as f32;
        let mut out = ws.take_tensor([n, c, oh, ow]);
        let src = input.data();
        let dst = out.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let in_base = (img * c + ch) * h * w;
                let out_base = (img * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                acc += src
                                    [in_base + (oy * self.stride + ky) * w + ox * self.stride + kx];
                            }
                        }
                        dst[out_base + oy * ow + ox] = acc * inv;
                    }
                }
            }
        }
        self.in_dims = if train { Some(dims) } else { None };
        out
    }

    /// Backward pass drawing temporaries from `ws`: spread gradient
    /// uniformly over each window.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let dims = self.in_dims.expect("avgpool backward without forward");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let od = grad_out.dims();
        let (oh, ow) = (od[2], od[3]);
        let inv = 1.0 / (self.kernel * self.kernel) as f32;
        let mut gx = ws.take_zeroed_tensor(dims.to_vec());
        let src = grad_out.data();
        let dst = gx.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let in_base = (img * c + ch) * h * w;
                let out_base = (img * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = src[out_base + oy * ow + ox] * inv;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                dst[in_base
                                    + (oy * self.stride + ky) * w
                                    + ox * self.stride
                                    + kx] += g;
                            }
                        }
                    }
                }
            }
        }
        gx
    }

    /// Drop cached state.
    pub fn clear_cache(&mut self) {
        self.in_dims = None;
    }
}

/// Global average pooling: `[n, c, h, w] -> [n, c]`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GlobalAvgPool {
    #[serde(skip)]
    in_dims: Option<[usize; 4]>,
}

impl GlobalAvgPool {
    /// Create a global average-pool layer.
    pub fn new() -> Self {
        GlobalAvgPool { in_dims: None }
    }

    /// Forward pass producing `[n, c]`, drawing temporaries from `ws`.
    pub fn forward_ws(&mut self, input: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let d = input.dims();
        let dims = [d[0], d[1], d[2], d[3]];
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let spatial = h * w;
        let inv = 1.0 / spatial as f32;
        let mut out = ws.take_tensor([n, c]);
        let src = input.data();
        let dst = out.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * spatial;
                dst[img * c + ch] = src[base..base + spatial].iter().sum::<f32>() * inv;
            }
        }
        self.in_dims = if train { Some(dims) } else { None };
        out
    }

    /// Backward pass drawing temporaries from `ws`. Every element of the
    /// input gradient is assigned, so the buffer needs no pre-zeroing.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let dims = self.in_dims.expect("gap backward without forward");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let spatial = h * w;
        let inv = 1.0 / spatial as f32;
        let mut gx = ws.take_tensor(dims.to_vec());
        let src = grad_out.data();
        let dst = gx.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let g = src[img * c + ch] * inv;
                let base = (img * c + ch) * spatial;
                for v in &mut dst[base..base + spatial] {
                    *v = g;
                }
            }
        }
        gx
    }

    /// Drop cached state.
    pub fn clear_cache(&mut self) {
        self.in_dims = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_nan_wins_and_grad_stays_in_its_window() {
        // Image 0: a plain window, and one where a NaN precedes a larger
        // number. Image 1: an all-NaN window and an all-−∞ window.
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let x = Tensor::from_vec(
            [2, 1, 2, 4],
            vec![
                1., 1., 2., nan, //
                1., 1., 5., nan, //
                nan, nan, ninf, ninf, //
                nan, nan, ninf, ninf,
            ],
        )
        .unwrap();
        let mut p = MaxPool2d::new(2, 2);
        let mut ws = Workspace::new();
        let y = p.forward_ws(&x, true, &mut ws);
        assert_eq!(y.data()[0], 1.0);
        assert!(y.data()[1].is_nan() && y.data()[2].is_nan());
        assert_eq!(y.data()[3], ninf);
        // Each gradient lands on its window's first maximum (its first NaN),
        // never outside the window.
        let gy = Tensor::from_vec([2, 1, 1, 2], vec![1., 2., 3., 4.]).unwrap();
        let g = p.backward_ws(&gy, &mut ws);
        let mut want = [0.0f32; 16];
        (want[0], want[3], want[8], want[10]) = (1., 2., 3., 4.);
        assert_eq!(g.data(), &want);
    }

    #[test]
    fn maxpool_picks_window_max_and_routes_grad() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            [1, 1, 4, 4],
            vec![
                1., 2., 5., 4., //
                3., 0., 1., 1., //
                0., 0., 9., 8., //
                0., 7., 6., 5.,
            ],
        )
        .unwrap();
        let mut ws = Workspace::new();
        let y = p.forward_ws(&x, true, &mut ws);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[3., 5., 7., 9.]);
        let gy = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let g = p.backward_ws(&gy, &mut ws);
        // Gradient lands exactly on the argmax positions.
        assert_eq!(g.at(&[0, 0, 1, 0]), 1.0);
        assert_eq!(g.at(&[0, 0, 0, 2]), 2.0);
        assert_eq!(g.at(&[0, 0, 3, 1]), 3.0);
        assert_eq!(g.at(&[0, 0, 2, 2]), 4.0);
        assert_eq!(g.sum(), 10.0);
    }

    #[test]
    fn avgpool_averages_and_spreads_grad() {
        let mut p = AvgPool2d::new(2, 2);
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let mut ws = Workspace::new();
        let y = p.forward_ws(&x, true, &mut ws);
        assert_eq!(y.data(), &[2.5]);
        let g = p.backward_ws(&Tensor::from_vec([1, 1, 1, 1], vec![4.0]).unwrap(), &mut ws);
        assert_eq!(g.data(), &[1., 1., 1., 1.]);
    }

    #[test]
    fn gap_reduces_to_channel_means() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec([1, 2, 2, 2], vec![1., 1., 1., 1., 2., 4., 6., 8.]).unwrap();
        let mut ws = Workspace::new();
        let y = p.forward_ws(&x, true, &mut ws);
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.data(), &[1.0, 5.0]);
        let g = p.backward_ws(&Tensor::from_vec([1, 2], vec![4.0, 8.0]).unwrap(), &mut ws);
        assert_eq!(&g.data()[..4], &[1., 1., 1., 1.]);
        assert_eq!(&g.data()[4..], &[2., 2., 2., 2.]);
    }
}
