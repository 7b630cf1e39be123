//! 2-D batch normalisation over NCHW activations.

use crate::arena::Scratch;
use crate::param::Param;
use serde::{Deserialize, Serialize};
use spatl_tensor::{Tensor, Workspace};

/// Batch normalisation over the channel dimension of NCHW inputs.
///
/// Training mode normalises with batch statistics and updates running
/// statistics with exponential moving averages; evaluation mode uses the
/// running statistics. Gamma/beta are trainable; the running statistics are
/// *not* parameters but are carried along when federated clients exchange
/// encoders (they live in the buffer section of the flat layout).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchNorm2d {
    /// Scale `[c]`.
    pub gamma: Param,
    /// Shift `[c]`.
    pub beta: Param,
    /// Running mean `[c]` (buffer, not a trainable parameter).
    pub running_mean: Tensor,
    /// Running variance `[c]` (buffer).
    pub running_var: Tensor,
    /// EMA momentum for running statistics.
    pub momentum: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Channel count.
    pub channels: usize,
    /// Per-channel output mask (1.0 = keep, 0.0 = silenced). Structured
    /// pruning of the *preceding* convolution sets this so that a pruned
    /// channel is exactly zero after normalisation — as it would be if the
    /// channel (and its BN entry) were physically removed.
    pub channel_mask: Vec<f32>,
    #[serde(skip)]
    cache: Scratch<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    dims: [usize; 4],
}

impl BatchNorm2d {
    /// Create a batch-norm layer for `channels` channels.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones([channels])),
            beta: Param::new(Tensor::zeros([channels])),
            running_mean: Tensor::zeros([channels]),
            running_var: Tensor::ones([channels]),
            momentum: 0.1,
            eps: 1e-5,
            channels,
            channel_mask: vec![1.0; channels],
            cache: Scratch::default(),
        }
    }

    /// Replace the output channel mask.
    pub fn set_mask(&mut self, mask: Vec<f32>) {
        assert_eq!(mask.len(), self.channels, "bn mask length mismatch");
        self.channel_mask = mask;
    }

    /// Keep all channels.
    pub fn clear_mask(&mut self) {
        self.channel_mask = vec![1.0; self.channels];
    }

    /// Forward pass over `[n, c, h, w]` drawing all temporaries from `ws`.
    pub fn forward_ws(&mut self, input: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let dims_slice = input.dims();
        assert_eq!(dims_slice.len(), 4, "batchnorm input must be NCHW");
        let dims = [dims_slice[0], dims_slice[1], dims_slice[2], dims_slice[3]];
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.channels, "batchnorm channel mismatch");
        let spatial = h * w;
        let count = (n * spatial) as f32;

        // The previous step's normalised-activation cache feeds this step.
        self.clear_cache(ws);
        let mut out = ws.take_tensor(dims.to_vec());
        let src = input.data();
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();

        if train {
            let mut x_hat = ws.take_tensor(dims.to_vec());
            let mut inv_std = ws.take(c);
            // Batch statistics, each channel's sum one chain in
            // ascending `(img, i)` order (`channel_sums`).
            let dims3 = (n, c, spatial);
            let mut mean = ws.take(c);
            mean.fill(0.0);
            channel_sums(src, src, dims3, gamma, [&mut mean], |x, _, _| [x]);
            for m in mean.iter_mut() {
                *m /= count;
            }
            let mut var = ws.take(c);
            var.fill(0.0);
            channel_sums(src, src, dims3, &mean, [&mut var], |x, _, m| {
                let d = x - m;
                [d * d]
            });
            for v in var.iter_mut() {
                *v /= count;
            }
            let (rm, rv) = (self.running_mean.data_mut(), self.running_var.data_mut());
            for ch in 0..c {
                let istd = 1.0 / (var[ch] + self.eps).sqrt();
                inv_std[ch] = istd;

                // Update running stats with the *biased* variance, matching
                // the convention used by the paper's PyTorch reference.
                rm[ch] = (1.0 - self.momentum) * rm[ch] + self.momentum * mean[ch];
                rv[ch] = (1.0 - self.momentum) * rv[ch] + self.momentum * var[ch];
            }
            let rows = src
                .chunks_exact(spatial)
                .zip(x_hat.data_mut().chunks_exact_mut(spatial))
                .zip(out.data_mut().chunks_exact_mut(spatial));
            for (row, ((x, xh), dst)) in rows.enumerate() {
                let ch = row % c;
                let (m, istd, g, b) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
                for ((&x, xh), d) in x.iter().zip(xh).zip(dst) {
                    let v = (x - m) * istd;
                    *xh = v;
                    *d = g * v + b;
                }
            }
            ws.give(mean);
            ws.give(var);
            *self.cache = Some(BnCache {
                x_hat,
                inv_std,
                dims,
            });
        } else {
            let rm = self.running_mean.data();
            let mut inv_std = ws.take(c);
            for (istd, &rv) in inv_std.iter_mut().zip(self.running_var.data()) {
                *istd = 1.0 / (rv + self.eps).sqrt();
            }
            let rows = src
                .chunks_exact(spatial)
                .zip(out.data_mut().chunks_exact_mut(spatial));
            for (row, (x, dst)) in rows.enumerate() {
                let ch = row % c;
                let (g, m, istd, b) = (gamma[ch], rm[ch], inv_std[ch], beta[ch]);
                for (&x, d) in x.iter().zip(dst) {
                    *d = g * (x - m) * istd + b;
                }
            }
            ws.give(inv_std);
        }
        if self.channel_mask.iter().any(|&m| m != 1.0) {
            let dst = out.data_mut();
            for ch in 0..c {
                let m = self.channel_mask[ch];
                if m == 1.0 {
                    continue;
                }
                for img in 0..n {
                    let base = (img * c + ch) * spatial;
                    for v in &mut dst[base..base + spatial] {
                        *v *= m;
                    }
                }
            }
        }
        out
    }

    /// Backward pass drawing all temporaries from `ws`, using the standard
    /// batch-norm gradient `dx = (γ·istd/N) · (N·dy − Σdy − x̂·Σ(dy·x̂))`.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("batchnorm backward without forward");
        let dims = cache.dims;
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let spatial = h * w;
        let count = (n * spatial) as f32;

        let mut gated = None;
        if self.channel_mask.iter().any(|&m| m != 1.0) {
            let mut t = ws.take_tensor(dims.to_vec());
            t.data_mut().copy_from_slice(grad_out.data());
            let d = t.data_mut();
            for ch in 0..c {
                let m = self.channel_mask[ch];
                if m == 1.0 {
                    continue;
                }
                for img in 0..n {
                    let base = (img * c + ch) * spatial;
                    for v in &mut d[base..base + spatial] {
                        *v *= m;
                    }
                }
            }
            gated = Some(t);
        }
        let gy: &[f32] = match &gated {
            Some(t) => t.data(),
            None => grad_out.data(),
        };
        let xh = cache.x_hat.data();
        let gamma = self.gamma.value.data();

        let mut gx = ws.take_tensor(dims.to_vec());
        // Σdy and Σdy·x̂ per channel, each one chain in ascending
        // `(img, i)` order (`channel_sums`).
        let mut sums = ws.take(3 * c);
        sums.fill(0.0);
        let (sum_dy, rest) = sums.split_at_mut(c);
        let (sum_dy_xhat, coefs) = rest.split_at_mut(c);
        let dims3 = (n, c, spatial);
        channel_sums(gy, xh, dims3, gamma, [sum_dy, sum_dy_xhat], |dy, xh, _| {
            [dy, dy * xh]
        });
        for (g, &s) in self.beta.grad.data_mut().iter_mut().zip(&*sum_dy) {
            *g += s;
        }
        for (g, &s) in self.gamma.grad.data_mut().iter_mut().zip(&*sum_dy_xhat) {
            *g += s;
        }
        for ((coef, &g), &istd) in coefs.iter_mut().zip(gamma).zip(&cache.inv_std) {
            *coef = g * istd / count;
        }
        let rows = gy
            .chunks_exact(spatial)
            .zip(xh.chunks_exact(spatial))
            .zip(gx.data_mut().chunks_exact_mut(spatial));
        for (row, ((dy, xh), dst)) in rows.enumerate() {
            let ch = row % c;
            let (coef, s_dy, s_dy_xhat) = (coefs[ch], sum_dy[ch], sum_dy_xhat[ch]);
            for ((&dy, &xh), d) in dy.iter().zip(xh).zip(dst) {
                *d = coef * (count * dy - s_dy - xh * s_dy_xhat);
            }
        }
        ws.give(sums);
        if let Some(t) = gated {
            ws.recycle(t);
        }
        gx
    }

    /// Return the cached normalised activations to `ws`.
    pub fn clear_cache(&mut self, ws: &mut Workspace) {
        if let Some(old) = self.cache.take() {
            ws.recycle(old.x_hat);
            ws.give(old.inv_std);
        }
    }
}

/// Per-channel sums over an NCHW buffer, `dims = (n, c, spatial)`: for
/// each `t < S`, adds `term(a[e], b[e], k[ch])[t]` over the elements `e` of
/// channel `ch` to `acc[t][ch]` (`k` is a per-channel constant; a `term`
/// that needs none ignores it). Each sum is one add chain over its
/// channel's elements in ascending `(img, i)` order, starting from
/// `acc[t][ch]` — the chain a one-channel loop forms — but the `S` sums of
/// 8 (then 4, then 1) channels advance together over each image's row
/// slices, so their adds overlap instead of waiting on one another.
pub(crate) fn channel_sums<const S: usize>(
    a: &[f32],
    b: &[f32],
    dims: (usize, usize, usize),
    k: &[f32],
    mut acc: [&mut [f32]; S],
    term: impl Fn(f32, f32, f32) -> [f32; S] + Copy,
) {
    let c = dims.1;
    let mut ch = 0;
    while ch < c {
        let lanes = match c - ch {
            r if r >= 8 => 8,
            r if r >= 4 => 4,
            _ => 1,
        };
        let acc = acc.each_mut().map(|acc| &mut acc[ch..ch + lanes]);
        match lanes {
            8 => chains::<8, S>(a, b, dims, ch, k, acc, term),
            4 => chains::<4, S>(a, b, dims, ch, k, acc, term),
            _ => chains::<1, S>(a, b, dims, ch, k, acc, term),
        }
        ch += lanes;
    }
}

/// The `L` channels of [`channel_sums`] starting at channel `ch0`.
#[inline(always)]
fn chains<const L: usize, const S: usize>(
    a: &[f32],
    b: &[f32],
    (n, c, spatial): (usize, usize, usize),
    ch0: usize,
    k: &[f32],
    acc: [&mut [f32]; S],
    term: impl Fn(f32, f32, f32) -> [f32; S],
) {
    let k: [f32; L] = std::array::from_fn(|j| k[ch0 + j]);
    let mut sums: [[f32; L]; S] = std::array::from_fn(|t| std::array::from_fn(|j| acc[t][j]));
    for img in 0..n {
        let base = (img * c + ch0) * spatial;
        let a: [&[f32]; L] = std::array::from_fn(|j| &a[base + j * spatial..][..spatial]);
        let b: [&[f32]; L] = std::array::from_fn(|j| &b[base + j * spatial..][..spatial]);
        for i in 0..spatial {
            for j in 0..L {
                let terms = term(a[j][i], b[j][i], k[j]);
                for t in 0..S {
                    sums[t][j] += terms[t];
                }
            }
        }
    }
    for (acc, sums) in acc.into_iter().zip(sums) {
        acc.copy_from_slice(&sums);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatl_tensor::TensorRng;

    #[test]
    fn training_forward_normalises_batch() {
        let mut rng = TensorRng::seed_from(1);
        let mut bn = BatchNorm2d::new(3);
        let x = rng.normal_tensor([4, 3, 5, 5], 2.0, 3.0);
        let y = bn.forward_ws(&x, true, &mut Workspace::new());
        // Per-channel mean ≈ 0, var ≈ 1 (gamma=1, beta=0).
        let spatial = 25;
        for ch in 0..3 {
            let mut vals = Vec::new();
            for img in 0..4 {
                let base = (img * 3 + ch) * spatial;
                vals.extend_from_slice(&y.data()[base..base + spatial]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut rng = TensorRng::seed_from(2);
        let mut bn = BatchNorm2d::new(2);
        let mut ws = Workspace::new();
        // Run training forwards so running stats converge towards (2, 9).
        for _ in 0..200 {
            let x = rng.normal_tensor([8, 2, 4, 4], 2.0, 3.0);
            let y = bn.forward_ws(&x, true, &mut ws);
            ws.recycle(y);
        }
        let x = rng.normal_tensor([8, 2, 4, 4], 2.0, 3.0);
        let y = bn.forward_ws(&x, false, &mut ws);
        let mean = y.mean();
        assert!(mean.abs() < 0.2, "eval mean {mean}");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = TensorRng::seed_from(3);
        let mut bn = BatchNorm2d::new(2);
        bn.gamma.value = Tensor::from_slice(&[1.5, 0.7]);
        bn.beta.value = Tensor::from_slice(&[0.1, -0.2]);
        let x = rng.normal_tensor([2, 2, 3, 3], 0.0, 1.0);

        // Weighted-sum loss to get non-uniform upstream gradient.
        let wts = rng.normal_tensor([2, 2, 3, 3], 0.0, 1.0);
        let mut ws = Workspace::new();
        bn.forward_ws(&x, true, &mut ws);
        let gx = bn.backward_ws(&wts, &mut ws);

        let eps = 1e-3;
        let mut loss = |bn: &BatchNorm2d, x: &Tensor| -> f32 {
            let mut b = bn.clone();
            b.forward_ws(x, true, &mut ws).dot(&wts).unwrap()
        };
        for xi in (0..x.numel()).step_by(7) {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let fd = (loss(&bn, &xp) - loss(&bn, &xm)) / (2.0 * eps);
            let an = gx.data()[xi];
            assert!(
                (fd - an).abs() < 3e-2 * (1.0 + an.abs()),
                "x[{xi}]: {fd} vs {an}"
            );
        }
        // Gamma/beta grads.
        for gi in 0..2 {
            let mut bp = bn.clone();
            bp.gamma.value.data_mut()[gi] += eps;
            let mut bm = bn.clone();
            bm.gamma.value.data_mut()[gi] -= eps;
            let fd = (loss(&bp, &x) - loss(&bm, &x)) / (2.0 * eps);
            let an = bn.gamma.grad.data()[gi];
            assert!(
                (fd - an).abs() < 3e-2 * (1.0 + an.abs()),
                "gamma[{gi}]: {fd} vs {an}"
            );
        }
    }
}
