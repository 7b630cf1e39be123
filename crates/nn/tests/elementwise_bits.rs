//! Bit-identity of the element-wise layers against their plain loops.
//!
//! The oracles below are the straightforward per-element loops `Relu`,
//! `BatchNorm2d` and `MaxPool2d` were first written as: one channel's sum
//! is one serial add chain in ascending `(img, i)` order, ReLU and max-pool
//! compare and store one element at a time. Every output, gradient and
//! buffer of the layers must match them under `to_bits`, at every ResNet-20
//! and VGG-11 × 0.25 activation shape at batch 16 and at channel counts
//! that leave a tail after any channel interleave.
//!
//! Inputs are salted with NaN, ±0.0, ±∞ and subnormals. The NaN is the
//! platform's own default NaN (`∞ − ∞`), so every NaN the arithmetic meets
//! or makes has one bit pattern, and which operand of a commutative add
//! the compiler puts first cannot show up in the bits.

use spatl_nn::{BatchNorm2d, MaxPool2d, Relu};
use spatl_tensor::{col2im_into, im2col_into, Conv2dGeometry, Tensor, TensorRng, Workspace};

fn default_nan() -> f32 {
    std::hint::black_box(f32::INFINITY) - std::hint::black_box(f32::INFINITY)
}

/// `[n, c, h, w]` normal values; every element is ±0.0 or a subnormal with
/// some probability, and channels with `ch % 4 == 3` (the only ones) also
/// carry NaN and ±∞.
fn salted(rng: &mut TensorRng, dims: [usize; 4]) -> Tensor {
    let mut t = rng.normal_tensor(dims, 0.3, 1.0);
    let (c, spatial) = (dims[1], dims[2] * dims[3]);
    let specials = [0.0, -0.0, 1e-40, -3e-39, f32::MIN_POSITIVE / 2.0];
    let poison = [default_nan(), f32::INFINITY, f32::NEG_INFINITY];
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        let ch = i / spatial % c;
        match rng.below(29) {
            0 => *v = specials[rng.below(specials.len())],
            1 if ch % 4 == 3 => *v = poison[rng.below(poison.len())],
            _ => {}
        }
    }
    t
}

fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
    }
}

/// A workspace whose pooled buffers hold NaN, as recycled ones may.
fn dirty_workspace(len: usize) -> Workspace {
    let mut ws = Workspace::new();
    for _ in 0..8 {
        ws.give(vec![f32::NAN; len]);
    }
    ws
}

/// Every activation shape of ResNet-20 and VGG-11 × 0.25 on 16×16 at
/// batch 16, then small batches at channel counts 1, 3, 5, 12 and 20.
fn shapes() -> Vec<[usize; 4]> {
    let mut s = vec![
        [16, 4, 16, 16],
        [16, 8, 8, 8],
        [16, 16, 4, 4],
        [16, 16, 16, 16],
        [16, 32, 8, 8],
        [16, 64, 4, 4],
        [16, 128, 2, 2],
        [16, 128, 1, 1],
    ];
    for c in [1, 3, 5, 12, 20] {
        s.push([3, c, 5, 7]);
        s.push([2, c, 1, 1]);
    }
    s
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

fn relu_oracle(x: &[f32], train: bool) -> (Vec<f32>, Vec<bool>) {
    let mut out = vec![0.0; x.len()];
    let mut mask = vec![false; x.len()];
    if train {
        for (i, (d, &s)) in out.iter_mut().zip(x).enumerate() {
            if s > 0.0 {
                mask[i] = true;
                *d = s;
            } else {
                *d = 0.0;
            }
        }
    } else {
        for (d, &s) in out.iter_mut().zip(x) {
            *d = s.max(0.0);
        }
    }
    (out, mask)
}

fn relu_backward_oracle(gy: &[f32], mask: &[bool]) -> Vec<f32> {
    let mut g = vec![0.0; gy.len()];
    for ((d, &s), &m) in g.iter_mut().zip(gy).zip(mask) {
        *d = if m { s } else { 0.0 };
    }
    g
}

/// Batch-norm state the oracle carries between calls.
struct BnOracle {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    gamma_grad: Vec<f32>,
    beta_grad: Vec<f32>,
    momentum: f32,
    eps: f32,
    mask: Vec<f32>,
    x_hat: Vec<f32>,
    inv_std: Vec<f32>,
}

impl BnOracle {
    fn of(bn: &BatchNorm2d) -> Self {
        BnOracle {
            gamma: bn.gamma.value.data().to_vec(),
            beta: bn.beta.value.data().to_vec(),
            running_mean: bn.running_mean.data().to_vec(),
            running_var: bn.running_var.data().to_vec(),
            gamma_grad: bn.gamma.grad.data().to_vec(),
            beta_grad: bn.beta.grad.data().to_vec(),
            momentum: bn.momentum,
            eps: bn.eps,
            mask: bn.channel_mask.clone(),
            x_hat: Vec::new(),
            inv_std: Vec::new(),
        }
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Vec<f32> {
        let d = input.dims();
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let spatial = h * w;
        let count = (n * spatial) as f32;
        let src = input.data();
        let (gamma, beta) = (&self.gamma, &self.beta);
        let mut out = vec![0.0; src.len()];
        if train {
            let mut x_hat = vec![0.0; src.len()];
            let mut inv_std = vec![0.0; c];
            for ch in 0..c {
                let mut mean = 0.0f32;
                for img in 0..n {
                    let base = (img * c + ch) * spatial;
                    for i in 0..spatial {
                        mean += src[base + i];
                    }
                }
                mean /= count;
                let mut var = 0.0f32;
                for img in 0..n {
                    let base = (img * c + ch) * spatial;
                    for i in 0..spatial {
                        let d = src[base + i] - mean;
                        var += d * d;
                    }
                }
                var /= count;
                let istd = 1.0 / (var + self.eps).sqrt();
                inv_std[ch] = istd;
                let rm = &mut self.running_mean[ch];
                *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
                let rv = &mut self.running_var[ch];
                *rv = (1.0 - self.momentum) * *rv + self.momentum * var;
                for img in 0..n {
                    let base = (img * c + ch) * spatial;
                    for i in 0..spatial {
                        let v = (src[base + i] - mean) * istd;
                        x_hat[base + i] = v;
                        out[base + i] = gamma[ch] * v + beta[ch];
                    }
                }
            }
            self.x_hat = x_hat;
            self.inv_std = inv_std;
        } else {
            let (rm, rv) = (&self.running_mean, &self.running_var);
            for ch in 0..c {
                let istd = 1.0 / (rv[ch] + self.eps).sqrt();
                for img in 0..n {
                    let base = (img * c + ch) * spatial;
                    for i in 0..spatial {
                        out[base + i] = gamma[ch] * (src[base + i] - rm[ch]) * istd + beta[ch];
                    }
                }
            }
        }
        if self.mask.iter().any(|&m| m != 1.0) {
            for ch in 0..c {
                let m = self.mask[ch];
                if m == 1.0 {
                    continue;
                }
                for img in 0..n {
                    let base = (img * c + ch) * spatial;
                    for v in &mut out[base..base + spatial] {
                        *v *= m;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Vec<f32> {
        let d = grad_out.dims();
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let spatial = h * w;
        let count = (n * spatial) as f32;
        let mut gy = grad_out.data().to_vec();
        if self.mask.iter().any(|&m| m != 1.0) {
            for ch in 0..c {
                let m = self.mask[ch];
                if m == 1.0 {
                    continue;
                }
                for img in 0..n {
                    let base = (img * c + ch) * spatial;
                    for v in &mut gy[base..base + spatial] {
                        *v *= m;
                    }
                }
            }
        }
        let xh = &self.x_hat;
        let mut gx = vec![0.0; gy.len()];
        for ch in 0..c {
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for img in 0..n {
                let base = (img * c + ch) * spatial;
                for i in 0..spatial {
                    sum_dy += gy[base + i];
                    sum_dy_xhat += gy[base + i] * xh[base + i];
                }
            }
            self.beta_grad[ch] += sum_dy;
            self.gamma_grad[ch] += sum_dy_xhat;
            let coef = self.gamma[ch] * self.inv_std[ch] / count;
            for img in 0..n {
                let base = (img * c + ch) * spatial;
                for i in 0..spatial {
                    gx[base + i] =
                        coef * (count * gy[base + i] - sum_dy - xh[base + i] * sum_dy_xhat);
                }
            }
        }
        gx
    }
}

/// Max-pool forward: output and argmax. The first maximum wins; a NaN
/// beats every number and the first NaN wins.
fn maxpool_oracle(input: &Tensor, kernel: usize, stride: usize) -> (Vec<f32>, Vec<usize>) {
    let d = input.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (oh, ow) = ((h - kernel) / stride + 1, (w - kernel) / stride + 1);
    let mut dst = vec![0.0; n * c * oh * ow];
    let mut argmax = vec![0usize; n * c * oh * ow];
    let src = input.data();
    for img in 0..n {
        for ch in 0..c {
            let in_base = (img * c + ch) * h * w;
            let out_base = (img * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let first = in_base + oy * stride * w + ox * stride;
                    let (mut best, mut best_idx) = (src[first], first);
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let idx = first + ky * w + kx;
                            let v = src[idx];
                            if v > best || (v.is_nan() && !best.is_nan()) {
                                best = v;
                                best_idx = idx;
                            }
                        }
                    }
                    dst[out_base + oy * ow + ox] = best;
                    argmax[out_base + oy * ow + ox] = best_idx;
                }
            }
        }
    }
    (dst, argmax)
}

fn maxpool_backward_oracle(gy: &[f32], argmax: &[usize], in_len: usize) -> Vec<f32> {
    let mut dst = vec![0.0; in_len];
    for (g, &idx) in gy.iter().zip(argmax) {
        dst[idx] += g;
    }
    dst
}

// ---------------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------------

#[test]
fn relu_matches_branchy_loop() {
    let mut rng = TensorRng::seed_from(1);
    for dims in shapes() {
        let numel: usize = dims.iter().product();
        let mut ws = dirty_workspace(numel);
        let mut relu = Relu::new();
        for round in 0..2 {
            let case = format!("{dims:?} round {round}");
            let x = salted(&mut rng, dims);
            let (want, mask) = relu_oracle(x.data(), true);
            let y = relu.forward_ws(&x, true, &mut ws);
            assert_bits(&format!("{case} train output"), y.data(), &want);
            ws.recycle(y);
            let gy = salted(&mut rng, dims);
            let g = relu.backward_ws(&gy, &mut ws);
            let want = relu_backward_oracle(gy.data(), &mask);
            assert_bits(&format!("{case} input grad"), g.data(), &want);
            ws.recycle(g);
            let (want, _) = relu_oracle(x.data(), false);
            let y = relu.forward_ws(&x, false, &mut ws);
            assert_bits(&format!("{case} eval output"), y.data(), &want);
            ws.recycle(y);
        }
    }
}

#[test]
fn batchnorm_matches_one_chain_per_channel() {
    let mut rng = TensorRng::seed_from(2);
    for dims in shapes() {
        let c = dims[1];
        let numel: usize = dims.iter().product();
        for masked in [false, true] {
            let case = format!("{dims:?} masked={masked}");
            let mut bn = BatchNorm2d::new(c);
            bn.gamma.value = rng.normal_tensor([c], 1.0, 0.5);
            bn.beta.value = rng.normal_tensor([c], 0.0, 0.5);
            bn.gamma.grad = rng.normal_tensor([c], 0.0, 1.0);
            bn.beta.grad = rng.normal_tensor([c], 0.0, 1.0);
            bn.running_mean = rng.normal_tensor([c], 0.0, 1.0);
            bn.running_var = rng.uniform_tensor([c], 0.5, 2.0);
            if masked {
                let pattern = [1.0, 0.0, 1.0, 0.5, 1.0, 0.0];
                bn.set_mask((0..c).map(|ch| pattern[ch % pattern.len()]).collect());
            }
            let mut oracle = BnOracle::of(&bn);
            let mut ws = dirty_workspace(numel);
            // Two steps, so the second runs on recycled cache buffers.
            for step in 0..2 {
                let case = format!("{case} step {step}");
                let x = salted(&mut rng, dims);
                let want = oracle.forward(&x, true);
                let y = bn.forward_ws(&x, true, &mut ws);
                assert_bits(&format!("{case} train output"), y.data(), &want);
                ws.recycle(y);
                assert_bits(
                    &format!("{case} running mean"),
                    bn.running_mean.data(),
                    &oracle.running_mean,
                );
                assert_bits(
                    &format!("{case} running var"),
                    bn.running_var.data(),
                    &oracle.running_var,
                );
                let gy = salted(&mut rng, dims);
                let want = oracle.backward(&gy);
                let gx = bn.backward_ws(&gy, &mut ws);
                // The input gradient carries every `x̂` and `inv_std` the
                // forward cached.
                assert_bits(&format!("{case} input grad"), gx.data(), &want);
                ws.recycle(gx);
                assert_bits(
                    &format!("{case} beta grad"),
                    bn.beta.grad.data(),
                    &oracle.beta_grad,
                );
                assert_bits(
                    &format!("{case} gamma grad"),
                    bn.gamma.grad.data(),
                    &oracle.gamma_grad,
                );
            }
            let x = salted(&mut rng, dims);
            let want = oracle.forward(&x, false);
            let y = bn.forward_ws(&x, false, &mut ws);
            assert_bits(&format!("{case} eval output"), y.data(), &want);
        }
    }
}

#[test]
fn maxpool_matches_first_max_loop() {
    let mut rng = TensorRng::seed_from(3);
    let mut cases: Vec<([usize; 4], usize, usize)> = shapes()
        .into_iter()
        .filter(|d| d[2] >= 2 && d[3] >= 2)
        .map(|d| (d, 2, 2))
        .collect();
    cases.extend([
        ([3, 5, 5, 7], 3, 2),
        ([2, 3, 6, 6], 2, 1),
        ([2, 12, 5, 5], 1, 1),
    ]);
    for (dims, k, s) in cases {
        let numel: usize = dims.iter().product();
        let mut ws = dirty_workspace(numel);
        let mut pool = MaxPool2d::new(k, s);
        for round in 0..2 {
            let case = format!("{dims:?} k{k} s{s} round {round}");
            let x = salted(&mut rng, dims);
            let (want, argmax) = maxpool_oracle(&x, k, s);
            let y = pool.forward_ws(&x, true, &mut ws);
            assert_bits(&format!("{case} output"), y.data(), &want);
            // The argmax shows through the backward scatter: each window's
            // small-integer gradient lands exactly where it was routed.
            let od = y.dims().to_vec();
            let gy = Tensor::from_vec(
                od.clone(),
                (0..y.numel()).map(|i| (1 + i % 23) as f32).collect(),
            )
            .unwrap();
            ws.recycle(y);
            let g = pool.backward_ws(&gy, &mut ws);
            let want = maxpool_backward_oracle(gy.data(), &argmax, numel);
            assert_bits(&format!("{case} input grad"), g.data(), &want);
            ws.recycle(g);
            let gy = salted(&mut rng, [od[0], od[1], od[2], od[3]]);
            let g = pool.backward_ws(&gy, &mut ws);
            let want = maxpool_backward_oracle(gy.data(), &argmax, numel);
            assert_bits(&format!("{case} salted input grad"), g.data(), &want);
            ws.recycle(g);
            let y = pool.forward_ws(&x, false, &mut ws);
            assert_bits(
                &format!("{case} eval output"),
                y.data(),
                &maxpool_oracle(&x, k, s).0,
            );
            ws.recycle(y);
        }
    }
}

/// Calls `f(row, col, pixel)` for every in-image element of the
/// channel-major patch matrix `[c·k·k, n·oh·ow]`, visiting the output
/// positions of each pixel in ascending `(oy, ox)` order.
fn for_each_tap(g: &Conv2dGeometry, n: usize, mut f: impl FnMut(usize, usize, usize)) {
    let (k, s, p) = (g.kernel, g.stride, g.padding);
    let (oh, ow) = (g.out_h(), g.out_w());
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let col = (img * oh + oy) * ow + ox;
                for ch in 0..g.in_channels {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * s + ky).checked_sub(p).filter(|&v| v < g.in_h);
                            let ix = (ox * s + kx).checked_sub(p).filter(|&v| v < g.in_w);
                            if let (Some(iy), Some(ix)) = (iy, ix) {
                                let px = ((img * g.in_channels + ch) * g.in_h + iy) * g.in_w + ix;
                                f((ch * k + ky) * k + kx, col, px);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn im2col_and_col2im_keep_values_and_add_order() {
    let mut rng = TensorRng::seed_from(4);
    // ResNet-20 stage 1 and 2, VGG-11's 2×2 and 1×1 tail, a strided tap
    // set, a 1×1 projection and a non-square image.
    let geoms = [
        (16, 4, 16, 16, 3, 1, 1),
        (16, 8, 8, 8, 3, 1, 1),
        (16, 128, 2, 2, 3, 1, 1),
        (16, 128, 1, 1, 3, 1, 1),
        (5, 3, 9, 9, 3, 2, 1),
        (5, 4, 8, 8, 1, 2, 0),
        (3, 5, 5, 7, 3, 1, 1),
        (3, 2, 6, 5, 5, 1, 2),
    ];
    for (n, c, h, w, k, s, p) in geoms {
        let case = format!("n{n} c{c} {h}x{w} k{k} s{s} p{p}");
        let g = Conv2dGeometry {
            in_channels: c,
            in_h: h,
            in_w: w,
            kernel: k,
            stride: s,
            padding: p,
        };
        let cols_dims = [g.patch_len(), n * g.cols()];
        let x = salted(&mut rng, [n, c, h, w]);
        let mut want = vec![0.0; cols_dims[0] * cols_dims[1]];
        for_each_tap(&g, n, |row, col, px| {
            want[row * cols_dims[1] + col] = x.data()[px]
        });
        let mut cols = Tensor::full(cols_dims, f32::NAN);
        im2col_into(&x, &g, &mut cols);
        assert_bits(&format!("{case} im2col"), cols.data(), &want);

        // A gradient with ±0.0 and NaN in it: every pixel still starts from
        // +0.0 and adds its terms in ascending output order.
        let mut gcols = rng.normal_tensor(cols_dims, 0.0, 1.0);
        for v in gcols.data_mut() {
            match rng.below(11) {
                0 => *v = 0.0,
                1 => *v = -0.0,
                2 if rng.below(40) == 0 => *v = default_nan(),
                _ => {}
            }
        }
        let mut want = vec![0.0; n * c * h * w];
        for_each_tap(&g, n, |row, col, px| {
            want[px] += gcols.data()[row * cols_dims[1] + col]
        });
        let mut gx = Tensor::full([n, c, h, w], f32::NAN);
        col2im_into(&gcols, &g, &mut gx);
        assert_bits(&format!("{case} col2im"), gx.data(), &want);
        // An all-(−0.0) gradient sums to +0.0 everywhere.
        let neg = Tensor::full(cols_dims, -0.0);
        col2im_into(&neg, &g, &mut gx);
        assert!(gx.data().iter().all(|v| v.to_bits() == 0), "{case} −0.0");
    }
}
