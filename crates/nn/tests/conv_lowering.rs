//! Bit-identity of the channel-major conv lowering against the row-major
//! lowering it replaced.
//!
//! `reference` is that earlier algorithm, kept as the oracle: the row-major
//! patch matrix `[n·oh·ow, c·k·k]`, the three GEMMs in their old
//! orientation, and a `col2im` that adds in `(oy, ox)` order. Every bit of
//! the output, weight gradient, bias gradient and input gradient must
//! match `Conv2d::{forward_ws, backward_ws}`. CI also runs this file with
//! `SPATL_FORCE_SCALAR=1`, so both micro-kernels are covered.

use spatl_nn::Conv2d;
use spatl_tensor::{
    matmul_into, matmul_nt_into, matmul_tn_into, Conv2dGeometry, Tensor, TensorRng, Workspace,
};

struct Pass {
    y: Tensor,
    gw: Tensor,
    gb: Tensor,
    gx: Tensor,
}

/// Calls `f(row, col, pixel)` for every in-image element of the row-major
/// patch matrix, in its loop order: image, oy, ox, then tap `(ch, ky, kx)`.
fn for_each_patch(g: &Conv2dGeometry, n: usize, mut f: impl FnMut(usize, usize, usize)) {
    let (k, s, p) = (g.kernel, g.stride, g.padding);
    for img in 0..n {
        for oy in 0..g.out_h() {
            for ox in 0..g.out_w() {
                let row = (img * g.out_h() + oy) * g.out_w() + ox;
                for ch in 0..g.in_channels {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * s + ky).checked_sub(p).filter(|&v| v < g.in_h);
                            let ix = (ox * s + kx).checked_sub(p).filter(|&v| v < g.in_w);
                            if let (Some(iy), Some(ix)) = (iy, ix) {
                                let px = ((img * g.in_channels + ch) * g.in_h + iy) * g.in_w + ix;
                                f(row, (ch * k + ky) * k + kx, px);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One training step of `conv` the row-major way, from its current grads.
fn reference(conv: &Conv2d, x: &Tensor, gy: &Tensor) -> Pass {
    let n = x.dims()[0];
    let g = Conv2dGeometry {
        in_channels: conv.in_channels,
        in_h: x.dims()[2],
        in_w: x.dims()[3],
        kernel: conv.kernel,
        stride: conv.stride,
        padding: conv.padding,
    };
    let (co, patch, sp) = (conv.out_channels, g.patch_len(), g.cols());
    let mut cols = Tensor::zeros([n * sp, patch]);
    for_each_patch(&g, n, |r, c, px| {
        cols.data_mut()[r * patch + c] = x.data()[px]
    });
    let mut rows = Tensor::zeros([n * sp, co]);
    matmul_nt_into(&cols, &conv.weight.value, &mut rows);
    let mut y = Tensor::zeros(gy.dims().to_vec());
    let mut grows = Tensor::zeros([n * sp, co]);
    for img in 0..n {
        for pos in 0..sp {
            for oc in 0..co {
                let (i, j) = ((img * co + oc) * sp + pos, (img * sp + pos) * co + oc);
                let m = conv.channel_mask[oc];
                y.data_mut()[i] = (rows.data()[j] + conv.bias.value.data()[oc]) * m;
                grows.data_mut()[j] = gy.data()[i] * m;
            }
        }
    }
    let mut gw = Tensor::zeros([co, patch]);
    matmul_tn_into(&grows, &cols, &mut gw);
    let mut wgrad = conv.weight.grad.clone();
    wgrad.add_assign(&gw).unwrap();
    let mut gb = conv.bias.grad.clone();
    for r in 0..n * sp {
        for oc in 0..co {
            gb.data_mut()[oc] += grows.data()[r * co + oc];
        }
    }
    let mut gcols = Tensor::zeros([n * sp, patch]);
    matmul_into(&grows, &conv.weight.value, &mut gcols);
    let mut gx = Tensor::zeros(x.dims().to_vec());
    for_each_patch(&g, n, |r, c, px| {
        gx.data_mut()[px] += gcols.data()[r * patch + c]
    });
    Pass {
        y,
        gw: wgrad,
        gb,
        gx,
    }
}

fn assert_bits(what: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape");
    for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
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

/// `(in_c, out_c, kernel, stride, padding, in_hw)`.
type Shape = (usize, usize, usize, usize, usize, usize);

fn check((cin, cout, k, s, p, h): Shape, n: usize, masked: bool, seed: u64) {
    let case = format!("{cin}->{cout} k{k} s{s} p{p} h{h} n{n} masked={masked}");
    let mut rng = TensorRng::seed_from(seed);
    let mut conv = Conv2d::new(cin, cout, k, s, p, &mut rng);
    conv.bias.value = rng.normal_tensor([cout], 0.0, 1.0);
    conv.weight.grad = rng.normal_tensor(conv.weight.value.dims().to_vec(), 0.0, 1.0);
    conv.bias.grad = rng.normal_tensor([cout], 0.0, 1.0);
    if masked {
        conv.set_mask(
            (0..cout)
                .map(|c| if c % 3 == 1 { 0.0 } else { 1.0 })
                .collect(),
        );
    }
    let patch_cols = cin * k * k * n * h * h;
    let mut ws = dirty_workspace(patch_cols.max(cout * n * h * h).max(cout * cin * k * k));

    // A discarded step first, so the measured one runs on a recycled cache.
    let warm = rng.normal_tensor([n, cin, h, h], 0.0, 1.0);
    let y = conv.forward_ws(&warm, true, &mut ws);
    ws.recycle(y);

    let x = rng.normal_tensor([n, cin, h, h], 0.0, 1.0);
    let y = conv.forward_ws(&x, true, &mut ws);
    let gy = rng.normal_tensor(y.dims().to_vec(), 0.0, 1.0);
    let want = reference(&conv, &x, &gy);
    let gx = conv.backward_ws(&gy, &mut ws);
    assert_bits(&format!("{case} output"), &y, &want.y);
    assert_bits(&format!("{case} weight grad"), &conv.weight.grad, &want.gw);
    assert_bits(&format!("{case} bias grad"), &conv.bias.grad, &want.gb);
    assert_bits(&format!("{case} input grad"), &gx, &want.gx);
    let eval = conv.forward_ws(&x, false, &mut ws);
    assert_bits(&format!("{case} eval output"), &eval, &want.y);
}

#[test]
fn every_small_geometry_matches_row_major() {
    let mut seed = 0;
    for k in [1, 3] {
        for s in [1, 2] {
            for p in [0, 1] {
                for h in [1, 2, 4, 8, 16] {
                    if h + 2 * p < k {
                        continue;
                    }
                    for n in [5, 16] {
                        seed += 1;
                        check((3, 5, k, s, p, h), n, seed % 2 == 0, seed);
                    }
                }
            }
        }
    }
}

#[test]
fn resnet20_shapes_match_row_major() {
    // ResNet-20 × 0.25 on 16×16: stem, the three stages' 3×3 convs (the
    // first of stages 2 and 3 strided) and the two 1×1 projections.
    let shapes: [Shape; 8] = [
        (3, 4, 3, 1, 1, 16),
        (4, 4, 3, 1, 1, 16),
        (4, 8, 3, 2, 1, 16),
        (8, 8, 3, 1, 1, 8),
        (4, 8, 1, 2, 0, 16),
        (8, 16, 3, 2, 1, 8),
        (16, 16, 3, 1, 1, 4),
        (8, 16, 1, 2, 0, 8),
    ];
    for (i, &shape) in shapes.iter().enumerate() {
        for (n, masked) in [(16, false), (16, true), (5, true)] {
            check(shape, n, masked, 100 + i as u64);
        }
    }
}

#[test]
fn vgg11_shapes_match_row_major() {
    // VGG-11 × 0.25 on 16×16, down to the 2×2 and 1×1 tail where most
    // taps fall outside the image and k = 1152 spans nine k-blocks.
    let shapes: [Shape; 7] = [
        (3, 16, 3, 1, 1, 16),
        (16, 32, 3, 1, 1, 8),
        (32, 64, 3, 1, 1, 4),
        (64, 64, 3, 1, 1, 4),
        (64, 128, 3, 1, 1, 2),
        (128, 128, 3, 1, 1, 2),
        (128, 128, 3, 1, 1, 1),
    ];
    for (i, &shape) in shapes.iter().enumerate() {
        for (n, masked) in [(16, false), (16, true), (5, true)] {
            check(shape, n, masked, 200 + i as u64);
        }
    }
}
