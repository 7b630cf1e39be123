//! Bit-identity of convolutions whose maps are so small that some kernel
//! taps only ever read padding ("dead" taps: a 3×3 kernel on a 1×1 map
//! has eight), against the full-K lowering.
//!
//! The oracle materialises the channel-major patch matrix
//! `[c·k·k, n·oh·ow]` *with* its all-zero dead-tap rows and runs the three
//! GEMMs over the full `k` through `matmul_into` / `matmul_nt_into` /
//! `matmul_tn_into`, whose k-chains restart every `KC` rows. The cases put
//! k-block ends inside one channel's taps and between channels, salt the
//! dead-tap weights and the output gradient with NaN and ±∞ (where a dead
//! term is no longer `+0.0`), and pre-seed the weight gradient with `−0.0`
//! at dead columns (which `+ 0.0` turns into `+0.0`). Every bit of the
//! output, weight gradient, bias gradient and input gradient must match.
//! `every_case_under_one_two_and_three_threads` re-runs the cases in child
//! processes at `SPATL_THREADS` 1, 2 and 3, so the GEMMs' column and row
//! splits are covered too; CI also runs this file with
//! `SPATL_FORCE_SCALAR=1`.

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

fn geometry(conv: &Conv2d, h: usize) -> Conv2dGeometry {
    Conv2dGeometry {
        in_channels: conv.in_channels,
        in_h: h,
        in_w: h,
        kernel: conv.kernel,
        stride: conv.stride,
        padding: conv.padding,
    }
}

/// The input pixel tap `(ch, ky, kx)` reads at output `(oy, ox)` of image
/// `img`, or `None` where it reads padding.
fn pixel(
    g: &Conv2dGeometry,
    img: usize,
    (ch, ky, kx): (usize, usize, usize),
    (oy, ox): (usize, usize),
) -> Option<usize> {
    let (s, p) = (g.stride, g.padding);
    let iy = (oy * s + ky).checked_sub(p).filter(|&v| v < g.in_h)?;
    let ix = (ox * s + kx).checked_sub(p).filter(|&v| v < g.in_w)?;
    Some(((img * g.in_channels + ch) * g.in_h + iy) * g.in_w + ix)
}

/// Is tap `(ky, kx)` padding at every output position?
fn dead(g: &Conv2dGeometry, ky: usize, kx: usize) -> bool {
    (0..g.out_h()).all(|oy| (0..g.out_w()).all(|ox| pixel(g, 0, (0, ky, kx), (oy, ox)).is_none()))
}

/// The weight columns `ch·k·k + ky·k + kx` of dead taps.
fn dead_columns(g: &Conv2dGeometry) -> Vec<usize> {
    let k = g.kernel;
    (0..g.in_channels)
        .flat_map(|ch| (0..k * k).map(move |t| (ch, t)))
        .filter(|&(_, t)| dead(g, t / k, t % k))
        .map(|(ch, t)| ch * k * k + t)
        .collect()
}

/// One training step of `conv` over the full patch matrix, zero rows
/// included, from its current grads.
fn full_k(conv: &Conv2d, x: &Tensor, gy: &Tensor) -> Pass {
    let n = x.dims()[0];
    let g = geometry(conv, x.dims()[2]);
    let (k, co, patch, sp) = (g.kernel, conv.out_channels, g.patch_len(), g.cols());
    let (oh, ow) = (g.out_h(), g.out_w());
    let mut cols = Tensor::zeros([patch, n * sp]);
    for row in 0..patch {
        let tap = (row / (k * k), row / k % k, row % k);
        for img in 0..n {
            for pos in 0..sp {
                if let Some(px) = pixel(&g, img, tap, (pos / ow, pos % ow)) {
                    cols.data_mut()[row * n * sp + img * sp + pos] = x.data()[px];
                }
            }
        }
    }
    let mut ycm = Tensor::zeros([co, n * sp]);
    matmul_into(&conv.weight.value, &cols, &mut ycm);
    let mut y = Tensor::zeros(gy.dims().to_vec());
    let mut gcm = Tensor::zeros([co, n * sp]);
    let mut gb = conv.bias.grad.clone();
    for oc in 0..co {
        let m = conv.channel_mask[oc];
        for img in 0..n {
            for pos in 0..sp {
                let (i, j) = ((img * co + oc) * sp + pos, oc * n * sp + img * sp + pos);
                y.data_mut()[i] = (ycm.data()[j] + conv.bias.value.data()[oc]) * m;
                gcm.data_mut()[j] = gy.data()[i] * m;
                gb.data_mut()[oc] += gy.data()[i] * m;
            }
        }
    }
    let mut gw = Tensor::zeros([co, patch]);
    matmul_nt_into(&gcm, &cols, &mut gw);
    let mut wgrad = conv.weight.grad.clone();
    wgrad.add_assign(&gw).unwrap();
    let mut gcols = Tensor::zeros([patch, n * sp]);
    matmul_tn_into(&conv.weight.value, &gcm, &mut gcols);
    // Each pixel sums its terms in ascending output-position order.
    let mut gx = Tensor::zeros(x.dims().to_vec());
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                for row in 0..patch {
                    let tap = (row / (k * k), row / k % k, row % k);
                    if let Some(px) = pixel(&g, img, tap, (oy, ox)) {
                        gx.data_mut()[px] += gcols.data()[row * n * sp + img * sp + oy * ow + ox];
                    }
                }
            }
        }
    }
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

const SALT: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

/// What a case plants in the data.
#[derive(Clone, Copy, Debug)]
enum Salt {
    /// Finite data throughout.
    None,
    /// NaN and ±∞ in dead-tap weights.
    DeadWeights,
    /// NaN and ±∞ in the output gradient.
    OutputGrad,
}

/// `(in_c, out_c, kernel, padding, in_hw)`; stride 1.
type Shape = (usize, usize, usize, usize, usize);

fn check((cin, cout, k, p, h): Shape, n: usize, masked: bool, salt: Salt, seed: u64) {
    let case = format!("{cin}->{cout} k{k} p{p} h{h} n{n} masked={masked} salt={salt:?}");
    let mut rng = TensorRng::seed_from(seed);
    let mut conv = Conv2d::new(cin, cout, k, 1, p, &mut rng);
    let g = geometry(&conv, h);
    let dead = dead_columns(&g);
    assert!(!dead.is_empty(), "{case}: no dead tap");
    let patch = g.patch_len();
    conv.bias.value = rng.normal_tensor([cout], 0.0, 1.0);
    conv.weight.grad = rng.normal_tensor([cout, patch], 0.0, 1.0);
    conv.bias.grad = rng.normal_tensor([cout], 0.0, 1.0);
    for oc in 0..cout {
        for &col in &dead {
            conv.weight.grad.data_mut()[oc * patch + col] = -0.0;
        }
    }
    if let Salt::DeadWeights = salt {
        for (i, &col) in dead.iter().enumerate().step_by(5) {
            let oc = i * 7 % cout;
            conv.weight.value.data_mut()[oc * patch + col] = SALT[i % 3];
        }
    }
    if masked {
        conv.set_mask(
            (0..cout)
                .map(|c| if c % 3 == 1 { 0.0 } else { 1.0 })
                .collect(),
        );
    }
    let sp = g.cols();
    let mut ws = dirty_workspace((patch * n * sp).max(cout * n * sp).max(cout * patch));

    // A discarded step first, so the measured one runs on a recycled cache.
    let warm = rng.normal_tensor([n, cin, h, h], 0.0, 1.0);
    let y = conv.forward_ws(&warm, true, &mut ws);
    ws.recycle(y);

    let x = rng.normal_tensor([n, cin, h, h], 0.0, 1.0);
    let y = conv.forward_ws(&x, true, &mut ws);
    let mut gy = rng.normal_tensor(y.dims().to_vec(), 0.0, 1.0);
    if let Salt::OutputGrad = salt {
        let len = gy.numel();
        for (i, at) in (0..len).step_by(len / 3 + 1).enumerate() {
            gy.data_mut()[at] = SALT[i % 3];
        }
    }
    let want = full_k(&conv, &x, &gy);
    let gx = conv.backward_ws(&gy, &mut ws);
    assert_bits(&format!("{case} output"), &y, &want.y);
    assert_bits(&format!("{case} weight grad"), &conv.weight.grad, &want.gw);
    assert_bits(&format!("{case} bias grad"), &conv.bias.grad, &want.gb);
    assert_bits(&format!("{case} input grad"), &gx, &want.gx);
    let eval = conv.forward_ws(&x, false, &mut ws);
    assert_bits(&format!("{case} eval output"), &eval, &want.y);
}

fn every_case(shapes: &[Shape], seed: u64) {
    let mut seed = seed;
    for &shape in shapes {
        for n in [1, 5, 16] {
            for salt in [Salt::None, Salt::DeadWeights, Salt::OutputGrad] {
                for masked in [false, true] {
                    seed += 1;
                    check(shape, n, masked, salt, seed);
                }
            }
        }
    }
}

#[test]
fn vgg11_tail_matches_full_k() {
    // VGG-11 × 0.25's last conv: one live tap in nine, and k = 1152 spans
    // nine k-blocks.
    every_case(&[(128, 128, 3, 1, 1)], 1000);
}

#[test]
fn block_ends_inside_and_between_channels_match_full_k() {
    // k = 9·c_in on a 1×1 map, where row 9·ch + 4 is channel ch's one
    // live tap. c_in = 1, 13, 14: k fits one k-block. c_in = 15: the end
    // at 128 is channel 14's tap 2, between channels 13's and 14's live
    // rows. c_in = 29: the end at 256 is channel 28's live row itself, so
    // the last block opens on it.
    let shapes: Vec<Shape> = [1, 13, 14, 15, 29]
        .iter()
        .map(|&cin| (cin, 8, 3, 1, 1))
        .collect();
    every_case(&shapes, 2000);
}

#[test]
fn taps_dead_on_one_axis_match_full_k() {
    // 5×5 kernel, padding 2: on a 1×1 map only the centre tap lives; on a
    // 2×2 map the outer rows and columns are dead on one axis while their
    // crossings with the inner ones are not.
    every_case(&[(6, 5, 5, 2, 1), (6, 5, 5, 2, 2), (30, 7, 5, 2, 2)], 3000);
}

/// The three tests above in one, for the thread-count re-runs.
#[test]
fn every_case_matches_full_k() {
    vgg11_tail_matches_full_k();
    block_ends_inside_and_between_channels_match_full_k();
    taps_dead_on_one_axis_match_full_k();
}

#[test]
fn every_case_under_one_two_and_three_threads() {
    // The pool reads `SPATL_THREADS` once per process, so each count gets
    // a child process of this test binary.
    if std::env::var_os("SPATL_THREADS").is_some() {
        return; // already a child (or pinned by the caller)
    }
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "2", "3"] {
        let out = std::process::Command::new(&exe)
            .args(["--exact", "every_case_matches_full_k", "--test-threads=1"])
            .env("SPATL_THREADS", threads)
            .output()
            .expect("spawn test binary");
        assert!(
            out.status.success(),
            "SPATL_THREADS={threads}:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
