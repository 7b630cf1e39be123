//! The live-tap lowering and the GEMM's given k-blocks, against the full
//! lowering and the `KC` grid they stand in for.

use spatl_tensor::{
    col2im, col2im_live_into, im2col, im2col_live_into, matmul, matmul_blocks_into, Conv2dGeometry,
    Tensor, TensorRng, KC,
};

fn rand(dims: [usize; 2], seed: u64) -> Tensor {
    TensorRng::seed_from(seed).normal_tensor(dims, 0.0, 1.0)
}

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
fn given_k_blocks_sum_their_chains_in_order() {
    // The KC grid given explicitly is `matmul_into`.
    let (m, k, n) = (7, 3 * KC + 5, 29);
    let a = rand([m, k], 31);
    let b = rand([k, n], 32);
    let grid: Vec<usize> = (1..=k.div_ceil(KC)).map(|i| (i * KC).min(k)).collect();
    let mut c = Tensor::full([m, n], f32::NAN);
    matmul_blocks_into(&a, &b, &mut c, &grid);
    assert_eq!(c, matmul(&a, &b));
    // Empty blocks (leading, inner, trailing) add nothing; a short
    // block is its own chain: C = A₁·B₁ + A₂·B₂ element for element.
    let (k1, k2) = (50, KC);
    let a = rand([m, k1 + k2], 33);
    let b = rand([k1 + k2, n], 34);
    let cut = |t: &Tensor, rows: std::ops::Range<usize>, cols: std::ops::Range<usize>| {
        let w = t.dims()[1];
        let data = rows
            .clone()
            .flat_map(|r| t.data()[r * w + cols.start..r * w + cols.end].to_vec())
            .collect();
        Tensor::from_vec([rows.len(), cols.len()], data).unwrap()
    };
    let p1 = matmul(&cut(&a, 0..m, 0..k1), &cut(&b, 0..k1, 0..n));
    let p2 = matmul(&cut(&a, 0..m, k1..k1 + k2), &cut(&b, k1..k1 + k2, 0..n));
    let mut c = Tensor::full([m, n], f32::NAN);
    matmul_blocks_into(&a, &b, &mut c, &[0, k1, k1, k1 + k2, k1 + k2]);
    for ((&got, &x), &y) in c.data().iter().zip(p1.data()).zip(p2.data()) {
        assert_eq!(got.to_bits(), (x + y).to_bits());
    }
}

#[test]
fn live_lowering_is_the_full_one_without_dead_rows() {
    // 1×1 and 2×2 maps under 3×3 and 5×5 kernels, a strided map whose
    // live taps are not contiguous, and an all-live geometry.
    for g in [
        geom(3, 1, 1, 3, 1, 1),
        geom(2, 2, 2, 5, 1, 2),
        geom(2, 1, 1, 3, 2, 2),
        geom(2, 4, 3, 3, 1, 1),
    ] {
        let k2 = g.kernel * g.kernel;
        let live: Vec<usize> = (0..g.patch_len()).filter(|&r| g.tap_live(r % k2)).collect();
        assert_eq!(live.len(), g.in_channels * g.live_taps());
        for (j, &row) in live.iter().enumerate() {
            assert_eq!(g.live_rows_before(row), j);
        }
        assert_eq!(g.live_rows_before(g.patch_len()), live.len());
        let nimg = 2;
        let dims = [nimg, g.in_channels, g.in_h, g.in_w];
        let len = dims.iter().product::<usize>();
        let x = Tensor::from_vec(dims, (0..len).map(|v| v as f32 - 3.5).collect()).unwrap();
        let cols = im2col(&x, &g);
        let width = nimg * g.cols();
        let mut lcols = Tensor::full([live.len(), width], f32::NAN);
        im2col_live_into(&x, &g, &mut lcols);
        for (j, &row) in live.iter().enumerate() {
            let full = &cols.data()[row * width..(row + 1) * width];
            assert_eq!(&lcols.data()[j * width..(j + 1) * width], full);
        }
        // Dead rows are all zeros, so the full scatter of the expanded
        // matrix is the live scatter.
        let mut back = Tensor::full(x.dims().to_vec(), f32::NAN);
        col2im_live_into(&lcols, &g, &mut back);
        assert_eq!(back, col2im(&cols, &g, nimg));
    }
    assert!(geom(2, 1, 1, 3, 2, 2).tap_live(0));
    assert!(!geom(2, 1, 1, 3, 2, 2).tap_live(1));
}
