//! Property-based tests for tensor invariants.

use proptest::prelude::*;
use spatl_tensor::{col2im, im2col, matmul, matmul_nt, matmul_tn, Conv2dGeometry, Shape, Tensor};

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..6, 1..4)
}

/// Matrix dimensions that deliberately straddle the packed kernel's tile and
/// block boundaries (MR = 4, NR = 8, MC = 64), not just small values.
fn dim_near_tiles() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..12,
        Just(31usize),
        Just(32usize),
        Just(33usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
    ]
}

/// Inner dimensions that cross the KC = 128 k-blocking boundary.
fn inner_near_kc() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..12, Just(127usize), Just(128usize), Just(129usize)]
}

/// Deterministic pseudo-random tensor fill (LCG), values roughly in ±0.5.
fn lcg_tensor(dims: [usize; 2], seed: u64) -> Tensor {
    let mut t = Tensor::zeros(dims);
    let mut st = seed.wrapping_add(0x9e37);
    for v in t.data_mut() {
        st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
        *v = ((st >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
    }
    t
}

/// Reference triple-loop product of row-major `a` (`m`×`k`) and `b` (`k`×`n`).
fn naive_mm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let aik = a[i * k + p];
            for j in 0..n {
                c[i * n + j] += aik * b[p * n + j];
            }
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn numel_matches_strides_extent(dims in small_dims()) {
        let s = Shape::new(dims.clone());
        let strides = s.strides();
        // Offset of the last element + 1 equals numel for non-empty shapes.
        let last: Vec<usize> = dims.iter().map(|d| d - 1).collect();
        prop_assert_eq!(s.offset(&last) + 1, s.numel());
        prop_assert_eq!(strides.len(), dims.len());
    }

    #[test]
    fn add_is_commutative(v in prop::collection::vec(-10.0f32..10.0, 1..64)) {
        let a = Tensor::from_slice(&v);
        let b = a.map(|x| x * 0.5 - 1.0);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn sub_then_add_round_trips(v in prop::collection::vec(-10.0f32..10.0, 1..64)) {
        let a = Tensor::from_slice(&v);
        let b = a.map(|x| x.sin());
        let r = a.sub(&b).unwrap().add(&b).unwrap();
        for (x, y) in r.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn scale_is_linear_in_norm(v in prop::collection::vec(-10.0f32..10.0, 1..64), k in -4.0f32..4.0) {
        let a = Tensor::from_slice(&v);
        let s = a.scaled(k);
        prop_assert!((s.norm() - k.abs() * a.norm()).abs() < 1e-2 * (1.0 + a.norm()));
    }

    #[test]
    fn transpose_is_involution(m in 1usize..8, n in 1usize..8, seed in 0u64..1000) {
        let mut t = Tensor::zeros([m, n]);
        let mut state = seed.wrapping_add(1);
        for v in t.data_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v = (state >> 40) as f32 / 1e6;
        }
        let tt = t.transpose2().transpose2();
        prop_assert_eq!(t.data(), tt.data());
        prop_assert_eq!(t.dims(), tt.dims());
    }

    #[test]
    fn matmul_distributes_over_addition(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..100) {
        let fill = |dims: [usize; 2], s: u64| {
            let mut t = Tensor::zeros(dims);
            let mut st = s.wrapping_add(99);
            for v in t.data_mut() {
                st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
                *v = ((st >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
            }
            t
        };
        let a = fill([m, k], seed);
        let b1 = fill([k, n], seed + 1);
        let b2 = fill([k, n], seed + 2);
        let lhs = matmul(&a, &b1.add(&b2).unwrap());
        let rhs = matmul(&a, &b1).add(&matmul(&a, &b2)).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
        }
    }

    #[test]
    fn packed_matmul_matches_naive(
        m in dim_near_tiles(),
        k in inner_near_kc(),
        n in dim_near_tiles(),
        seed in 0u64..1000,
    ) {
        let a = lcg_tensor([m, k], seed);
        let b = lcg_tensor([k, n], seed + 1);
        let want = naive_mm(a.data(), b.data(), m, k, n);
        let got = matmul(&a, &b);
        prop_assert_eq!(got.dims(), &[m, n]);
        for (x, y) in got.data().iter().zip(&want) {
            prop_assert!((x - y).abs() < 1e-4 * (1.0 + y.abs()), "{} vs {}", x, y);
        }
    }

    #[test]
    fn packed_matmul_tn_matches_naive(
        m in dim_near_tiles(),
        k in inner_near_kc(),
        n in dim_near_tiles(),
        seed in 0u64..1000,
    ) {
        // a is stored transposed ([k, m]); compare against naive on aᵀ·b.
        let at = lcg_tensor([k, m], seed);
        let b = lcg_tensor([k, n], seed + 1);
        let want = naive_mm(at.transpose2().data(), b.data(), m, k, n);
        let got = matmul_tn(&at, &b);
        prop_assert_eq!(got.dims(), &[m, n]);
        for (x, y) in got.data().iter().zip(&want) {
            prop_assert!((x - y).abs() < 1e-4 * (1.0 + y.abs()), "{} vs {}", x, y);
        }
    }

    #[test]
    fn packed_matmul_nt_matches_naive(
        m in dim_near_tiles(),
        k in inner_near_kc(),
        n in dim_near_tiles(),
        seed in 0u64..1000,
    ) {
        // b is stored transposed ([n, k]); compare against naive on a·bᵀ.
        let a = lcg_tensor([m, k], seed);
        let bt = lcg_tensor([n, k], seed + 1);
        let want = naive_mm(a.data(), bt.transpose2().data(), m, k, n);
        let got = matmul_nt(&a, &bt);
        prop_assert_eq!(got.dims(), &[m, n]);
        for (x, y) in got.data().iter().zip(&want) {
            prop_assert!((x - y).abs() < 1e-4 * (1.0 + y.abs()), "{} vs {}", x, y);
        }
    }

    #[test]
    fn im2col_col2im_adjoint(
        n in 1usize..3,
        c in 1usize..3,
        h in 1usize..7,
        w in 1usize..7,
        k in 1usize..4,
        s in 1usize..3,
        p in 0usize..2,
        seed in 0u64..100,
    ) {
        let k = k.min(h + 2 * p).min(w + 2 * p);
        let g = Conv2dGeometry { in_channels: c, in_h: h, in_w: w, kernel: k, stride: s, padding: p };
        let mut x = Tensor::zeros([n, c, h, w]);
        let mut st = seed.wrapping_add(5);
        let mut next = move || {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((st >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        for v in x.data_mut() { *v = next(); }
        let cols = im2col(&x, &g);
        // Channel-major: one row per tap, one column per output position.
        prop_assert_eq!(cols.dims(), &[c * k * k, n * g.out_h() * g.out_w()]);
        let mut y = Tensor::zeros(cols.dims().to_vec());
        for v in y.data_mut() { *v = next(); }
        let lhs = cols.dot(&y).unwrap();
        let rhs = x.dot(&col2im(&y, &g, n)).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{} vs {}", lhs, rhs);
    }

    #[test]
    fn reshape_preserves_data(v in prop::collection::vec(-5.0f32..5.0, 12..13)) {
        let t = Tensor::from_slice(&v);
        let r = t.reshape([3, 4]).unwrap().reshape([2, 6]).unwrap().reshape([12]).unwrap();
        prop_assert_eq!(r.data(), t.data());
    }

    #[test]
    fn softmax_rows_are_distributions(b in 1usize..5, c in 2usize..8, seed in 0u64..100) {
        let mut t = Tensor::zeros([b, c]);
        let mut st = seed.wrapping_add(17);
        for v in t.data_mut() {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v = ((st >> 33) as f32 / (1u64 << 28) as f32) - 4.0;
        }
        let s = t.softmax_rows();
        for i in 0..b {
            let row = &s.data()[i * c..(i + 1) * c];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}
