//! Deterministic random tensor initialisation.
//!
//! All randomness in the SPATL stack flows through [`TensorRng`], a ChaCha8
//! generator seeded explicitly, so that every experiment in the benchmark
//! harness is reproducible bit-for-bit across runs and thread counts.

use crate::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rand_distr::{Distribution, Normal, Uniform};

/// A deterministic random number generator for tensor initialisation and
/// stochastic algorithms (client sampling, Gaussian policies, data synthesis).
#[derive(Debug, Clone)]
pub struct TensorRng {
    rng: ChaCha8Rng,
}

impl TensorRng {
    /// Create a generator from an explicit seed.
    pub fn seed_from(seed: u64) -> Self {
        TensorRng {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child generator; used to give each federated
    /// client its own stream without coupling to iteration order.
    pub fn fork(&mut self, salt: u64) -> TensorRng {
        let s = self.rng.gen::<u64>() ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
        TensorRng::seed_from(s)
    }

    /// Uniform f32 in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        Uniform::new(lo, hi).sample(&mut self.rng)
    }

    /// Standard normal sample scaled by `std` around `mean`.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        Normal::new(mean, std)
            .expect("std must be finite")
            .sample(&mut self.rng)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// Bernoulli draw with probability `p`.
    pub fn flip(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (k ≤ n).
    pub fn choose_k(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot choose {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }

    /// Access the underlying rand RNG for distribution sampling.
    pub fn raw(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }

    /// Tensor with i.i.d. `N(mean, std)` entries.
    pub fn normal_tensor(&mut self, shape: impl Into<crate::Shape>, mean: f32, std: f32) -> Tensor {
        let mut t = Tensor::zeros(shape.into());
        for v in t.data_mut() {
            *v = self.normal(mean, std);
        }
        t
    }

    /// Tensor with i.i.d. `U[lo, hi)` entries.
    pub fn uniform_tensor(&mut self, shape: impl Into<crate::Shape>, lo: f32, hi: f32) -> Tensor {
        let mut t = Tensor::zeros(shape.into());
        for v in t.data_mut() {
            *v = self.uniform(lo, hi);
        }
        t
    }

    /// Kaiming (He) uniform initialisation for a weight tensor whose fan-in
    /// is `fan_in`: `U[-bound, bound]` with `bound = sqrt(6 / fan_in)`.
    pub fn kaiming_uniform(&mut self, shape: impl Into<crate::Shape>, fan_in: usize) -> Tensor {
        let bound = (6.0 / fan_in.max(1) as f32).sqrt();
        self.uniform_tensor(shape, -bound, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TensorRng::seed_from(42);
        let mut b = TensorRng::seed_from(42);
        for _ in 0..16 {
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TensorRng::seed_from(1);
        let mut b = TensorRng::seed_from(2);
        let xs: Vec<f32> = (0..8).map(|_| a.uniform(0.0, 1.0)).collect();
        let ys: Vec<f32> = (0..8).map(|_| b.uniform(0.0, 1.0)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut a = TensorRng::seed_from(7);
        let mut b = TensorRng::seed_from(7);
        let mut fa = a.fork(3);
        let mut fb = b.fork(3);
        assert_eq!(fa.uniform(0.0, 1.0), fb.uniform(0.0, 1.0));
    }

    #[test]
    fn choose_k_gives_distinct_sorted() {
        let mut r = TensorRng::seed_from(9);
        let ks = r.choose_k(10, 4);
        assert_eq!(ks.len(), 4);
        let mut sorted = ks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, ks);
    }

    #[test]
    fn kaiming_bound_respected() {
        let mut r = TensorRng::seed_from(5);
        let t = r.kaiming_uniform([64, 9], 9);
        let bound = (6.0f32 / 9.0).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= bound));
        // Not all zeros.
        assert!(t.norm() > 0.0);
    }

    #[test]
    fn normal_tensor_moments_roughly_right() {
        let mut r = TensorRng::seed_from(11);
        let t = r.normal_tensor([10_000], 1.0, 2.0);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }
}
