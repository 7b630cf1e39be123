//! Inverted dropout.

use crate::arena::Scratch;
use serde::{Deserialize, Serialize};
use spatl_tensor::{Tensor, TensorRng, Workspace};

/// Inverted dropout: at train time, zeroes each activation with probability
/// `p` and scales survivors by `1/(1-p)`; identity at evaluation time.
///
/// The layer owns its RNG (seeded at construction) so training runs are
/// deterministic and independent of scheduling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
    seed: u64,
    step: u64,
    #[serde(skip)]
    mask: Scratch<Vec<f32>>,
}

impl Dropout {
    /// Create a dropout layer with the given drop probability and seed.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        Dropout {
            p,
            seed,
            step: 0,
            mask: Scratch::default(),
        }
    }

    /// Forward pass drawing the output and mask buffers from `ws`.
    pub fn forward_ws(&mut self, input: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        self.clear_cache(ws);
        let mut out = ws.take_tensor(input.dims().to_vec());
        if !train || self.p == 0.0 {
            out.data_mut().copy_from_slice(input.data());
            return out;
        }
        let mut rng = TensorRng::seed_from(self.seed ^ self.step.wrapping_mul(0x9E3779B97F4A7C15));
        self.step += 1;
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut mask = ws.take(input.numel());
        for (i, (d, &s)) in out.data_mut().iter_mut().zip(input.data()).enumerate() {
            if rng.flip(keep as f64) {
                mask[i] = scale;
                *d = s * scale;
            } else {
                mask[i] = 0.0;
                *d = 0.0;
            }
        }
        *self.mask = Some(mask);
        out
    }

    /// Backward pass drawing the gradient buffer from `ws`.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut g = ws.take_tensor(grad_out.dims().to_vec());
        match &*self.mask {
            None => g.data_mut().copy_from_slice(grad_out.data()),
            Some(mask) => {
                for ((d, &s), &m) in g.data_mut().iter_mut().zip(grad_out.data()).zip(mask) {
                    *d = s * m;
                }
            }
        }
        g
    }

    /// Return the mask to `ws`.
    pub fn clear_cache(&mut self, ws: &mut Workspace) {
        if let Some(old) = self.mask.take() {
            ws.give(old);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_slice(&[1., 2., 3.]);
        let y = d.forward_ws(&x, false, &mut Workspace::new());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn train_preserves_expectation() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones([10_000]);
        let y = d.forward_ws(&x, true, &mut Workspace::new());
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones([64]);
        let mut ws = Workspace::new();
        let y = d.forward_ws(&x, true, &mut ws);
        let g = d.backward_ws(&Tensor::ones([64]), &mut ws);
        // Gradient is zero exactly where the output was zero.
        for (yo, go) in y.data().iter().zip(g.data()) {
            assert_eq!(*yo == 0.0, *go == 0.0);
        }
    }
}
