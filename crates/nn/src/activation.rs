//! Activation functions.

use crate::arena::Scratch;
use serde::{Deserialize, Serialize};
use spatl_tensor::{Tensor, Workspace};

/// Mask bits packed into one `f32` slot of an arena buffer.
const MASK_LANES: usize = 32;

/// Rectified linear unit, `y = max(x, 0)`, applied element-wise.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Relu {
    /// Which inputs were positive, one bit per element, 32 bits to an
    /// `f32` slot (bit-cast) of an arena buffer.
    #[serde(skip)]
    mask: Scratch<Vec<f32>>,
}

impl Relu {
    /// Create a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }

    /// Forward pass drawing the output from `ws`; caches the activation mask
    /// when `train` is set, drawing it from `ws` too.
    pub fn forward_ws(&mut self, input: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        self.clear_cache(ws);
        let mut out = ws.take_tensor(input.dims().to_vec());
        if train {
            let mut mask = ws.take(input.numel().div_ceil(MASK_LANES));
            let lanes = out
                .data_mut()
                .chunks_mut(MASK_LANES)
                .zip(input.data().chunks(MASK_LANES));
            for (m, (dst, src)) in mask.iter_mut().zip(lanes) {
                // One compare per element feeds both stores as a select,
                // so the loop vectorises instead of taking a
                // data-dependent branch per element.
                let mut bits = 0u32;
                for (i, (d, &s)) in dst.iter_mut().zip(src).enumerate() {
                    let keep = s > 0.0;
                    bits |= u32::from(keep) << i;
                    *d = if keep { s } else { 0.0 };
                }
                *m = f32::from_bits(bits);
            }
            *self.mask = Some(mask);
        } else {
            for (d, &s) in out.data_mut().iter_mut().zip(input.data()) {
                *d = s.max(0.0);
            }
        }
        out
    }

    /// Backward pass drawing the gradient buffer from `ws`: gradient flows
    /// only through positive activations.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let mask = self.mask.as_ref().expect("relu backward without forward");
        let mut g = ws.take_tensor(grad_out.dims().to_vec());
        let lanes = g
            .data_mut()
            .chunks_mut(MASK_LANES)
            .zip(grad_out.data().chunks(MASK_LANES));
        for (&m, (dst, src)) in mask.iter().zip(lanes) {
            let bits = m.to_bits();
            for (i, (d, &s)) in dst.iter_mut().zip(src).enumerate() {
                *d = if bits >> i & 1 != 0 { s } else { 0.0 };
            }
        }
        g
    }

    /// Return the cached mask to `ws`.
    pub fn clear_cache(&mut self, ws: &mut Workspace) {
        if let Some(mask) = self.mask.take() {
            ws.give(mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = r.forward_ws(&x, false, &mut Workspace::new());
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 0.5, 3.0, -0.1]);
        let mut ws = Workspace::new();
        r.forward_ws(&x, true, &mut ws);
        let g = r.backward_ws(&Tensor::from_slice(&[10., 10., 10., 10.]), &mut ws);
        assert_eq!(g.data(), &[0., 10., 10., 0.]);
    }

    #[test]
    fn zero_input_passes_no_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[0.0]);
        let mut ws = Workspace::new();
        r.forward_ws(&x, true, &mut ws);
        let g = r.backward_ws(&Tensor::from_slice(&[5.0]), &mut ws);
        assert_eq!(g.data(), &[0.0]);
    }
}
