//! Activation functions.

use serde::{Deserialize, Serialize};
use spatl_tensor::{Tensor, Workspace};

/// Rectified linear unit, `y = max(x, 0)`, applied element-wise.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Relu {
    #[serde(skip)]
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Create a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }

    /// Forward pass drawing the output from `ws`; caches the activation mask
    /// when `train` is set, reusing its buffer across steps in place.
    pub fn forward_ws(&mut self, input: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let mut out = ws.take_tensor(input.dims().to_vec());
        if train {
            let mut mask = self.mask.take().unwrap_or_default();
            mask.clear();
            mask.resize(input.numel(), false);
            for (i, (d, &s)) in out.data_mut().iter_mut().zip(input.data()).enumerate() {
                if s > 0.0 {
                    mask[i] = true;
                    *d = s;
                } else {
                    *d = 0.0;
                }
            }
            self.mask = Some(mask);
        } else {
            for (d, &s) in out.data_mut().iter_mut().zip(input.data()) {
                *d = s.max(0.0);
            }
            self.mask = None;
        }
        out
    }

    /// Backward pass drawing the gradient buffer from `ws`: gradient flows
    /// only through positive activations.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let mask = self.mask.as_ref().expect("relu backward without forward");
        let mut g = ws.take_tensor(grad_out.dims().to_vec());
        for ((d, &s), &m) in g.data_mut().iter_mut().zip(grad_out.data()).zip(mask) {
            *d = if m { s } else { 0.0 };
        }
        g
    }

    /// Drop cached state.
    pub fn clear_cache(&mut self) {
        self.mask = None;
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
