//! Flatten layer: NCHW → [batch, features].

use serde::{Deserialize, Serialize};
use spatl_tensor::{Tensor, Workspace};

/// Flattens all trailing dimensions into one: `[n, ...] -> [n, prod(...)]`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Flatten {
    #[serde(skip)]
    in_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Create a flatten layer.
    pub fn new() -> Self {
        Flatten { in_dims: None }
    }

    /// Forward pass drawing the output from `ws`; the cached dims vector is
    /// reused in place across steps.
    pub fn forward_ws(&mut self, input: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let n = input.dims()[0];
        let feat: usize = input.dims()[1..].iter().product();
        self.in_dims = if train {
            let mut d = self.in_dims.take().unwrap_or_default();
            d.clear();
            d.extend_from_slice(input.dims());
            Some(d)
        } else {
            None
        };
        let mut out = ws.take_tensor([n, feat]);
        out.data_mut().copy_from_slice(input.data());
        out
    }

    /// Backward pass drawing the gradient buffer from `ws`: reshape the
    /// gradient back to the input dims.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let dims = self
            .in_dims
            .as_ref()
            .expect("flatten backward without forward");
        let mut g = ws.take_tensor(dims.clone());
        g.data_mut().copy_from_slice(grad_out.data());
        g
    }

    /// Drop cached state.
    pub fn clear_cache(&mut self) {
        self.in_dims = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros([2, 3, 4, 5]);
        let mut ws = Workspace::new();
        let y = f.forward_ws(&x, true, &mut ws);
        assert_eq!(y.dims(), &[2, 60]);
        let g = f.backward_ws(&Tensor::ones([2, 60]), &mut ws);
        assert_eq!(g.dims(), &[2, 3, 4, 5]);
    }
}
