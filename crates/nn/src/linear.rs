//! Fully-connected layer.

use crate::arena::Scratch;
use crate::param::Param;
use serde::{Deserialize, Serialize};
use spatl_tensor::{matmul_into, matmul_nt_into, matmul_tn_into, Tensor, TensorRng, Workspace};

/// A fully-connected (dense) layer `y = x·Wᵀ + b` over `[batch, in]` inputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weight `[out, in]`.
    pub weight: Param,
    /// Bias `[out]`.
    pub bias: Param,
    /// Input feature count.
    pub in_features: usize,
    /// Output feature count.
    pub out_features: usize,
    #[serde(skip)]
    cache: Scratch<Tensor>,
}

impl Linear {
    /// Create a dense layer with Kaiming-uniform weights.
    pub fn new(in_features: usize, out_features: usize, rng: &mut TensorRng) -> Self {
        Linear {
            weight: Param::new(rng.kaiming_uniform([out_features, in_features], in_features)),
            bias: Param::new(Tensor::zeros([out_features])),
            in_features,
            out_features,
            cache: Scratch::default(),
        }
    }

    /// Forward pass over `[batch, in]` drawing all temporaries from `ws`.
    pub fn forward_ws(&mut self, input: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        assert_eq!(input.dims().len(), 2, "linear input must be [batch, in]");
        assert_eq!(
            input.dims()[1],
            self.in_features,
            "linear in_features mismatch"
        );
        let batch = input.dims()[0];
        let mut out = ws.take_tensor([batch, self.out_features]);
        matmul_nt_into(input, &self.weight.value, &mut out);
        let b = self.bias.value.data();
        let of = self.out_features;
        for row in out.data_mut().chunks_mut(of) {
            for (v, bv) in row.iter_mut().zip(b) {
                *v += bv;
            }
        }
        self.clear_cache(ws);
        if train {
            let mut cached = ws.take_tensor([batch, self.in_features]);
            cached.data_mut().copy_from_slice(input.data());
            *self.cache = Some(cached);
        }
        out
    }

    /// Backward pass drawing all temporaries from `ws`: accumulate
    /// gradients, return the input gradient.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        self.backward_params_ws(grad_out, ws);
        // grad_x = grad_out · W -> [batch, in]
        let mut gx = ws.take_tensor([grad_out.dims()[0], self.in_features]);
        matmul_into(grad_out, &self.weight.value, &mut gx);
        gx
    }

    /// [`Linear::backward_ws`] without the input gradient: accumulate the
    /// weight and bias gradients only.
    pub fn backward_params_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        let x = self
            .cache
            .as_ref()
            .expect("linear backward without forward");
        // grad_w = grad_outᵀ · x -> [out, in]
        let mut gw = ws.take_tensor([self.out_features, self.in_features]);
        matmul_tn_into(grad_out, x, &mut gw);
        self.weight.grad.add_assign(&gw).expect("linear grad shape");
        ws.recycle(gw);
        // grad_b = column sums.
        {
            let gb = self.bias.grad.data_mut();
            for row in grad_out.data().chunks(self.out_features) {
                for (g, r) in gb.iter_mut().zip(row) {
                    *g += r;
                }
            }
        }
    }

    /// Return the cached input to `ws`.
    pub fn clear_cache(&mut self, ws: &mut Workspace) {
        if let Some(old) = self.cache.take() {
            ws.recycle(old);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_computes_affine_map() {
        let mut rng = TensorRng::seed_from(1);
        let mut lin = Linear::new(2, 3, &mut rng);
        lin.weight.value = Tensor::from_vec([3, 2], vec![1., 0., 0., 1., 1., 1.]).unwrap();
        lin.bias.value = Tensor::from_slice(&[0.5, -0.5, 0.0]);
        let x = Tensor::from_vec([1, 2], vec![2.0, 3.0]).unwrap();
        let y = lin.forward_ws(&x, false, &mut Workspace::new());
        assert_eq!(y.data(), &[2.5, 2.5, 5.0]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = TensorRng::seed_from(2);
        let mut lin = Linear::new(4, 3, &mut rng);
        let x = rng.normal_tensor([2, 4], 0.0, 1.0);
        let mut ws = Workspace::new();
        let y = lin.forward_ws(&x, true, &mut ws);
        let gx = lin.backward_ws(&Tensor::ones(y.dims().to_vec()), &mut ws);

        let eps = 1e-3;
        for wi in 0..lin.weight.value.numel() {
            let mut lp = lin.clone();
            lp.weight.value.data_mut()[wi] += eps;
            let up = lp.forward_ws(&x, false, &mut ws).sum();
            let mut lm = lin.clone();
            lm.weight.value.data_mut()[wi] -= eps;
            let down = lm.forward_ws(&x, false, &mut ws).sum();
            let fd = (up - down) / (2.0 * eps);
            let an = lin.weight.grad.data()[wi];
            assert!(
                (fd - an).abs() < 1e-2 * (1.0 + an.abs()),
                "w[{wi}]: {fd} vs {an}"
            );
        }
        for xi in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let up = lin.clone().forward_ws(&xp, false, &mut ws).sum();
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let down = lin.clone().forward_ws(&xm, false, &mut ws).sum();
            let fd = (up - down) / (2.0 * eps);
            let an = gx.data()[xi];
            assert!(
                (fd - an).abs() < 1e-2 * (1.0 + an.abs()),
                "x[{xi}]: {fd} vs {an}"
            );
        }
    }

    #[test]
    fn grads_accumulate_across_backwards() {
        let mut rng = TensorRng::seed_from(3);
        let mut lin = Linear::new(2, 2, &mut rng);
        let x = rng.normal_tensor([1, 2], 0.0, 1.0);
        let mut ws = Workspace::new();
        let y = lin.forward_ws(&x, true, &mut ws);
        let g = Tensor::ones(y.dims().to_vec());
        lin.backward_ws(&g, &mut ws);
        let snap = lin.weight.grad.clone();
        lin.forward_ws(&x, true, &mut ws);
        lin.backward_ws(&g, &mut ws);
        let doubled = snap.scaled(2.0);
        for (a, b) in lin.weight.grad.data().iter().zip(doubled.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
