//! First-order optimisers over a network's parameter list.

use crate::Network;
use serde::{Deserialize, Serialize};
use spatl_tensor::Tensor;

/// A first-order optimiser that steps a [`Network`]'s parameters using the
/// gradients accumulated by its backward pass.
///
/// Optimiser state (momentum buffers) is keyed by parameter *position* and
/// created on the first step, so an optimiser steps one network for its
/// whole life; a step over a network with another parameter count panics.
pub trait Optimizer {
    /// Apply one update step using the currently accumulated gradients.
    fn step(&mut self, net: &mut Network);
}

/// Stochastic gradient descent with optional momentum and weight decay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with momentum and weight decay.
    pub fn with_momentum(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// The momentum buffer flattened in parameter order, zero-padded to
    /// `numel` if the optimiser has not stepped yet. FedNova clients
    /// upload this alongside their normalised gradient.
    pub fn velocity_flat(&self, numel: usize) -> Vec<f32> {
        let mut out: Vec<f32> = self
            .velocity
            .iter()
            .flat_map(|t| t.data().iter().copied())
            .collect();
        out.resize(numel, 0.0);
        out
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, net: &mut Network) {
        let mut params = net.params_mut();
        if self.momentum != 0.0 {
            if self.velocity.is_empty() {
                self.velocity = params
                    .iter()
                    .map(|p| Tensor::zeros(p.value.dims().to_vec()))
                    .collect();
            }
            assert_eq!(
                self.velocity.len(),
                params.len(),
                "Sgd's velocity holds {} parameter tensors but the network has {}: \
                 one momentum optimiser steps one network",
                self.velocity.len(),
                params.len()
            );
        }
        for (i, p) in params.iter_mut().enumerate() {
            let n = p.numel();
            let (value, grad) = (&mut p.value, &p.grad);
            if self.momentum != 0.0 {
                let v = &mut self.velocity[i];
                let vd = v.data_mut();
                let gd = grad.data();
                let wd = self.weight_decay;
                let xd = value.data_mut();
                for j in 0..n {
                    let g = gd[j] + wd * xd[j];
                    vd[j] = self.momentum * vd[j] + g;
                    xd[j] -= self.lr * vd[j];
                }
            } else {
                let gd = grad.data();
                let wd = self.weight_decay;
                let xd = value.data_mut();
                for j in 0..n {
                    let g = gd[j] + wd * xd[j];
                    xd[j] -= self.lr * g;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Node};
    use spatl_tensor::TensorRng;

    fn one_param_net(rng: &mut TensorRng) -> Network {
        Network::new(vec![Node::Linear(Linear::new(1, 1, rng))])
    }

    fn set_grads(net: &mut Network, g: f32) {
        for p in net.params_mut() {
            p.grad.fill(g);
        }
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut rng = TensorRng::seed_from(1);
        let mut net = one_param_net(&mut rng);
        let before = net.to_flat();
        set_grads(&mut net, 1.0);
        let mut opt = Sgd::new(0.1);
        opt.step(&mut net);
        let after = net.to_flat();
        for (a, b) in after.iter().zip(&before) {
            assert!((a - (b - 0.1)).abs() < 1e-6);
        }
    }

    #[test]
    fn momentum_accumulates() {
        let mut rng = TensorRng::seed_from(2);
        let mut net = one_param_net(&mut rng);
        let w0 = net.to_flat()[0];
        let mut opt = Sgd::with_momentum(0.1, 0.9, 0.0);
        set_grads(&mut net, 1.0);
        opt.step(&mut net); // v=1, w -= 0.1
        set_grads(&mut net, 1.0);
        opt.step(&mut net); // v=1.9, w -= 0.19
        let w = net.to_flat()[0];
        assert!((w - (w0 - 0.1 - 0.19)).abs() < 1e-5, "w={w} w0={w0}");
    }

    #[test]
    fn weight_decay_shrinks_weights_without_grad() {
        let mut rng = TensorRng::seed_from(3);
        let mut net = one_param_net(&mut rng);
        // Force a known positive weight.
        net.from_flat(&vec![1.0; net.num_params()]);
        let mut opt = Sgd::with_momentum(0.1, 0.0, 0.5);
        set_grads(&mut net, 0.0);
        opt.step(&mut net);
        // w = 1 - lr*wd*w = 1 - 0.05
        for w in net.to_flat() {
            assert!((w - 0.95).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "velocity holds 2 parameter tensors but the network has 4")]
    fn momentum_state_belongs_to_one_network() {
        let mut rng = TensorRng::seed_from(4);
        let mut small = one_param_net(&mut rng);
        let mut big = Network::new(vec![
            Node::Linear(Linear::new(1, 1, &mut rng)),
            Node::Linear(Linear::new(1, 1, &mut rng)),
        ]);
        let mut opt = Sgd::with_momentum(0.1, 0.9, 0.0);
        opt.step(&mut small);
        opt.step(&mut big);
    }
}
