//! Property-based tests for the neural-network substrate.

use proptest::prelude::*;
use spatl_nn::{Conv2d, Linear, Network, Node, Optimizer, Relu, Sgd};
use spatl_tensor::{Tensor, TensorRng, Workspace};

fn small_mlp(inputs: usize, hidden: usize, outputs: usize, seed: u64) -> Network {
    let mut rng = TensorRng::seed_from(seed);
    Network::new(vec![
        Node::Linear(Linear::new(inputs, hidden, &mut rng)),
        Node::Relu(Relu::new()),
        Node::Linear(Linear::new(hidden, outputs, &mut rng)),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flat round trip is the identity for arbitrary MLP shapes.
    #[test]
    fn flat_round_trip(inputs in 1usize..8, hidden in 1usize..8, outputs in 1usize..5, seed in 0u64..500) {
        let mut net = small_mlp(inputs, hidden, outputs, seed);
        let flat = net.to_flat();
        prop_assert_eq!(flat.len(), net.num_params());
        net.from_flat(&flat);
        prop_assert_eq!(net.to_flat(), flat);
    }

    /// Forward pass is deterministic and batch-consistent: evaluating rows
    /// separately gives the same logits as evaluating them in one batch.
    #[test]
    fn batch_consistency(seed in 0u64..200) {
        let mut net = small_mlp(6, 8, 3, seed);
        let mut rng = TensorRng::seed_from(seed ^ 1);
        let x = rng.normal_tensor([4, 6], 0.0, 1.0);
        let all = net.forward(&x, false);
        for i in 0..4 {
            let row = x.slab(i).unwrap().reshape([1, 6]).unwrap();
            let y = net.forward(&row, false);
            for j in 0..3 {
                prop_assert!((y.data()[j] - all.data()[i * 3 + j]).abs() < 1e-5);
            }
        }
    }

    /// A gradient step with zero gradients and no weight decay never moves
    /// parameters.
    #[test]
    fn zero_grad_is_fixed_point(seed in 0u64..200, lr in 0.001f32..0.5) {
        let mut net = small_mlp(3, 4, 2, seed);
        let before = net.to_flat();
        let mut sgd = Sgd::with_momentum(lr, 0.9, 0.0);
        sgd.step(&mut net);
        prop_assert_eq!(net.to_flat(), before);
    }

    /// SGD with learning rate η scales linearly: one step at 2η equals two
    /// independent steps at η from the same start (no momentum).
    #[test]
    fn sgd_linearity(seed in 0u64..200, lr in 0.001f32..0.1) {
        let net0 = small_mlp(3, 4, 2, seed);
        let grads: Vec<f32> = (0..net0.num_params()).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect();

        let mut a = net0.clone();
        for p in a.params_mut() { p.grad.fill(0.0); }
        a.add_to_grads(&grads);
        let mut opt = Sgd::new(2.0 * lr);
        opt.step(&mut a);

        let mut b = net0.clone();
        for _ in 0..2 {
            for p in b.params_mut() { p.grad.fill(0.0); }
            b.add_to_grads(&grads);
            let mut opt = Sgd::new(lr);
            opt.step(&mut b);
        }
        for (x, y) in a.to_flat().iter().zip(b.to_flat()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    /// Conv forward is linear in the input when biases are zero:
    /// f(αx) = α f(x).
    #[test]
    fn conv_linearity(seed in 0u64..100, alpha in 0.1f32..3.0) {
        let mut rng = TensorRng::seed_from(seed);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        conv.bias.value.fill(0.0);
        let x = rng.normal_tensor([1, 2, 5, 5], 0.0, 1.0);
        let mut ws = Workspace::new();
        let y1 = conv.forward_ws(&x, false, &mut ws).scaled(alpha);
        let y2 = conv.forward_ws(&x.scaled(alpha), false, &mut ws);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + a.abs()), "{} vs {}", a, b);
        }
    }

    /// Backward of a sum loss distributes over batch: per-sample gradients
    /// accumulated equal the batched gradient.
    #[test]
    fn gradient_additivity_over_batch(seed in 0u64..100) {
        let make = || small_mlp(4, 5, 2, seed);
        let mut rng = TensorRng::seed_from(seed ^ 9);
        let x = rng.normal_tensor([3, 4], 0.0, 1.0);

        let mut batched = make();
        let y = batched.forward(&x, true);
        batched.backward(&Tensor::ones(y.dims().to_vec()));
        let g_batched = batched.grads_flat();

        let mut single = make();
        for i in 0..3 {
            let row = x.slab(i).unwrap().reshape([1, 4]).unwrap();
            let y = single.forward(&row, true);
            single.backward(&Tensor::ones(y.dims().to_vec()));
        }
        let g_accum = single.grads_flat();
        for (a, b) in g_batched.iter().zip(&g_accum) {
            prop_assert!((a - b).abs() < 1e-4, "{} vs {}", a, b);
        }
    }
}
