//! End-to-end sanity: the substrate can actually learn.

use spatl_nn::{
    accuracy, Conv2d, CrossEntropyLoss, Flatten, GlobalAvgPool, Linear, Network, Node, Optimizer,
    Relu, Sgd,
};
use spatl_tensor::{Tensor, TensorRng};

/// Generate a linearly separable 2-class problem in 8 dims.
fn toy_data(rng: &mut TensorRng, n: usize) -> (Tensor, Vec<usize>) {
    let mut x = Tensor::zeros([n, 8]);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let y = i % 2;
        labels.push(y);
        for j in 0..8 {
            let centre = if y == 0 { -1.0 } else { 1.0 };
            x.data_mut()[i * 8 + j] = rng.normal(centre, 0.7);
        }
    }
    (x, labels)
}

#[test]
fn mlp_learns_linearly_separable_data() {
    let mut rng = TensorRng::seed_from(42);
    let mut net = Network::new(vec![
        Node::Linear(Linear::new(8, 16, &mut rng)),
        Node::Relu(Relu::new()),
        Node::Linear(Linear::new(16, 2, &mut rng)),
    ]);
    let (x, labels) = toy_data(&mut rng, 128);
    let mut opt = Sgd::with_momentum(0.05, 0.9, 0.0);
    let mut loss = CrossEntropyLoss::new();
    let mut last = f32::INFINITY;
    for epoch in 0..60 {
        net.zero_grad();
        let logits = net.forward(&x, true);
        let l = loss.forward(&logits, &labels);
        let g = loss.backward();
        net.backward(&g);
        opt.step(&mut net);
        if epoch == 0 {
            last = l;
        }
    }
    let logits = net.forward(&x, false);
    let acc = accuracy(&logits, &labels);
    let final_loss = loss.forward(&logits, &labels);
    assert!(acc > 0.95, "accuracy {acc}");
    assert!(
        final_loss < last,
        "loss did not decrease: {final_loss} vs {last}"
    );
}

#[test]
fn convnet_learns_channel_mean_task() {
    // Class = which input channel has larger mean: a task a conv + GAP
    // pipeline represents exactly.
    let mut rng = TensorRng::seed_from(7);
    let mut net = Network::new(vec![
        Node::Conv(Conv2d::new(2, 8, 3, 1, 1, &mut rng)),
        Node::Relu(Relu::new()),
        Node::GlobalAvgPool(GlobalAvgPool::new()),
        Node::Linear(Linear::new(8, 2, &mut rng)),
    ]);
    let n = 64;
    let mut x = Tensor::zeros([n, 2, 6, 6]);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let y = i % 2;
        labels.push(y);
        for ch in 0..2 {
            let bias = if ch == y { 1.0 } else { 0.0 };
            for s in 0..36 {
                x.data_mut()[(i * 2 + ch) * 36 + s] = rng.normal(bias, 0.4);
            }
        }
    }
    let mut opt = Sgd::with_momentum(0.05, 0.9, 0.0);
    let mut loss = CrossEntropyLoss::new();
    for _ in 0..80 {
        net.zero_grad();
        let logits = net.forward(&x, true);
        loss.forward(&logits, &labels);
        let g = loss.backward();
        net.backward(&g);
        opt.step(&mut net);
    }
    let logits = net.forward(&x, false);
    let acc = accuracy(&logits, &labels);
    assert!(acc > 0.9, "accuracy {acc}");
}

#[test]
fn flatten_pipeline_forward_backward_consistency() {
    let mut rng = TensorRng::seed_from(9);
    let mut net = Network::new(vec![
        Node::Conv(Conv2d::new(1, 4, 3, 2, 1, &mut rng)),
        Node::Relu(Relu::new()),
        Node::Flatten(Flatten::new()),
        Node::Linear(Linear::new(4 * 4 * 4, 3, &mut rng)),
    ]);
    let x = rng.normal_tensor([5, 1, 8, 8], 0.0, 1.0);
    let y = net.forward(&x, true);
    assert_eq!(y.dims(), &[5, 3]);
    let gx = net.backward(&Tensor::ones([5, 3]));
    assert_eq!(gx.dims(), &[5, 1, 8, 8]);
    assert!(!net.has_non_finite());
}
