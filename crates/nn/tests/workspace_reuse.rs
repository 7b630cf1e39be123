//! Workspace-reuse guarantees: the pooled-scratch execution path must be
//! bit-identical to the allocating path, and a warmed-up network must run
//! its steady-state forward/backward without touching the heap.

use spatl_nn::{
    AvgPool2d, BasicBlock, BatchNorm2d, Conv2d, Dropout, Flatten, GlobalAvgPool, Linear, MaxPool2d,
    Network, Node, Relu,
};
use spatl_tensor::{Tensor, TensorRng, Workspace};

/// A small but representative network touching every layer kind that draws
/// from the workspace: conv, batch-norm, relu, max/avg/global pooling, a
/// residual block, dropout, flatten, and linear.
fn build_net(seed: u64) -> Network {
    let mut rng = TensorRng::seed_from(seed);
    Network::new(vec![
        Node::Conv(Conv2d::new(3, 8, 3, 1, 1, &mut rng)),
        Node::BatchNorm(BatchNorm2d::new(8)),
        Node::Relu(Relu::new()),
        Node::MaxPool(MaxPool2d::new(2, 2)),
        Node::Residual(Box::new(BasicBlock::new(8, 16, 2, &mut rng))),
        Node::AvgPool(AvgPool2d::new(2, 2)),
        Node::GlobalAvgPool(GlobalAvgPool::new()),
        Node::Flatten(Flatten::new()),
        Node::Dropout(Dropout::new(0.25, 7)),
        Node::Linear(Linear::new(16, 10, &mut rng)),
    ])
}

fn input_batch(seed: u64) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seed_from(seed);
    let x = rng.normal_tensor([4, 3, 16, 16], 0.0, 1.0);
    let g = rng.normal_tensor([4, 10], 0.0, 1.0);
    (x, g)
}

/// The persistent-workspace path (`Network::forward`/`backward`, scratch
/// pooled across iterations) must produce bit-identical activations and
/// gradients to the allocating path (per-node `forward_ws`/`backward_ws`,
/// each call on a throwaway workspace).
#[test]
fn pooled_path_is_bit_identical_to_allocating_path() {
    let mut pooled = build_net(42);
    let mut fresh = build_net(42);
    for iter in 0..4 {
        let (x, gy) = input_batch(100 + iter);

        let y_pooled = pooled.forward(&x, true);
        let gx_pooled = pooled.backward(&gy);

        // Allocating reference: chain the same nodes by hand, each call on
        // its own temporary workspace.
        let mut cur = x.clone();
        for node in fresh.nodes.iter_mut() {
            cur = node.forward_ws(&cur, true, &mut Workspace::new());
        }
        let y_fresh = cur;
        let mut grad = gy.clone();
        for node in fresh.nodes.iter_mut().rev() {
            grad = node.backward_ws(&grad, &mut Workspace::new());
        }
        let gx_fresh = grad;

        assert_eq!(
            y_pooled.data(),
            y_fresh.data(),
            "forward outputs diverged at iteration {iter}"
        );
        assert_eq!(
            gx_pooled.data(),
            gx_fresh.data(),
            "input gradients diverged at iteration {iter}"
        );
        assert_eq!(
            pooled.grads_flat(),
            fresh.grads_flat(),
            "parameter gradients diverged at iteration {iter}"
        );

        pooled.recycle(y_pooled);
        pooled.recycle(gx_pooled);
        pooled.zero_grad();
        fresh.zero_grad();
    }
}

/// After a few warm-up iterations the workspace pool has seen every buffer
/// size the network needs: further forward/backward passes must be served
/// entirely from the pool — zero fresh allocations, zero grows. (Pooled
/// capacities converge monotonically; a buffer grown for one demand
/// serves a bigger one next iteration, so fixpoint takes a few rounds,
/// not one.)
#[test]
fn steady_state_training_step_is_allocation_free() {
    let mut net = build_net(7);
    let (x, gy) = input_batch(3);

    for _ in 0..4 {
        let y = net.forward(&x, true);
        net.recycle(y);
        let gx = net.backward(&gy);
        net.recycle(gx);
    }

    let warm = spatl_nn::arena_stats();
    assert!(warm.checkouts > 0, "workspace was never used");

    for _ in 0..5 {
        let y = net.forward(&x, true);
        net.recycle(y);
        let gx = net.backward(&gy);
        net.recycle(gx);
    }

    let steady = spatl_nn::arena_stats();
    assert_eq!(
        steady.fresh_allocs, warm.fresh_allocs,
        "steady-state pass allocated fresh buffers"
    );
    assert_eq!(
        steady.grows, warm.grows,
        "steady-state pass grew pooled buffers"
    );
    assert!(
        steady.checkouts > warm.checkouts,
        "steady-state passes did not draw from the workspace"
    );
    assert_eq!(
        steady.high_water_elements, warm.high_water_elements,
        "steady-state pass raised the high-water mark"
    );
}

/// Eval-mode inference must also settle into an allocation-free steady
/// state (no caches are stored, so the pool reaches fixpoint immediately
/// after the first pass).
#[test]
fn steady_state_inference_is_allocation_free() {
    let mut net = build_net(9);
    let (x, _) = input_batch(11);

    for _ in 0..4 {
        let y = net.forward(&x, false);
        net.recycle(y);
    }
    let warm = spatl_nn::arena_stats();

    for _ in 0..5 {
        let y = net.forward(&x, false);
        net.recycle(y);
    }
    let steady = spatl_nn::arena_stats();
    assert_eq!(steady.fresh_allocs, warm.fresh_allocs);
    assert_eq!(steady.grows, warm.grows);
}
