//! The thread's arenas under nesting. The vendored pool is help-first, so
//! a thread waiting inside one network's GEMM may run another network's
//! whole step before the wait returns. That inner call finds the arena out
//! of its slot and runs on the next one down the thread's stack; neither
//! call may panic or change a bit, and repeating the nesting reuses the
//! inner arena instead of growing the outer one.

use rayon::prelude::*;
use spatl_nn::{BasicBlock, BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Network, Node, Relu};
use spatl_tensor::{Tensor, TensorRng};

/// Wide enough that its convolutions' GEMMs go to the pool.
fn build_net(seed: u64) -> Network {
    let mut rng = TensorRng::seed_from(seed);
    Network::new(vec![
        Node::Conv(Conv2d::new(3, 16, 3, 1, 1, &mut rng)),
        Node::BatchNorm(BatchNorm2d::new(16)),
        Node::Relu(Relu::new()),
        Node::Residual(Box::new(BasicBlock::new(16, 32, 2, &mut rng))),
        Node::GlobalAvgPool(GlobalAvgPool::new()),
        Node::Linear(Linear::new(32, 10, &mut rng)),
    ])
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One training step's output and parameter gradients, as bits; every
/// tensor goes back to the arena.
fn step(net: &mut Network, x: &Tensor, gy: &Tensor) -> (Vec<u32>, Vec<u32>) {
    net.zero_grad();
    let y = net.forward(x, true);
    let out = bits(y.data());
    net.recycle(y);
    let gx = net.backward(gy);
    net.recycle(gx);
    net.clear_caches();
    (out, bits(&net.grads_flat()))
}

fn batch() -> (Tensor, Tensor) {
    let mut rng = TensorRng::seed_from(5);
    let x = rng.normal_tensor([8, 3, 16, 16], 0.0, 1.0);
    let gy = rng.normal_tensor([8, 10], 0.0, 1.0);
    (x, gy)
}

#[test]
fn a_forward_inside_another_call_reuses_the_arena_below() {
    let (x, gy) = batch();
    let want = step(&mut build_net(2), &x, &gy);
    let (mut outer, mut inner) = (build_net(1), build_net(2));
    let mut pooled = Vec::new();
    for rep in 0..3 {
        let got = spatl_nn::with_arena(|ws| {
            let y = outer.nodes[0].forward_ws(&x, true, ws);
            let got = step(&mut inner, &x, &gy);
            ws.recycle(y);
            got
        });
        assert_eq!(got, want, "rep {rep}");
        outer.clear_caches();
        assert_eq!(spatl_nn::arena_stats().outstanding_elements, 0);
        if rep > 0 {
            assert_eq!(spatl_nn::arena_pooled(), pooled, "rep {rep}");
        }
        pooled = spatl_nn::arena_pooled();
    }
    assert_eq!(pooled.len(), 2, "one arena per depth: {pooled:?}");
}

#[test]
fn a_nested_parallel_section_keeps_every_bit() {
    let threads = rayon::current_num_threads();
    let (x, gy) = batch();
    let seeds = 0..8u64;
    let want: Vec<_> = seeds
        .clone()
        .map(|s| step(&mut build_net(s), &x, &gy))
        .collect();
    let want_outer = step(&mut build_net(99), &x, &gy);

    let mut outer = build_net(99);
    let mut nets: Vec<Network> = seeds.map(build_net).collect();
    let got: Vec<_> = spatl_nn::with_arena(|ws| {
        // The arena is out of its slot: every step the pool runs on this
        // thread below runs on the next one down, and each of them waits
        // in its own GEMMs, where it may run the others.
        let y = outer.nodes[0].forward_ws(&x, true, ws);
        let got = nets.par_iter_mut().map(|n| step(n, &x, &gy)).collect();
        ws.recycle(y);
        got
    });
    assert_eq!(got, want, "{threads} threads");
    assert_eq!(step(&mut outer, &x, &gy), want_outer, "{threads} threads");
    assert_eq!(spatl_nn::arena_stats().outstanding_elements, 0);
}
