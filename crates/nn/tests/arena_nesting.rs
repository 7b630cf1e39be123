//! The thread's one arena. The vendored pool runs a parallel call made
//! inside a pool job inline, so a network stepped by a job keeps its
//! kernels on that job's thread and its scratch in that thread's arena.
//! A call that finds the arena held further up its thread runs on a fresh
//! one, which the holder's return drops. Neither case may panic or change
//! a bit, and a thread ends holding one arena with one network's working
//! set.

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
fn a_call_inside_another_runs_on_a_fresh_arena_and_leaves_one() {
    let (x, gy) = batch();
    let want = step(&mut build_net(2), &x, &gy);
    let pooled = spatl_nn::arena_pooled();
    let (mut outer, mut inner) = (build_net(1), build_net(2));
    for rep in 0..3 {
        let got = spatl_nn::with_arena(|ws| {
            let y = outer.nodes[0].forward_ws(&x, true, ws);
            let got = step(&mut inner, &x, &gy);
            ws.recycle(y);
            got
        });
        assert_eq!(got, want, "rep {rep}");
        outer.clear_caches();
        assert_eq!(spatl_nn::arena_stats().outstanding_elements, 0, "rep {rep}");
        // The inner call's arena is gone; the thread's one arena pools
        // what it did before.
        assert_eq!(spatl_nn::arena_pooled(), pooled, "rep {rep}");
    }
}

#[test]
fn a_parallel_section_keeps_every_bit_and_one_working_set_per_thread() {
    let threads = rayon::current_num_threads();
    let (x, gy) = batch();
    let seeds = 0..8u64;
    let want: Vec<_> = seeds
        .clone()
        .map(|s| step(&mut build_net(s), &x, &gy))
        .collect();
    // One network's working set: what a step leaves in an arena that
    // started empty.
    let working_set = std::thread::scope(|s| {
        s.spawn(|| {
            step(&mut build_net(0), &x, &gy);
            spatl_nn::arena_pooled()
        })
        .join()
        .unwrap()
    });

    let mut nets: Vec<Network> = seeds.map(build_net).collect();
    let got: Vec<_> = nets
        .par_iter_mut()
        .map(|n| (step(n, &x, &gy), spatl_nn::arena_pooled()))
        .collect();
    for (i, ((bits, pooled), want)) in got.into_iter().zip(want).enumerate() {
        assert_eq!(bits, want, "net {i}, {threads} threads");
        assert!(
            pooled <= working_set,
            "net {i}, {threads} threads: {pooled} > {working_set}"
        );
    }
    assert_eq!(spatl_nn::arena_stats().outstanding_elements, 0);
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
        // thread below runs on a fresh one, while the workers' steps run
        // on theirs, each with its kernels inline.
        let y = outer.nodes[0].forward_ws(&x, true, ws);
        let got = nets.par_iter_mut().map(|n| step(n, &x, &gy)).collect();
        ws.recycle(y);
        got
    });
    assert_eq!(got, want, "{threads} threads");
    assert_eq!(step(&mut outer, &x, &gy), want_outer, "{threads} threads");
    assert_eq!(spatl_nn::arena_stats().outstanding_elements, 0);
}
