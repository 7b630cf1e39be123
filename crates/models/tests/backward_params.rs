//! A training step's backward without the image gradient
//! (`SplitModel::backward_params`) leaves every parameter gradient and
//! every batch-norm buffer with the bits the full `backward` gives, and a
//! warmed-up model runs it without growing its workspaces when its logits
//! go back through `SplitModel::recycle`, as local training's do.

use spatl_models::{ModelConfig, ModelKind, SplitModel};
use spatl_tensor::{Tensor, TensorRng};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn grads(m: &SplitModel) -> Vec<u32> {
    let mut g = m.encoder.grads_flat();
    g.extend(m.predictor.grads_flat());
    bits(&g)
}

/// One step: forward in training mode, then `backward` (returning the
/// image gradient) or `backward_params`. The logits go back through
/// `SplitModel::recycle`, the image gradient to the encoder: each to the
/// workspace it came from.
fn step(m: &mut SplitModel, x: &Tensor, gy: &Tensor, full: bool) {
    m.zero_grad();
    let y = m.forward(x, true);
    m.recycle(y);
    if full {
        let gx = m.backward(gy);
        assert_eq!(gx.dims(), x.dims());
        m.encoder.recycle(gx);
    } else {
        m.backward_params(gy);
    }
}

#[test]
fn parameter_gradients_match_full_backward() {
    for kind in [ModelKind::Vgg11, ModelKind::ResNet20] {
        let cfg = ModelConfig::cifar(kind).with_width(0.25);
        let mut rng = TensorRng::seed_from(17);
        let (mut full, mut params) = (cfg.build(), cfg.build());
        let hw = cfg.input_hw;
        for i in 0..3 {
            let x = rng.normal_tensor([6, cfg.in_channels, hw, hw], 0.0, 1.0);
            let gy = rng.normal_tensor([6, cfg.num_classes], 0.0, 1.0);
            step(&mut full, &x, &gy, true);
            step(&mut params, &x, &gy, false);
            assert_eq!(grads(&params), grads(&full), "{kind:?} step {i}: grads");
            assert_eq!(
                bits(&params.encoder.buffers_flat()),
                bits(&full.encoder.buffers_flat()),
                "{kind:?} step {i}: batch-norm buffers"
            );
        }
    }
}

#[test]
fn steady_state_steps_do_not_grow_the_workspaces() {
    for kind in [ModelKind::Vgg11, ModelKind::ResNet20] {
        let cfg = ModelConfig::cifar(kind).with_width(0.25);
        let mut m = cfg.build();
        let mut rng = TensorRng::seed_from(3);
        let hw = cfg.input_hw;
        let x = rng.normal_tensor([4, cfg.in_channels, hw, hw], 0.0, 1.0);
        let gy = rng.normal_tensor([4, cfg.num_classes], 0.0, 1.0);
        // The pool's best-fit reuse settles its buffer sizes within a
        // dozen steps (the full backward's as well); checkouts count every
        // step, allocations only unsettled ones, and every buffer a step
        // checks out goes back, so the pools hold as many as before.
        for _ in 0..16 {
            step(&mut m, &x, &gy, false);
        }
        let stats = |m: &SplitModel| {
            [&m.encoder, &m.predictor].map(|_| {
                let s = spatl_nn::arena_stats();
                (
                    s.fresh_allocs,
                    s.grows,
                    s.high_water_elements,
                    spatl_nn::arena_pooled(),
                )
            })
        };
        let warm = stats(&m);
        for _ in 0..3 {
            step(&mut m, &x, &gy, false);
        }
        assert_eq!(stats(&m), warm, "{kind:?}");
    }
}
