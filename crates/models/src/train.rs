//! The one training step: every loop that trains a [`SplitModel`] takes it.

use crate::SplitModel;
use spatl_nn::{arena_stats, CrossEntropyLoss, Optimizer, Sgd};
use spatl_tensor::Tensor;

/// Momentum m of every training step.
pub const MOMENTUM: f32 = 0.9;
/// L2 weight decay of every training step.
const WEIGHT_DECAY: f32 = 1e-4;

/// What a [`Trainer::step`] trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Encoder and predictor together.
    Joint,
    /// The predictor only, with the encoder in train mode, so its
    /// batch-norm statistics follow the batch: a transfer client's head
    /// re-alignment epoch.
    Head,
    /// The predictor only, over a frozen encoder in eval mode (Eq. 4).
    FrozenHead,
}

/// Momentum SGD at a learning rate η on the mean cross-entropy, with one
/// optimiser per part, so each part keeps its own velocity.
#[derive(Debug)]
pub struct Trainer {
    encoder: Sgd,
    predictor: Sgd,
    loss: CrossEntropyLoss,
}

impl Trainer {
    /// A trainer at learning rate `lr`, [`MOMENTUM`] and the weight decay.
    pub fn new(lr: f32) -> Self {
        Trainer {
            encoder: Sgd::with_momentum(lr, MOMENTUM, WEIGHT_DECAY),
            predictor: Sgd::with_momentum(lr, MOMENTUM, WEIGHT_DECAY),
            loss: CrossEntropyLoss::new(),
        }
    }

    /// One step on a batch; returns its loss. The parts `part` trains are
    /// stepped, encoder first. The logits, the loss gradient and every
    /// layer cache go back to the thread's arena, so a step leaves the
    /// arena's outstanding elements where it found them.
    pub fn step(
        &mut self,
        model: &mut SplitModel,
        images: &Tensor,
        labels: &[usize],
        part: Part,
    ) -> f32 {
        self.step_with(model, images, labels, part, |_| {})
    }

    /// [`Trainer::step`] with a hook between the backward pass and the
    /// update: `adjust` may add to the gradients (FedProx's proximal term,
    /// SCAFFOLD's correction).
    pub fn step_with(
        &mut self,
        model: &mut SplitModel,
        images: &Tensor,
        labels: &[usize],
        part: Part,
        adjust: impl FnOnce(&mut SplitModel),
    ) -> f32 {
        model.clear_caches();
        let outstanding = cfg!(debug_assertions).then(|| arena_stats().outstanding_elements);
        model.zero_grad();
        let emb = model.encoder.forward(images, part != Part::FrozenHead);
        let logits = model.predictor.forward(&emb, true);
        model.encoder.recycle(emb);
        let loss = self.loss.forward(&logits, labels);
        model.recycle(logits);
        let g = self.loss.backward();
        if part == Part::Joint {
            model.backward_params(&g);
        } else {
            model.predictor.backward_params(&g);
        }
        model.recycle(g);
        model.clear_caches();
        debug_assert_eq!(
            outstanding,
            Some(arena_stats().outstanding_elements),
            "a training step kept arena buffers"
        );
        adjust(model);
        if part == Part::Joint {
            self.encoder.step(&mut model.encoder);
        }
        self.predictor.step(&mut model.predictor);
        loss
    }

    /// The encoder's momentum buffer flattened in parameter order, then,
    /// with `with_predictor`, the predictor's; a part that has not stepped
    /// reads as zeros. FedNova clients upload this next to their delta.
    pub fn velocity_flat(&self, model: &SplitModel, with_predictor: bool) -> Vec<f32> {
        let mut v = self.encoder.velocity_flat(model.encoder.num_params());
        if with_predictor {
            v.extend(self.predictor.velocity_flat(model.predictor.num_params()));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, ModelKind};
    use spatl_tensor::TensorRng;

    fn resnet20_batch() -> (SplitModel, Tensor, Vec<usize>) {
        let cfg = ModelConfig::cifar(ModelKind::ResNet20);
        let mut rng = TensorRng::seed_from(3);
        let images = rng.normal_tensor([8, cfg.in_channels, cfg.input_hw, cfg.input_hw], 0.0, 1.0);
        let labels = (0..8).map(|i| i % cfg.num_classes).collect();
        (cfg.build(), images, labels)
    }

    #[test]
    fn a_warmed_step_allocates_nothing_and_returns_every_buffer() {
        for part in [Part::Joint, Part::Head, Part::FrozenHead] {
            let (mut model, images, labels) = resnet20_batch();
            let mut trainer = Trainer::new(0.05);
            let counters = || {
                let s = arena_stats();
                (s.fresh_allocs, s.grows, s.outstanding_elements)
            };
            trainer.step(&mut model, &images, &labels, part);
            let warm = counters();
            trainer.step(&mut model, &images, &labels, part);
            assert_eq!(counters(), warm, "{part:?}");
        }
    }

    #[test]
    fn each_part_keeps_its_momentum() {
        // The first step of momentum SGD equals plain SGD's; from the
        // second on, each part's own velocity must carry over.
        let (model, images, labels) = resnet20_batch();
        let two_steps = |mut trainer: Trainer| {
            let mut m = model.clone();
            for _ in 0..2 {
                trainer.step(&mut m, &images, &labels, Part::Joint);
            }
            (m.encoder.to_flat(), m.predictor.to_flat())
        };
        let live = two_steps(Trainer::new(0.05));
        let still = two_steps(Trainer {
            encoder: Sgd::with_momentum(0.05, 0.0, WEIGHT_DECAY),
            predictor: Sgd::with_momentum(0.05, 0.0, WEIGHT_DECAY),
            loss: CrossEntropyLoss::new(),
        });
        assert_ne!(live.0, still.0, "the encoder lost its momentum");
        assert_ne!(live.1, still.1, "the predictor lost its momentum");
    }

    #[test]
    fn head_steps_leave_the_encoder_weights_and_only_frozen_keeps_its_statistics() {
        let (model, images, labels) = resnet20_batch();
        let eval_embedding = |m: &mut SplitModel| {
            let emb = m.encoder.forward(&images, false);
            let out = emb.data().to_vec();
            m.encoder.recycle(emb);
            out
        };
        let before = eval_embedding(&mut model.clone());
        for part in [Part::Head, Part::FrozenHead] {
            let mut m = model.clone();
            Trainer::new(0.05).step(&mut m, &images, &labels, part);
            assert_eq!(m.encoder.to_flat(), model.encoder.to_flat(), "{part:?}");
            assert_ne!(m.predictor.to_flat(), model.predictor.to_flat(), "{part:?}");
            // Train mode moves the batch-norm running statistics, which
            // the eval-mode embedding reads; eval mode leaves them.
            let moved = eval_embedding(&mut m) != before;
            assert_eq!(moved, part == Part::Head, "{part:?}");
        }
    }

    #[test]
    fn the_hook_adjusts_the_gradients_the_update_reads() {
        // On the first step the velocity is the gradient, so adding 1 to
        // every predictor gradient moves each predictor weight by −η more
        // and leaves the encoder's update as it was.
        let (model, images, labels) = resnet20_batch();
        let lr = 0.05;
        let (mut plain, mut hooked) = (model.clone(), model.clone());
        Trainer::new(lr).step(&mut plain, &images, &labels, Part::Joint);
        Trainer::new(lr).step_with(&mut hooked, &images, &labels, Part::Joint, |m| {
            let ones = vec![1.0; m.predictor.num_params()];
            m.predictor.add_to_grads(&ones);
        });
        assert_eq!(hooked.encoder.to_flat(), plain.encoder.to_flat());
        let (h, p) = (hooked.predictor.to_flat(), plain.predictor.to_flat());
        for (h, p) in h.iter().zip(&p) {
            assert!((p - h - lr).abs() < 1e-5, "plain {p}, hooked {h}");
        }
    }

    #[test]
    fn velocity_reads_zeros_for_a_part_that_has_not_stepped() {
        let (mut model, images, labels) = resnet20_batch();
        let mut trainer = Trainer::new(0.05);
        trainer.step(&mut model, &images, &labels, Part::Head);
        let enc_len = model.encoder.num_params();
        assert_eq!(trainer.velocity_flat(&model, false), vec![0.0; enc_len]);
        let v = trainer.velocity_flat(&model, true);
        assert_eq!(v.len(), model.num_params());
        assert!(v[..enc_len].iter().all(|&x| x == 0.0));
        assert!(v[enc_len..].iter().any(|&x| x != 0.0));
    }
}
