//! Knowledge transfer to new clients and datasets (Eq. 4, Table III).

use spatl_data::Dataset;
use spatl_models::{Part, SplitModel, Trainer};
use spatl_tensor::TensorRng;

/// Adapt a model to a new client by training **only the predictor head**
/// on the client's local data, with the downloaded encoder frozen (Eq. 4),
/// by the clients' own local optimiser.
///
/// This is how a client that never participated in federated training
/// deploys the shared encoder. Returns the final training loss.
pub fn adapt_predictor(model: &mut SplitModel, train: &Dataset, epochs: usize, seed: u64) -> f32 {
    let mut trainer = Trainer::new(crate::client::LR);
    let mut rng = TensorRng::seed_from(seed);
    let mut last = 0.0f32;
    // Calibrate batch-norm running statistics on the client's data first
    // (AdaBN): the encoder weights stay frozen but its normalisation must
    // reflect the local input distribution, or eval-mode features are badly
    // scaled for the new head. A temporarily high EMA momentum makes the
    // running statistics converge to the local ones within a few batches.
    let saved_momentum = {
        let mut m = 0.1f32;
        model.encoder.for_each_batchnorm_mut(&mut |bn| {
            m = bn.momentum;
            bn.momentum = 0.5;
        });
        m
    };
    for _ in 0..2 {
        for batch in train.batches(64, &mut rng).into_iter().take(6) {
            let emb = model.encoder.forward(&batch.images, true);
            model.encoder.recycle(emb);
        }
    }
    model
        .encoder
        .for_each_batchnorm_mut(&mut |bn| bn.momentum = saved_momentum);
    model.encoder.clear_caches();
    for _ in 0..epochs {
        for batch in train.batches(32, &mut rng) {
            // The encoder is frozen, so its batch statistics must not
            // drift either.
            last = trainer.step(model, &batch.images, &batch.labels, Part::FrozenHead);
        }
    }
    last
}

/// Transferability evaluation (§V-E): fit a fresh predictor on a *new*
/// dataset on top of a trained encoder and report validation accuracy.
pub fn transfer_evaluate(
    mut model: SplitModel,
    encoder_flat: &[f32],
    train: &Dataset,
    val: &Dataset,
    epochs: usize,
    seed: u64,
) -> f32 {
    model.encoder.from_flat(encoder_flat);
    model.clear_masks();
    adapt_predictor(&mut model, train, epochs, seed);
    let batch = val.as_batch();
    model.evaluate(&batch.images, &batch.labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatl_data::{synth_cifar10, SynthConfig};
    use spatl_models::{ModelConfig, ModelKind};

    #[test]
    fn adaptation_only_touches_predictor() {
        let mut model = ModelConfig::cifar(ModelKind::ResNet20).build();
        let cfg = SynthConfig::cifar10_like();
        let train = synth_cifar10(&cfg, 40, 1);
        let enc_before = model.encoder.to_flat();
        let pred_before = model.predictor.to_flat();
        adapt_predictor(&mut model, &train, 2, 7);
        assert_eq!(
            model.encoder.to_flat(),
            enc_before,
            "encoder must stay frozen"
        );
        assert_ne!(
            model.predictor.to_flat(),
            pred_before,
            "predictor must train"
        );
    }

    #[test]
    fn adaptation_improves_over_random_head() {
        let cfg = SynthConfig {
            noise_std: 0.35,
            ..SynthConfig::cifar10_like()
        };
        let train = synth_cifar10(&cfg, 160, 2);
        let val = synth_cifar10(&cfg, 80, 3);
        let mut model = ModelConfig::cifar(ModelKind::ResNet20).build();
        let batch = val.as_batch();
        let before = model.evaluate(&batch.images, &batch.labels);
        adapt_predictor(&mut model, &train, 10, 8);
        let after = model.evaluate(&batch.images, &batch.labels);
        assert!(
            after > before + 0.04,
            "adaptation did not help: {before} -> {after}"
        );
    }

    #[test]
    fn transfer_evaluate_round_trips_encoder() {
        let model = ModelConfig::cifar(ModelKind::ResNet20).build();
        let flat = model.encoder.to_flat();
        let cfg = SynthConfig::cifar10_like();
        let train = synth_cifar10(&cfg, 40, 4);
        let val = synth_cifar10(&cfg, 20, 5);
        let acc = transfer_evaluate(model, &flat, &train, &val, 1, 9);
        assert!((0.0..=1.0).contains(&acc));
    }
}
