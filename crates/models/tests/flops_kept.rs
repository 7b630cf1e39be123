//! `SplitModel::flops_with_kept` reads the FLOPs of a masked model off its
//! kept-channel counts: masks keeping those counts, whichever channels
//! they keep, cost exactly that.

use spatl_models::{ModelConfig, ModelKind};

#[test]
fn kept_counts_give_the_masked_flops() {
    // Masks keeping `kept[i]` channels (which ones varies) cost what
    // the counts alone say, on every architecture.
    for cfg in [
        ModelConfig::cifar(ModelKind::ResNet20),
        ModelConfig::cifar(ModelKind::ResNet56),
        ModelConfig::cifar(ModelKind::ResNet18),
        ModelConfig::cifar(ModelKind::Vgg11),
        ModelConfig::femnist(),
    ] {
        let mut m = cfg.build();
        for step in 1..4 {
            let mut kept = Vec::new();
            for idx in 0..m.prune_points.len() {
                let n = m.prune_points[idx].out_channels;
                let keep = 1 + (idx * 7 + step * 5) % n;
                let mask = (0..n)
                    .map(|c| {
                        if (c + idx + step) % n < keep {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect();
                m.set_mask(idx, mask);
                kept.push(keep);
            }
            assert_eq!(m.flops_with_kept(&kept), m.flops(), "{:?}", cfg.kind);
        }
        let dense = m.flops_dense();
        m.clear_masks();
        assert_eq!(dense, m.flops(), "{:?}", cfg.kind);
    }
}
