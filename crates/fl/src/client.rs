//! Client-side state and local update rules.

use crate::{Algorithm, CommModel, FlConfig, GlobalState, RoundBytes, UploadLane};
use spatl_agent::{finetune_agent, ActorCritic, PruningEnv};
use spatl_data::Dataset;
use spatl_graph::extract;
use spatl_models::{Part, SplitModel, Trainer, MOMENTUM};
use spatl_pruning::{apply_sparsities, project_to_budget, salient_param_indices, Criterion};
use spatl_tensor::TensorRng;

/// A SPATL salient upload: values of the selected encoder entries plus the
/// (channel-granular) selection metadata.
#[derive(Debug, Clone)]
pub struct SelectedUpdate {
    /// Flat indices into the shared vector that were uploaded.
    pub indices: Vec<u32>,
    /// Delta values at those indices.
    pub values: Vec<f32>,
    /// Number of surviving channels (what the index upload actually costs).
    pub channels: usize,
    /// Surviving channel ids in the session's [`SelectionLayout`] — what
    /// the wire actually carries; `indices` is their expansion.
    ///
    /// [`SelectionLayout`]: spatl_wire::SelectionLayout
    pub channel_ids: Vec<u32>,
}

/// Everything a client sends back (plus bookkeeping the simulator keeps).
#[derive(Debug, Clone)]
pub struct LocalOutcome {
    /// Client id.
    pub client_id: usize,
    /// Local training-set size (aggregation weight).
    pub n_samples: usize,
    /// Local optimisation steps taken (FedNova normalisation, SCAFFOLD
    /// control update).
    pub tau: usize,
    /// Dense shared-vector delta `y − x`.
    pub delta: Vec<f32>,
    /// SPATL-only: the sparse upload. When present the server must ignore
    /// `delta` outside `selected.indices`.
    pub selected: Option<SelectedUpdate>,
    /// Always `None`. Kept only because the `benchmark/` harness builds a
    /// `LocalOutcome` field by field; it goes with the next change that
    /// edits `benchmark/` (ROADMAP item 1).
    pub compressed: Option<std::convert::Infallible>,
    /// SCAFFOLD: the client's control-variate step `Δcᵢ = cᵢ⁺ − cᵢ`,
    /// uploaded next to the delta.
    pub control_delta: Option<Vec<f32>>,
    /// FedNova: the local momentum buffer, uploaded next to the delta.
    pub velocity: Option<Vec<f32>>,
    /// Batch-norm running statistics after local training.
    pub buffers: Vec<f32>,
    /// True if the update contained non-finite values (rejected server-side).
    pub diverged: bool,
    /// Masked privacy mode, set by [`decode_upload`]: the exact
    /// grid-integer lanes under the cohort's pairwise masks. The clear
    /// tensor fields above are empty — the server never sees them; the
    /// masked round's blind fold consumes this form directly.
    ///
    /// [`decode_upload`]: crate::wire::decode_upload
    pub masked: Option<Box<spatl_privacy::MaskedUpload>>,
    /// Fixed-point privacy mode, set by [`decode_upload`]: the quantized
    /// (noise-carrying) integers the server range-checks against the
    /// session's L2 ball. `delta` holds their dequantized form so every
    /// downstream consumer works unchanged.
    ///
    /// [`decode_upload`]: crate::wire::decode_upload
    pub fixed: Option<Vec<i32>>,
    /// Analytic bytes this client's round cost (Eq. 13).
    pub bytes: RoundBytes,
    /// Measured wire traffic (upload side filled by the client; download
    /// side filled by the simulator, which knows the broadcast frames).
    pub wire: crate::WireBytes,
    /// The sealed upload frames this outcome travels as; the server decodes
    /// these, never the fields above, when aggregating a wire round.
    pub frames: Vec<Vec<u8>>,
    /// Fraction of shared parameters uploaded (1.0 = dense).
    pub keep_ratio: f32,
    /// FLOPs of the client's (masked) model relative to dense.
    pub flops_ratio: f32,
}

impl LocalOutcome {
    /// The bookkeeping half of an outcome — the scalars a `RoundDone`
    /// header or a forwarded edge entry carries — with every tensor field
    /// and the sealed frames empty, for [`decode_upload`] to fill from
    /// the frames that actually arrived.
    ///
    /// [`decode_upload`]: crate::wire::decode_upload
    #[allow(clippy::too_many_arguments)]
    pub fn meta(
        client_id: usize,
        n_samples: usize,
        tau: usize,
        diverged: bool,
        keep_ratio: f32,
        flops_ratio: f32,
        bytes: RoundBytes,
        wire: crate::WireBytes,
    ) -> Self {
        LocalOutcome {
            client_id,
            n_samples,
            tau,
            delta: Vec::new(),
            selected: None,
            compressed: None,
            control_delta: None,
            velocity: None,
            buffers: Vec::new(),
            diverged,
            masked: None,
            fixed: None,
            bytes,
            wire,
            frames: Vec::new(),
            keep_ratio,
            flops_ratio,
        }
    }

    /// The vector a two-lane dense upload carries next to `delta`.
    pub(crate) fn lane(&self, lane: UploadLane) -> Option<&[f32]> {
        match lane {
            UploadLane::ControlDelta => self.control_delta.as_deref(),
            UploadLane::Velocity => self.velocity.as_deref(),
        }
    }

    /// [`LocalOutcome::lane`], writable.
    pub(crate) fn lane_mut(&mut self, lane: UploadLane) -> &mut Option<Vec<f32>> {
        match lane {
            UploadLane::ControlDelta => &mut self.control_delta,
            UploadLane::Velocity => &mut self.velocity,
        }
    }

    /// Multiply every aggregated vector — the delta, the salient values,
    /// the control step, the momentum — by `factor`: the median-RMS clip
    /// and the scaling attacks. Batch-norm statistics are running means,
    /// not updates, and are left untouched.
    pub fn scale(&mut self, factor: f32) {
        let vectors = [
            Some(&mut self.delta),
            self.selected.as_mut().map(|sel| &mut sel.values),
            self.control_delta.as_mut(),
            self.velocity.as_mut(),
        ];
        for x in vectors.into_iter().flatten().flatten() {
            *x *= factor;
        }
    }

    /// Free every tensor and the sealed frames, keeping the scalar
    /// bookkeeping (id, counts, flags, byte and ratio accounting) that
    /// round records are built from.
    pub(crate) fn release_payload(&mut self) {
        self.delta = Vec::new();
        self.selected = None;
        self.control_delta = None;
        self.velocity = None;
        self.buffers = Vec::new();
        self.masked = None;
        self.fixed = None;
        self.frames = Vec::new();
    }
}

/// One federated client: private data, private predictor, optional control
/// variate and selection agent.
#[derive(Debug, Clone)]
pub struct ClientState {
    /// Client id (stable across rounds).
    pub id: usize,
    /// Local training shard.
    pub train: Dataset,
    /// Local validation shard (accuracy reporting + selection reward).
    pub val: Dataset,
    /// The client's model. The encoder is overwritten from the server at
    /// each participation; the predictor is private under SPATL transfer.
    pub model: SplitModel,
    /// SCAFFOLD/SPATL control variate `cᵢ` over the shared vector (empty
    /// until first used).
    pub control: Vec<f32>,
    /// SPATL selection agent (local copy, fine-tuned online).
    pub agent: Option<ActorCritic>,
    /// How many rounds this client has participated in.
    pub participations: usize,
    /// Device-specific FLOPs budget overriding the run-wide
    /// `SpatlOptions::target_flops_ratio` (resource-heterogeneous edge
    /// deployments: weaker devices declare tighter budgets).
    pub flops_budget: Option<f32>,
}

/// Local SGD learning rate η. One setting for every algorithm's client
/// step and for Eq. 4's predictor adaptation.
pub(crate) const LR: f32 = 0.05;
/// Effective step of momentum-m SGD per unit gradient, η/(1−m): the
/// learning rate in SCAFFOLD's option-II control step (Eq. 10), on the
/// client and wherever the server re-derives it.
pub(crate) const ETA_EFF: f32 = LR / (1.0 - MOMENTUM);

/// Read the shared vector out of a model.
pub(crate) fn read_shared(model: &SplitModel, include_predictor: bool) -> Vec<f32> {
    let mut v = model.encoder.to_flat();
    if include_predictor {
        v.extend(model.predictor.to_flat());
    }
    v
}

/// Write the shared vector into a model.
pub(crate) fn write_shared(model: &mut SplitModel, shared: &[f32], include_predictor: bool) {
    let enc_len = model.encoder.num_params();
    model.encoder.from_flat(&shared[..enc_len]);
    if include_predictor {
        model.predictor.from_flat(&shared[enc_len..]);
    } else {
        assert_eq!(shared.len(), enc_len, "shared vector length mismatch");
    }
}

impl ClientState {
    /// Create a client. The model should be the same global initialisation
    /// for every client.
    pub fn new(id: usize, train: Dataset, val: Dataset, model: SplitModel) -> Self {
        ClientState {
            id,
            train,
            val,
            model,
            control: Vec::new(),
            agent: None,
            participations: 0,
            flops_budget: None,
        }
    }

    /// Run one local update per the configured algorithm; returns the
    /// upload.
    pub fn local_update(
        &mut self,
        cfg: &FlConfig,
        global: &GlobalState,
        round: usize,
    ) -> LocalOutcome {
        let spec = cfg.algorithm.spec();
        let include_pred = !spec.private_predictor;
        let uses_control = cfg.algorithm.uses_control();

        // Scratch belongs to the thread (`spatl_nn::with_arena`): every
        // step below returns its caches, so between rounds the model holds
        // parameters and statistics, not activations, and the update gives
        // the arena back every element it takes.
        self.model.clear_caches();
        let outstanding = spatl_nn::arena_stats().outstanding_elements;

        // 1. Download: sync shared weights (and BN buffers) from server.
        write_shared(&mut self.model, &global.shared, include_pred);
        if !global.buffers.is_empty() {
            self.model.encoder.set_buffers_flat(&global.buffers);
        }
        self.model.clear_masks(); // always *train* dense

        if uses_control && self.control.len() != global.shared.len() {
            self.control = vec![0.0; global.shared.len()];
        }
        // Gradient correction c − cᵢ (Eq. 9).
        let correction: Option<Vec<f32>> = uses_control.then(|| {
            global
                .control
                .iter()
                .zip(&self.control)
                .map(|(c, ci)| c - ci)
                .collect()
        });

        // 2. Local epochs.
        let mut rng = TensorRng::seed_from(
            cfg.seed ^ (round as u64).wrapping_mul(0x9E37_79B9) ^ (self.id as u64) << 32,
        );
        let mut trainer = Trainer::new(LR);
        let mut tau = 0usize;
        let enc_len = self.model.encoder.num_params();

        // Transfer mode: the freshly downloaded encoder has moved while the
        // private head stayed put; re-align the head first (one head-only
        // epoch — Eq. 4 applied at the start of each participation) so the
        // joint update doesn't spend its first steps undoing stale-head
        // gradients in the encoder.
        if !include_pred {
            for batch in self.train.batches(cfg.batch_size, &mut rng) {
                trainer.step(&mut self.model, &batch.images, &batch.labels, Part::Head);
            }
        }

        // Between backward and step: FedProx's + μ(w − w_global) and the
        // SCAFFOLD / SPATL gradient control + (c − cᵢ), on the shared part.
        let adjust = |model: &mut SplitModel| {
            if let Algorithm::FedProx { mu } = cfg.algorithm {
                let cur = read_shared(model, include_pred);
                let prox: Vec<f32> = cur
                    .iter()
                    .zip(&global.shared)
                    .map(|(w, wg)| mu * (w - wg))
                    .collect();
                model.encoder.add_to_grads(&prox[..enc_len]);
                if include_pred {
                    model.predictor.add_to_grads(&prox[enc_len..]);
                }
            }
            if let Some(corr) = &correction {
                model.encoder.add_to_grads(&corr[..enc_len]);
                if include_pred && corr.len() > enc_len {
                    model.predictor.add_to_grads(&corr[enc_len..]);
                }
            }
        };
        for _epoch in 0..cfg.local_epochs {
            for batch in self.train.batches(cfg.batch_size, &mut rng) {
                let (images, labels) = (&batch.images, &batch.labels);
                trainer.step_with(&mut self.model, images, labels, Part::Joint, adjust);
                tau += 1;
            }
        }

        // 3. Delta and divergence check. A client that detects a
        //    non-finite delta self-reports (`diverged`): aggregation skips
        //    the upload and the round's ledger records it as
        //    `FaultKind::LocalDivergence` — the honest counterpart of the
        //    server-side `Quarantined` verdict, which exists for uploads
        //    that *claim* to be healthy (see `crate::screen`).
        let new_shared = read_shared(&self.model, include_pred);
        let delta: Vec<f32> = new_shared
            .iter()
            .zip(&global.shared)
            .map(|(y, x)| y - x)
            .collect();
        let diverged = delta.iter().any(|v| !v.is_finite());

        // 4. Control-variate update (SCAFFOLD option II, Eq. 10):
        //    cᵢ⁺ = cᵢ − c + (x − y)/(K·η_eff) = cᵢ − c − δ/(τ·η_eff).
        //    With momentum-m SGD the cumulative step per unit gradient is
        //    ≈ η/(1−m), so the effective learning rate replaces η in the
        //    gradient estimate (x − y)/(K·η).
        let mut control_delta = None;
        if uses_control && !diverged && tau > 0 {
            let scale = 1.0 / (tau as f32 * ETA_EFF);
            let mut step = Vec::with_capacity(self.control.len());
            for ((ci, &c), &d) in self.control.iter_mut().zip(&global.control).zip(&delta) {
                let d_ci = -c - d * scale;
                *ci += d_ci;
                step.push(d_ci);
            }
            control_delta = Some(step);
        }

        // FedNova uploads the local momentum buffer next to the delta.
        let velocity = (spec.upload_lane == Some(UploadLane::Velocity))
            .then(|| trainer.velocity_flat(&self.model, include_pred));

        // 5. Eq. 13: 4 bytes per shared parameter per lane, unless SPATL's
        //    salient selection shrinks the upload.
        let p = global.shared.len();
        let lanes = |second: bool| 4 * p as u64 * (1 + u64::from(second));
        let mut bytes = RoundBytes {
            download: lanes(spec.download_lane.is_some()),
            upload: lanes(spec.upload_lane.is_some()),
        };
        let mut selected = None;
        let mut keep_ratio = 1.0f32;
        let mut flops_ratio = 1.0f32;
        match cfg.algorithm {
            Algorithm::Spatl(opts) if opts.selection && !diverged => {
                let (idx, channel_ids) = self.run_selection(cfg, &opts, round);
                flops_ratio = self.model.flops() as f32 / self.model.flops_dense() as f32;
                // Under transfer the shared vector *is* the encoder; without
                // transfer the predictor part is always fully selected.
                let mut indices = idx;
                if include_pred {
                    indices.extend((enc_len..delta.len()).map(|i| i as u32));
                }
                keep_ratio = indices.len() as f32 / delta.len() as f32;
                let values: Vec<f32> = indices.iter().map(|&i| delta[i as usize]).collect();
                // Selected values plus one u32 per surviving channel.
                bytes.upload = 4 * (indices.len() + channel_ids.len()) as u64;
                selected = Some(SelectedUpdate {
                    indices,
                    values,
                    channels: channel_ids.len(),
                    channel_ids,
                });
            }
            _ => {}
        }

        // Masked privacy re-prices the upload: every lane widens to
        // exact 384-bit grid integers, whatever the algorithm's clear
        // codec would have cost (fixed-point re-uses the dense layout,
        // so its accounting is unchanged).
        let bytes = match cfg.privacy.map(|p| p.mode) {
            Some(spatl_privacy::PrivacyMode::Masked) => CommModel::masked(
                bytes,
                p,
                global.buffers.len(),
                spec.secondary_lane,
                spec.count_lane,
            ),
            _ => bytes,
        };

        self.participations += 1;
        let mut outcome = LocalOutcome {
            client_id: self.id,
            n_samples: self.train.len(),
            tau,
            delta,
            selected,
            compressed: None,
            control_delta,
            velocity,
            buffers: self.model.encoder.buffers_flat(),
            diverged,
            masked: None,
            fixed: None,
            bytes,
            wire: crate::WireBytes::default(),
            frames: Vec::new(),
            keep_ratio,
            flops_ratio,
        };
        // Seal the upload: these frames, not the fields above, are what the
        // server decodes when the simulator runs a wire round.
        let encoded = crate::wire::encode_upload(cfg, global, &outcome, round);
        outcome.wire.upload_payload = encoded.payload;
        outcome.wire.upload_framed = encoded.framed();
        outcome.frames = encoded.frames;
        debug_assert_eq!(
            spatl_nn::arena_stats().outstanding_elements,
            outstanding,
            "a local update kept arena buffers"
        );
        outcome
    }

    /// Run (and possibly fine-tune) the selection agent; applies the chosen
    /// masks to `self.model` and returns the salient flat indices of the
    /// *encoder* plus the surviving channel ids (numbered in prune-point
    /// order, then channel order — the session [`SelectionLayout`] scheme).
    ///
    /// [`SelectionLayout`]: spatl_wire::SelectionLayout
    fn run_selection(
        &mut self,
        cfg: &FlConfig,
        opts: &crate::SpatlOptions,
        round: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let budget = self.flops_budget.unwrap_or(opts.target_flops_ratio);
        let mut rng =
            TensorRng::seed_from(cfg.seed ^ 0xA6E47 ^ (self.id as u64) << 17 ^ round as u64);

        let action = match &mut self.agent {
            Some(agent) => {
                // Only fine-tuning steps an environment; the graph it
                // would show is the model's own.
                if self.participations < opts.finetune_rounds {
                    let env = PruningEnv::new(self.model.clone(), self.val.clone(), budget);
                    finetune_agent(
                        agent,
                        &env,
                        1,
                        opts.agent_steps,
                        opts.agent_epochs,
                        &mut rng,
                    );
                }
                agent.evaluate(&extract(&self.model)).mu
            }
            None => {
                // No agent (degenerate config): keep everything.
                vec![0.0; self.model.prune_points.len()]
            }
        };
        let applied = project_to_budget(&self.model, &action, budget);
        apply_sparsities(&mut self.model, &applied, Criterion::L2);
        let indices = salient_param_indices(&self.model);
        let mut channel_ids = Vec::new();
        let mut base = 0u32;
        for p in &self.model.prune_points {
            let conv = self.model.conv_at(p.layer);
            for (c, &m) in conv.channel_mask.iter().enumerate() {
                if m != 0.0 {
                    channel_ids.push(base + c as u32);
                }
            }
            base += conv.out_channels as u32;
        }
        (indices, channel_ids)
    }

    /// Re-run salient selection against the client's *current* weights —
    /// used at deployment time, after the final aggregation has overwritten
    /// the encoder the last in-round selection was computed for.
    pub fn select_for_deployment(&mut self, target_flops_ratio: f32) {
        self.model.clear_masks();
        let action = match &self.agent {
            Some(agent) => agent.evaluate(&extract(&self.model)).mu,
            None => vec![0.0; self.model.prune_points.len()],
        };
        let applied = project_to_budget(&self.model, &action, target_flops_ratio);
        apply_sparsities(&mut self.model, &applied, Criterion::L2);
    }

    /// Sync the shared portion of this client's model (and BN buffers)
    /// from a server broadcast, then report validation accuracy — the
    /// per-round evaluation a networked client node performs on request.
    /// Identical to the simulator's post-aggregation evaluation pass.
    pub fn sync_and_evaluate(&mut self, cfg: &FlConfig, global: &GlobalState) -> f32 {
        write_shared(
            &mut self.model,
            &global.shared,
            !cfg.algorithm.uses_transfer(),
        );
        if !global.buffers.is_empty() {
            self.model.encoder.set_buffers_flat(&global.buffers);
        }
        self.evaluate()
    }

    /// Mean validation accuracy of the *dense* model — what the paper's
    /// learning curves report (selection masks serve the upload; pruned
    /// inference is measured separately at deployment).
    pub fn evaluate(&mut self) -> f32 {
        let masks: Vec<Vec<f32>> = self
            .model
            .prune_points
            .iter()
            .map(|p| self.model.conv_at(p.layer).channel_mask.clone())
            .collect();
        self.model.clear_masks();
        let batch = self.val.as_batch();
        let acc = self.model.evaluate(&batch.images, &batch.labels);
        for (i, m) in masks.into_iter().enumerate() {
            self.model.set_mask(i, m);
        }
        acc
    }

    /// Validation accuracy of the deployed (masked) model — the paper's
    /// inference-acceleration accuracy (§V-D).
    pub fn evaluate_deployed(&mut self) -> f32 {
        let batch = self.val.as_batch();
        self.model.evaluate(&batch.images, &batch.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpatlOptions;
    use spatl_data::{synth_cifar10, SynthConfig};
    use spatl_models::{ModelConfig, ModelKind};

    fn client(seed: u64) -> ClientState {
        let cfg = SynthConfig::cifar10_like();
        let train = synth_cifar10(&cfg, 40, seed);
        let val = synth_cifar10(&cfg, 20, seed + 1000);
        let model = ModelConfig::cifar(ModelKind::ResNet20).build();
        ClientState::new(0, train, val, model)
    }

    fn fl_cfg(algorithm: Algorithm) -> FlConfig {
        let mut c = FlConfig::new(algorithm);
        c.local_epochs = 1;
        c.batch_size = 20;
        c
    }

    #[test]
    fn fedavg_update_produces_dense_delta() {
        let mut cl = client(1);
        let cfg = fl_cfg(Algorithm::FedAvg);
        let global = GlobalState::from_model(&cl.model, &cfg.algorithm);
        let out = cl.local_update(&cfg, &global, 0);
        assert_eq!(out.delta.len(), global.shared.len());
        assert!(out.delta.iter().any(|&d| d != 0.0), "no learning happened");
        assert!(out.selected.is_none());
        assert!(!out.diverged);
        assert_eq!(out.tau, 2); // 40 samples / 20 batch × 1 epoch
        assert_eq!(out.bytes, CommModel::dense(global.shared.len()));
    }

    #[test]
    fn repeated_local_updates_keep_the_scratch_pools_steady() {
        // Each training step gives its logits, its loss gradient and the
        // layers' caches back to the thread's arena: a warmed client's
        // second update with the same batch shapes allocates nothing.
        // SPATL covers the head-only re-alignment epoch too.
        for algorithm in Algorithm::roster() {
            let mut cl = client(6);
            let cfg = fl_cfg(algorithm);
            let global = GlobalState::from_model(&cl.model, &cfg.algorithm);
            let allocs = || {
                let s = spatl_nn::arena_stats();
                (s.fresh_allocs, s.grows)
            };
            cl.local_update(&cfg, &global, 0);
            let warm = allocs();
            cl.local_update(&cfg, &global, 0);
            assert_eq!(allocs(), warm, "{algorithm:?}");
        }
    }

    #[test]
    fn scaffold_updates_control_variate() {
        let mut cl = client(2);
        let cfg = fl_cfg(Algorithm::Scaffold);
        let global = GlobalState::from_model(&cl.model, &cfg.algorithm);
        assert!(cl.control.is_empty());
        let out = cl.local_update(&cfg, &global, 0);
        assert_eq!(cl.control.len(), global.shared.len());
        // cᵢ⁺ = −δ/(τ·η_eff) when c = cᵢ = 0 initially.
        let scale = 1.0 / (out.tau as f32 * (LR / (1.0 - MOMENTUM)));
        for j in (0..cl.control.len()).step_by(997) {
            let expect = -out.delta[j] * scale;
            assert!((cl.control[j] - expect).abs() < 1e-4, "j={j}");
        }
    }

    #[test]
    fn spatl_transfer_shares_encoder_only() {
        let mut cl = client(3);
        let cfg = fl_cfg(Algorithm::Spatl(SpatlOptions::default()));
        let global = GlobalState::from_model(&cl.model, &cfg.algorithm);
        assert_eq!(global.shared.len(), cl.model.encoder.num_params());
        cl.agent = Some(spatl_agent::ActorCritic::new(Default::default(), 1));
        let out = cl.local_update(&cfg, &global, 0);
        let sel = out.selected.expect("SPATL must select");
        assert!(sel.indices.len() < global.shared.len());
        assert_eq!(sel.indices.len(), sel.values.len());
        assert!(out.keep_ratio < 1.0);
        assert!(out.flops_ratio <= cfg_target() + 0.05);
        // Selected values match the dense delta at those indices.
        for (k, &i) in sel.indices.iter().enumerate().step_by(1009) {
            assert_eq!(sel.values[k], out.delta[i as usize]);
        }
    }

    fn cfg_target() -> f32 {
        SpatlOptions::default().target_flops_ratio
    }

    #[test]
    fn spatl_without_selection_uploads_dense() {
        let mut cl = client(4);
        let opts = SpatlOptions {
            selection: false,
            ..Default::default()
        };
        let cfg = fl_cfg(Algorithm::Spatl(opts));
        let global = GlobalState::from_model(&cl.model, &cfg.algorithm);
        let out = cl.local_update(&cfg, &global, 0);
        assert!(out.selected.is_none());
        assert_eq!(out.keep_ratio, 1.0);
    }

    #[test]
    fn fedprox_stays_closer_to_global_than_fedavg() {
        let mut a = client(5);
        let mut b = a.clone();
        let cfg_avg = fl_cfg(Algorithm::FedAvg);
        let cfg_prox = fl_cfg(Algorithm::FedProx { mu: 10.0 });
        let global = GlobalState::from_model(&a.model, &cfg_avg.algorithm);
        let out_avg = a.local_update(&cfg_avg, &global, 0);
        let out_prox = b.local_update(&cfg_prox, &global, 0);
        let norm = |d: &[f32]| d.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(
            norm(&out_prox.delta) < norm(&out_avg.delta),
            "prox {} !< avg {}",
            norm(&out_prox.delta),
            norm(&out_avg.delta)
        );
    }

    #[test]
    fn predictor_stays_private_under_transfer() {
        let mut cl = client(6);
        let cfg = fl_cfg(Algorithm::Spatl(SpatlOptions::default()));
        let global = GlobalState::from_model(&cl.model, &cfg.algorithm);
        let pred_before = cl.model.predictor.to_flat();
        cl.local_update(&cfg, &global, 0);
        let pred_after = cl.model.predictor.to_flat();
        // Predictor trained (changed) but is NOT in the shared vector.
        assert_ne!(pred_before, pred_after);
        assert_eq!(global.shared.len(), cl.model.encoder.num_params());
    }
}
