//! The federated-learning simulator: in-process clients around the shared
//! [`RoundDriver`] orchestration core.
//!
//! Aggregation flows through [`RoundDriver::begin_accumulation`] /
//! [`RoundAccumulator::fold`](crate::RoundAccumulator::fold) /
//! [`RoundDriver::finish_accumulation`] — the sequence the concurrent
//! networked coordinator runs (DESIGN.md §12), one upload folded as soon
//! as it decodes. The simulator feeds it in ascending client-id order
//! because that is the order its collection loop produces, but nothing
//! depends on it: the accumulator is order-independent, which is exactly
//! why a TCP round whose uploads complete in scrambled order stays
//! bit-identical to the simulated one.

use crate::{
    client::write_shared, wire, Adversary, Algorithm, ClientState, FaultKind, FaultRecord,
    FlConfig, GlobalState, RoundDriver, RoundRecord, TransportStats,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use spatl_agent::{pretrain_agent, ActorCritic, AgentConfig, PruningEnv};
use spatl_data::Dataset;
use spatl_models::{ModelConfig, SplitModel};
use spatl_tensor::TensorRng;

/// Result of a full run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Algorithm name.
    pub algorithm: String,
    /// Model name.
    pub model: String,
    /// Number of clients.
    pub n_clients: usize,
    /// Sample ratio.
    pub sample_ratio: f32,
    /// Per-round records.
    pub history: Vec<RoundRecord>,
    /// Bytes per round per participating client (average).
    pub bytes_per_round_per_client: u64,
}

impl RunResult {
    /// Accuracy after the final round.
    pub fn final_acc(&self) -> f32 {
        self.history.last().map(|r| r.mean_acc).unwrap_or(0.0)
    }

    /// Best accuracy over the run.
    pub fn best_acc(&self) -> f32 {
        self.history.iter().map(|r| r.mean_acc).fold(0.0, f32::max)
    }

    /// First round whose accuracy reaches `target` (1-based count of
    /// communication rounds), if any.
    pub fn rounds_to_target(&self, target: f32) -> Option<usize> {
        self.history
            .iter()
            .position(|r| r.mean_acc >= target)
            .map(|i| i + 1)
    }

    /// Total bytes moved over the run.
    pub fn total_bytes(&self) -> u64 {
        self.history.last().map(|r| r.cumulative_bytes).unwrap_or(0)
    }

    /// Total simulated transfer wall-clock over the run, in seconds.
    pub fn total_transfer_s(&self) -> f64 {
        self.history.iter().map(|r| r.transfer_wall_s).sum()
    }

    /// Total measured bytes on the wire over the run, framing included.
    pub fn total_framed_bytes(&self) -> u64 {
        self.history.iter().map(|r| r.wire.total_framed()).sum()
    }
}

/// A complete federated simulation: the shared [`RoundDriver`] engine plus
/// every client's in-process state. Derefs to the driver, so `sim.cfg`,
/// `sim.global`, `sim.history`, `sim.layout` and `sim.net` read as before
/// the engine was factored out.
pub struct Simulation {
    /// The transport-independent orchestration core (configuration, server
    /// state, sampling position, aggregation pipeline, history).
    pub driver: RoundDriver,
    /// All clients.
    pub clients: Vec<ClientState>,
}

impl std::ops::Deref for Simulation {
    type Target = RoundDriver;

    fn deref(&self) -> &RoundDriver {
        &self.driver
    }
}

impl std::ops::DerefMut for Simulation {
    fn deref_mut(&mut self) -> &mut RoundDriver {
        &mut self.driver
    }
}

impl Simulation {
    /// Build a simulation: one `(train, val)` shard per client. All clients
    /// start from the same global model initialisation given by
    /// `model_cfg`.
    pub fn new(cfg: FlConfig, model_cfg: ModelConfig, shards: Vec<(Dataset, Dataset)>) -> Self {
        assert_eq!(shards.len(), cfg.n_clients, "one shard per client required");
        let model = model_cfg.with_seed(cfg.seed).build();
        let global = GlobalState::from_model(&model, &cfg.algorithm);

        // SPATL: pre-train one agent on the pruning task and distribute a
        // copy to every client (paper: pre-trained on ResNet-56, shipped to
        // clients, then fine-tuned locally).
        let selects = matches!(cfg.algorithm, Algorithm::Spatl(o) if o.selection);
        let agent = selects.then(|| Self::pretrained_agent(&model, &shards, cfg.seed));

        let clients: Vec<ClientState> = shards
            .into_iter()
            .enumerate()
            .map(|(id, (train, val))| {
                let mut c = ClientState::new(id, train, val, model.clone());
                c.agent = agent.clone();
                c
            })
            .collect();

        let layout =
            selects.then(|| wire::build_selection_layout(&model, !cfg.algorithm.uses_transfer()));

        Simulation {
            driver: RoundDriver::new(cfg, global, layout),
            clients,
        }
    }

    fn pretrained_agent(
        model: &SplitModel,
        shards: &[(Dataset, Dataset)],
        seed: u64,
    ) -> ActorCritic {
        let mut agent = ActorCritic::new(AgentConfig::default(), seed ^ 0xA9E27);
        // A small pruning pre-training pass on the initial model and the
        // first shard's validation data: enough to give the policy sensible
        // structure before per-client fine-tuning takes over.
        if let Some((_, val)) = shards.first() {
            if !val.is_empty() {
                let env = PruningEnv::new(model.clone(), val.clone(), 0.7);
                let mut rng = TensorRng::seed_from(seed ^ 0x77);
                pretrain_agent(&mut agent, &env, 3, 3, 3, &mut rng);
            }
        }
        agent
    }

    /// Replace every client's agent (e.g. with one pre-trained on
    /// ResNet-56 by `spatl-agent`).
    pub fn set_agent(&mut self, agent: ActorCritic) {
        for c in &mut self.clients {
            c.agent = Some(agent.clone());
        }
    }

    /// Assign per-client FLOPs budgets (one per client) for
    /// resource-heterogeneous deployments; overrides the run-wide
    /// `SpatlOptions::target_flops_ratio` during salient selection.
    pub fn set_client_budgets(&mut self, budgets: &[f32]) {
        assert_eq!(budgets.len(), self.clients.len(), "one budget per client");
        for (c, &b) in self.clients.iter_mut().zip(budgets) {
            assert!((0.0..=1.0).contains(&b), "budget must be a FLOPs fraction");
            c.flops_budget = Some(b);
        }
    }

    /// Run one communication round; returns its record.
    ///
    /// With a [`FaultPlan`](crate::FaultPlan) configured, the round enacts
    /// it the way the networked runtime does (DESIGN.md §8): sampled
    /// clients may leave before the broadcast, and a duplicated reply is
    /// ledgered, never folded twice. Aggregation renormalises over the
    /// survivors; a round that loses everyone is a recorded no-op, never a
    /// panic or a NaN.
    pub fn run_round(&mut self) -> RoundRecord {
        let round = self.driver.round_index();
        let sampled = self.driver.sample_round();
        let mut faults = FaultRecord::for_sample(sampled.len());

        // Whoever leaves before the broadcast — the plan's dropout coin
        // or a churn departure — never trains and costs the round nothing
        // but its absence. Every runtime filters the cohort through this
        // one function, so the effective cohort is identical in the
        // simulator, the flat coordinator and every edge.
        let selected = crate::ledger_departures(&self.driver.cfg, round, &sampled, &mut faults);

        if selected.is_empty() {
            // Every sampled client dropped: a recorded no-op round. The
            // global model must survive untouched (regression-tested; the
            // sample-weighted aggregation rules would otherwise divide by
            // an empty cohort).
            faults.no_op = true;
            let per_client_acc = self.evaluate_all();
            return self.driver.noop_round(per_client_acc, faults);
        }

        let in_round: Vec<bool> = {
            let mut v = vec![false; self.driver.cfg.n_clients];
            for &i in &selected {
                v[i] = true;
            }
            v
        };

        // Broadcast: seal the server state once; every participant trains
        // against the *decoded* copy, so the round's tensors really crossed
        // the wire in both directions.
        let p = self.driver.global.shared.len();
        let down = self.driver.broadcast();
        let wire_global = wire::decode_download(&self.driver.cfg, &down.frames, p)
            .expect("server broadcast must decode");

        // Parallel local updates on the sampled clients. The parallel call
        // runs over the cohort alone, so a cohort of one never enters a
        // pool job and its kernels still split across the threads.
        let cfg = self.driver.cfg;
        let global_ref = &wire_global;
        let mut cohort: Vec<&mut ClientState> = self
            .clients
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| in_round[*i])
            .map(|(_, c)| c)
            .collect();
        let mut outcomes: Vec<crate::LocalOutcome> = cohort
            .par_iter_mut()
            .map(|c| c.local_update(&cfg, global_ref, round))
            .collect();

        // A client whose local training diverged (non-finite delta)
        // self-reports; its upload is excluded from aggregation and the
        // ledger records why. Distinct from `Quarantined`: this is the
        // client's own verdict, not the server's. A reply the plan
        // duplicates is folded once and its copy ledgered — in the place
        // the networked gather's ledger puts it: ascending id, after the
        // client's own events.
        for o in &outcomes {
            if o.diverged {
                faults.push(o.client_id, FaultKind::LocalDivergence);
            }
            if cfg
                .faults
                .is_some_and(|plan| plan.duplicates_upload(round, o.client_id))
            {
                faults.push(o.client_id, FaultKind::DuplicateUpload);
            }
        }

        // Byzantine stage: the plan's static malicious cohort rewrites its
        // outcomes and re-seals the frames *before* transmission, so the
        // wire layer (and its CRC) sees perfectly well-formed uploads. The
        // ledger records ground truth; whether the server *catches* the
        // poison is the screen's and the aggregator's business.
        if let Some(adv) = cfg.adversary.map(Adversary::new) {
            let mask = adv.byzantine_mask(cfg.n_clients);
            let masked_session = cfg
                .privacy
                .is_some_and(|p| p.mode == spatl_privacy::PrivacyMode::Masked);
            for o in &mut outcomes {
                if mask[o.client_id] {
                    adv.tamper(&cfg, global_ref, o, round);
                    faults.push(
                        o.client_id,
                        FaultKind::ByzantineUpload {
                            attack: adv.plan().attack,
                        },
                    );
                    // Under pairwise masking the poison travels inside an
                    // indistinguishable masked lane: no screen could have
                    // seen it even if one were configured. Ledger the
                    // ground truth that the defence was structurally
                    // bypassed, not merely evaded.
                    if masked_session {
                        faults.push(o.client_id, FaultKind::ScreenBypassed);
                    }
                }
            }
        }

        // Uplink: the server aggregates what it decodes from each client's
        // frames, never the in-memory tensors.
        let mut stats = TransportStats::default();
        // The coordinator's own sequence: every upload folds the moment
        // it decodes (any order gives the same bits) and its tensors are
        // dropped, so the server side of the round holds O(model).
        let mut acc = self.driver.begin_accumulation();
        for o in &mut outcomes {
            o.wire.download_payload = down.payload;
            o.wire.download_framed = down.framed();
            // Cross-check: the measured tensor payload must equal the
            // analytic Eq. 13 accounting, byte for byte.
            debug_assert_eq!(
                o.wire.download_payload, o.bytes.download,
                "download payload"
            );
            debug_assert_eq!(o.wire.upload_payload, o.bytes.upload, "upload payload");
            let decoded = self
                .driver
                .decode_client_upload(o, &o.frames)
                .expect("client upload must decode");
            stats.charge(&self.driver.net, &o.wire);
            acc.fold(decoded);
            // Transmission is over: of this outcome only the scalar
            // accounting is read again (`finish_round`).
            o.release_payload();
        }

        // Screening + partial-participation aggregation over whatever
        // survived (shared with the networked coordinator); a
        // survivor-less round leaves the global state untouched.
        self.driver.finish_accumulation(acc, &mut faults);

        // Evaluate all clients against the *new* global model.
        let per_client_acc = self.evaluate_all();
        self.driver
            .finish_round(&outcomes, stats, per_client_acc, faults)
    }

    /// Sync every client with the current global weights and compute its
    /// validation accuracy (private predictors and local masks retained).
    pub fn evaluate_all(&mut self) -> Vec<f32> {
        let include_pred = !self.driver.cfg.algorithm.uses_transfer();
        let global = &self.driver.global;
        self.clients
            .par_iter_mut()
            .map(|c| {
                write_shared(&mut c.model, &global.shared, include_pred);
                if !global.buffers.is_empty() {
                    c.model.encoder.set_buffers_flat(&global.buffers);
                }
                c.evaluate()
            })
            .collect()
    }

    /// Deployment finalisation (Eq. 4): every client that never
    /// participated downloads the final encoder and adapts **its predictor
    /// only** on local data before the deployment evaluation — the paper's
    /// protocol for clients outside the sampling set. Only meaningful for
    /// transfer-mode SPATL; a no-op otherwise. Returns post-adaptation
    /// per-client accuracy.
    pub fn finalize(&mut self, adapt_epochs: usize) -> Vec<f32> {
        if self.driver.cfg.algorithm.uses_transfer() {
            let global = &self.driver.global;
            let seed = self.driver.cfg.seed;
            self.clients.par_iter_mut().for_each(|c| {
                if c.participations == 0 {
                    write_shared(&mut c.model, &global.shared, false);
                    if !global.buffers.is_empty() {
                        c.model.encoder.set_buffers_flat(&global.buffers);
                    }
                    crate::adapt_predictor(
                        &mut c.model,
                        &c.train,
                        adapt_epochs,
                        seed ^ 0xF1A1 ^ c.id as u64,
                    );
                }
            });
        }
        self.evaluate_all()
    }

    /// Run all configured rounds and summarise.
    pub fn run(&mut self) -> RunResult {
        for _ in 0..self.driver.cfg.rounds {
            self.run_round();
        }
        self.result()
    }

    /// Summarise the rounds run so far.
    pub fn result(&self) -> RunResult {
        let participants_per_round = self.driver.cfg.clients_per_round() as u64;
        let rounds = self.driver.history.len().max(1) as u64;
        RunResult {
            algorithm: self.driver.cfg.algorithm.name().to_string(),
            model: self
                .clients
                .first()
                .map(|c| c.model.config.kind.name().to_string())
                .unwrap_or_default(),
            n_clients: self.driver.cfg.n_clients,
            sample_ratio: self.driver.cfg.sample_ratio,
            history: self.driver.history.clone(),
            bytes_per_round_per_client: self.driver.cumulative_bytes()
                / (rounds * participants_per_round),
        }
    }
}
