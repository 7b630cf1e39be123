//! Churn-realistic cohorts: trace-driven client arrival, periodic
//! availability and mid-round departure over a large virtual-client
//! population (ROADMAP item 4b).
//!
//! Real federated populations are not a fixed roster: cross-device
//! clients come and go with diurnal waves, join the deployment mid-run
//! and vanish mid-round; cross-silo clients are mostly-always-on. A
//! [`ChurnPlan`] models this with three seeded ingredients, all O(1) per
//! query so a 100k+ virtual population costs nothing to hold:
//!
//! * **Arrival** — each client joins the deployment at a round drawn
//!   uniformly from `[0, arrival_span]` (0 = everyone present at round
//!   0, the cross-silo profile).
//! * **Periodic availability** — the population shares a cycle of
//!   `period` rounds; each client is up for the first `ceil(duty ·
//!   period)` rounds of the cycle at its own random phase, producing a
//!   staggered diurnal wave. An independent per-`(round, client)`
//!   `flake` coin models sporadic unavailability on top.
//! * **Mid-round departure** — a client whose availability window ends
//!   this round abandons the round in progress with probability
//!   `abrupt`; every aggregation tier ledgers it as a
//!   [`Dropout`](crate::FaultKind::Dropout).
//!
//! Cohorts are drawn per round by seeded rejection sampling over the
//! available population — O(cohort) memory regardless of population
//! size, and a pure function of `(plan seed, round)` so the simulator,
//! the flat coordinator and every edge aggregator derive the identical
//! cohort independently (the same property the churn-free `choose_k`
//! draw of [`sampled_cohort`](crate::sampled_cohort) has).

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::faults::seeded_rng;

const SALT_ARRIVE: u64 = 0xA1;
const SALT_PHASE: u64 = 0xF4;
const SALT_FLAKE: u64 = 0xFE;
const SALT_EXIT: u64 = 0xE1;
pub(crate) const SALT_COHORT: u64 = 0xC1;

/// A seeded description of client churn. Part of
/// [`FlConfig`](crate::FlConfig); `None` there keeps the fixed-roster
/// `choose_k` sampling. When set, round cohorts are drawn from the
/// currently *available* population instead, and may be smaller than
/// `clients_per_round` (even empty — such a round is a recorded no-op).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnPlan {
    /// Availability cycle length in rounds (≥ 1). Every client repeats
    /// its up/down pattern with this period, at its own phase.
    pub period: u32,
    /// Fraction of the cycle a client is up, in `(0, 1]`.
    pub duty: f64,
    /// Clients arrive (first become samplable) at a round drawn
    /// uniformly from `[0, arrival_span]`; 0 means the whole population
    /// exists from round 0.
    pub arrival_span: u32,
    /// Probability that an otherwise-available client is sporadically
    /// unavailable in a given round. In `[0, 1]`.
    pub flake: f64,
    /// Probability that a client whose availability window ends this
    /// round abandons the round *in progress* (trained but never
    /// uploads). In `[0, 1]`.
    pub abrupt: f64,
    /// Seed of the churn RNG streams, independent of the training seed.
    pub seed: u64,
}

impl Default for ChurnPlan {
    fn default() -> Self {
        ChurnPlan {
            period: 24,
            duty: 1.0,
            arrival_span: 0,
            flake: 0.0,
            abrupt: 0.0,
            seed: 0xC4E2,
        }
    }
}

impl ChurnPlan {
    /// Cross-silo availability profile: the whole population is enrolled
    /// from round 0 and almost always reachable.
    pub fn cross_silo() -> Self {
        ChurnPlan {
            period: 24,
            duty: 0.95,
            arrival_span: 0,
            flake: 0.01,
            abrupt: 0.05,
            ..Default::default()
        }
    }

    /// Cross-device availability profile: staggered enrolment, a diurnal
    /// wave with clients up less than half the time, frequent sporadic
    /// flakes and common mid-round abandonment.
    pub fn cross_device() -> Self {
        ChurnPlan {
            period: 24,
            duty: 0.4,
            arrival_span: 8,
            flake: 0.1,
            abrupt: 0.25,
            ..Default::default()
        }
    }
}

/// Availability and cohort queries, answered the way
/// [`FaultPlan`](crate::FaultPlan) answers its coins: stateless apart
/// from the plan, every answer a pure function of the
/// seed, so any participant can evaluate any client at any round in O(1)
/// without materialising the population.
impl ChurnPlan {
    /// The round `client` first becomes part of the population.
    pub fn arrival(&self, client: usize) -> usize {
        seeded_rng(self.seed, 0, client, SALT_ARRIVE).below(self.arrival_span as usize + 1)
    }

    /// Rounds of each cycle this client is up (≥ 1).
    fn window(&self) -> usize {
        ((self.duty * self.period as f64).ceil() as usize).max(1)
    }

    /// Whether the periodic schedule (arrival + duty window, flakes
    /// excluded) has `client` up in `round`.
    fn scheduled_up(&self, round: usize, client: usize) -> bool {
        if round < self.arrival(client) {
            return false;
        }
        let period = self.period as usize;
        let phase = seeded_rng(self.seed, 0, client, SALT_PHASE).below(period);
        (round + phase) % period < self.window()
    }

    /// Is `client` available (samplable) in `round`?
    pub fn available(&self, round: usize, client: usize) -> bool {
        self.scheduled_up(round, client)
            && !(self.flake > 0.0
                && seeded_rng(self.seed, round, client, SALT_FLAKE).flip(self.flake))
    }

    /// Does `client`, sampled in `round`, abandon the round in progress?
    /// Fires only when its availability window ends at this round.
    pub fn departs_mid_round(&self, round: usize, client: usize) -> bool {
        self.abrupt > 0.0
            && self.scheduled_up(round, client)
            && !self.scheduled_up(round + 1, client)
            && seeded_rng(self.seed, round, client, SALT_EXIT).flip(self.abrupt)
    }

    /// Draw round `round`'s cohort: up to `k` distinct available clients
    /// from a population of `population`, by seeded rejection sampling —
    /// O(k) memory however large the population. Returns ascending
    /// client ids; fewer than `k` (possibly zero) when availability is
    /// scarce. A pure function of `(plan.seed, round)`.
    pub fn sample_cohort(&self, round: usize, k: usize, population: usize) -> Vec<usize> {
        assert!(population > 0, "cannot sample an empty population");
        let mut rng = seeded_rng(self.seed, round, 0, SALT_COHORT);
        let mut chosen: BTreeSet<usize> = BTreeSet::new();
        // Rejection sampling needs a draw budget: with sparse
        // availability (or k close to the available count) the tail
        // draws mostly collide or land on offline clients. The budget is
        // generous enough that under any plan with a non-degenerate duty
        // cycle the shortfall is availability, not bad luck.
        let mut budget = k.saturating_mul(64) + 256;
        while chosen.len() < k && budget > 0 {
            budget -= 1;
            let c = rng.below(population);
            if !chosen.contains(&c) && self.available(round, c) {
                chosen.insert(c);
            }
        }
        chosen.into_iter().collect()
    }

    /// Fraction of `population` available in `round`: an exact O(population)
    /// scan that checks the sampler's availability in tests.
    pub fn availability_rate(&self, round: usize, population: usize) -> f64 {
        let up = (0..population)
            .filter(|&c| self.available(round, c))
            .count();
        up as f64 / population as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ChurnPlan {
        ChurnPlan {
            period: 8,
            duty: 0.5,
            arrival_span: 4,
            flake: 0.05,
            abrupt: 0.3,
            seed: 77,
        }
    }

    #[test]
    fn queries_are_deterministic() {
        let a = plan();
        let b = plan();
        for round in 0..20 {
            for client in 0..64 {
                assert_eq!(a.available(round, client), b.available(round, client));
                assert_eq!(
                    a.departs_mid_round(round, client),
                    b.departs_mid_round(round, client)
                );
            }
            assert_eq!(
                a.sample_cohort(round, 8, 1000),
                b.sample_cohort(round, 8, 1000)
            );
        }
    }

    #[test]
    fn cohorts_are_sorted_distinct_and_available() {
        let m = plan();
        for round in 0..10 {
            let cohort = m.sample_cohort(round, 16, 10_000);
            assert!(cohort.len() <= 16);
            for w in cohort.windows(2) {
                assert!(w[0] < w[1], "ascending and distinct");
            }
            for &c in &cohort {
                assert!(m.available(round, c), "client {c} must be available");
            }
        }
    }

    #[test]
    fn large_population_sampling_is_cohort_sized() {
        // 1M virtual clients: only the cohort is ever materialised.
        let m = ChurnPlan {
            arrival_span: 0,
            ..plan()
        };
        let cohort = m.sample_cohort(3, 32, 1_000_000);
        assert_eq!(cohort.len(), 32, "a 1M population always fills a 32-cohort");
        assert!(cohort.iter().all(|&c| c < 1_000_000));
    }

    #[test]
    fn availability_tracks_the_duty_cycle() {
        // No arrivals / flakes: the population-wide availability each
        // round must be close to `duty` (phases are uniform).
        let m = ChurnPlan {
            period: 10,
            duty: 0.5,
            arrival_span: 0,
            flake: 0.0,
            abrupt: 0.0,
            seed: 3,
        };
        for round in 0..10 {
            let rate = m.availability_rate(round, 4000);
            assert!((rate - 0.5).abs() < 0.05, "round {round}: rate {rate}");
        }
    }

    #[test]
    fn arrivals_ramp_the_population_up() {
        let m = ChurnPlan {
            period: 4,
            duty: 1.0,
            arrival_span: 10,
            flake: 0.0,
            abrupt: 0.0,
            seed: 5,
        };
        let early = m.availability_rate(0, 4000);
        let late = m.availability_rate(10, 4000);
        assert!(early < 0.2, "round 0 sees ~1/11 of the population: {early}");
        assert!(late > 0.99, "by round 10 everyone has arrived: {late}");
    }

    #[test]
    fn departures_only_at_window_boundaries() {
        let m = plan();
        for round in 0..20 {
            for client in 0..200 {
                if m.departs_mid_round(round, client) {
                    assert!(
                        m.scheduled_up(round, client) && !m.scheduled_up(round + 1, client),
                        "departure must sit on a window boundary"
                    );
                }
            }
        }
    }

    #[test]
    fn profiles_differ_as_advertised() {
        let silo = ChurnPlan::cross_silo();
        let device = ChurnPlan::cross_device();
        let silo_rate = silo.availability_rate(5, 2000);
        let device_rate = device.availability_rate(5, 2000);
        assert!(
            silo_rate > 0.9,
            "cross-silo is almost always on: {silo_rate}"
        );
        assert!(
            device_rate < silo_rate,
            "cross-device churns harder: {device_rate} vs {silo_rate}"
        );
    }
}
