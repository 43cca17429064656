//! Balance policies: the decision layer between telemetry and placement.
//!
//! Every decision is a pure function of a small query struct, so policies
//! are unit-testable without a runtime. [`BalanceConfig`] carries one
//! [`BalancePolicy`].
//!
//! The three policies map onto the two movement directions §2.2 of the
//! paper names — work chasing data ("moving the work, in essence, to the
//! data") and data percolating toward where it is demanded — plus the
//! adaptive combination the comparative AMT studies (Cilk / Charm++ /
//! ParalleX) argue wins on irregular workloads:
//!
//! * [`BalancePolicy::WorkToData`] — never migrates objects; rebalances
//!   purely by *work diffusion*: an overloaded locality sheds its oldest
//!   queued tasks to the least-loaded gossip peer.
//! * [`BalancePolicy::DataToWork`] — never sheds; objects whose access
//!   heat from one caller locality crosses a threshold are migrated
//!   toward that caller.
//! * [`BalancePolicy::Adaptive`] — both, each gated by relative load so
//!   the system sheds when it is the bottleneck and pulls data only off
//!   busier owners.

use std::time::Duration;

/// Overload factor against the least-loaded peer before shedding engages.
pub const SHED_RATIO: f64 = 2.0;

/// Inputs to a heat-driven migration decision: should *this* locality
/// pull the object toward itself?
#[derive(Debug, Clone, Copy)]
pub struct PlacementQuery {
    /// Accesses this locality sent to the object during the last window.
    pub heat: u64,
    /// Configured heat threshold ([`BalanceConfig::heat_threshold`]).
    pub heat_threshold: u64,
    /// This locality's own load score.
    pub local_score: f64,
    /// The current owner's gossiped load score, if known.
    pub owner_score: Option<f64>,
}

/// Inputs to a work-diffusion decision: should this locality shed queued
/// tasks to the least-loaded peer?
#[derive(Debug, Clone, Copy)]
pub struct ShedQuery {
    /// This locality's own load score.
    pub local_score: f64,
    /// The least-loaded known peer's score.
    pub least_score: f64,
    /// Instantaneous run-queue depth (tasks available to shed).
    pub queue_depth: u64,
    /// Configured per-round shed cap ([`BalanceConfig::max_shed_per_round`]).
    pub max_shed: u64,
}

impl ShedQuery {
    /// The shared overload test: local load exceeds [`SHED_RATIO`] times the
    /// least-loaded peer (with +1 smoothing so a zero-load peer does not
    /// make every nonzero queue "overloaded").
    pub fn overloaded(&self) -> bool {
        self.local_score > SHED_RATIO * (self.least_score + 1.0)
    }

    /// The shared shed amount: half the load difference, capped by the
    /// per-round limit and by half the queue (never starve yourself to
    /// feed a peer).
    pub fn shed_amount(&self) -> u64 {
        if !self.overloaded() {
            return 0;
        }
        let diff = ((self.local_score - self.least_score) / 2.0).floor();
        (diff as u64).min(self.max_shed).min(self.queue_depth / 2)
    }
}

/// A balance policy: which of the two movement directions the balancer
/// takes. Each decision runs once per locality per gossip round
/// (`pull_data` once per hot object per round).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancePolicy {
    /// Pure work diffusion: tasks move, objects stay (the model's default
    /// direction, made load-aware).
    WorkToData,
    /// Pure heat-driven migration: hot objects move toward their callers,
    /// queued work stays put.
    DataToWork,
    /// Both directions, load-gated: shed like [`BalancePolicy::WorkToData`];
    /// pull hot objects like [`BalancePolicy::DataToWork`] but only off
    /// owners at least as loaded as we are (pulling from a starving owner
    /// would trade one imbalance for another). Unknown owner load counts as
    /// "at least as loaded" — fresh heat with no gossip yet usually means
    /// the owner is swamped.
    Adaptive,
}

impl BalancePolicy {
    /// Work diffusion: number of queued tasks to shed to the least-loaded
    /// peer this round (0 = none).
    pub fn shed(self, q: &ShedQuery) -> u64 {
        match self {
            BalancePolicy::WorkToData | BalancePolicy::Adaptive => q.shed_amount(),
            BalancePolicy::DataToWork => 0,
        }
    }

    /// Heat-driven migration: pull the object toward this caller?
    pub fn pull_data(self, q: &PlacementQuery) -> bool {
        let hot = q.heat >= q.heat_threshold;
        match self {
            BalancePolicy::WorkToData => false,
            BalancePolicy::DataToWork => hot,
            BalancePolicy::Adaptive => hot && q.owner_score.is_none_or(|o| o >= q.local_score),
        }
    }

    /// Whether this policy ever migrates data. [`BalancePolicy::WorkToData`]
    /// does not, which lets the runtime skip heat tracking entirely — no
    /// per-send heat-map updates, no per-round drains — since no decision
    /// would ever consume the heat.
    pub fn uses_heat(self) -> bool {
        self != BalancePolicy::WorkToData
    }
}

/// Configuration for the balancer subsystem. `px_core::Config::balance`
/// holds `Option<BalanceConfig>`; `None` (the default) disables every
/// hook and keeps runtime behavior bit-identical to a balancer-less
/// build.
#[derive(Debug, Clone)]
pub struct BalanceConfig {
    /// Decision policy.
    pub policy: BalancePolicy,
    /// Balancer pulse: one load sample + one gossip parcel per locality
    /// per interval.
    pub gossip_interval: Duration,
    /// Cap on tasks shed per locality per round.
    pub max_shed_per_round: u64,
    /// Accesses per *gossip round* before an object counts as hot (heat
    /// maps are drained every round, not every monitor window).
    pub heat_threshold: u64,
    /// Cap on balancer-initiated migrations per locality per round
    /// (bounds churn and forwarding chases).
    pub max_pulls_per_round: u64,
}

impl BalanceConfig {
    /// Defaults shared by the stock constructors.
    pub fn with_policy(policy: BalancePolicy) -> BalanceConfig {
        BalanceConfig {
            policy,
            gossip_interval: Duration::from_millis(1),
            max_shed_per_round: 32,
            heat_threshold: 16,
            max_pulls_per_round: 4,
        }
    }

    /// Work-diffusion-only configuration.
    pub fn work_to_data() -> BalanceConfig {
        BalanceConfig::with_policy(BalancePolicy::WorkToData)
    }

    /// Migration-only configuration.
    pub fn data_to_work() -> BalanceConfig {
        BalanceConfig::with_policy(BalancePolicy::DataToWork)
    }

    /// The adaptive configuration (recommended default when enabling the
    /// balancer).
    pub fn adaptive() -> BalanceConfig {
        BalanceConfig::with_policy(BalancePolicy::Adaptive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq(local: f64, least: f64, depth: u64) -> ShedQuery {
        ShedQuery {
            local_score: local,
            least_score: least,
            queue_depth: depth,
            max_shed: 32,
        }
    }

    fn pq(heat: u64, local: f64, owner: Option<f64>) -> PlacementQuery {
        PlacementQuery {
            heat,
            heat_threshold: 16,
            local_score: local,
            owner_score: owner,
        }
    }

    #[test]
    fn overload_test_uses_ratio_with_smoothing() {
        assert!(!sq(2.0, 0.0, 10).overloaded(), "2.0 ≤ 2×(0+1)");
        assert!(sq(2.1, 0.0, 10).overloaded());
        assert!(!sq(30.0, 20.0, 100).overloaded(), "30 ≤ 2×21");
        assert!(sq(100.0, 20.0, 100).overloaded());
    }

    #[test]
    fn shed_amount_moves_half_the_difference_capped() {
        let q = sq(100.0, 0.0, 1000);
        assert_eq!(q.shed_amount(), 32, "capped by max_shed");
        let q = sq(10.0, 0.0, 1000);
        assert_eq!(q.shed_amount(), 5, "half the difference");
        let q = sq(100.0, 0.0, 8);
        assert_eq!(q.shed_amount(), 4, "never shed more than half the queue");
        assert_eq!(sq(1.0, 0.0, 1000).shed_amount(), 0, "not overloaded");
    }

    #[test]
    fn work_to_data_sheds_never_pulls() {
        let p = BalancePolicy::WorkToData;
        assert_eq!(p.shed(&sq(100.0, 0.0, 1000)), 32);
        assert!(!p.pull_data(&pq(1_000_000, 0.0, Some(100.0))));
        assert!(!p.uses_heat(), "never pulls, so heat need not be tracked");
    }

    #[test]
    fn data_to_work_pulls_never_sheds() {
        let p = BalancePolicy::DataToWork;
        assert!(p.uses_heat());
        assert_eq!(p.shed(&sq(100.0, 0.0, 1000)), 0);
        assert!(!p.pull_data(&pq(15, 0.0, Some(100.0))), "below threshold");
        assert!(p.pull_data(&pq(16, 100.0, Some(0.0))), "heat alone decides");
    }

    #[test]
    fn adaptive_gates_pulls_on_relative_load() {
        let p = BalancePolicy::Adaptive;
        assert_eq!(p.shed(&sq(100.0, 0.0, 1000)), 32);
        assert!(p.pull_data(&pq(20, 1.0, Some(50.0))), "owner busier: pull");
        assert!(
            !p.pull_data(&pq(20, 50.0, Some(1.0))),
            "owner quieter: leave it"
        );
        assert!(p.pull_data(&pq(20, 50.0, None)), "unknown owner: pull");
        assert!(!p.pull_data(&pq(3, 1.0, Some(50.0))), "cold object");
    }

    #[test]
    fn config_constructors_and_debug() {
        let policy = |c: BalanceConfig| c.policy;
        assert_eq!(policy(BalanceConfig::adaptive()), BalancePolicy::Adaptive);
        assert_eq!(
            policy(BalanceConfig::work_to_data()),
            BalancePolicy::WorkToData
        );
        assert_eq!(
            policy(BalanceConfig::data_to_work()),
            BalancePolicy::DataToWork
        );
        let d = format!("{:?}", BalanceConfig::adaptive());
        assert!(d.contains("Adaptive") && d.contains("gossip_interval"));
    }
}
