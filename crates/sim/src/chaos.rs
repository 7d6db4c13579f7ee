//! Chaos campaign engine: randomized fault-plan composition, outcome
//! classification, and scenario shrinking.
//!
//! The fault engine executes *scripted* scenarios — compositions
//! someone thought to write down. This module samples hundreds of random
//! **valid** [`FaultPlan`] compositions (loss, duplication, partition,
//! crash and perturbation, all over bounded windows), runs each one to a
//! verdict, and — when a run
//! *fails* (panics, exhausts its budget, or disconnects without an
//! attributable culprit) — shrinks the scenario to a minimal
//! reproducer:
//!
//! 1. **delta debugging** ([`shrink`]) over the flattened plan entry
//!    list (chunked complement removal down to single entries), then
//! 2. **parameter shrinking** — halving windows, downtimes, victim
//!    counts and durable restarts — to a fixpoint.
//!
//! Every [`Scenario`] is self-contained and serde-serializable: the
//! JSON form replays the exact run (network build, fault schedule and
//! all RNG streams are derived from its seeds), so a shrunk reproducer
//! checked into a bug report is a deterministic regression test.

// Runs while faults are live, where a panic is indistinguishable from
// the protocol bug being hunted: errors are `Result`s or named outcomes.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::faults::{
    watch, Crash, Entry, FaultPlan, Partition, Perturbation, RateWindow, Restart, Verdict,
};
use crate::init::{generate, InitialTopology};
use crate::network::Network;
use rand::rngs::StdRng;
use rand::{Rng as _, RngExt as _, SeedableRng};
use serde::{Deserialize, Serialize};
use swn_core::config::ProtocolConfig;
use swn_core::id::evenly_spaced_ids;
use swn_core::invariants::make_sorted_ring;

/// The start topology a scenario runs from.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Start {
    /// The converged sorted ring — faults strike a stable network.
    Ring,
    /// A random weakly connected digraph — faults strike mid-
    /// linearization, where forward-without-store sole carriers are
    /// live and loss is most dangerous.
    Sparse {
        /// Random links added on top of the spanning tree.
        extra: usize,
    },
}

/// A self-contained, replayable chaos scenario: network size, seeds,
/// start topology, recovery budget and the fault plan. Serialized
/// scenarios replay deterministically — every random stream in the run
/// is derived from the seeds stored here.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Number of nodes at the start.
    pub n: usize,
    /// Seed for the network's scheduler/protocol RNG (and the sparse
    /// topology generator, when applicable).
    pub net_seed: u64,
    /// The start topology.
    pub start: Start,
    /// Round budget for the post-horizon recovery watch.
    pub budget: u64,
    /// The fault schedule (carries its own injector seed).
    pub plan: FaultPlan,
}

impl Scenario {
    /// Serializes the scenario to its replayable JSON form.
    #[expect(
        clippy::expect_used,
        reason = "rendering an in-memory Value tree to text cannot fail"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("scenario serialization cannot fail")
    }

    /// Parses a scenario back from JSON, rejecting garbage and invalid
    /// plans as an error.
    pub fn from_json(json: &str) -> Result<Scenario, String> {
        let s: Scenario = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if s.n == 0 {
            return Err("scenario with zero nodes".to_string());
        }
        s.plan.validate()?;
        Ok(s)
    }

    /// Builds the start network (without the fault plan attached).
    pub fn build(&self) -> Network {
        let ids = evenly_spaced_ids(self.n);
        let cfg = ProtocolConfig::default();
        match self.start {
            Start::Ring => Network::new(make_sorted_ring(&ids, cfg), self.net_seed),
            Start::Sparse { extra } => generate(
                InitialTopology::RandomSparse { extra },
                &ids,
                cfg,
                self.net_seed,
            )
            .into_network(self.net_seed),
        }
    }

    /// The first round at which every scheduled fault (including crash
    /// restarts) has landed — the boundary between the injection drive
    /// and the recovery watch.
    pub fn horizon(&self) -> u64 {
        let landed = |entry: Entry| match entry {
            Entry::Crash(c) => c.round.saturating_add(c.down_for),
            Entry::Perturbation(p) => p.round.saturating_add(1),
            window => window.window().map_or(1, |(_, end)| end),
        };
        self.plan.entries().map(landed).fold(1, u64::max)
    }
}

/// The classified outcome of one scenario run: the watchdog's
/// [`Verdict`], or the one thing only a campaign can observe.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// The run reached a verdict. `Recovered { rounds }` counts from the
    /// fault horizon (0 when the plan never broke the ring); a
    /// disconnection carries its culprit record, so a shrunk reproducer
    /// names the drop that severed it.
    Verdict(Verdict),
    /// The run panicked — always a bug, never a valid classification.
    Panicked {
        /// The panic payload, when printable.
        message: String,
    },
}

impl Outcome {
    /// Stable label for per-class tallies: [`Verdict::outcome`], or
    /// `"panicked"`.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Verdict(v) => v.outcome(),
            Outcome::Panicked { .. } => "panicked",
        }
    }

    /// True when the watchdog *explained* the run: it recovered, or it
    /// disconnected with an attributable culprit. Budget exhaustion,
    /// panics and unattributed disconnections are unclassified.
    pub fn classified(&self) -> bool {
        matches!(
            self,
            Outcome::Verdict(
                Verdict::Recovered { .. }
                    | Verdict::PermanentlyDisconnected {
                        culprit: Some(_),
                        ..
                    }
            )
        )
    }
}

/// Everything one scenario run produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// The classification.
    pub outcome: Outcome,
    /// The fault horizon the run drove to.
    pub horizon: u64,
    /// Messages sent across drive + watch.
    pub messages: u64,
    /// Messages the injector destroyed.
    pub dropped_fault: u64,
}

/// Runs a scenario to a classified [`RunResult`]. Panics anywhere in
/// the drive or watch are caught and classified as
/// [`Outcome::Panicked`] — a campaign never aborts on one bad scenario.
pub fn run_scenario(s: &Scenario) -> RunResult {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_scenario_inner(s)));
    match caught {
        Ok(result) => result,
        Err(payload) => RunResult {
            outcome: Outcome::Panicked {
                message: panic_message(payload.as_ref()),
            },
            horizon: s.horizon(),
            messages: 0,
            dropped_fault: 0,
        },
    }
}

fn run_scenario_inner(s: &Scenario) -> RunResult {
    let mut net = s.build();
    net.attach_faults(s.plan.clone());
    let horizon = s.horizon();
    // One watch from the first round: through the horizon only a
    // severance can end it (windows are still open, crashes still
    // down); past it what remains is pure recovery, so `Recovered`
    // measures MTTR directly.
    let watched = watch(&mut net, horizon, s.budget, |_, _| {});
    RunResult {
        outcome: Outcome::Verdict(watched.verdict),
        horizon,
        messages: watched.totals.total_sent(),
        dropped_fault: watched.totals.dropped_fault,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Campaign shape: how many scenarios to sample and from what space.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Master seed — generation and every scenario derive from it.
    pub seed: u64,
    /// Number of scenarios to sample and run.
    pub scenarios: usize,
    /// Smallest network sampled.
    pub min_n: usize,
    /// Largest network sampled.
    pub max_n: usize,
    /// Per-scenario recovery watch budget.
    pub budget: u64,
}

impl CampaignConfig {
    /// A campaign of `scenarios` runs under `seed` with default bounds.
    pub fn new(seed: u64, scenarios: usize) -> Self {
        CampaignConfig {
            seed,
            scenarios,
            min_n: 8,
            max_n: 40,
            budget: 5_000,
        }
    }
}

/// Samples one random **valid** scenario: 1–5 fault entries across all
/// categories, windows bounded to the first ~30 rounds, and per-node
/// crash windows kept disjoint by construction.
pub fn sample_scenario(rng: &mut StdRng, cfg: &CampaignConfig) -> Scenario {
    let n = rng.random_range(cfg.min_n..=cfg.max_n.max(cfg.min_n));
    let ids = evenly_spaced_ids(n);
    let start = if rng.random_bool(0.5) {
        Start::Ring
    } else {
        Start::Sparse {
            extra: rng.random_range(1usize..4),
        }
    };
    let mut plan = FaultPlan::new(rng.next_u64());
    let entries = rng.random_range(1usize..=5);
    for _ in 0..entries {
        match rng.random_range(0u32..5) {
            0 => plan.drop.push(sample_window(rng)),
            1 => plan.duplicate.push(sample_window(rng)),
            2 => {
                let (start, end) = sample_span(rng);
                plan.partitions.push(Partition {
                    start,
                    end,
                    cut: ids[rng.random_range(0..n)],
                });
            }
            3 => {
                let node = ids[rng.random_range(0..n)];
                let round = rng.random_range(1u64..=16);
                let down_for = rng.random_range(1u64..=6);
                // Keep per-node crash windows disjoint — rejected by
                // `validate` otherwise. Skipping (instead of resampling)
                // keeps generation total and deterministic.
                let end = round + down_for;
                let overlaps = plan
                    .crashes
                    .iter()
                    .any(|c| c.node == node && round < c.round + c.down_for && c.round < end);
                if !overlaps {
                    let restart = if rng.random_bool(0.5) {
                        Restart::Durable {
                            snapshot_round: rng.random_range(0..=round),
                        }
                    } else {
                        Restart::Amnesia
                    };
                    plan.crashes.push(Crash {
                        round,
                        node,
                        down_for,
                        restart,
                    });
                }
            }
            _ => plan.perturbations.push(Perturbation {
                round: rng.random_range(1u64..=16),
                k: rng.random_range(1usize..=(n / 6).max(1)),
            }),
        }
    }
    debug_assert!(plan.validate().is_ok(), "sampler produced invalid plan");
    Scenario {
        n,
        net_seed: rng.next_u64(),
        start,
        budget: cfg.budget,
        plan,
    }
}

fn sample_span(rng: &mut StdRng) -> (u64, u64) {
    let start = rng.random_range(1u64..=16);
    let len = rng.random_range(1u64..=12);
    (start, start + len)
}

fn sample_window(rng: &mut StdRng) -> RateWindow {
    let (start, end) = sample_span(rng);
    RateWindow {
        start,
        end,
        p: 0.05 + 0.85 * rng.random::<f64>(),
    }
}

/// A failed scenario with its shrunk minimal reproducer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailureCase {
    /// Position of the scenario in the campaign (for re-derivation).
    pub index: usize,
    /// The original failing scenario.
    pub scenario: Scenario,
    /// The original failure.
    pub result: RunResult,
    /// The shrunk reproducer (still failing, minimal entry list).
    pub shrunk: Scenario,
    /// The failure the shrunk reproducer exhibits.
    pub shrunk_result: RunResult,
}

/// Aggregate campaign tallies plus every shrunk failure.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Scenarios run.
    pub total: usize,
    /// Runs that re-stabilized.
    pub recovered: usize,
    /// Runs that disconnected with an attributed culprit.
    pub disconnected: usize,
    /// Runs that disconnected without attribution (failures).
    pub unattributed: usize,
    /// Runs that exhausted their watch budget (failures).
    pub budget_exhausted: usize,
    /// Runs that panicked (failures).
    pub panicked: usize,
    /// Every failing scenario, shrunk.
    pub failures: Vec<FailureCase>,
}

impl CampaignReport {
    /// True when every run was classified and nothing failed the
    /// campaign predicate.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The default failure predicate: panics, budget exhaustion and
/// unattributed disconnections fail; recovery and attributed
/// disconnections are valid classifications.
pub fn default_failure(r: &RunResult) -> bool {
    !r.outcome.classified()
}

/// Runs a seeded campaign: samples `cfg.scenarios` scenarios, runs
/// each, tallies outcomes, and shrinks every run `is_failure` flags
/// into a minimal reproducer.
pub fn run_campaign(
    cfg: &CampaignConfig,
    is_failure: &dyn Fn(&RunResult) -> bool,
) -> CampaignReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = CampaignReport::default();
    for index in 0..cfg.scenarios {
        let scenario = sample_scenario(&mut rng, cfg);
        let result = run_scenario(&scenario);
        report.total += 1;
        match &result.outcome {
            Outcome::Verdict(Verdict::Recovered { .. }) => report.recovered += 1,
            Outcome::Verdict(Verdict::PermanentlyDisconnected { culprit, .. }) => {
                if culprit.is_some() {
                    report.disconnected += 1;
                } else {
                    report.unattributed += 1;
                }
            }
            Outcome::Verdict(Verdict::BudgetExhausted { .. }) => report.budget_exhausted += 1,
            Outcome::Panicked { .. } => report.panicked += 1,
        }
        if is_failure(&result) {
            let shrunk = shrink(&scenario, &|cand| is_failure(&run_scenario(cand)));
            let shrunk_result = run_scenario(&shrunk);
            report.failures.push(FailureCase {
                index,
                scenario,
                result,
                shrunk,
                shrunk_result,
            });
        }
    }
    report
}

/// Shrinks a failing scenario to a minimal reproducer. `fails` is the
/// oracle ("does this candidate still fail?"); the input scenario must
/// fail it. Two phases:
///
/// 1. **Delta debugging** over the plan's entry list
///    ([`FaultPlan::entries`]): chunks of decreasing size are removed
///    while the failure persists, ending with a single-entry sweep, so
///    the result is 1-minimal — no single entry can be removed without
///    losing the failure.
/// 2. **Parameter shrinking** to a fixpoint: each surviving entry's
///    windows, downtimes and victim counts are halved, and durable
///    restarts made amnesiac, while the failure persists.
///
/// Invalid intermediate candidates (impossible here by construction,
/// since removal and halving preserve validity) are skipped by
/// re-validation, defensively.
pub fn shrink(s: &Scenario, fails: &dyn Fn(&Scenario) -> bool) -> Scenario {
    let with_entries = |entries: &[Entry]| {
        let mut plan = FaultPlan::new(s.plan.seed);
        entries.iter().copied().for_each(|e| plan.push(e));
        Scenario { plan, ..s.clone() }
    };
    let still_fails = |entries: &[Entry]| {
        let cand = with_entries(entries);
        cand.plan.validate().is_ok() && fails(&cand)
    };
    let mut entries: Vec<Entry> = s.plan.entries().collect();

    // Phase 1: ddmin. Try removing complements at increasing
    // granularity; a successful removal restarts at coarse granularity.
    let mut chunk = entries.len().div_ceil(2).max(1);
    while !entries.is_empty() {
        let mut removed_any = false;
        let mut i = 0;
        while i < entries.len() {
            let hi = (i + chunk).min(entries.len());
            let mut candidate = entries.clone();
            candidate.drain(i..hi);
            if still_fails(&candidate) {
                entries = candidate;
                removed_any = true;
                // Same index now holds the next chunk.
            } else {
                i = hi;
            }
        }
        if removed_any {
            chunk = entries.len().div_ceil(2).max(1);
        } else if chunk > 1 {
            chunk = chunk.div_ceil(2).max(1).min(chunk - 1);
        } else {
            break;
        }
    }

    // Phase 2: per-entry parameter shrinking to a fixpoint.
    'fixpoint: loop {
        for i in 0..entries.len() {
            for smaller in shrink_entry(&entries[i]) {
                let mut candidate = entries.clone();
                candidate[i] = smaller;
                if still_fails(&candidate) {
                    entries = candidate;
                    continue 'fixpoint;
                }
            }
        }
        return with_entries(&entries);
    }
}

/// Candidate strictly-smaller versions of one entry, most aggressive
/// first. Repeated application (the phase-2 fixpoint loop) walks each
/// parameter down by halving.
fn shrink_entry(e: &Entry) -> Vec<Entry> {
    let mut out = Vec::new();
    if let Some((start, end)) = e
        .window()
        .filter(|(start, end)| end.saturating_sub(*start) >= 2)
    {
        out.push(e.with_end(start + (end - start) / 2));
    }
    match e {
        Entry::Crash(c) => {
            if c.down_for >= 2 {
                out.push(Entry::Crash(Crash {
                    down_for: c.down_for / 2,
                    ..*c
                }));
            }
            if matches!(c.restart, Restart::Durable { .. }) {
                out.push(Entry::Crash(Crash {
                    restart: Restart::Amnesia,
                    ..*c
                }));
            }
        }
        Entry::Perturbation(p) if p.k >= 2 => {
            out.push(Entry::Perturbation(Perturbation { k: p.k / 2, ..*p }));
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_core::id::NodeId;

    fn fid(f: f64) -> NodeId {
        NodeId::from_fraction(f)
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = CampaignConfig::new(3, 1);
        let s = sample_scenario(&mut rng, &cfg);
        let back = Scenario::from_json(&s.to_json()).expect("round trip");
        assert_eq!(back, s);
    }

    #[test]
    fn scenario_parser_rejects_garbage() {
        assert!(Scenario::from_json("not json").is_err());
        assert!(Scenario::from_json("{}").is_err());
        // A reproducer whose plan names a behaviour is refused by name,
        // not replayed without it; an empty list still loads.
        let doc = |behaviors: &str| {
            let plan = format!(
                r#"{{"seed":1,"drop":[],"duplicate":[],"partitions":[],"crashes":[],
                "perturbations":[],"behaviors":[{behaviors}]}}"#
            );
            format!(r#"{{"n":8,"net_seed":1,"start":"Ring","budget":9,"plan":{plan}}}"#)
        };
        let lying = r#"{"start":1,"end":4,"node":7,"kind":{"LyingState":{"mode":"Scramble"}}}"#;
        let err = Scenario::from_json(&doc(lying)).expect_err("behaviours are refused");
        assert!(err.contains("behaviors"), "{err}");
        assert!(Scenario::from_json(&doc("")).is_ok());
    }

    #[test]
    fn sampled_scenarios_are_valid_and_bounded() {
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = CampaignConfig::new(9, 1);
        for _ in 0..200 {
            let s = sample_scenario(&mut rng, &cfg);
            assert!(s.plan.validate().is_ok());
            assert!(s.plan.entry_count() >= 1 || s.plan.is_empty());
            assert!(s.horizon() <= 40, "windows must stay bounded");
            assert!(s.n >= cfg.min_n && s.n <= cfg.max_n);
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(17);
        let cfg = CampaignConfig::new(17, 1);
        let s = sample_scenario(&mut rng, &cfg);
        let replayed = Scenario::from_json(&s.to_json()).expect("parse");
        assert_eq!(run_scenario(&s), run_scenario(&replayed));
    }

    #[test]
    fn small_seeded_campaign_is_fully_classified() {
        let cfg = CampaignConfig {
            seed: 1,
            scenarios: 30,
            min_n: 8,
            max_n: 24,
            budget: 5_000,
        };
        let report = run_campaign(&cfg, &default_failure);
        assert_eq!(report.total, 30);
        assert!(
            report.clean(),
            "campaign failures: {:?}",
            report
                .failures
                .iter()
                .map(|f| (&f.result.outcome, f.scenario.to_json()))
                .collect::<Vec<_>>()
        );
        assert!(report.recovered > 0, "most scenarios must recover");
    }

    #[test]
    fn shrinker_reduces_to_the_single_relevant_entry() {
        // Synthetic oracle: the "failure" is simply the presence of a
        // crash of this node — every other entry is noise the shrinker
        // must strip, and the crash's own parameters must be walked to
        // their minimum.
        let victim = fid(0.25);
        let scenario = Scenario {
            n: 12,
            net_seed: 5,
            start: Start::Ring,
            budget: 100,
            plan: FaultPlan::new(2)
                .with_drop(1, 9, 0.5)
                .with_duplicate(2, 10, 0.4)
                .with_partition(3, 8, fid(0.5))
                .with_perturbation(4, 3)
                .with_durable_crash(5, victim, 6, 4),
        };
        let fails = |c: &Scenario| c.plan.crashes.iter().any(|cr| cr.node == victim);
        assert!(fails(&scenario));
        let shrunk = shrink(&scenario, &fails);
        assert_eq!(shrunk.plan.entry_count(), 1, "noise must be stripped");
        let c = &shrunk.plan.crashes[0];
        assert_eq!(c.node, victim);
        assert_eq!(c.down_for, 1, "downtime must be walked to its minimum");
        assert_eq!(
            c.restart,
            Restart::Amnesia,
            "durable restart must simplify away"
        );
    }

    #[test]
    fn planted_drop_lin_mutant_is_caught_and_shrunk() {
        // The planted fault: a total-loss window, in which every `Lin`
        // forward (every other send too) is lost. Linearization forwards
        // without storing, so on an unstable start the losses destroy
        // sole carriers and the network disconnects instead of
        // converging. The planted window hides among noise entries; the
        // campaign oracle here is the strictest one — "the protocol must
        // always recover" — and the shrinker must strip the noise and
        // hand back (at most 3 entries of) the planted window itself,
        // replayable from JSON.
        let scenario = Scenario {
            n: 16,
            net_seed: 5,
            start: Start::Sparse { extra: 2 },
            budget: 2_000,
            plan: FaultPlan::new(5)
                .with_drop(2, 6, 0.2)
                .with_duplicate(3, 8, 0.3)
                .with_perturbation(4, 2)
                .with_drop(1, 60, 1.0),
        };
        let strict =
            |r: &RunResult| !matches!(r.outcome, Outcome::Verdict(Verdict::Recovered { .. }));
        let result = run_scenario(&scenario);
        assert!(
            strict(&result),
            "the planted window must prevent recovery: {:?}",
            result.outcome
        );
        let shrunk = shrink(&scenario, &|c| strict(&run_scenario(c)));
        assert!(
            shrunk.plan.entry_count() <= 3,
            "reproducer must have ≤3 entries: {}",
            shrunk.to_json()
        );
        assert!(
            shrunk.plan.drop.iter().any(|w| w.p == 1.0),
            "the planted window itself must survive shrinking: {}",
            shrunk.to_json()
        );
        // The reproducer replays deterministically from its JSON form.
        let json = shrunk.to_json();
        let replayed = Scenario::from_json(&json).expect("parse");
        assert_eq!(replayed, shrunk);
        let a = run_scenario(&replayed);
        let b = run_scenario(&shrunk);
        assert_eq!(a, b, "replay must be bit-deterministic");
        assert!(strict(&a), "the reproducer must still fail");
    }
}
