//! Golden-trace regression for the round loop.
//!
//! The simulator promises bit-for-bit determinism: the same seed, initial
//! state and policy replay the exact same computation. The measurement
//! loop (`run_to_ring`) additionally promises that *how* it observes the
//! network (snapshot clones vs. borrowing views, reclassification vs.
//! dirty-skipping) never changes the computation it observes.
//!
//! This test pins both promises to a fixture captured from the original
//! snapshot-per-round implementation: per-scenario phase milestones,
//! message totals, a per-round sent/delivered prefix, and an order-stable
//! digest of the final global state (node variables *and* channel
//! contents). Any refactor of `Network::step`, mailbox storage or the
//! convergence loop that perturbs a single message or RNG draw shows up
//! as a digest mismatch.
//!
//! Scenarios use the `Immediate` policy only: that is the policy the
//! convergence measurements run under, and `RandomDelay` traces are
//! allowed to change when the fairness bound itself is fixed/retuned.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p swn-sim --test
//! golden_trace` after an *intentional* trace-affecting change, and say
//! why in the commit message.

use serde::{Deserialize, Serialize};
use swn_core::config::ProtocolConfig;
use swn_core::id::{evenly_spaced_ids, Extended};
use swn_sim::churn;
use swn_sim::convergence::run_to_ring;
use swn_sim::faults::{watch_recovery, DropRecord, FaultPlan, Verdict};
use swn_sim::init::{generate, InitialTopology};
use swn_sim::obs::causal::{CascadeReport, CascadeStats};
use swn_sim::obs::flight::FlightRecorder;
use swn_sim::obs::{Event, Record};
use swn_sim::trace::RoundStats;
use swn_sim::Network;

/// How many leading rounds get their (sent, delivered) pair recorded.
const ROUND_PREFIX: usize = 40;

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct ScenarioSig {
    label: String,
    rounds_to_lcc: Option<u64>,
    rounds_to_list: Option<u64>,
    rounds_to_ring: Option<u64>,
    messages_to_ring: u64,
    monotone: bool,
    rounds_run: u64,
    total_sent: u64,
    total_delivered: u64,
    round_prefix: Vec<(u64, u64)>,
    state_digest: u64,
}

/// FNV-1a over a stream of u64 words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn encode_extended(e: Extended) -> u64 {
    match e {
        Extended::NegInf => 1,
        Extended::PosInf => 2,
        Extended::Fin(id) => id.bits().wrapping_mul(2).wrapping_add(3),
    }
}

/// Order-stable digest of the full global state: every node's variables
/// (ascending id order) plus its channel contents in queue order.
fn state_digest(net: &Network) -> u64 {
    let v = net.view();
    let mut d = Digest::new();
    for (i, n) in v.nodes().iter().enumerate() {
        d.push(n.id().bits());
        d.push(encode_extended(n.left()));
        d.push(encode_extended(n.right()));
        d.push(n.lrl().bits());
        d.push(n.ring().map_or(0, |r| r.bits().wrapping_add(1)));
        d.push(n.age());
        d.push(n.probe_tick());
        let ch = v.channel(i);
        d.push(ch.len() as u64);
        for m in ch {
            d.push(m.kind().index() as u64 + 1);
            for id in m.carried_ids() {
                d.push(id.bits());
            }
        }
    }
    d.0
}

fn trace_totals(net: &Network) -> (u64, u64, Vec<(u64, u64)>) {
    let prefix = net
        .trace()
        .rounds()
        .iter()
        .take(ROUND_PREFIX)
        .map(|r| (r.total_sent(), r.total_delivered()))
        .collect();
    let all = net.trace().since(0);
    (all.total_sent(), all.total_delivered(), prefix)
}

fn convergence_scenario(family: InitialTopology, n: usize, seed: u64) -> ScenarioSig {
    let ids = evenly_spaced_ids(n);
    let mut net = generate(family, &ids, ProtocolConfig::default(), seed).into_network(seed);
    let rep = run_to_ring(&mut net, 100_000);
    let (total_sent, total_delivered, round_prefix) = trace_totals(&net);
    ScenarioSig {
        label: format!("{}/n{}/s{}", family.label(), n, seed),
        rounds_to_lcc: rep.rounds_to_lcc,
        rounds_to_list: rep.rounds_to_list,
        rounds_to_ring: rep.rounds_to_ring,
        messages_to_ring: rep.messages_to_ring,
        monotone: rep.monotone,
        rounds_run: rep.rounds_run,
        total_sent,
        total_delivered,
        round_prefix,
        state_digest: state_digest(&net),
    }
}

/// Churn scenario: a stable ring loses an interior node mid-run; the
/// bounce/drop handling and departure detection must replay identically.
fn churn_scenario(n: usize, seed: u64) -> ScenarioSig {
    let ids = evenly_spaced_ids(n);
    let mut net = Network::new(
        swn_core::invariants::make_sorted_ring(&ids, ProtocolConfig::default()),
        seed,
    );
    net.run(10);
    let victim = net.ids()[n / 2];
    net.remove_node(victim);
    net.run(50);
    let (total_sent, total_delivered, round_prefix) = trace_totals(&net);
    ScenarioSig {
        label: format!("churn/n{n}/s{seed}"),
        rounds_to_lcc: None,
        rounds_to_list: None,
        rounds_to_ring: None,
        messages_to_ring: 0,
        monotone: true,
        rounds_run: net.round(),
        total_sent,
        total_delivered,
        round_prefix,
        state_digest: state_digest(&net),
    }
}

fn all_scenarios() -> Vec<ScenarioSig> {
    vec![
        convergence_scenario(InitialTopology::RandomSparse { extra: 3 }, 24, 4),
        convergence_scenario(InitialTopology::Star, 16, 3),
        convergence_scenario(InitialTopology::Clique, 20, 6),
        convergence_scenario(InitialTopology::TwoBlobs, 20, 5),
        convergence_scenario(InitialTopology::CorruptedRing { corruptions: 5 }, 20, 7),
        churn_scenario(12, 9),
    ]
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("roundloop_golden.json")
}

/// Signature of the observation event stream for one scenario: record
/// count, the convergence timeline, and a structural digest over every
/// event. Wall-clock payloads (a `Round` record's `phases`) are
/// *excluded* from the digest, so the signature is deterministic while
/// still pinning that sampling fires on exactly the same rounds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct ObsSig {
    label: String,
    records: usize,
    transitions: Vec<(String, u64)>,
    event_digest: u64,
}

fn push_str(d: &mut Digest, s: &str) {
    d.push(s.len() as u64);
    for b in s.bytes() {
        d.push(u64::from(b));
    }
}

/// A verdict by variant, its culprit drop field by field.
fn push_verdict(d: &mut Digest, v: &Verdict) {
    match v {
        Verdict::Recovered { rounds } => {
            d.push(0);
            d.push(*rounds);
        }
        Verdict::PermanentlyDisconnected { round, culprit } => {
            d.push(1);
            d.push(*round);
            if let Some(DropRecord {
                round,
                src,
                dest,
                msg,
            }) = culprit
            {
                d.push(*round);
                d.push(src.bits());
                d.push(dest.bits());
                push_str(d, &format!("{msg:?}"));
            }
        }
        Verdict::BudgetExhausted { budget } => {
            d.push(2);
            d.push(*budget);
        }
    }
}

fn push_hist(d: &mut Digest, h: &swn_sim::obs::Histogram) {
    d.push(h.count());
    d.push(h.sum());
    d.push(h.max());
    for &b in h.buckets() {
        d.push(b);
    }
}

/// Every counter of a `RoundStats`, by exhaustive destructure: a field
/// added later must be hashed here before this compiles.
fn push_stats(d: &mut Digest, s: &RoundStats) {
    let RoundStats {
        sent,
        delivered,
        dropped_churn,
        dropped_fault,
        duplicated_fault,
        erased_fault,
        bounced,
        links_changed,
        probe_repairs,
        tracked_sent,
    } = *s;
    for v in sent.into_iter().chain(delivered) {
        d.push(v);
    }
    for v in [
        dropped_churn,
        dropped_fault,
        duplicated_fault,
        erased_fault,
        bounced,
        u64::from(links_changed),
        probe_repairs,
        tracked_sent,
    ] {
        d.push(v);
    }
}

fn event_digest(records: &[Record]) -> u64 {
    let mut d = Digest::new();
    for rec in records {
        d.push(u64::from(rec.v));
        match &rec.event {
            Event::RunMeta {
                n,
                seed,
                policy,
                sample_every,
                round,
            } => {
                d.push(1);
                d.push(*n as u64);
                d.push(*seed);
                push_str(&mut d, policy);
                d.push(*sample_every);
                d.push(*round);
            }
            // `phases` are wall clock — nondeterministic by nature — and
            // stay out of the digest.
            Event::Round {
                round,
                depth_max,
                stats,
                phases: _,
            } => {
                d.push(2);
                d.push(*round);
                d.push(*depth_max);
                push_stats(&mut d, stats);
            }
            Event::Transition { round, phase } => {
                d.push(4);
                d.push(*round);
                push_str(&mut d, phase);
            }
            Event::Span { label, start, end } => {
                d.push(5);
                push_str(&mut d, label);
                d.push(*start);
                d.push(*end);
            }
            // Only the faulted watch emits `Fault` records.
            Event::Fault {
                round,
                kind,
                detail,
            } => {
                d.push(7);
                d.push(*round);
                push_str(&mut d, kind);
                push_str(&mut d, detail);
            }
            Event::Verdict { round, verdict } => {
                d.push(8);
                d.push(*round);
                push_verdict(&mut d, verdict);
            }
            Event::Summary {
                rounds,
                totals,
                depth,
                forget_age,
                lrl_len,
                latency_by_kind,
                cascade_depth,
            } => {
                d.push(6);
                d.push(*rounds);
                push_stats(&mut d, totals);
                push_hist(&mut d, depth);
                push_hist(&mut d, forget_age);
                push_hist(&mut d, lrl_len);
                for h in latency_by_kind {
                    push_hist(&mut d, h);
                }
                push_hist(&mut d, cascade_depth);
            }
            // Emitted by the fault watchdog's cascade bracket, so the
            // faulted watch pins it.
            Event::Cascade { label, report } => {
                let CascadeReport {
                    start,
                    end,
                    stats:
                        CascadeStats {
                            depth,
                            width,
                            handled_by_kind,
                            children_by_kind,
                        },
                } = report;
                d.push(9);
                push_str(&mut d, label);
                d.push(*start);
                d.push(*end);
                push_hist(&mut d, depth);
                for &c in width.iter().chain(handled_by_kind).chain(children_by_kind) {
                    d.push(c);
                }
            }
        }
    }
    d.0
}

/// The signature of one recorded event stream.
fn obs_sig(label: String, records: &[Record]) -> ObsSig {
    let transitions = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::Transition { round, phase } => Some((phase.clone(), *round)),
            _ => None,
        })
        .collect();
    ObsSig {
        label,
        records: records.len(),
        transitions,
        event_digest: event_digest(records),
    }
}

/// The first convergence scenario re-run with a sink attached (sampling
/// every 8 rounds). Returns the scenario signature — which must equal
/// the *unobserved* run's bit for bit — plus the event-stream signature.
fn observed_scenario() -> (ScenarioSig, ObsSig) {
    let family = InitialTopology::RandomSparse { extra: 3 };
    let (n, seed) = (24, 4);
    let ids = evenly_spaced_ids(n);
    let mut net = generate(family, &ids, ProtocolConfig::default(), seed).into_network(seed);
    // Roomy ring: the event digest needs every record, none evicted.
    let (sink, records) = FlightRecorder::new(1 << 20);
    net.attach_sink(Box::new(sink), 8);
    let rep = run_to_ring(&mut net, 100_000);
    net.detach_sink();
    let (total_sent, total_delivered, round_prefix) = trace_totals(&net);
    let sig = ScenarioSig {
        label: format!("{}/n{}/s{}", family.label(), n, seed),
        rounds_to_lcc: rep.rounds_to_lcc,
        rounds_to_list: rep.rounds_to_list,
        rounds_to_ring: rep.rounds_to_ring,
        messages_to_ring: rep.messages_to_ring,
        monotone: rep.monotone,
        rounds_run: rep.rounds_run,
        total_sent,
        total_delivered,
        round_prefix,
        state_digest: state_digest(&net),
    };
    let obs = obs_sig(
        sig.label.clone(),
        &records.lock().expect("records").snapshot(),
    );
    (sig, obs)
}

/// A faulted watch, the shape of the traced `e10` scenario: a warmed
/// stable ring takes three crashes, a perturbation and a loss window in
/// one round and is watched back to the sorted ring. Its stream carries
/// the `Fault`, `Span`, `Cascade` and `Verdict` records a fault-free run
/// never emits.
fn faulted_watch() -> ObsSig {
    let (n, seed) = (24, 10);
    let mut net = churn::stable_network(n, ProtocolConfig::default(), seed, 60);
    let (sink, records) = FlightRecorder::new(1 << 20);
    net.attach_sink(Box::new(sink), 8);
    let fault_round = net.round() + 1;
    let ids = net.ids();
    let mut plan = FaultPlan::new(seed ^ 0xfa17)
        .with_drop(fault_round, fault_round + 5_000, 0.05)
        .with_perturbation(fault_round, 2);
    for k in 1..=3usize {
        plan = plan.with_crash(fault_round, ids[k * ids.len() / 4], 10);
    }
    net.attach_faults(plan);
    net.step();
    let report = watch_recovery(&mut net, 5_000);
    assert!(
        matches!(report.verdict, Verdict::Recovered { .. }),
        "{:?}",
        report.verdict
    );
    net.detach_faults();
    net.detach_sink();
    let records = records.lock().expect("records").snapshot();
    obs_sig(format!("watch/stable/n{n}/s{seed}"), &records)
}

fn obs_fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("obs_events_golden.json")
}

/// Pins the two halves of the observability determinism contract:
/// 1. An observed run is bit-for-bit the run the *unobserved* golden
///    fixture records — instrumentation consumes no RNG and never
///    perturbs the round loop.
/// 2. The emitted event streams themselves are golden — the observed
///    convergence run's and a faulted watch's: same records, same
///    sampled rounds, same timeline, same histograms, every run.
#[test]
fn instrumented_run_matches_golden_and_event_stream_is_golden() {
    let (sig, observed) = observed_scenario();
    let obs = vec![observed, faulted_watch()];
    let path = obs_fixture_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let json = serde_json::to_string(&obs).expect("serialize obs fixture");
        std::fs::create_dir_all(path.parent().expect("fixture has a parent dir"))
            .expect("create golden dir");
        std::fs::write(&path, json).expect("write obs fixture");
        eprintln!("obs-events fixture regenerated at {}", path.display());
        return;
    }
    // Half 1: against the *unobserved* round-loop fixture.
    let json = std::fs::read_to_string(fixture_path()).expect("round-loop fixture present");
    let expected: Vec<ScenarioSig> = serde_json::from_str(&json).expect("parse golden fixture");
    let unobserved = expected
        .iter()
        .find(|s| s.label == sig.label)
        .expect("observed scenario is part of the golden set");
    assert_eq!(
        unobserved, &sig,
        "attaching a sink changed the computation: observers must read, \
         never mutate, and consume no RNG"
    );
    // Half 2: the event streams against their own fixture.
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing obs fixture {}: {e}", path.display()));
    let expected: Vec<ObsSig> = serde_json::from_str(&json).expect("parse obs fixture");
    assert_eq!(
        expected, obs,
        "an emitted observation event stream diverged from the recorded one"
    );
}

#[test]
fn round_loop_replays_the_golden_traces() {
    let actual = all_scenarios();
    let path = fixture_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let json = serde_json::to_string(&actual).expect("serialize golden fixture");
        std::fs::create_dir_all(path.parent().expect("fixture has a parent dir"))
            .expect("create golden dir");
        std::fs::write(&path, json).expect("write golden fixture");
        eprintln!("golden fixture regenerated at {}", path.display());
        return;
    }
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    let expected: Vec<ScenarioSig> = serde_json::from_str(&json).expect("parse golden fixture");
    assert_eq!(
        expected.len(),
        actual.len(),
        "scenario list changed; regenerate with UPDATE_GOLDEN=1"
    );
    for (exp, act) in expected.iter().zip(&actual) {
        assert_eq!(
            exp, act,
            "golden trace diverged for scenario {}: the round loop is no \
             longer bit-for-bit identical to the recorded implementation",
            exp.label
        );
    }
}
