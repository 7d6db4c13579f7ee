//! Perf guards: the seven same-process timing ratios the docs cite.
//!
//! Absolute times belong to `benchmark/` (see `benchmark/README.md`);
//! these tests pin only *ratios* between two arms measured in one
//! process on one machine, so they need no committed baseline. A
//! guard's two arms are measured as interleaved pairs and it judges the
//! *smallest* per-pair ratio: a burst of machine contention inflates the
//! pairs it lands in, a real regression inflates all of them, so a guard
//! fails only when every pair reads over its limit. The price is power:
//! a burst that hits only a pair's base arm deflates that pair, so a
//! regression smaller than the host's noise can pass — every pair is
//! printed, read them before trusting a pass near the limit.
//!
//! `#[ignore]`d because wall-clock assertions have no place in the
//! default suite; CI runs them with
//! `cargo test --release -p swn-sim --test perf_guards -- --ignored`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom as _;
use rand::SeedableRng as _;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Duration;
use swn_core::config::ProtocolConfig;
use swn_core::id::{evenly_spaced_ids, Extended, NodeId};
use swn_core::invariants::make_sorted_ring;
use swn_core::message::Message;
use swn_core::node::Node;
use swn_sim::convergence::drain_to_quiescence;
use swn_sim::faults::FaultPlan;
use swn_sim::obs::JsonlSink;
use swn_sim::{Network, ScheduleMode};

/// An attached sink outside a cascade window — histograms, latency
/// accounting, JSONL sampling — may cost at most this factor over the
/// detached step.
const INSTRUMENTED_LIMIT: f64 = 1.5;

/// Full causal instrumentation — a sink plus an open cascade window, so
/// every delivery is depth-tagged and counted and every send carries
/// its tag through the mailbox — may cost at most this factor over the
/// detached step. On a shared 2-core host the smallest pair ratio read
/// 1.521, 1.520, 1.410, 1.510, 1.528, 1.519, 1.521, 1.513, 1.511, 1.525
/// and 1.524 over eleven runs; the limit is the largest, rounded up to
/// the next 0.05. With 32-byte tags that also carried the parent's
/// round, slot and delivery sequence number, the same host read
/// 1.714–1.801 over five runs.
const WINDOWED_LIMIT: f64 = 1.55;

/// A quiescent round is O(1) — an empty agenda and a default stats row —
/// so 32× more nodes may cost at most this factor (the full-scan round
/// is ~linear, i.e. ~32× over the same span).
const QUIESCENT_SCALE_LIMIT: f64 = 4.0;

/// A recovery round under the active set is O(active nodes): the step
/// runs the few nodes the join woke and `is_sorted_ring` reads the
/// scheduler's misplaced-node counter, so 32× more nodes may cost at most
/// this factor (a watcher that rebuilds a view every dirty round is
/// ~linear, i.e. ~32× over the same span).
const RECOVERY_SCALE_LIMIT: f64 = 4.0;

/// A full-scan node-round does O(1) work whatever n is. The round's
/// turns walk the node table and the mailbox in ascending id order,
/// which on this ring is slot order, so what grows with n is the cache
/// misses of the messages that follow lrl links. 64× more nodes — from
/// a working set that fits the cache to one far beyond it — may cost at
/// most this factor per node-round. On a shared 2-core host the
/// smallest pair ratio read 0.69, 1.12, 1.02, 1.07, 1.00, 1.02, 0.80,
/// 0.98, 0.86 and 1.05 over ten runs; the limit is the largest, rounded
/// up to the next 0.25. With each round's turns in a shuffled order
/// (and a gather pass to overlap the misses of that random walk) the
/// same host read 1.43–1.67 over four runs.
const FULL_SCAN_SCALE_LIMIT: f64 = 1.25;

/// The injector compiles its plan into a round-ordered agenda once, so
/// entries that are not due cost a round one cursor comparison and a
/// send nothing: a plan of 512 entries lying a million rounds ahead may
/// cost at most this factor over an empty plan (an injector that scans
/// its plan per send pays for every window on every message).
const FAR_PLAN_LIMIT: f64 = 1.15;

/// A delivery in an active-set recovery round may cost at most this
/// factor over one in a full-scan round at the same n: a settled turn
/// that changed nothing skips re-verifying its certificate, the agenda
/// sorts by the ids it carries without reading node records, a tracked
/// forwarder is a flag, and a network with only the scheduler attached
/// runs an arm of the round loop with no observer or injector branch,
/// so a delivery costs what its handler and its send cost. On a shared
/// 2-core host the smallest pair ratio read 0.811, 0.973, 0.951, 0.934,
/// 0.954, 0.910, 0.916, 0.928, 0.922 and 0.929 over ten runs; the limit
/// is the largest, rounded up to the next 0.05. When the scheduler ran
/// in the same arm as the observer and the injector, testing their
/// `Option`s on every turn and send, the same host read 1.128–1.184
/// over five runs, two of them over the old limit of 1.15.
const ACTIVE_DELIVERY_LIMIT: f64 = 1.0;

/// Interleaved pairs per guard.
const PAIRS: usize = 7;

/// Joins whose recoveries make up one timing of a recovery round.
const JOINS: usize = 64;

/// Ranks between a newcomer of the delivery guard and its contact.
const CONTACT_HOPS: usize = 256;

/// Held by each test for its whole body: the harness runs tests on
/// parallel threads, and one test's set-up must not run inside the
/// other's timed loops.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Nanoseconds per call of `f` over `iters` calls.
#[allow(clippy::disallowed_methods)] // wall clock is the measured quantity
fn ns_per<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

/// Times `base` then `arm`, `PAIRS` times over, printing both timings and
/// the ratio `arm / base` of every pair; returns the smallest ratio.
fn min_pair_ratio(mut base: impl FnMut() -> f64, mut arm: impl FnMut() -> f64) -> f64 {
    let mut min = f64::MAX;
    for pair in 1..=PAIRS {
        let (b, a) = (base(), arm());
        let ratio = a / b;
        println!("pair {pair}/{PAIRS}: {a:.0} ns vs {b:.0} ns ({ratio:.3}x)");
        min = min.min(ratio);
    }
    min
}

fn stable_ring(n: usize) -> Network {
    let ids = evenly_spaced_ids(n);
    Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 7)
}

/// [`stable_ring`] with its nodes in slots of a seeded random order, as
/// in a ring grown by joins in no particular id order: ring neighbours
/// are not memory neighbours.
fn scattered_ring(n: usize) -> Network {
    let mut nodes = make_sorted_ring(&evenly_spaced_ids(n), ProtocolConfig::default());
    nodes.shuffle(&mut StdRng::seed_from_u64(7));
    Network::new(nodes, 7)
}

/// How much of the observability layer a timed step runs.
#[derive(Clone, Copy)]
enum Observed {
    Detached,
    /// A sink attached, no cascade window open.
    Sink,
    /// A sink attached and a cascade window open throughout.
    Window,
}

/// One full-scan round on a warmed stable ring of `n` nodes, observed
/// as `obs` says: the sink is a `JsonlSink` over `io::sink()` at
/// `sample_every = 16`.
fn step_ns(n: usize, obs: Observed) -> f64 {
    let mut net = stable_ring(n);
    net.run(20);
    if !matches!(obs, Observed::Detached) {
        net.attach_sink(Box::new(JsonlSink::new(Box::new(std::io::sink()))), 16);
    }
    if matches!(obs, Observed::Window) {
        net.cascade_begin();
    }
    ns_per(200, || net.step())
}

/// 512 plan entries spread over the five kinds, all a million rounds
/// ahead.
fn far_plan(n: usize) -> FaultPlan {
    let ids = evenly_spaced_ids(n);
    let mut plan = FaultPlan::new(9);
    for i in 0..512 {
        let (start, node) = (1_000_000 + 10 * i as u64, ids[i * n / 512]);
        let end = start + 5;
        plan = match i % 5 {
            0 => plan.with_drop(start, end, 0.5),
            1 => plan.with_duplicate(start, end, 0.5),
            2 => plan.with_partition(start, end, node),
            3 => plan.with_crash(start, node, 3),
            _ => plan.with_perturbation(start, 4),
        };
    }
    plan
}

/// One full-scan round on a warmed stable ring of `n` nodes with `plan`
/// attached.
fn faulted_step_ns(n: usize, plan: FaultPlan) -> f64 {
    let mut net = stable_ring(n);
    net.run(20);
    net.attach_faults(plan);
    ns_per(200, || net.step())
}

/// Nanoseconds per node-round of a fresh stable ring of `n` nodes under
/// full scan: 4 warm-up rounds, 12 timed. Equal round counts on both
/// arms, because the traffic per node changes as the lrl walks spread.
fn node_round_ns(n: usize) -> f64 {
    let mut net = stable_ring(n);
    net.run(4);
    ns_per(12, || net.step()) / n as f64
}

/// A stable ring `net` under the active-set scheduler, stepped until its
/// agenda is empty. The ring-validation probe walks traverse the whole
/// ring one hop per round, so draining takes ~n (cheap) rounds.
fn drained(mut net: Network) -> Network {
    let n = net.len();
    net.set_schedule_mode(ScheduleMode::ActiveSet);
    drain_to_quiescence(&mut net, 4 * n as u64 + 1000).expect("ring must drain");
    net
}

/// One quiescent round. The trace is shed first so the timed loop does
/// identical stats-row work whatever came before it.
fn quiescent_ns(net: &mut Network) -> f64 {
    drop(net.take_trace());
    ns_per(50_000, || net.step())
}

/// The next newcomer of a gap walk over `ids`: the midpoint of the
/// next gap no earlier join used, with the gap's rank. The gaps are
/// spread over the whole ring, so the nodes a join wakes are cold in
/// cache at large `n`.
fn next_joiner(ids: &[NodeId], next_gap: &mut usize) -> (usize, NodeId) {
    let g = *next_gap;
    *next_gap += ids.len() / (PAIRS * JOINS + 1);
    let (a, b) = (ids[g].bits(), ids[g + 1].bits());
    (g, NodeId::from_bits(a + (b - a) / 2))
}

/// Host nanoseconds per recovery round — `step` plus the
/// `is_sorted_ring` that decides whether to take another — over `JOINS`
/// joins. Each newcomer of the gap walk enters through the gap's left
/// end, so it is a few rounds from its place whatever `n` is. Only the
/// recovery loops are timed, not the joins (`insert_node` splices the
/// index, which is O(n) by design).
#[allow(clippy::disallowed_methods)] // wall clock is the measured quantity
fn recovery_round_ns(net: &mut Network, ids: &[NodeId], next_gap: &mut usize) -> f64 {
    drop(net.take_trace());
    let (mut spent, mut rounds) = (Duration::ZERO, 0u32);
    for _ in 0..JOINS {
        let (g, new_id) = next_joiner(ids, next_gap);
        let (l, r) = (Extended::Fin(ids[g]), Extended::PosInf);
        let cfg = ProtocolConfig::default();
        assert!(net.insert_node(Node::with_state(new_id, l, r, new_id, None, cfg)));
        net.send_external(ids[g], Message::Lin(new_id));
        let start = std::time::Instant::now();
        while !black_box(net.is_sorted_ring()) {
            net.step();
            rounds += 1;
        }
        spent += start.elapsed();
    }
    spent.as_secs_f64() * 1e9 / f64::from(rounds)
}

/// Host nanoseconds per delivery of the recovery rounds — `step` plus
/// the `is_sorted_ring` that decides whether to take another — after
/// `JOINS` joins, each tracked as `churn::join` tracks it. Each newcomer
/// of the gap walk announces itself to the node `CONTACT_HOPS` ranks to
/// its right, so most deliveries are its `lin`s walking home through
/// settled nodes, the traffic of a churn recovery. Only the recovery
/// loops are timed.
#[allow(clippy::disallowed_methods)] // wall clock is the measured quantity
fn recovery_delivery_ns(net: &mut Network, ids: &[NodeId], next_gap: &mut usize) -> f64 {
    drop(net.take_trace());
    let (mut spent, mut deliveries) = (Duration::ZERO, 0);
    for _ in 0..JOINS {
        let (g, new_id) = next_joiner(ids, next_gap);
        let contact = ids[(g + CONTACT_HOPS).min(ids.len() - 1)];
        let (l, r) = (Extended::NegInf, Extended::Fin(contact));
        let cfg = ProtocolConfig::default();
        assert!(net.insert_node(Node::with_state(new_id, l, r, new_id, None, cfg)));
        net.send_external(contact, Message::Lin(new_id));
        net.track_id(Some(new_id));
        let start = std::time::Instant::now();
        while !black_box(net.is_sorted_ring()) {
            deliveries += net.step().total_delivered();
        }
        spent += start.elapsed();
    }
    net.track_id(None);
    spent.as_secs_f64() * 1e9 / deliveries as f64
}

/// Nanoseconds per delivery of a fresh [`scattered_ring`] of `n` nodes
/// under full scan: 4 warm-up rounds, 36 timed.
#[allow(clippy::disallowed_methods)] // wall clock is the measured quantity
fn full_scan_delivery_ns(n: usize) -> f64 {
    let mut net = scattered_ring(n);
    net.run(4);
    let start = std::time::Instant::now();
    let deliveries: u64 = (0..36).map(|_| net.step().total_delivered()).sum();
    start.elapsed().as_secs_f64() * 1e9 / deliveries as f64
}

#[test]
#[ignore = "wall-clock ratio; run with --release -- --ignored"]
fn instrumented_step_within_limit_of_detached() {
    const N: usize = 2048;
    let _turn = ONE_AT_A_TIME.lock();
    let detached = || step_ns(N, Observed::Detached);
    println!("n={N}: step with a sink vs detached step");
    let sink = min_pair_ratio(detached, || step_ns(N, Observed::Sink));
    println!("smallest pair ratio {sink:.3}x, limit {INSTRUMENTED_LIMIT}x");
    println!("n={N}: step with a sink and an open cascade window vs detached step");
    let window = min_pair_ratio(detached, || step_ns(N, Observed::Window));
    println!("smallest pair ratio {window:.3}x, limit {WINDOWED_LIMIT}x");
    assert!(
        sink <= INSTRUMENTED_LIMIT,
        "observed step too expensive: {sink:.3}x > {INSTRUMENTED_LIMIT}x the detached step"
    );
    assert!(
        window <= WINDOWED_LIMIT,
        "windowed step too expensive: {window:.3}x > {WINDOWED_LIMIT}x the detached step"
    );
}

#[test]
#[ignore = "wall-clock ratio; run with --release -- --ignored"]
fn quiescent_round_is_flat_in_n() {
    const SMALL: usize = 2048;
    const BIG: usize = 65_536;
    let _turn = ONE_AT_A_TIME.lock();
    let mut small_net = drained(stable_ring(SMALL));
    let mut big_net = drained(stable_ring(BIG));
    println!("quiescent round @ n={BIG} vs @ n={SMALL}");
    let ratio = min_pair_ratio(
        || quiescent_ns(&mut small_net),
        || quiescent_ns(&mut big_net),
    );
    println!("smallest pair ratio {ratio:.3}x, limit {QUIESCENT_SCALE_LIMIT}x");
    assert!(
        ratio <= QUIESCENT_SCALE_LIMIT,
        "quiescent round cost is not flat in n: {ratio:.3}x > {QUIESCENT_SCALE_LIMIT}x"
    );
}

#[test]
#[ignore = "wall-clock ratio; run with --release -- --ignored"]
fn recovery_round_is_flat_in_n() {
    const SMALL: usize = 2048;
    const BIG: usize = 65_536;
    let _turn = ONE_AT_A_TIME.lock();
    let (small_ids, big_ids) = (evenly_spaced_ids(SMALL), evenly_spaced_ids(BIG));
    let (mut small_net, mut small_gap) = (drained(stable_ring(SMALL)), 0);
    let (mut big_net, mut big_gap) = (drained(stable_ring(BIG)), 0);
    println!("recovery round after a join @ n={BIG} vs @ n={SMALL}");
    let ratio = min_pair_ratio(
        || recovery_round_ns(&mut small_net, &small_ids, &mut small_gap),
        || recovery_round_ns(&mut big_net, &big_ids, &mut big_gap),
    );
    println!("smallest pair ratio {ratio:.3}x, limit {RECOVERY_SCALE_LIMIT}x");
    assert!(
        ratio <= RECOVERY_SCALE_LIMIT,
        "recovery round cost is not flat in n: {ratio:.3}x > {RECOVERY_SCALE_LIMIT}x"
    );
}

#[test]
#[ignore = "wall-clock ratio; run with --release -- --ignored"]
fn full_scan_node_round_out_of_cache_within_limit_of_in_cache() {
    const SMALL: usize = 2048;
    const BIG: usize = 131_072;
    let _turn = ONE_AT_A_TIME.lock();
    println!("full-scan node-round @ n={BIG} vs @ n={SMALL}");
    let ratio = min_pair_ratio(|| node_round_ns(SMALL), || node_round_ns(BIG));
    println!("smallest pair ratio {ratio:.3}x, limit {FULL_SCAN_SCALE_LIMIT}x");
    assert!(
        ratio <= FULL_SCAN_SCALE_LIMIT,
        "per-node round cost grows with n: {ratio:.3}x > {FULL_SCAN_SCALE_LIMIT}x"
    );
}

#[test]
#[ignore = "wall-clock ratio; run with --release -- --ignored"]
fn plan_entries_not_yet_due_cost_a_round_nothing() {
    const N: usize = 2048;
    let _turn = ONE_AT_A_TIME.lock();
    assert_eq!(far_plan(N).entry_count(), 512);
    println!("n={N}: step under 512 far-future plan entries vs under an empty plan");
    let ratio = min_pair_ratio(
        || faulted_step_ns(N, FaultPlan::new(9)),
        || faulted_step_ns(N, far_plan(N)),
    );
    println!("smallest pair ratio {ratio:.3}x, limit {FAR_PLAN_LIMIT}x");
    assert!(
        ratio <= FAR_PLAN_LIMIT,
        "entries not yet due are paid for: {ratio:.3}x > {FAR_PLAN_LIMIT}x the empty plan"
    );
}

#[test]
#[ignore = "wall-clock ratio; run with --release -- --ignored"]
fn active_set_delivery_within_limit_of_full_scan() {
    const N: usize = 16_384;
    let _turn = ONE_AT_A_TIME.lock();
    let ids = evenly_spaced_ids(N);
    let (mut net, mut gap) = (drained(scattered_ring(N)), 0);
    println!("n={N}: delivery in an active-set recovery round vs in a full-scan round");
    let ratio = min_pair_ratio(
        || full_scan_delivery_ns(N),
        || recovery_delivery_ns(&mut net, &ids, &mut gap),
    );
    println!("smallest pair ratio {ratio:.3}x, limit {ACTIVE_DELIVERY_LIMIT}x");
    assert!(
        ratio <= ACTIVE_DELIVERY_LIMIT,
        "active-set delivery too expensive: {ratio:.3}x > {ACTIVE_DELIVERY_LIMIT}x a full-scan one"
    );
}
