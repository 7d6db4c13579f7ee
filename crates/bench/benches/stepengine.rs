//! Step-engine phase breakdown: where a simulated round actually spends
//! its time.
//!
//! `Network::step` is a pipeline of five mechanisms — route lookup
//! (id → channel slot), channel delivery (`take_deliverable_into`),
//! outbox flushing, the per-round activation shuffle, and stats
//! accounting. This bench times each mechanism in isolation on the same
//! data shapes the round loop produces, plus the whole `step` as the
//! ground truth the parts must add up against (roughly — the protocol
//! handlers themselves own the remainder).
//!
//! Besides the criterion group, the bench emits `BENCH_stepengine.json`
//! (workspace root, or wherever `SWN_BENCH_OUT` points) with one entry
//! per network size. The route phase times the dense [`SlotIndex`]
//! against the `BTreeMap` it replaced, so the recorded ratio documents
//! what the O(1) routing rewrite bought at each scale.
//!
//! Since the observability layer landed (DESIGN.md §9) the whole-step
//! measurement is a *pair*: the noop path (no sink attached — the plain
//! copy of the round loop, which must stay the pre-observability round
//! loop) and the instrumented path (a `JsonlSink` over
//! `io::sink()` at `sample_every = 16`). The noop number is guarded
//! against the previously committed `BENCH_stepengine.json`: the ratio
//! is always printed, and with `SWN_BENCH_ENFORCE=1` a noop regression
//! beyond 3% fails the bench.
//!
//! Since the causal tracer landed (DESIGN.md §13) the instrumented path
//! also carries the cause lane on every channel take (the hooked copy of
//! the round loop has one delivery form, whether or not a cascade window
//! is open), so the pair's *ratio* is guarded too: the instrumented step must stay
//! within `INSTRUMENTED_GUARD` (1.5×) of the detached step — printed
//! always, asserted under `SWN_BENCH_ENFORCE=1`.
//!
//! Since the active-set scheduler landed (DESIGN.md §12) the record also
//! carries a `stable_round` section: the cost of one *quiescent* round
//! under [`ScheduleMode::ActiveSet`] at n ∈ {2048, 8192, 65536}, next to
//! the full-scan stable round at the same size. A quiescent round visits
//! no node at all, so its cost must be (near-)flat in n — the scaling
//! guard prints the 65536/2048 ratio and, under `SWN_BENCH_ENFORCE=1`,
//! fails the bench when it exceeds 4× (the full-scan engine is ~linear,
//! i.e. ~32× over that span).
//!
//! `SWN_BENCH_QUICK=1` shrinks sizes and iteration counts so CI can
//! smoke-run the bench in seconds.
//!
//! [`SlotIndex`]: swn_sim::slots::SlotIndex
//! [`ScheduleMode::ActiveSet`]: swn_sim::ScheduleMode::ActiveSet

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt as _, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use swn_core::config::ProtocolConfig;
use swn_core::id::{evenly_spaced_ids, NodeId};
use swn_core::invariants::make_sorted_ring;
use swn_core::message::{Message, MessageKind};
use swn_core::outbox::Outbox;
use swn_sim::channel::{Channel, DeliveryPolicy};
use swn_sim::convergence::drain_to_quiescence;
use swn_sim::obs::causal::CauseTag;
use swn_sim::obs::JsonlSink;
use swn_sim::slots::SlotIndex;
use swn_sim::trace::RoundStats;
use swn_sim::{Network, ScheduleMode};

/// Sampling interval for the instrumented whole-step measurement.
const OBS_SAMPLE_EVERY: u64 = 16;

/// Allowed regression of the noop step against the committed baseline.
const NOOP_GUARD: f64 = 1.03;

/// Allowed cost of the instrumented step relative to the detached step
/// measured in the same run: full observation — histograms, causal
/// tagging, cascade bookkeeping, JSONL sampling — may not exceed 1.5×.
const INSTRUMENTED_GUARD: f64 = 1.5;

/// Allowed growth of the quiescent-round cost from n = 2048 to
/// n = 65536. A quiescent round is O(1) — an empty agenda shuffle and a
/// default stats row — so 32× more nodes must not cost more than 4×.
const QUIESCENT_SCALE_GUARD: f64 = 4.0;

fn quick_mode() -> bool {
    std::env::var_os("SWN_BENCH_QUICK").is_some()
}

fn out_path() -> std::path::PathBuf {
    match std::env::var_os("SWN_BENCH_OUT") {
        Some(p) => std::path::PathBuf::from(p),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("BENCH_stepengine.json"),
    }
}

/// Times `iters` calls of `f` and returns nanoseconds per call.
fn ns_per<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// A fixed pseudo-random probe sequence over the live id set, drawn
/// ahead of timing so the dense index and the `BTreeMap` chase the same
/// ids in the same order.
fn probe_sequence(ids: &[NodeId], len: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| ids[rng.random_range(0..ids.len())])
        .collect()
}

/// One size's phase timings, all in nanoseconds per operation (the
/// operation is named in each field's doc).
#[derive(Serialize)]
struct PhaseEntry {
    n: usize,
    /// One whole `Network::step` on a warmed stable ring, *no sink
    /// attached* — the plain copy of the round loop the guard pins.
    step_ns_per_round: f64,
    /// The same step with a `JsonlSink` over `io::sink()` attached at
    /// `sample_every = 16` — the instrumented half of the pair.
    step_instrumented_ns_per_round: f64,
    /// `step_instrumented / step` — what observation costs when on.
    obs_overhead_ratio: f64,
    /// One `SlotIndex::get` of a live id (the engine's route lookup).
    route_dense_ns_per_lookup: f64,
    /// The same lookup on the `BTreeMap` the dense index replaced.
    route_btree_ns_per_lookup: f64,
    /// `route_btree / route_dense` — what O(1) routing bought.
    route_speedup: f64,
    /// One push-4-deliver cycle of `Channel::take_deliverable_into`
    /// (the stable-state per-node channel load).
    channel_ns_per_cycle: f64,
    /// One 4-send outbox batch: send, walk `sends()`, clear.
    outbox_ns_per_flush: f64,
    /// One activation-order rebuild: copy the cached sorted slot list
    /// and shuffle it (length n).
    shuffle_ns_per_round: f64,
    /// One round of stats accounting: a few kind counters plus the
    /// by-value `RoundStats` push into the trace.
    stats_ns_per_round: f64,
}

/// One size's stable-round pair: the active-set quiescent round against
/// the full-scan stable round, both on a converged sorted ring.
#[derive(Serialize)]
struct StableRoundEntry {
    n: usize,
    /// Rounds the freshly scheduled ring needed to drain its agenda.
    drain_rounds: u64,
    /// One quiescent `Network::step` under `ScheduleMode::ActiveSet` —
    /// empty agenda, zero node turns, zero RNG draws.
    stable_round_ns: f64,
    /// One full-scan stable round at the same n (every node acts, the
    /// perpetual lrl walk keeps ~n messages in flight).
    full_scan_round_ns: f64,
    /// `full_scan / stable` — what quiescence detection buys per round.
    active_speedup: f64,
}

#[derive(Serialize)]
struct StepengineRecord {
    quick: bool,
    entries: Vec<PhaseEntry>,
    stable_round: Vec<StableRoundEntry>,
}

/// The subset of a previously committed record the overhead guard
/// needs. Extra fields in old/new files are ignored on parse, so this
/// reads baselines from before and after the instrumented pair landed.
#[derive(Deserialize)]
struct PrevEntry {
    n: usize,
    step_ns_per_round: f64,
}

#[derive(Deserialize)]
struct PrevRecord {
    quick: bool,
    entries: Vec<PrevEntry>,
}

/// Whole-step ground truth: per-round cost on a warmed stable ring,
/// optionally with an attached JSONL sink draining into `io::sink()`.
fn measure_step(n: usize, rounds: u64, instrumented: bool) -> f64 {
    let ids = evenly_spaced_ids(n);
    let mut net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 7);
    net.run(20);
    if instrumented {
        let sink = Box::new(JsonlSink::new(Box::new(std::io::sink())));
        net.attach_sink(sink, OBS_SAMPLE_EVERY);
    }
    let start = Instant::now();
    net.run(rounds);
    let ns = start.elapsed().as_secs_f64() * 1e9 / rounds as f64;
    net.detach_sink();
    ns
}

/// Prints (and under `SWN_BENCH_ENFORCE=1` asserts) the noop-step ratio
/// against the previously committed record at the same `(quick, n)`.
fn guard_against_previous(record: &StepengineRecord, path: &std::path::Path) {
    let Ok(text) = std::fs::read_to_string(path) else {
        println!("stepengine guard: no previous record at {}", path.display());
        return;
    };
    let prev: PrevRecord = match serde_json::from_str(&text) {
        Ok(p) => p,
        Err(e) => {
            println!("stepengine guard: previous record unreadable ({e})");
            return;
        }
    };
    if prev.quick != record.quick {
        println!(
            "stepengine guard: previous record is {} mode, current is {} — skipping",
            if prev.quick { "quick" } else { "full" },
            if record.quick { "quick" } else { "full" },
        );
        return;
    }
    let enforce = std::env::var_os("SWN_BENCH_ENFORCE").is_some();
    for e in &record.entries {
        let Some(base) = prev.entries.iter().find(|p| p.n == e.n) else {
            continue;
        };
        let ratio = e.step_ns_per_round / base.step_ns_per_round.max(1e-9);
        println!(
            "stepengine guard n={}: noop step {:.0} ns vs baseline {:.0} ns ({:.3}x, limit {NOOP_GUARD}x{})",
            e.n,
            e.step_ns_per_round,
            base.step_ns_per_round,
            ratio,
            if enforce { ", enforced" } else { "" },
        );
        assert!(
            !enforce || ratio <= NOOP_GUARD,
            "noop step regressed at n={}: {ratio:.3}x > {NOOP_GUARD}x the committed baseline",
            e.n
        );
    }
}

/// Prints (and under `SWN_BENCH_ENFORCE=1` asserts) the instrumented /
/// noop step ratio measured within this run. Unlike the baseline guard
/// this needs no committed record — both halves of the pair come from
/// the same machine and the same binary.
fn guard_instrumented_overhead(entries: &[PhaseEntry]) {
    let enforce = std::env::var_os("SWN_BENCH_ENFORCE").is_some();
    for e in entries {
        println!(
            "stepengine guard n={}: instrumented step {:.0} ns vs noop {:.0} ns \
             ({:.3}x, limit {INSTRUMENTED_GUARD}x{})",
            e.n,
            e.step_instrumented_ns_per_round,
            e.step_ns_per_round,
            e.obs_overhead_ratio,
            if enforce { ", enforced" } else { "" },
        );
        assert!(
            !enforce || e.obs_overhead_ratio <= INSTRUMENTED_GUARD,
            "instrumented step too expensive at n={}: {:.3}x > {INSTRUMENTED_GUARD}x the \
             detached step (causal tagging must stay cheap)",
            e.n,
            e.obs_overhead_ratio
        );
    }
}

/// Stable-round pair: a converged ring under the active-set scheduler
/// drains its agenda, then every further step is a quiescent round; the
/// full-scan half re-measures `measure_step` at the same size.
fn measure_stable_round(n: usize, quick: bool) -> StableRoundEntry {
    let ids = evenly_spaced_ids(n);
    let mut net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 7);
    net.set_schedule_mode(ScheduleMode::ActiveSet);
    // The first active rounds launch the ring-validation probe walks,
    // which traverse the whole ring one hop per round — so a fresh ring
    // needs ~n rounds (each O(1): just the walk frontier is active)
    // before the agenda is truly empty. The cap scales accordingly.
    let drain_rounds = drain_to_quiescence(&mut net, 4 * n as u64 + 1000).expect("ring must drain");
    // Shed the ~n drain rounds' stats rows: the timed loop below then
    // does identical trace work at every n (a quiescent round's only
    // memory traffic is its stats row), so the sizes compare fairly.
    drop(net.take_trace());
    let iters = if quick { 5_000 } else { 50_000 };
    let stable = ns_per(iters, || {
        net.step();
        black_box(net.round());
    });
    // Full-scan rounds are ~linear in n; cap the big sizes' sample so
    // the reference half stays a second, not a minute.
    let full_rounds = match (quick, n) {
        (true, _) => 30,
        (false, n) if n >= 65_536 => 60,
        (false, _) => 200,
    };
    let full = measure_step(n, full_rounds, false);
    StableRoundEntry {
        n,
        drain_rounds,
        stable_round_ns: stable,
        full_scan_round_ns: full,
        active_speedup: full / stable.max(1e-9),
    }
}

/// Prints (and under `SWN_BENCH_ENFORCE=1` asserts) the quiescent-round
/// scaling ratio between n = 2048 and n = 65536. Quick mode runs a
/// single size, so the guard reports itself skipped there.
fn guard_quiescent_scaling(stable: &[StableRoundEntry]) {
    let at = |n: usize| stable.iter().find(|e| e.n == n);
    let (Some(small), Some(big)) = (at(2048), at(65_536)) else {
        println!("stepengine guard: stable-round scaling needs n=2048 and n=65536 — skipped");
        return;
    };
    let enforce = std::env::var_os("SWN_BENCH_ENFORCE").is_some();
    let ratio = big.stable_round_ns / small.stable_round_ns.max(1e-9);
    println!(
        "stepengine guard: quiescent round {:.0} ns @ n=65536 vs {:.0} ns @ n=2048 \
         ({ratio:.3}x, limit {QUIESCENT_SCALE_GUARD}x{})",
        big.stable_round_ns,
        small.stable_round_ns,
        if enforce { ", enforced" } else { "" },
    );
    assert!(
        !enforce || ratio <= QUIESCENT_SCALE_GUARD,
        "quiescent round cost is not flat in n: {ratio:.3}x > {QUIESCENT_SCALE_GUARD}x \
         between n=2048 and n=65536"
    );
}

/// Route phase: dense `SlotIndex` vs the `BTreeMap` oracle over an
/// identical lookup stream of live ids.
fn measure_route(n: usize, iters: usize) -> (f64, f64) {
    let ids = evenly_spaced_ids(n);
    let mut index = SlotIndex::new();
    let mut map: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (slot, &id) in ids.iter().enumerate() {
        index.insert(id, slot);
        map.insert(id, slot);
    }
    let probes = probe_sequence(&ids, 4096, 42);
    let mut cursor = 0usize;
    let mut acc = 0usize;
    let dense = ns_per(iters, || {
        let id = probes[cursor % probes.len()];
        cursor += 1;
        acc += black_box(index.get(id)).unwrap_or(0);
    });
    black_box(acc);
    cursor = 0;
    let mut acc = 0usize;
    let btree = ns_per(iters, || {
        let id = probes[cursor % probes.len()];
        cursor += 1;
        acc += black_box(map.get(&id).copied()).unwrap_or(0);
    });
    black_box(acc);
    (dense, btree)
}

/// Channel phase: the stable-state per-node cycle — four same-round
/// pushes, then a `take_deliverable_into` one round later (every message
/// eligible, i.e. the swap fast path the engine hits almost always).
fn measure_channel(iters: usize) -> f64 {
    let mut ch = Channel::new();
    let mut out: Vec<Message> = Vec::new();
    let mut rng = StdRng::seed_from_u64(9);
    let mut now = 0u64;
    ns_per(iters, || {
        for k in 0..4u64 {
            ch.push(
                Message::Lin(NodeId::from_fraction((k + 1) as f64 / 8.0)),
                now,
                CauseTag::ROOT,
            );
        }
        now += 1;
        ch.take_deliverable_into(now, DeliveryPolicy::Immediate, &mut rng, false, &mut out);
        black_box(out.len());
    })
}

/// Outbox phase: one batched flush — four sends, a walk of the send
/// list, and the buffer reset. (Route lookup and the channel push the
/// real flush performs are the other phases.)
fn measure_outbox(iters: usize) -> f64 {
    let mut ob = Outbox::new();
    let dests = [
        NodeId::from_fraction(0.2),
        NodeId::from_fraction(0.4),
        NodeId::from_fraction(0.6),
        NodeId::from_fraction(0.8),
    ];
    let mut total = 0usize;
    let out = ns_per(iters, || {
        for &d in &dests {
            ob.send(d, Message::Lin(d));
        }
        for &(dest, msg) in ob.sends() {
            total += usize::from(msg.carried_ids().any(|id| id == dest));
        }
        ob.clear();
    });
    black_box(total);
    out
}

/// Shuffle phase: the per-round activation order — copy the cached
/// sorted slot list into the scratch buffer and shuffle it.
fn measure_shuffle(n: usize, iters: usize) -> f64 {
    let sorted: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut rng = StdRng::seed_from_u64(11);
    ns_per(iters, || {
        order.clear();
        order.extend_from_slice(&sorted);
        order.shuffle(&mut rng);
        black_box(order.last().copied());
    })
}

/// Stats phase: a round's worth of counter bumps plus the by-value
/// `RoundStats` append into the trace (the clone this PR removed).
fn measure_stats(iters: usize) -> f64 {
    let mut trace: Vec<RoundStats> = Vec::with_capacity(iters);
    ns_per(iters, || {
        let mut stats = RoundStats::default();
        for _ in 0..2 {
            stats.count_sent(MessageKind::Lin);
            stats.count_delivered(MessageKind::Lin);
        }
        stats.count_sent(MessageKind::IncLrl);
        stats.count_delivered(MessageKind::ResLrl);
        trace.push(stats);
        black_box(stats.total_sent());
    })
}

fn phase_entry(n: usize, quick: bool) -> PhaseEntry {
    let lookup_iters = if quick { 1 << 16 } else { 1 << 20 };
    let cycle_iters = if quick { 20_000 } else { 100_000 };
    let round_iters = if quick { 200 } else { 1_000 };
    let step_rounds = if quick { 30 } else { 200 };
    let (route_dense, route_btree) = measure_route(n, lookup_iters);
    // The instrumented/noop pair feeds a ratio guard, so measure the two
    // arms interleaved and keep each arm's minimum: a burst of machine
    // contention then penalizes both arms instead of skewing the ratio.
    let mut step = f64::MAX;
    let mut step_obs = f64::MAX;
    for _ in 0..3 {
        step = step.min(measure_step(n, step_rounds, false));
        step_obs = step_obs.min(measure_step(n, step_rounds, true));
    }
    PhaseEntry {
        n,
        step_ns_per_round: step,
        step_instrumented_ns_per_round: step_obs,
        obs_overhead_ratio: step_obs / step.max(1e-9),
        route_dense_ns_per_lookup: route_dense,
        route_btree_ns_per_lookup: route_btree,
        route_speedup: route_btree / route_dense.max(1e-9),
        channel_ns_per_cycle: measure_channel(cycle_iters),
        outbox_ns_per_flush: measure_outbox(cycle_iters),
        shuffle_ns_per_round: measure_shuffle(n, round_iters),
        stats_ns_per_round: measure_stats(cycle_iters),
    }
}

/// Emits `BENCH_stepengine.json` and prints the per-size breakdown.
fn emit_stepengine_record(_c: &mut Criterion) {
    let quick = quick_mode();
    let sizes: &[usize] = if quick { &[256] } else { &[2048, 8192] };
    let stable_sizes: &[usize] = if quick { &[256] } else { &[2048, 8192, 65_536] };
    let entries: Vec<PhaseEntry> = sizes.iter().map(|&n| phase_entry(n, quick)).collect();
    for e in &entries {
        println!(
            "stepengine n={}: step {:.0} ns/round (instrumented {:.0} ns, {:.3}x) | route {:.1} ns \
             dense vs {:.1} ns btree ({:.2}x) | channel {:.0} ns/cycle | outbox {:.0} ns/flush \
             | shuffle {:.0} ns/round | stats {:.0} ns/round",
            e.n,
            e.step_ns_per_round,
            e.step_instrumented_ns_per_round,
            e.obs_overhead_ratio,
            e.route_dense_ns_per_lookup,
            e.route_btree_ns_per_lookup,
            e.route_speedup,
            e.channel_ns_per_cycle,
            e.outbox_ns_per_flush,
            e.shuffle_ns_per_round,
            e.stats_ns_per_round,
        );
    }
    let stable_round: Vec<StableRoundEntry> = stable_sizes
        .iter()
        .map(|&n| measure_stable_round(n, quick))
        .collect();
    for e in &stable_round {
        println!(
            "stepengine stable_round n={}: quiescent {:.0} ns/round vs full-scan {:.0} ns/round \
             ({:.1}x) after {} drain rounds",
            e.n, e.stable_round_ns, e.full_scan_round_ns, e.active_speedup, e.drain_rounds,
        );
    }
    guard_instrumented_overhead(&entries);
    guard_quiescent_scaling(&stable_round);
    let record = StepengineRecord {
        quick,
        entries,
        stable_round,
    };
    let path = out_path();
    guard_against_previous(&record, &path);
    let json = serde_json::to_string(&record).expect("serialize bench record");
    std::fs::write(&path, json).expect("write BENCH_stepengine.json");
    println!("stepengine record -> {}", path.display());
}

/// The same phases as criterion benchmarks, so regressions show up in
/// the regular bench report with statistics.
fn bench_phases(c: &mut Criterion) {
    let quick = quick_mode();
    let n = if quick { 256 } else { 2048 };
    let mut group = c.benchmark_group("stepengine");
    group.sample_size(if quick { 5 } else { 20 });

    let ids = evenly_spaced_ids(n);
    let mut index = SlotIndex::new();
    let mut map: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (slot, &id) in ids.iter().enumerate() {
        index.insert(id, slot);
        map.insert(id, slot);
    }
    let probes = probe_sequence(&ids, 4096, 42);
    let mut cursor = 0usize;
    group.bench_with_input(BenchmarkId::new("route_dense", n), &n, |b, _| {
        b.iter(|| {
            let id = probes[cursor % probes.len()];
            cursor += 1;
            black_box(index.get(id))
        });
    });
    cursor = 0;
    group.bench_with_input(BenchmarkId::new("route_btree", n), &n, |b, _| {
        b.iter(|| {
            let id = probes[cursor % probes.len()];
            cursor += 1;
            black_box(map.get(&id).copied())
        });
    });

    let mut ch = Channel::new();
    let mut out: Vec<Message> = Vec::new();
    let mut rng = StdRng::seed_from_u64(9);
    let mut now = 0u64;
    group.bench_with_input(BenchmarkId::new("channel_cycle", n), &n, |b, _| {
        b.iter(|| {
            for k in 0..4u64 {
                ch.push(
                    Message::Lin(NodeId::from_fraction((k + 1) as f64 / 8.0)),
                    now,
                    CauseTag::ROOT,
                );
            }
            now += 1;
            ch.take_deliverable_into(now, DeliveryPolicy::Immediate, &mut rng, false, &mut out);
            black_box(out.len())
        });
    });

    let sorted: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut shuffle_rng = StdRng::seed_from_u64(11);
    group.bench_with_input(BenchmarkId::new("shuffle", n), &n, |b, _| {
        b.iter(|| {
            order.clear();
            order.extend_from_slice(&sorted);
            order.shuffle(&mut shuffle_rng);
            black_box(order.last().copied())
        });
    });

    // The instrumented-vs-noop whole-step pair, as statistics-backed
    // criterion benchmarks mirroring the JSON record's pair.
    let step_n = if quick { 128 } else { 1024 };
    let ids = evenly_spaced_ids(step_n);
    let mut noop_net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 7);
    noop_net.run(20);
    group.bench_with_input(
        BenchmarkId::new("stable_step_noop", step_n),
        &step_n,
        |b, _| {
            b.iter(|| {
                noop_net.step();
                black_box(noop_net.round())
            });
        },
    );
    let mut obs_net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 7);
    obs_net.run(20);
    obs_net.attach_sink(
        Box::new(JsonlSink::new(Box::new(std::io::sink()))),
        OBS_SAMPLE_EVERY,
    );
    group.bench_with_input(
        BenchmarkId::new("stable_step_obs", step_n),
        &step_n,
        |b, _| {
            b.iter(|| {
                obs_net.step();
                black_box(obs_net.round())
            });
        },
    );
    obs_net.detach_sink();
    // The quiescent round under the active-set scheduler — the number
    // the 4x scaling guard pins, with criterion statistics behind it.
    let mut q_net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 7);
    q_net.set_schedule_mode(ScheduleMode::ActiveSet);
    drain_to_quiescence(&mut q_net, 4 * step_n as u64 + 1000).expect("ring must drain");
    drop(q_net.take_trace());
    group.bench_with_input(
        BenchmarkId::new("quiescent_step", step_n),
        &step_n,
        |b, _| {
            b.iter(|| {
                q_net.step();
                black_box(q_net.round())
            });
        },
    );
    group.finish();
}

criterion_group!(benches, emit_stepengine_record, bench_phases);
criterion_main!(benches);
