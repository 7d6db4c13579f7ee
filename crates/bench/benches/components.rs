//! Micro-benches of the hot substrate paths: the protocol handlers, the
//! channel, snapshot/view extraction and the graph algorithms. These are
//! the inner loops every experiment's wall-clock rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use swn_baselines::kleinberg::kleinberg_ring;
use swn_core::config::ProtocolConfig;
use swn_core::forget::phi;
use swn_core::id::{evenly_spaced_ids, NodeId};
use swn_core::invariants::{is_sorted_list, make_sorted_ring, weakly_connected, UnionFind};
use swn_core::message::Message;
use swn_core::outbox::Outbox;
use swn_core::views::{Snapshot, View};
use swn_topology::paths::bfs_distances;
use swn_topology::Graph;

fn bench_handlers(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_handlers");
    group.bench_function("linearize_forward", |b| {
        let cfg = ProtocolConfig::default();
        let ids = evenly_spaced_ids(8);
        let mut node = make_sorted_ring(&ids, cfg).swap_remove(3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Outbox::new();
        let msg = Message::Lin(ids[7]);
        b.iter(|| {
            node.on_message(black_box(msg), &mut rng, &mut out);
            out.clear();
        });
    });
    group.bench_function("regular_action", |b| {
        let cfg = ProtocolConfig::default();
        let ids = evenly_spaced_ids(8);
        let mut node = make_sorted_ring(&ids, cfg).swap_remove(3);
        let mut out = Outbox::new();
        b.iter(|| {
            node.on_regular(&mut out);
            out.clear();
        });
    });
    group.bench_function("phi_eval", |b| {
        let mut a = 3u64;
        b.iter(|| {
            a = a % 100_000 + 3;
            black_box(phi(a, 0.1))
        });
    });
    group.finish();
}

fn bench_views(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_views");
    for n in [256usize, 2048] {
        let ids = evenly_spaced_ids(n);
        let nodes = make_sorted_ring(&ids, ProtocolConfig::default());
        let snap = Snapshot::from_nodes(nodes);
        group.bench_with_input(BenchmarkId::new("edges_cp", n), &snap, |b, s| {
            b.iter(|| black_box(s.edges(View::Cp).len()));
        });
        group.bench_with_input(BenchmarkId::new("is_sorted_list", n), &snap, |b, s| {
            b.iter(|| black_box(is_sorted_list(s)));
        });
        group.bench_with_input(BenchmarkId::new("weakly_connected", n), &snap, |b, s| {
            b.iter(|| black_box(weakly_connected(s, View::Lcc)));
        });
        group.bench_with_input(BenchmarkId::new("graph_from_snapshot", n), &snap, |b, s| {
            b.iter(|| black_box(Graph::from_snapshot(s, View::Cp).m()));
        });
    }
    group.finish();
}

fn bench_graph_algos(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_graphs");
    let g = kleinberg_ring(4096, 5);
    group.bench_function("bfs_4096", |b| {
        let und = g.undirected_view();
        b.iter(|| black_box(bfs_distances(&und, 17)[4000]));
    });
    group.bench_function("union_find_4096", |b| {
        let edges: Vec<(usize, usize)> = g.edges().collect();
        b.iter(|| {
            let mut uf = UnionFind::new(4096);
            for &(u, v) in &edges {
                uf.union(u, v);
            }
            black_box(uf.components())
        });
    });
    group.finish();
}

fn bench_channel(c: &mut Criterion) {
    use swn_sim::channel::{Channel, DeliveryPolicy};
    use swn_sim::obs::causal::CauseTag;
    c.bench_function("substrate_channel/push_drain_1000", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let msg = Message::Lin(NodeId::from_fraction(0.5));
        let mut out: Vec<Message> = Vec::new();
        b.iter(|| {
            let mut ch = Channel::new();
            for _ in 0..1000 {
                ch.push(msg, 0, CauseTag::ROOT);
            }
            ch.take_deliverable_into(1, DeliveryPolicy::Immediate, &mut rng, false, &mut out);
            black_box(out.len())
        });
    });
}

criterion_group!(
    benches,
    bench_handlers,
    bench_views,
    bench_graph_algos,
    bench_channel
);
criterion_main!(benches);
