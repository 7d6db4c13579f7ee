//! # swn-runtime — a genuinely concurrent execution of the protocol
//!
//! The simulator (`swn-sim`) interleaves actions sequentially under a
//! seeded scheduler; this crate runs each node on a real thread with a
//! crossbeam channel as its message channel, so the protocol faces true
//! asynchrony: arbitrary interleavings, racing messages, and no global
//! round structure at all. Self-stabilization claims survive only if the
//! handlers themselves are correct — there is no scheduler to hide behind.
//!
//! Used by the `runtime_live` example and the concurrency integration
//! tests. Membership is fixed for the lifetime of a [`Runtime`] (churn is
//! exercised in the simulator, where recovery can be measured in rounds).
//!
//! ## Concurrency structure
//!
//! * each node's state lives in an `Arc<Mutex<Node>>` (parking_lot);
//!   node threads lock it only for the duration of one action, and the
//!   observer locks it only to clone a snapshot — lock ordering is
//!   irrelevant because no thread ever holds two node locks at once;
//! * messages travel over unbounded crossbeam channels, one per node,
//!   through a shared routing table (`NodeId → Sender`); sends never
//!   block;
//! * shutdown is a single `AtomicBool` flag checked once per loop
//!   iteration (`Ordering::Relaxed` suffices: no data is published
//!   through the flag itself, and the subsequent `join` provides the
//!   happens-before edge for the final states).

#![forbid(unsafe_code)]
// Libraries return strings or take writers; only binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use swn_core::id::NodeId;
use swn_core::message::Message;
use swn_core::node::Node;
use swn_core::outbox::Outbox;
use swn_core::views::Snapshot;

/// Knobs for the threaded runtime.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Pause between a node's action iterations. A small pause keeps the
    /// probing/advertisement traffic from saturating the channels while
    /// still exercising real concurrency.
    pub iteration_pause: Duration,
    /// Messages drained per iteration before running the regular action
    /// (bounds per-iteration latency under bursty traffic).
    pub max_drain_per_iteration: usize,
    /// Base RNG seed; node `i` derives its own stream from `seed + i`.
    pub seed: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            iteration_pause: Duration::from_micros(200),
            max_drain_per_iteration: 256,
            seed: 0,
        }
    }
}

struct Shared {
    stop: AtomicBool,
    routes: HashMap<NodeId, Sender<Message>>,
    messages_sent: AtomicU64,
    messages_dropped: AtomicU64,
}

/// A running network of node threads.
pub struct Runtime {
    shared: Arc<Shared>,
    states: Vec<(NodeId, Arc<Mutex<Node>>)>,
    handles: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Spawns one thread per node. Ids must be unique and every node's
    /// protocol config valid (validated here so misconfiguration fails
    /// fast instead of panicking inside a detached node thread).
    pub fn spawn(nodes: Vec<Node>, cfg: RuntimeConfig) -> Self {
        let mut routes = HashMap::with_capacity(nodes.len());
        let mut receivers: Vec<Receiver<Message>> = Vec::with_capacity(nodes.len());
        for n in &nodes {
            n.config().validate().expect("invalid protocol config");
            let (tx, rx) = unbounded();
            let prev = routes.insert(n.id(), tx);
            assert!(prev.is_none(), "duplicate node id {:?}", n.id());
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            routes,
            messages_sent: AtomicU64::new(0),
            messages_dropped: AtomicU64::new(0),
        });
        let mut states = Vec::with_capacity(nodes.len());
        let mut handles = Vec::with_capacity(nodes.len());
        for (i, (node, rx)) in nodes.into_iter().zip(receivers).enumerate() {
            let id = node.id();
            let state = Arc::new(Mutex::new(node));
            states.push((id, state.clone()));
            let shared = shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("swn-node-{i}"))
                .spawn(move || node_loop(state, rx, shared, cfg, i as u64))
                .expect("spawn node thread");
            handles.push(handle);
        }
        states.sort_by_key(|(id, _)| *id);
        Runtime {
            shared,
            states,
            handles,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the runtime has no nodes.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Clones the current node states (channel contents are not
    /// observable; the returned snapshot has empty channels, which is
    /// exactly the CP/LCP/RCP view the phase predicates need).
    pub fn snapshot(&self) -> Snapshot {
        let nodes: Vec<Node> = self.states.iter().map(|(_, s)| s.lock().clone()).collect();
        Snapshot::from_nodes(nodes)
    }

    /// Total messages routed so far.
    pub fn messages_sent(&self) -> u64 {
        self.shared.messages_sent.load(Ordering::Relaxed)
    }

    /// Messages whose destination id was unknown (stale/corrupt initial
    /// pointers to ids outside the membership).
    pub fn messages_dropped(&self) -> u64 {
        self.shared.messages_dropped.load(Ordering::Relaxed)
    }

    /// Polls `pred` on snapshots every `poll` until it holds or `timeout`
    /// passes. Returns true on success.
    pub fn wait_until<F>(&self, timeout: Duration, poll: Duration, mut pred: F) -> bool
    where
        F: FnMut(&Snapshot) -> bool,
    {
        let deadline = Instant::now() + timeout;
        loop {
            if pred(&self.snapshot()) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(poll);
        }
    }

    /// Signals all node threads to stop, joins them, and returns the
    /// final states (sorted by id).
    pub fn shutdown(self) -> Vec<Node> {
        self.shared.stop.store(true, Ordering::Relaxed);
        for h in self.handles {
            h.join().expect("node thread panicked");
        }
        self.states
            .into_iter()
            .map(|(_, s)| s.lock().clone())
            .collect()
    }
}

fn node_loop(
    state: Arc<Mutex<Node>>,
    rx: Receiver<Message>,
    shared: Arc<Shared>,
    cfg: RuntimeConfig,
    index: u64,
) {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(index));
    let mut out = Outbox::new();
    while !shared.stop.load(Ordering::Relaxed) {
        // Receive actions.
        for _ in 0..cfg.max_drain_per_iteration {
            match rx.try_recv() {
                Ok(m) => {
                    state.lock().on_message(m, &mut rng, &mut out);
                    dispatch(&shared, &state, &mut out);
                }
                Err(_) => break,
            }
        }
        // Regular action.
        state.lock().on_regular(&mut out);
        dispatch(&shared, &state, &mut out);
        std::thread::sleep(cfg.iteration_pause);
    }
}

fn dispatch(shared: &Shared, sender: &Mutex<Node>, out: &mut Outbox) {
    out.drain_events().for_each(drop);
    for (dest, msg) in out.drain_sends() {
        match shared.routes.get(&dest) {
            Some(tx) => {
                shared.messages_sent.fetch_add(1, Ordering::Relaxed);
                // Receiver outlives senders except during shutdown, when
                // losing a message is irrelevant.
                let _ = tx.send(msg);
            }
            None => {
                // Bounce: same departure-detection model as the simulator
                // (DESIGN.md deviation #7) — without it a ghost pointer
                // (e.g. adopted via a probe repair toward a nonexistent
                // lrl) would dangle forever and could permanently break
                // the ring on this transport.
                shared.messages_dropped.fetch_add(1, Ordering::Relaxed);
                sender.lock().clear_dangling(dest);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_core::config::ProtocolConfig;
    use swn_core::id::{evenly_spaced_ids, Extended};
    use swn_core::invariants::{is_sorted_list, is_sorted_ring, make_sorted_ring};

    /// A directed chain over an interleaved (non-sorted) order: node u
    /// points at its chain successor via whichever slot is legal.
    fn chain_nodes(n: usize) -> Vec<Node> {
        let ids = evenly_spaced_ids(n);
        let cfg = ProtocolConfig::default();
        let mut order = Vec::with_capacity(n);
        for i in 0..n / 2 {
            order.push(ids[i]);
            order.push(ids[i + n / 2]);
        }
        if n % 2 == 1 {
            order.push(ids[n - 1]);
        }
        let mut nodes: Vec<Node> = order.iter().map(|&id| Node::new(id, cfg)).collect();
        for w in order.windows(2) {
            let (u, v) = (w[0], w[1]);
            let node = nodes.iter_mut().find(|n| n.id() == u).expect("present");
            let (l, r) = if v < u {
                (Extended::Fin(v), node.right())
            } else {
                (node.left(), Extended::Fin(v))
            };
            *node = Node::with_state(u, l, r, node.lrl(), None, cfg);
        }
        nodes
    }

    #[test]
    fn stable_ring_stays_stable_under_real_concurrency() {
        let ids = evenly_spaced_ids(8);
        let nodes = make_sorted_ring(&ids, ProtocolConfig::default());
        let rt = Runtime::spawn(nodes, RuntimeConfig::default());
        std::thread::sleep(Duration::from_millis(200));
        assert!(is_sorted_ring(&rt.snapshot()));
        let finals = rt.shutdown();
        assert!(is_sorted_ring(&Snapshot::from_nodes(finals)));
    }

    #[test]
    fn interleaved_chain_linearizes_concurrently() {
        let nodes = chain_nodes(16);
        let rt = Runtime::spawn(nodes, RuntimeConfig::default());
        let ok = rt.wait_until(
            Duration::from_secs(30),
            Duration::from_millis(20),
            is_sorted_ring,
        );
        let sent = rt.messages_sent();
        let finals = rt.shutdown();
        assert!(ok, "threaded run failed to stabilize (sent {sent} msgs)");
        assert!(is_sorted_list(&Snapshot::from_nodes(finals)));
        assert!(sent > 0);
    }

    #[test]
    fn pointers_to_unknown_ids_are_dropped_not_fatal() {
        let ids = evenly_spaced_ids(4);
        let cfg = ProtocolConfig::default();
        let mut nodes = make_sorted_ring(&ids, cfg);
        // One node's lrl points outside the membership.
        nodes[1] = Node::with_state(
            ids[1],
            nodes[1].left(),
            nodes[1].right(),
            NodeId::from_fraction(0.999),
            None,
            cfg,
        );
        let rt = Runtime::spawn(nodes, RuntimeConfig::default());
        std::thread::sleep(Duration::from_millis(150));
        assert!(rt.messages_dropped() > 0);
        rt.shutdown();
    }

    #[test]
    fn shutdown_joins_all_threads_and_sorts_by_id() {
        let ids = evenly_spaced_ids(6);
        let nodes = make_sorted_ring(&ids, ProtocolConfig::default());
        let rt = Runtime::spawn(nodes, RuntimeConfig::default());
        assert_eq!(rt.len(), 6);
        let finals = rt.shutdown();
        assert_eq!(finals.len(), 6);
        for w in finals.windows(2) {
            assert!(w[0].id() < w[1].id());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_ids_rejected() {
        let cfg = ProtocolConfig::default();
        let id = NodeId::from_fraction(0.5);
        let _ = Runtime::spawn(
            vec![Node::new(id, cfg), Node::new(id, cfg)],
            RuntimeConfig::default(),
        );
    }
}
