//! A genuinely concurrent execution of the protocol: one OS thread and
//! one unbounded `std::sync::mpsc` channel per node, fixed membership, no
//! scheduler and no rounds, so stabilization rests on the handlers alone.
//!
//! A node's state sits behind its own `Mutex`, held by its thread for one
//! atomic action (handler plus routing of what it sent) and by the
//! observer to clone a snapshot; no thread ever holds two, so there is no
//! lock order, and sends never block. Every atomic is `Relaxed`: counters
//! are statistics, the stop flag publishes nothing, `join` orders the end.

use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use swn_core::{id::NodeId, message::Message, node::Node, outbox::Outbox, views::Snapshot};

/// Pause per iteration, so periodic traffic cannot saturate the channels.
const ITERATION_PAUSE: Duration = Duration::from_micros(200);
/// Receive actions per iteration, so a burst cannot starve the regular one.
const MAX_DRAIN_PER_ITERATION: usize = 256;

#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    peers: BTreeMap<NodeId, (mpsc::Sender<Message>, Mutex<Node>)>,
    messages_sent: AtomicU64,
    messages_dropped: AtomicU64,
}

fn lock(state: &Mutex<Node>) -> MutexGuard<'_, Node> {
    state.lock().expect("a node thread panicked mid-action")
}

/// A running network of node threads.
pub struct Runtime {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Spawns one thread per node; the `i`-th node given draws from RNG
    /// stream `seed + i`. Ids must be unique and every protocol config
    /// valid — checked here, not inside a node thread.
    pub fn spawn(nodes: Vec<Node>, seed: u64) -> Self {
        let mut shared = Shared::default();
        let mut receivers = Vec::with_capacity(nodes.len());
        for n in nodes {
            n.config().validate().expect("invalid protocol config");
            let (id, (tx, rx)) = (n.id(), mpsc::channel());
            let prev = shared.peers.insert(id, (tx, Mutex::new(n)));
            assert!(prev.is_none(), "duplicate node id {id:?}");
            receivers.push((id, rx));
        }
        let shared = Arc::new(shared);
        let spawn_node = |(i, (id, rx))| {
            let shared = shared.clone();
            std::thread::spawn(move || node_loop(&shared, id, rx, seed.wrapping_add(i)))
        };
        let handles = (0..).zip(receivers).map(spawn_node).collect();
        Runtime { shared, handles }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.shared.peers.len()
    }

    /// True when the runtime has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones the current node states, sorted by id. Channels are not
    /// observable; the phase predicates' CP/LCP/RCP views do not need them.
    pub fn snapshot(&self) -> Snapshot {
        let states = self.shared.peers.values();
        Snapshot::from_nodes(states.map(|(_, s)| lock(s).clone()).collect())
    }

    /// Messages handed to a recipient's channel so far.
    pub fn messages_sent(&self) -> u64 {
        self.shared.messages_sent.load(Relaxed)
    }

    /// Sends that found no recipient, whether then bounced or dropped.
    pub fn messages_dropped(&self) -> u64 {
        self.shared.messages_dropped.load(Relaxed)
    }

    /// Polls `pred` every `poll` until it holds; false once `timeout` passes.
    pub fn wait_until<F>(&self, timeout: Duration, poll: Duration, mut pred: F) -> bool
    where
        F: FnMut(&Snapshot) -> bool,
    {
        let deadline = Instant::now() + timeout;
        while !pred(&self.snapshot()) {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(poll);
        }
        true
    }

    /// Stops and joins every node thread; the final states, sorted by id.
    pub fn shutdown(mut self) -> Vec<Node> {
        self.shared.stop.store(true, Relaxed);
        let handles = self.handles.drain(..);
        handles.for_each(|h| h.join().expect("node thread panicked"));
        self.snapshot().nodes().to_vec()
    }
}

fn node_loop(shared: &Shared, id: NodeId, rx: mpsc::Receiver<Message>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Outbox::new();
    let state = &shared.peers[&id].1;
    while !shared.stop.load(Relaxed) {
        std::thread::sleep(ITERATION_PAUSE);
        for m in rx.try_iter().take(MAX_DRAIN_PER_ITERATION) {
            let mut node = lock(state);
            node.on_message(m, &mut rng, &mut out);
            dispatch(shared, &mut node, &mut out);
        }
        let mut node = lock(state);
        node.on_regular(&mut out);
        dispatch(shared, &mut node, &mut out);
    }
}

/// Routes what `node`'s action sent; a send to an id outside the membership
/// takes the failure-detector rule (`Node::undeliverable`, DESIGN.md §2
/// deviation #7) as in the simulator, or ghost pointers would dangle forever.
fn dispatch(shared: &Shared, node: &mut Node, out: &mut Outbox) {
    for &(dest, msg) in out.sends() {
        // `send` fails only during shutdown, when losing mail is harmless.
        if let Some((tx, _)) = shared.peers.get(&dest) {
            shared.messages_sent.fetch_add(1, Relaxed);
            let _ = tx.send(msg);
        } else {
            shared.messages_dropped.fetch_add(1, Relaxed);
            if let Some(back) = node.undeliverable(dest, msg, |x| shared.peers.contains_key(&x)) {
                let _ = shared.peers[&node.id()].0.send(back);
            }
        }
    }
    out.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_core::config::ProtocolConfig;
    use swn_core::id::{evenly_spaced_ids, Extended};
    use swn_core::invariants::{is_sorted_list_view, is_sorted_ring_view, make_sorted_ring};
    use swn_sim::init::{generate, InitialTopology};

    #[test]
    fn stable_ring_stays_stable_under_real_concurrency() {
        let ids = evenly_spaced_ids(8);
        let nodes = make_sorted_ring(&ids, ProtocolConfig::default());
        let rt = Runtime::spawn(nodes, 0);
        std::thread::sleep(Duration::from_millis(200));
        assert!(is_sorted_ring_view(&rt.snapshot().as_view()));
        let finals = rt.shutdown();
        assert!(is_sorted_ring_view(&Snapshot::from_nodes(finals).as_view()));
    }

    #[test]
    fn interleaved_chain_linearizes_concurrently() {
        let ids = evenly_spaced_ids(16);
        let init = generate(
            InitialTopology::RandomChain,
            &ids,
            ProtocolConfig::default(),
            0,
        );
        let rt = Runtime::spawn(init.nodes, 0);
        let ok = rt.wait_until(Duration::from_secs(30), Duration::from_millis(20), |s| {
            is_sorted_ring_view(&s.as_view())
        });
        let sent = rt.messages_sent();
        let finals = rt.shutdown();
        assert!(ok, "threaded run failed to stabilize (sent {sent} msgs)");
        assert!(is_sorted_list_view(&Snapshot::from_nodes(finals).as_view()));
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
        let rt = Runtime::spawn(nodes, 0);
        let noticed = rt.wait_until(Duration::from_secs(30), Duration::from_millis(5), |_| {
            rt.messages_dropped() > 0
        });
        assert!(noticed, "the send to the ghost lrl was never counted");
        rt.shutdown();
    }

    /// The failure-detector rule on this transport, without threads: a
    /// send to an id outside the membership clears the sender's pointer;
    /// a `lin` naming a live node comes back on the sender's own channel,
    /// any other payload is dropped.
    #[test]
    fn dispatch_bounces_a_live_lin_off_a_ghost_and_drops_the_rest() {
        let [a, x, ghost] = [0.2, 0.5, 0.9].map(NodeId::from_fraction);
        let (a_tx, a_rx) = mpsc::channel();
        let (x_tx, x_rx) = mpsc::channel();
        let cfg = ProtocolConfig::default();
        let peer = |id, tx| (id, (tx, Mutex::new(Node::new(id, cfg))));
        let shared = Shared {
            peers: BTreeMap::from([peer(a, a_tx), peer(x, x_tx)]),
            ..Shared::default()
        };
        let pointing_at_ghost =
            || Node::with_state(a, Extended::NegInf, Extended::Fin(ghost), a, None, cfg);
        let mut out = Outbox::new();

        let mut node = pointing_at_ghost();
        out.send(ghost, Message::Lin(x));
        dispatch(&shared, &mut node, &mut out);
        assert_eq!(node.right(), Extended::PosInf);
        assert_eq!(a_rx.try_recv(), Ok(Message::Lin(x)));
        assert!(out.is_empty());

        let mut node = pointing_at_ghost();
        out.send(ghost, Message::Ring(x));
        dispatch(&shared, &mut node, &mut out);
        assert_eq!(node.right(), Extended::PosInf);
        assert!(a_rx.try_recv().is_err() && x_rx.try_recv().is_err());

        assert_eq!(shared.messages_dropped.load(Relaxed), 2);
        assert_eq!(shared.messages_sent.load(Relaxed), 0);
    }

    #[test]
    fn shutdown_joins_all_threads_and_sorts_by_id() {
        let ids = evenly_spaced_ids(6);
        let mut nodes = make_sorted_ring(&ids, ProtocolConfig::default());
        nodes.reverse();
        let rt = Runtime::spawn(nodes, 0);
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
        let _ = Runtime::spawn(vec![Node::new(id, cfg), Node::new(id, cfg)], 0);
    }
}
