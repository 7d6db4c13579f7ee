//! Snapshot persistence: save and restore global states as JSON.
//!
//! Long experiments become checkpointable and failures replayable.
//! There is one writer and one document, the versioned [`Checkpoint`]
//! layout (**v2**): the round counter, the [`Snapshot`] (node states
//! plus channel contents), and — when a fault plan is attached — the
//! complete [`InjectorState`]: plan, RNG cursor, down map, drop log and
//! captured durable-crash states. The injector's agenda position is not
//! stored — it is a function of the plan and of `round`, rebuilt on the
//! first round after the restore. A bare snapshot is the `round: 0`,
//! `injector: null` case of it ([`snapshot_to_json`]). No other layout
//! is read: a document declaring any other version — the retired v1
//! bare-snapshot layout included — is refused by name.
//!
//! A restore is a *deterministic continuation*, not a replay of the
//! uninterrupted run: two networks restored from one document with one
//! seed compute bit-identical futures, fault fates included (plan
//! windows stay aligned because the round counter is restored, and the
//! injector's RNG continues from its persisted cursor). They need not
//! match what the checkpointed process itself would have computed next,
//! because the scheduler RNG cursor, message enqueue rounds, the
//! schedule mode and the settled flags are not captured — ROADMAP 7(b)
//! tracks that stronger property.
//!
//! All readers reject malformed input with a named [`PersistError`]
//! instead of panicking.

// Runs while faults are live, where a panic is indistinguishable from
// the protocol bug being hunted: errors are `Result`s or named outcomes.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use swn_core::message::Message;
use swn_core::node::Node;
use swn_core::views::Snapshot;

use crate::faults::{FaultInjector, InjectorState};
use crate::network::Network;

/// Current document version (bumped on breaking layout changes).
pub const FORMAT_VERSION: u32 = 2;

/// A failure to parse or validate a persisted document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// The input is not parseable JSON or does not match the document
    /// layout (truncated input lands here).
    Json(String),
    /// The document declares a version this reader does not support.
    UnsupportedVersion(u32),
    /// The document parsed but violates a structural invariant
    /// (mismatched node/channel counts, duplicate ids, an invalid node
    /// config or fault plan).
    Malformed(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Json(e) => write!(f, "unparseable snapshot document: {e}"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {FORMAT_VERSION})"
                )
            }
            PersistError::Malformed(e) => write!(f, "malformed snapshot document: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// A restorable network state: the round counter, the global state
/// (node variables and channel contents) and — for faulted runs — the
/// injector's complete state.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The round counter at capture time.
    pub round: u64,
    /// Node states and channel contents.
    pub snapshot: Snapshot,
    /// The fault injector's state, when a plan was attached.
    pub injector: Option<InjectorState>,
}

/// The one field read before committing to the layout, so a foreign
/// version is refused by name instead of as a parse error.
#[derive(Deserialize)]
struct Versioned {
    version: u32,
}

/// The document layout: a checkpoint.
#[derive(Serialize, Deserialize)]
struct DocV2 {
    version: u32,
    round: u64,
    nodes: Vec<Node>,
    channels: Vec<Vec<Message>>,
    injector: Option<InjectorState>,
}

/// Serializes a bare snapshot: the round-0, no-injector checkpoint
/// document.
pub fn snapshot_to_json(s: &Snapshot) -> String {
    checkpoint_to_json(&bare(s))
}

/// A snapshot as the checkpoint it is: round 0, no injector.
fn bare(s: &Snapshot) -> Checkpoint {
    Checkpoint {
        round: 0,
        snapshot: s.clone(),
        injector: None,
    }
}

/// Deserializes a bare snapshot from JSON (a checkpoint document loses
/// its round counter and injector — use [`checkpoint_from_json`] to keep
/// them).
pub fn snapshot_from_json(json: &str) -> Result<Snapshot, PersistError> {
    checkpoint_from_json(json).map(|cp| cp.snapshot)
}

/// Captures a restorable checkpoint of `net`: round counter, global
/// state, and the injector state when a fault plan is attached.
pub fn checkpoint(net: &Network) -> Checkpoint {
    Checkpoint {
        round: net.round(),
        snapshot: net.snapshot(),
        injector: net.fault_injector().map(FaultInjector::state),
    }
}

/// Serializes a checkpoint to a v2 JSON document.
#[expect(
    clippy::expect_used,
    reason = "rendering an in-memory Value tree to text cannot fail: no I/O, no non-string map key"
)]
pub fn checkpoint_to_json(cp: &Checkpoint) -> String {
    let doc = DocV2 {
        version: FORMAT_VERSION,
        round: cp.round,
        nodes: cp.snapshot.nodes().to_vec(),
        channels: cp.snapshot.channels().to_vec(),
        injector: cp.injector.clone(),
    };
    serde_json::to_string(&doc).expect("checkpoint serialization cannot fail")
}

/// Deserializes a checkpoint from JSON. Truncated or garbage input
/// yields [`PersistError::Json`], a declared version other than
/// [`FORMAT_VERSION`] yields [`PersistError::UnsupportedVersion`], and
/// structurally inconsistent documents — a node whose protocol config
/// [`Network::new`] would refuse included — yield
/// [`PersistError::Malformed`]; never a panic.
pub fn checkpoint_from_json(json: &str) -> Result<Checkpoint, PersistError> {
    let value: Value = serde_json::from_str(json).map_err(|e| PersistError::Json(e.to_string()))?;
    let Versioned { version } =
        Versioned::from_value(&value).map_err(|e| PersistError::Json(e.to_string()))?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let doc = DocV2::from_value(&value).map_err(|e| PersistError::Json(e.to_string()))?;
    if doc.nodes.len() != doc.channels.len() {
        return Err(PersistError::Malformed(
            "node/channel count mismatch".to_string(),
        ));
    }
    let mut ids: Vec<_> = doc.nodes.iter().map(Node::id).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(PersistError::Malformed(
            "duplicate node ids in snapshot".to_string(),
        ));
    }
    for node in &doc.nodes {
        node.config().validate().map_err(|e| {
            PersistError::Malformed(format!("invalid config at node {}: {e}", node.id()))
        })?;
    }
    if let Some(state) = &doc.injector {
        state
            .plan
            .validate()
            .map_err(|e| PersistError::Malformed(format!("invalid fault plan: {e}")))?;
    }
    Ok(Checkpoint {
        round: doc.round,
        snapshot: Snapshot::new(doc.nodes, doc.channels),
        injector: doc.injector,
    })
}

/// Rebuilds a runnable network from a bare snapshot: the round-0,
/// no-injector case of [`network_from_checkpoint`].
#[expect(
    clippy::expect_used,
    reason = "only a captured injector can make a restore fail"
)]
pub fn network_from_snapshot(s: &Snapshot, seed: u64) -> Network {
    network_from_checkpoint(&bare(s), seed).expect("no injector to reject")
}

/// Rebuilds a runnable network from a checkpoint: node states are
/// adopted verbatim and persisted channel contents are preloaded, so
/// the restored computation continues from the same CC state. Scheduler
/// randomness is freshly seeded from `seed` — the scheduler's RNG cursor
/// is not captured, which is why a restore is a deterministic
/// continuation rather than a replay (module docs; ROADMAP 7(b) tracks
/// bit-for-bit resume). The round counter is restored first, because the
/// injector — when one was captured — is rebuilt at its persisted RNG
/// cursor and seeks its agenda to the round it is next asked to apply:
/// steps before it stay history, windows open across it stay in force.
pub fn network_from_checkpoint(cp: &Checkpoint, seed: u64) -> Result<Network, PersistError> {
    let mut net = Network::new(cp.snapshot.nodes().to_vec(), seed);
    net.set_round(cp.round);
    let nodes = cp.snapshot.nodes().iter();
    let mail = nodes.zip(cp.snapshot.channels());
    net.preload_all(mail.flat_map(|(n, msgs)| msgs.iter().map(|&m| (n.id(), m))));
    if let Some(state) = &cp.injector {
        let inj = FaultInjector::from_state(state.clone())
            .map_err(|e| PersistError::Malformed(format!("invalid fault plan: {e}")))?;
        net.attach_injector(inj);
    }
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::run_to_ring;
    use crate::faults::FaultPlan;
    use crate::init::{generate, InitialTopology};
    use swn_core::config::ProtocolConfig;
    use swn_core::id::evenly_spaced_ids;
    use swn_core::invariants::{classify_view, Phase};

    fn sample_network() -> Network {
        let ids = evenly_spaced_ids(12);
        let mut net = generate(
            InitialTopology::RandomSparse { extra: 2 },
            &ids,
            ProtocolConfig::default(),
            5,
        )
        .into_network(5);
        net.run(3); // some in-flight messages
        net
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let net = sample_network();
        let s = net.snapshot();
        let json = snapshot_to_json(&s);
        let back = snapshot_from_json(&json).expect("round trip");
        assert_eq!(back.nodes(), s.nodes());
        assert_eq!(back.channels(), s.channels());
        let cp = checkpoint_from_json(&json).expect("a snapshot is a checkpoint");
        assert!(cp.round == 0 && cp.injector.is_none());
    }

    #[test]
    fn restored_network_continues_to_stabilize() {
        let net = sample_network();
        let json = snapshot_to_json(&net.snapshot());
        let restored = snapshot_from_json(&json).expect("parse");
        let mut net2 = network_from_snapshot(&restored, 99);
        let rep = run_to_ring(&mut net2, 100_000);
        assert!(rep.stabilized(), "restored computation must stabilize");
        assert_eq!(classify_view(&net2.view()), Phase::SortedRing);
    }

    /// A document in the retired v1 layout, exactly as the pre-PR-14
    /// writer produced it: a two-node sorted ring, one message in flight
    /// each way, and no `round` or `injector` field.
    const V1_DOC: &str = r#"{"version":1,"nodes":[{"id":0,"l":"NegInf","r":{"Fin":9223372036854775807},"lrl":0,"ring":9223372036854775807,"age":1,"tick":1,"cfg":{"epsilon":0.1,"lrl_shortcut":true,"probe_period":1}},{"id":9223372036854775807,"l":{"Fin":0},"r":"PosInf","lrl":9223372036854775807,"ring":0,"age":1,"tick":1,"cfg":{"epsilon":0.1,"lrl_shortcut":true,"probe_period":1}}],"channels":[[{"Lin":9223372036854775807}],[{"ProbR":9223372036854775807}]]}"#;

    #[test]
    fn version_1_is_rejected_by_name() {
        assert_eq!(
            checkpoint_from_json(V1_DOC).unwrap_err(),
            PersistError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn invalid_node_configs_rejected_as_malformed() {
        // A config `Network::new` would panic on must be refused by the
        // reader, not discovered by the restore.
        let json = snapshot_to_json(&sample_network().snapshot());
        for (good, bad) in [
            ("\"probe_period\":1", "\"probe_period\":0"),
            ("\"epsilon\":0.1", "\"epsilon\":0.0"),
        ] {
            assert!(json.contains(good), "fixture drifted: no {good}");
            let err = checkpoint_from_json(&json.replacen(good, bad, 1)).unwrap_err();
            assert!(
                matches!(&err, PersistError::Malformed(e) if e.contains("invalid config")),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn checkpoint_round_trips_with_injector() {
        let mut net = sample_network();
        let ids = net.ids();
        net.attach_faults(
            FaultPlan::new(17)
                .with_drop(net.round() + 1, net.round() + 6, 0.4)
                .with_crash(net.round() + 2, ids[3], 3),
        );
        net.run(4); // consume injector RNG, crash a node
        let cp = checkpoint(&net);
        assert!(cp.injector.is_some());
        let json = checkpoint_to_json(&cp);
        let back = checkpoint_from_json(&json).expect("round trip");
        assert_eq!(back.round, cp.round);
        assert_eq!(back.snapshot.nodes(), cp.snapshot.nodes());
        assert_eq!(back.snapshot.channels(), cp.snapshot.channels());
        assert_eq!(back.injector, cp.injector);
        // A plan that still schedules a behaviour is refused, by name.
        let behavior = r#"{"start":1,"end":3,"node":5,"kind":{"LyingState":{"mode":"Scramble"}}}"#;
        let named = json.replacen(
            r#""perturbations":[]"#,
            &format!(r#""perturbations":[],"behaviors":[{behavior}]"#),
            1,
        );
        assert_ne!(named, json);
        let err = checkpoint_from_json(&named).unwrap_err();
        assert!(
            matches!(&err, PersistError::Json(e) if e.contains("behaviors")),
            "{err:?}"
        );
    }

    #[test]
    fn restored_checkpoint_resumes_deterministically_and_recovers() {
        // Checkpoint mid-fault-window, restore *twice* from the same
        // JSON with the same seed: the two resumed runs must be
        // bit-identical (restore is deterministic — the injector comes
        // back at its persisted RNG cursor and the round counter keeps
        // the plan windows aligned), and the resumed computation must
        // still stabilize once the windows close.
        let mut net = sample_network();
        let ids = net.ids();
        net.attach_faults(
            FaultPlan::new(23)
                .with_drop(5, 20, 0.3)
                .with_duplicate(6, 18, 0.2)
                .with_crash(7, ids[5], 4),
        );
        net.run(6); // park mid-window
        let json = checkpoint_to_json(&checkpoint(&net));
        let cp = checkpoint_from_json(&json).expect("parse");
        let mut a = network_from_checkpoint(&cp, 5).expect("restore");
        let mut b = network_from_checkpoint(&cp, 5).expect("restore");
        assert_eq!(a.round(), net.round());
        a.run(30);
        b.run(30);
        assert_eq!(
            a.snapshot().nodes(),
            b.snapshot().nodes(),
            "two restores from the same checkpoint must replay identically"
        );
        assert_eq!(
            a.fault_injector().expect("attached").drops(),
            b.fault_injector().expect("attached").drops(),
        );
        let rep = run_to_ring(&mut a, 100_000);
        assert!(rep.stabilized(), "resumed faulted run must stabilize");
    }

    #[test]
    fn version_mismatch_rejected() {
        let json = V1_DOC.replace("\"version\":1", "\"version\":999");
        assert_eq!(
            snapshot_from_json(&json).unwrap_err(),
            PersistError::UnsupportedVersion(999)
        );
    }

    #[test]
    fn garbage_rejected_gracefully() {
        assert!(matches!(
            snapshot_from_json("not json").unwrap_err(),
            PersistError::Json(_)
        ));
        assert!(matches!(
            snapshot_from_json("{}").unwrap_err(),
            PersistError::Json(_)
        ));
        assert!(matches!(
            snapshot_from_json("[1,2,3]").unwrap_err(),
            PersistError::Json(_)
        ));
    }

    #[test]
    fn truncated_checkpoint_rejected_with_named_error() {
        let mut net = sample_network();
        net.attach_faults(FaultPlan::new(3).with_drop(4, 9, 0.5));
        net.run(6);
        let json = checkpoint_to_json(&checkpoint(&net));
        for cut in [1, json.len() / 4, json.len() / 2, json.len() - 1] {
            let truncated = &json[..cut];
            assert!(
                matches!(checkpoint_from_json(truncated), Err(PersistError::Json(_))),
                "truncation at {cut} must be a named parse error"
            );
        }
    }

    #[test]
    fn inconsistent_documents_rejected_as_malformed() {
        // Channel list shorter than the node list.
        let net = sample_network();
        let s = net.snapshot();
        let doc = DocV2 {
            version: FORMAT_VERSION,
            round: 0,
            nodes: s.nodes().to_vec(),
            channels: vec![Vec::new(); s.nodes().len() - 1],
            injector: None,
        };
        let json = serde_json::to_string(&doc).expect("serialize");
        assert!(matches!(
            checkpoint_from_json(&json).unwrap_err(),
            PersistError::Malformed(_)
        ));
    }

    #[test]
    fn stable_state_persists_its_stability() {
        let ids = evenly_spaced_ids(8);
        let nodes = swn_core::invariants::make_sorted_ring(&ids, ProtocolConfig::default());
        let s = swn_core::views::Snapshot::from_nodes(nodes);
        let back = snapshot_from_json(&snapshot_to_json(&s)).expect("round trip");
        assert_eq!(classify_view(&back.as_view()), Phase::SortedRing);
    }
}
