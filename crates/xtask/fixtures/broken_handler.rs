//! Deliberately non-conformant handler code. `cargo xtask lint` must
//! fail on this file (`cargo xtask lint crates/xtask/fixtures`); the
//! `seeded_fixture_fails` test pins each expected finding. Not compiled.

use swn_core::message::{Message, MessageKind};

pub struct Stats {
    // Violation: literal 7 where MessageKind::COUNT is meant.
    pub per_kind: [u64; 7],
}

pub fn dispatch(m: Message, q: &mut Vec<Message>) {
    match m {
        Message::Lin(id) => q.push(Message::Lin(id)),
        // Violation: wildcard arm swallows future message kinds.
        _ => {}
    }
}

pub fn route(table: &std::collections::BTreeMap<u64, usize>, id: u64) -> Option<usize> {
    // Violation: ordered-map lookup on the simulator's hot path.
    table.get(&id).copied()
}
