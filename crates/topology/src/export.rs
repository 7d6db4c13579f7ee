//! Graph export for external visualization (Graphviz DOT).
//!
//! Small-world structure is easiest to *see*: the ring as a circle, the
//! long-range links as chords. `to_dot` renders any [`Graph`] (circular
//! layout hints included for ring-ranked graphs), and
//! `snapshot_to_dot` renders a protocol state with the link roles
//! (list / ring / long-range) distinguished by style.

use crate::graph::Graph;
use std::fmt::Write as _;
use swn_core::views::NetView;

/// Renders a directed graph as Graphviz DOT (`circo`-friendly: nodes are
/// pinned on a circle when `circular` is set, which is the right layout
/// for ring-ranked graphs).
pub fn to_dot(g: &Graph, name: &str, circular: bool) -> String {
    let n = g.n();
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  node [shape=circle, fontsize=8, width=0.25];");
    if circular && n > 0 {
        let radius = (n as f64) / std::f64::consts::TAU * 0.5 + 1.0;
        for v in 0..n {
            let angle = std::f64::consts::TAU * (v as f64) / (n as f64);
            let (x, y) = (radius * angle.cos(), radius * angle.sin());
            let _ = writeln!(out, "  {v} [pos=\"{x:.3},{y:.3}!\"];");
        }
    }
    for (u, v) in g.edges() {
        let _ = writeln!(out, "  {u} -> {v};");
    }
    out.push_str("}\n");
    out
}

/// Renders a protocol state as DOT with link roles styled: list links
/// solid, ring edges dashed, long-range links bold red. Node labels are
/// the id ranks, which are the view's indices.
pub fn snapshot_to_dot(v: &NetView<'_>, name: &str) -> String {
    let n = v.len();
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  node [shape=circle, fontsize=8, width=0.25];");
    let radius = (n.max(1) as f64) / std::f64::consts::TAU * 0.5 + 1.0;
    for (rank, node) in v.nodes().iter().enumerate() {
        let angle = std::f64::consts::TAU * (rank as f64) / (n as f64);
        let (x, y) = (radius * angle.cos(), radius * angle.sin());
        let _ = writeln!(
            out,
            "  {rank} [pos=\"{x:.3},{y:.3}!\", tooltip=\"{}\"];",
            node.id()
        );
    }
    for (me, node) in v.nodes().iter().enumerate() {
        let mut emit = |to: swn_core::id::NodeId, style: &str| {
            if let Some(t) = v.index_of(to) {
                let _ = writeln!(out, "  {me} -> {t} [{style}];");
            }
        };
        if let Some(l) = node.left().fin() {
            emit(l, "color=gray40");
        }
        if let Some(r) = node.right().fin() {
            emit(r, "color=gray40");
        }
        if let Some(ring) = node.ring() {
            emit(ring, "style=dashed, color=blue");
        }
        if node.lrl() != node.id() {
            emit(node.lrl(), "style=bold, color=red");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_core::config::ProtocolConfig;
    use swn_core::id::evenly_spaced_ids;
    use swn_core::invariants::make_sorted_ring;

    #[test]
    fn dot_contains_all_edges() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let dot = to_dot(&g, "tri", false);
        assert!(dot.starts_with("digraph tri {"));
        assert!(dot.contains("0 -> 1;"));
        assert!(dot.contains("1 -> 2;"));
        assert!(dot.contains("2 -> 0;"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn circular_layout_pins_positions() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let dot = to_dot(&g, "c", true);
        assert_eq!(dot.matches("pos=").count(), 4);
        assert!(dot.contains('!'), "positions must be pinned");
    }

    #[test]
    fn snapshot_dot_styles_link_roles() {
        let ids = evenly_spaced_ids(6);
        let mut nodes = make_sorted_ring(&ids, ProtocolConfig::default());
        // Give one node a long-range link.
        nodes[1] = swn_core::node::Node::with_state(
            nodes[1].id(),
            nodes[1].left(),
            nodes[1].right(),
            ids[4],
            None,
            ProtocolConfig::default(),
        );
        let s = swn_core::views::Snapshot::from_nodes(nodes);
        let dot = snapshot_to_dot(&s.as_view(), "net");
        assert!(dot.contains("color=gray40"), "list links styled");
        assert!(
            dot.contains("style=dashed, color=blue"),
            "ring edges styled"
        );
        assert!(dot.contains("style=bold, color=red"), "lrl styled");
        assert!(dot.contains("1 -> 4 [style=bold, color=red];"));
    }

    #[test]
    fn empty_graph_renders() {
        let dot = to_dot(&Graph::new(0), "e", true);
        assert!(dot.contains("digraph e {"));
    }
}
