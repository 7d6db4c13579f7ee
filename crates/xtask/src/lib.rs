//! Protocol-conformance lints the stock toolchain cannot express.
//!
//! `cargo xtask lint` enforces repo-specific rules that sit above
//! rustc/clippy's pay grade because they encode *protocol* knowledge:
//!
//! * [`Rule::WildcardMessageMatch`] — a `match` whose arm patterns name
//!   `Message::…` or `MessageKind::…` variants must not contain a `_`
//!   arm. Handler dispatch has to break when a message variant is added,
//!   not silently ignore it. (Matches over other types may use `_`
//!   freely; only message matches are protocol dispatch.)
//! * [`Rule::HardcodedKindCount`] — in any file that refers to
//!   `MessageKind`, an array length spelled as the literal `7` (the
//!   current number of message kinds) must be `MessageKind::COUNT`
//!   instead, so per-kind tables grow with the enum. Arrays of length 7
//!   in files that never mention `MessageKind` (e.g. the seven routing
//!   systems of `e3_routing`) are untouched.
//! * [`Rule::BtreeHotPath`] — the per-round hot-path modules of
//!   `swn-sim` (`slots`, `network`, `channel`, `sched`) must not use
//!   `BTreeMap` outside `#[cfg(test)]` items: the round engine replaced
//!   ordered-map traversal with flat slot arenas and an incrementally
//!   maintained sorted order (DESIGN.md §12), and a stray `BTreeMap`
//!   silently reintroduces O(log n) pointer chasing per message. Tests
//!   may keep `BTreeMap` oracles; non-test exceptions need a waiver.
//!
//! Everything rustc or clippy can express — unsafe code, console prints
//! in libraries, `.unwrap()` in handler and fault-path modules,
//! nondeterministic constructs — is a lint-table or `clippy.toml` entry
//! instead (DESIGN.md §11.5).
//!
//! A finding is suppressed by a waiver comment `// lint: allow(<rule>)`
//! on the offending line or the line directly above it.
//!
//! The scanner is hand-rolled (comments and string literals are blanked,
//! then brace/paren-depth is tracked to split match arms); the offline
//! build environment has no `syn`, and these rules only need token-level
//! structure. The scanner is exact on rustfmt-formatted code, which CI
//! guarantees.

#![forbid(unsafe_code)]
// Libraries return strings or take writers; only binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]

use std::fmt;
use std::path::{Path, PathBuf};

/// The lint rules, in reporting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// `_` arm in a `match` over `Message`/`MessageKind` patterns.
    WildcardMessageMatch,
    /// Array length `7` where `MessageKind::COUNT` is meant.
    HardcodedKindCount,
    /// `BTreeMap` in a simulator hot-path module.
    BtreeHotPath,
}

impl Rule {
    /// The waiver spelling: `// lint: allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WildcardMessageMatch => "wildcard-message-match",
            Rule::HardcodedKindCount => "hardcoded-kind-count",
            Rule::BtreeHotPath => "btree-hot-path",
        }
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Path as given to [`lint_source`].
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Replaces comments and string/char literals with spaces, preserving
/// newlines and column positions, so the structural scan never trips on
/// braces or `=>` inside them.
fn blank_noncode(src: &str) -> String {
    #[derive(PartialEq)]
    enum S {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let mut out = String::with_capacity(src.len());
    let b: Vec<char> = src.chars().collect();
    let mut st = S::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let next = |k: usize| b.get(i + k).copied();
        match st {
            S::Code => {
                if c == '/' && next(1) == Some('/') {
                    st = S::Line;
                    out.push(' ');
                } else if c == '/' && next(1) == Some('*') {
                    st = S::Block(1);
                    out.push(' ');
                } else if c == '"' {
                    st = S::Str;
                    out.push(' ');
                } else if c == 'r' && (next(1) == Some('"') || next(1) == Some('#')) {
                    // Raw string r"…" / r#"…"# — count the hashes.
                    let mut hashes = 0;
                    while next(1 + hashes) == Some('#') {
                        hashes += 1;
                    }
                    if next(1 + hashes) == Some('"') {
                        st = S::RawStr(hashes);
                        for _ in 0..=(1 + hashes) {
                            out.push(' ');
                        }
                        i += 1 + hashes + 1;
                        continue;
                    }
                    out.push(c);
                } else if c == '\'' && next(2) == Some('\'') && next(1).is_some_and(|m| m != '\\') {
                    // Plain char literal 'x' (lifetimes never end in ').
                    out.push_str("   ");
                    i += 3;
                    continue;
                } else if c == '\'' && next(1) == Some('\\') {
                    st = S::Char;
                    out.push(' ');
                } else {
                    out.push(c);
                }
            }
            S::Line => {
                if c == '\n' {
                    st = S::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            S::Block(d) => {
                if c == '*' && next(1) == Some('/') {
                    st = if d == 1 { S::Code } else { S::Block(d - 1) };
                    out.push_str("  ");
                    i += 2;
                    continue;
                } else if c == '/' && next(1) == Some('*') {
                    st = S::Block(d + 1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            S::Str => {
                if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '"' {
                    st = S::Code;
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            S::RawStr(hashes) => {
                if c == '"' && (0..hashes).all(|k| next(1 + k) == Some('#')) {
                    st = S::Code;
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    i += hashes + 1;
                    continue;
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            S::Char => {
                if c == '\'' {
                    st = S::Code;
                }
                out.push(' ');
            }
        }
        i += 1;
    }
    out
}

/// Line numbers (1-based) covered by `#[cfg(test)]` items: from the
/// attribute to the close of the brace block that follows it.
///
/// Scans the *blanked* text: the attribute is code so it survives
/// blanking, occurrences quoted in comments or strings are erased, and
/// — crucially — the byte offset of a hit stays aligned with the brace
/// walk. (Searching the original and reusing its offsets in the blanked
/// text silently desynchronizes the walk as soon as a comment contains
/// a multi-byte character, which blanking collapses to one space.)
fn test_region_lines(blanked: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let line_of = |pos: usize| blanked[..pos].matches('\n').count() + 1;
    let bytes: Vec<char> = blanked.chars().collect();
    let mut search = 0;
    while let Some(rel) = blanked[search..].find("#[cfg(test)]") {
        let at = search + rel;
        let start_line = line_of(at);
        // Find the item's opening brace and walk to its match.
        let mut depth = 0usize;
        let mut end_line = start_line;
        let mut k = blanked[..at].chars().count();
        let mut opened = false;
        while k < bytes.len() {
            match bytes[k] {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        let pos: usize = bytes[..=k].iter().map(|c| c.len_utf8()).sum();
                        end_line = line_of(pos.min(blanked.len()));
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        regions.push((start_line, end_line.max(start_line)));
        search = at + 1;
    }
    regions
}

/// True when `line` carries (or the line above carries) a waiver for
/// `rule`.
fn waived(lines: &[&str], line: usize, rule: Rule) -> bool {
    let marker = format!("lint: allow({})", rule.name());
    let hit = |n: usize| {
        n >= 1
            && lines
                .get(n - 1)
                .is_some_and(|l| l.contains("//") && l.contains(&marker))
    };
    hit(line) || hit(line.saturating_sub(1))
}

/// The match-arm structure of one `match` block: `(pattern, line)` per
/// arm, extracted from blanked source by depth tracking.
fn match_arms(blanked: &str, block_start: usize, block_end: usize) -> Vec<(String, usize)> {
    let body = &blanked[block_start + 1..block_end];
    let mut arms = Vec::new();
    let mut depth = 0i32;
    let mut pat_start = 0usize;
    let mut in_body = false;
    let mut chars = body.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        match c {
            '{' | '(' | '[' => {
                depth += 1;
            }
            '}' | ')' | ']' => {
                depth -= 1;
                // A `{ … }` arm body closing at depth 0 ends the arm even
                // without a trailing comma.
                if depth == 0 && in_body && c == '}' {
                    in_body = false;
                    pat_start = i + 1;
                }
            }
            '=' if depth == 0 && !in_body && body[i + 1..].starts_with('>') => {
                let pat = body[pat_start..i].trim().to_string();
                let line = blanked[..block_start + 1 + i].matches('\n').count() + 1;
                arms.push((pat, line));
                in_body = true;
                chars.next();
            }
            ',' if depth == 0 && in_body => {
                in_body = false;
                pat_start = i + 1;
            }
            _ => {}
        }
    }
    arms
}

/// Scans `blanked` for `match` keyword occurrences and yields
/// `(block_open_idx, block_close_idx)` for each match body.
fn match_blocks(blanked: &str) -> Vec<(usize, usize)> {
    let mut blocks = Vec::new();
    let bytes = blanked.as_bytes();
    let mut search = 0;
    while let Some(rel) = blanked[search..].find("match") {
        let at = search + rel;
        search = at + 5;
        // Word boundaries: reject `matches!`, `rematch`, field names.
        let before_ok = at == 0
            || !bytes[at - 1].is_ascii_alphanumeric()
                && bytes[at - 1] != b'_'
                && bytes[at - 1] != b'.';
        let after_ok = bytes
            .get(at + 5)
            .is_none_or(|b| !b.is_ascii_alphanumeric() && *b != b'_' && *b != b'!');
        if !before_ok || !after_ok {
            continue;
        }
        // The scrutinee runs to the first `{` at bracket-depth 0.
        let mut depth = 0i32;
        let mut open = None;
        for (k, c) in blanked[at + 5..].char_indices() {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' if depth == 0 => {
                    open = Some(at + 5 + k);
                    break;
                }
                ';' if depth == 0 => break, // not a match expression
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        // Walk to the matching close brace.
        let mut d = 0i32;
        for (k, c) in blanked[open..].char_indices() {
            match c {
                '{' => d += 1,
                '}' => {
                    d -= 1;
                    if d == 0 {
                        blocks.push((open, open + k));
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    blocks
}

/// Per-round hot-path modules of the simulator: every message and every
/// turn crosses these, so ordered-map traversal is banned outside tests
/// (the arenas + sorted lanes of DESIGN.md §12 replaced it).
const HOT_PATH_FILES: [&str; 4] = ["slots.rs", "network.rs", "channel.rs", "sched.rs"];

/// Lints one file's source text. `path` decides which rules apply (see
/// the module docs); fixture paths containing `fixtures/` get every
/// rule.
pub fn lint_source(path: &str, src: &str) -> Vec<Violation> {
    let p = path.replace('\\', "/");
    let is_fixture = p.contains("fixtures/");
    let file = p.rsplit('/').next().unwrap_or(&p);
    let message_match = p.contains("crates/core/src/") || is_fixture;
    let btree_hot_path =
        (p.contains("crates/sim/src/") && HOT_PATH_FILES.contains(&file)) || is_fixture;
    let blanked = blank_noncode(src);
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    let mut push = |rule: Rule, line: usize, message: String| {
        if !waived(&lines, line, rule) {
            out.push(Violation {
                file: path.to_string(),
                line,
                rule,
                message,
            });
        }
    };

    if message_match {
        for (open, close) in match_blocks(&blanked) {
            let arms = match_arms(&blanked, open, close);
            let is_message_match = arms
                .iter()
                .any(|(pat, _)| pat.contains("Message::") || pat.contains("MessageKind::"));
            if !is_message_match {
                continue;
            }
            for (pat, line) in &arms {
                let head = pat.split_whitespace().next().unwrap_or("");
                if head == "_" {
                    push(
                        Rule::WildcardMessageMatch,
                        *line,
                        "wildcard `_` arm in a match over Message/MessageKind; \
                         spell every variant so new message kinds fail to compile"
                            .to_string(),
                    );
                }
            }
        }
    }

    if btree_hot_path {
        let tests = test_region_lines(&blanked);
        for (i, line) in blanked.lines().enumerate() {
            let n = i + 1;
            if tests.iter().any(|&(a, b)| n >= a && n <= b) {
                continue;
            }
            if line.contains("BTreeMap") {
                push(
                    Rule::BtreeHotPath,
                    n,
                    "`BTreeMap` in a simulator hot-path module; the round engine \
                     routes through flat slot arenas and the incrementally \
                     maintained sorted order (DESIGN.md §12) — use `SlotIndex`, \
                     or waive with a justification that the map is off the \
                     per-round path"
                        .to_string(),
                );
            }
        }
    }

    // `MessageKind` mentioned anywhere (in code) makes literal-7 array
    // lengths suspect in the whole file.
    if blanked.contains("MessageKind") {
        for (i, line) in blanked.lines().enumerate() {
            if line.contains("; 7]") {
                push(
                    Rule::HardcodedKindCount,
                    i + 1,
                    "array length literal `7` in a file using MessageKind; \
                     spell it `MessageKind::COUNT` so per-kind tables track the enum"
                        .to_string(),
                );
            }
        }
    }

    out
}

/// Recursively collects the `.rs` files lint runs over: `src/` and
/// `crates/*/src/` plus crate `tests/`, skipping `vendor/`, `target/`
/// and the linter's own `fixtures/`.
fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if ["vendor", "target", "fixtures", ".git", ".github"].contains(&name.as_ref()) {
                    continue;
                }
                stack.push(p);
            } else if name.ends_with(".rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    files
}

/// Lints every source file under `root` (the workspace). Paths in the
/// returned violations are workspace-relative.
pub fn lint_repo(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in collect_files(root) {
        let Ok(src) = std::fs::read_to_string(&file) else {
            continue;
        };
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        out.extend(lint_source(&rel, &src));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanking_preserves_line_structure() {
        let src = "let a = \"x => {\"; // match m {\nlet b = 'y';\n";
        let blanked = blank_noncode(src);
        assert_eq!(blanked.matches('\n').count(), src.matches('\n').count());
        assert!(!blanked.contains("=>"));
        assert!(!blanked.contains("match"));
    }

    #[test]
    fn wildcard_in_message_match_is_flagged() {
        let src = r"
fn dispatch(m: Message) {
    match m {
        Message::Lin(id) => handle(id),
        _ => {}
    }
}
";
        let v = lint_source("crates/core/src/node.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::WildcardMessageMatch);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn wildcard_over_other_types_is_fine() {
        // `Message::` appears in an arm *body*, not a pattern: this is a
        // match over `Extended`, where `_` is idiomatic.
        let src = r"
fn f(e: Extended) {
    match e {
        Extended::Fin(v) => out.send(id, Message::Lin(v)),
        _ => self.linearize(id, out),
    }
}
";
        assert!(lint_source("crates/core/src/ring.rs", src).is_empty());
    }

    #[test]
    fn exhaustive_message_match_is_fine() {
        let src = r"
fn dispatch(m: Message) {
    match m {
        Message::Lin(id) => a(id),
        Message::Ring(id) => b(id),
    }
}
";
        assert!(lint_source("crates/core/src/node.rs", src).is_empty());
    }

    #[test]
    fn hardcoded_kind_count_needs_messagekind_in_scope() {
        let with = "use swn_core::message::MessageKind;\npub sent: [u64; 7],\n";
        let v = lint_source("crates/sim/src/trace.rs", with);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::HardcodedKindCount);
        // Seven unrelated things in a file that never mentions
        // MessageKind — e3_routing's seven routing systems.
        let without = "pub const ALL: [System; 7] = [];\n";
        assert!(lint_source("crates/harness/src/e3_routing.rs", without).is_empty());
    }

    #[test]
    fn waiver_suppresses_on_same_or_previous_line() {
        let same = "use std::collections::BTreeMap; // lint: allow(btree-hot-path)\n";
        assert!(lint_source("crates/sim/src/sched.rs", same).is_empty());
        let above = "// lint: allow(btree-hot-path)\nuse std::collections::BTreeMap;\n";
        assert!(lint_source("crates/sim/src/sched.rs", above).is_empty());
    }

    #[test]
    fn seeded_fixture_fails() {
        let src = include_str!("../fixtures/broken_handler.rs");
        let v = lint_source("fixtures/broken_handler.rs", src);
        let rules: Vec<Rule> = v.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&Rule::WildcardMessageMatch), "{v:?}");
        assert!(rules.contains(&Rule::HardcodedKindCount), "{v:?}");
        assert!(rules.contains(&Rule::BtreeHotPath), "{v:?}");
    }

    #[test]
    fn test_regions_survive_multibyte_comments() {
        // Regression: an em-dash (3 bytes, blanked to 1 space) before
        // the test mod used to desynchronize the byte offsets of the
        // region walk, so everything inside `#[cfg(test)]` got linted.
        let src = "// prose — with a multi-byte dash\n\
                   #[cfg(test)]\n\
                   mod tests {\n    \
                       use std::collections::BTreeMap;\n\
                   }\n";
        assert!(lint_source("crates/sim/src/slots.rs", src).is_empty());
    }

    #[test]
    fn btree_flagged_in_hot_path_modules_only() {
        let src = "use std::collections::BTreeMap;\n";
        for file in ["slots.rs", "network.rs", "channel.rs", "sched.rs"] {
            let v = lint_source(&format!("crates/sim/src/{file}"), src);
            assert!(
                v.iter().any(|x| x.rule == Rule::BtreeHotPath),
                "{file}: {v:?}"
            );
        }
        // Off the per-round path: fault plans, other crates, the sim's
        // own integration tests (which keep BTreeMap oracles).
        assert!(lint_source("crates/sim/src/faults.rs", src)
            .iter()
            .all(|x| x.rule != Rule::BtreeHotPath));
        assert!(lint_source("crates/core/src/node.rs", src)
            .iter()
            .all(|x| x.rule != Rule::BtreeHotPath));
        assert!(lint_source("crates/sim/tests/slot_index_prop.rs", src)
            .iter()
            .all(|x| x.rule != Rule::BtreeHotPath));
    }

    #[test]
    fn btree_spares_tests_doc_comments_and_waivers() {
        let in_test = "#[cfg(test)]\nmod tests {\n    use std::collections::BTreeMap;\n}\n";
        assert!(lint_source("crates/sim/src/slots.rs", in_test)
            .iter()
            .all(|x| x.rule != Rule::BtreeHotPath));
        let in_doc = "//! Replaces the `BTreeMap` the index once was.\npub struct SlotIndex;\n";
        assert!(lint_source("crates/sim/src/slots.rs", in_doc).is_empty());
        let waived = "// lint: allow(btree-hot-path) — cold config table, never per-message.\n\
                      use std::collections::BTreeMap;\n";
        assert!(lint_source("crates/sim/src/network.rs", waived)
            .iter()
            .all(|x| x.rule != Rule::BtreeHotPath));
    }

    #[test]
    fn whole_repo_is_clean() {
        // CARGO_MANIFEST_DIR = crates/xtask; the workspace root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let v = lint_repo(root);
        assert!(
            v.is_empty(),
            "repo must lint clean:\n{}",
            v.iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
