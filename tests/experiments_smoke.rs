//! Smoke test: every experiment of the harness runs end to end at a tiny
//! scale and produces a well-formed table. (The scientific assertions
//! live in each experiment module's own tests; this guards the wiring the
//! `experiments` binary relies on.)

use swn_harness::table::Table;
use swn_harness::*;

fn check(t: &Table, min_rows: usize) {
    assert!(!t.title.is_empty());
    assert!(
        t.rows.len() >= min_rows,
        "{}: only {} rows",
        t.title,
        t.rows.len()
    );
    for row in &t.rows {
        assert_eq!(row.len(), t.headers.len(), "{}: ragged row", t.title);
    }
    let rendered = t.render();
    assert!(rendered.contains(&t.title));
}

#[test]
fn e1_smoke() {
    let p = e1_convergence::Params {
        sizes: vec![12],
        trials: 2,
        families: vec![swn_sim::init::InitialTopology::Star],
        max_rounds: 100_000,
    };
    check(&e1_convergence::run(&p), 1);
}

#[test]
fn e2_smoke() {
    let p = e2_distribution::Params {
        sizes: vec![64],
        warmup: 300,
        epochs: 10,
        epoch_gap: 5,
    };
    check(&e2_distribution::run(&p), 2);
}

#[test]
fn e3_smoke() {
    let p = e3_routing::Params {
        sizes: vec![128],
        protocol_max_n: 128,
        pairs: 40,
    };
    // 7 systems + fit rows.
    check(&e3_routing::run(&p), 7);
}

#[test]
fn e4_smoke() {
    let p = e4_probing::Params {
        n: 64,
        warmup: 100,
        epochs: 5,
        epoch_gap: 5,
    };
    check(&e4_probing::run(&p), 2);
}

/// Lemma 4.23's table at quick scale, byte for byte. The golden was
/// rendered by the hand-written Algorithm 5/6/10 walk that preceded the
/// handler replay in `probe_walk`, so it pins that both walk the same
/// paths on the stationary fixture.
#[test]
fn e4_quick_table_matches_the_pinned_golden() {
    let rendered = e4_probing::run(&e4_probing::Params::quick()).render();
    assert_eq!(rendered, include_str!("golden/e4_quick.txt"));
}

#[test]
fn e5_e6_smoke() {
    let p = e5_join_leave::Params {
        sizes: vec![32],
        trials: 2,
        max_rounds: 100_000,
    };
    check(&e5_join_leave::run_join(&p), 1);
    check(&e5_join_leave::run_leave(&p), 1);
}

#[test]
fn e7_smoke() {
    let p = e7_robustness::Params {
        n: 64,
        fractions: vec![0.0, 0.3],
        pairs: 30,
    };
    check(&e7_robustness::run(&p), 8);
}

#[test]
fn e8_smoke() {
    let p = e8_watts_strogatz::Params {
        n: 100,
        ps: vec![0.1],
        seeds: 2,
        path_samples: 20,
    };
    check(&e8_watts_strogatz::run(&p), 1);
}

#[test]
fn e9_smoke() {
    let p = e9_overhead::Params {
        sizes: vec![32],
        warmup: 100,
        window: 30,
        age_horizon_factor: 30,
    };
    check(&e9_overhead::run(&p), 1);
}

#[test]
fn ablations_smoke() {
    let p = ablations::Params {
        sizes: vec![16],
        trials: 2,
        n: 48,
        warmup: 200,
    };
    check(&ablations::run_a1(&p), 1);
    check(&ablations::run_a2(&p), 4);
    check(&ablations::run_a3(&p), 4);
}

/// What `experiments <id> --quick` prints: every table's rendering, one
/// `println!` each.
fn stdout_of(tables: &[Table]) -> String {
    tables.iter().map(|t| t.render() + "\n").collect()
}

/// The fault engine's two console surfaces at quick scale, byte for
/// byte — `experiments e10` (the fault matrix with both restart
/// disciplines, and the disconnect demo) and `experiments chaos`. The
/// campaign and every E10 row but the restart rows were written by the
/// per-round plan-scanning injector, so they pin that the compiled
/// agenda lands every fault in the same round, in the same order, on the
/// same coin. (The run-for-run fingerprint of the full campaign is
/// `swn-sim`'s `chaos_pin` test.)
#[test]
fn fault_experiment_quick_tables_match_the_pinned_goldens() {
    let p = e10_faults::Params::quick();
    let tables = [e10_faults::run(&p), e10_faults::run_disconnect_demo()];
    assert_eq!(stdout_of(&tables), include_str!("golden/e10_quick.txt"));

    let report = e10_faults::run_campaign_report(&p);
    assert_eq!(
        stdout_of(&[e10_faults::campaign_table(&report)]),
        include_str!("golden/chaos_quick.txt")
    );
}

/// `experiments <id> --quick` for the twelve single-table ids, byte for
/// byte, so a PR that moves a paper quantity has to re-pin it on purpose.
macro_rules! quick_golden {
    ($($test:ident: $table:expr => $golden:literal;)*) => {$(
        #[test]
        fn $test() {
            assert_eq!(
                stdout_of(&[$table]),
                include_str!(concat!("golden/", $golden))
            );
        }
    )*};
}

quick_golden! {
    e1_quick_matches_golden: e1_convergence::run(&e1_convergence::Params::quick()) => "e1_quick.txt";
    e2_quick_matches_golden: e2_distribution::run(&e2_distribution::Params::quick()) => "e2_quick.txt";
    e3_quick_matches_golden: e3_routing::run(&e3_routing::Params::quick()) => "e3_quick.txt";
    e5_quick_matches_golden: e5_join_leave::run_join(&e5_join_leave::Params::quick()) => "e5_quick.txt";
    e6_quick_matches_golden: e5_join_leave::run_leave(&e5_join_leave::Params::quick()) => "e6_quick.txt";
    e7_quick_matches_golden: e7_robustness::run(&e7_robustness::Params::quick()) => "e7_quick.txt";
    e8_quick_matches_golden: e8_watts_strogatz::run(&e8_watts_strogatz::Params::quick()) => "e8_quick.txt";
    e9_quick_matches_golden: e9_overhead::run(&e9_overhead::Params::quick()) => "e9_quick.txt";
    a1_quick_matches_golden: ablations::run_a1(&ablations::Params::quick()) => "a1_quick.txt";
    a2_quick_matches_golden: ablations::run_a2(&ablations::Params::quick()) => "a2_quick.txt";
    a3_quick_matches_golden: ablations::run_a3(&ablations::Params::quick()) => "a3_quick.txt";
    x1_quick_matches_golden: x1_multidim::run(&x1_multidim::Params::quick()) => "x1_quick.txt";
}
