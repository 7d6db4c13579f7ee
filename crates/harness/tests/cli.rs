//! The `experiments` CLI rejects flags it does not know instead of
//! silently running at full scale.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

#[test]
fn misspelled_flag_exits_2_and_names_it() {
    let out = experiments(&["list", "--qiuck"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--qiuck"), "stderr: {stderr}");
    assert!(stderr.contains("usage: experiments"), "stderr: {stderr}");
}

#[test]
fn known_flag_is_accepted() {
    let out = experiments(&["list", "--quick"]);
    assert_eq!(out.status.code(), Some(0));
}
