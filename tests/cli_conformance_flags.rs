//! `ccmm conformance` flag handling, end to end. A binary of its own:
//! the bound-4 conformance runs take seconds in a debug build, and
//! `cargo test` runs test binaries one after another, so they never load
//! the machine while the timing-gated tests in `tests/cli.rs` run.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ccmm"))
}

#[test]
fn conformance_canonical_survives_a_later_threads_flag() {
    let conformance_line = |args: &[&str]| {
        let out = bin()
            .args(["conformance", "--nodes", "4", "--no-harvest", "--random", "1"])
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8(out.stdout).unwrap();
        text.lines().find(|l| l.starts_with("conformance:")).expect(&text).to_string()
    };
    let before = conformance_line(&["--canonical", "--threads", "2"]);
    let after = conformance_line(&["--threads", "2", "--canonical"]);
    assert_eq!(before, after, "flag order must not matter");
    assert!(before.contains("6171 exhaustive"), "canonical representatives swept: {before}");
}
