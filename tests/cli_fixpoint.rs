//! `ccmm sweep`'s Δ* fixpoint phase, end to end: deadlines, journals and
//! quarantine under both engines. A binary of its own: each test runs
//! several sweeps, and `cargo test` runs test binaries one after
//! another, so they never load the machine while the timing-gated tests
//! in `tests/cli.rs` run.

use std::process::Command;

/// A `ccmm sweep` command whose bench records go to a test-scoped temp
/// file, never the committed baseline.
fn sweep_cmd(name: &str) -> (Command, std::path::PathBuf) {
    let json = std::env::temp_dir().join(format!("ccmm-fix-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&json);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ccmm"));
    cmd.arg("sweep").env("CCMM_BENCH_JSON", &json);
    (cmd, json)
}

/// The engine-free part of the `NN* … fixpoint:` line: survivors,
/// deletions and passes, without the label or the timing.
fn fixpoint_line(text: &str) -> String {
    text.lines()
        .find(|l| l.contains("fixpoint:"))
        .map(|l| l.split_once("fixpoint:").unwrap().1.split('[').next().unwrap().to_string())
        .unwrap_or_else(|| panic!("fixpoint line present: {text}"))
}

/// Runs a complete checkpointed bound-4 sweep with `engine`, then
/// resumes its journal with a zero deadline after `prepare` has touched
/// the journal files; returns the resumed run's exit code and stdout.
fn resume_with_zero_deadline(
    name: &str,
    engine: &str,
    prepare: impl FnOnce(&std::path::Path),
) -> (Option<i32>, String) {
    let ckpt = std::env::temp_dir().join(format!("ccmm-fix-{name}-{}", std::process::id()));
    let fix = ckpt.with_extension("fixpoint");
    let shape = ["--bound", "4", "--canonical", "--threads", "2", "--engine", engine];
    let (mut cmd, json1) = sweep_cmd(&format!("{name}-ckpt"));
    let out = cmd.args(shape).args(["--ckpt-every", "1", "--ckpt"]).arg(&ckpt).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(fix.exists(), "every engine journals its fixpoint beside the sweep journal");
    prepare(&fix);
    let (mut cmd, json2) = sweep_cmd(&format!("{name}-resume"));
    let out =
        cmd.args(shape).args(["--deadline-secs", "0", "--resume"]).arg(&ckpt).output().unwrap();
    for p in [&ckpt, &fix, &json1, &json2] {
        let _ = std::fs::remove_file(p);
    }
    (out.status.code(), String::from_utf8(out.stdout).unwrap())
}

#[test]
fn sweep_deadline_in_the_fixpoint_exits_partial_instead_of_panicking() {
    // The memberships journal is complete and the fixpoint journal is
    // gone, so the zero deadline lands in the fixpoint's materialisation.
    let remove = |fix: &std::path::Path| std::fs::remove_file(fix).unwrap();
    let (code, text) = resume_with_zero_deadline("fixdeadline", "scalar", remove);
    assert_eq!(code, Some(4), "partial (deadline) exit code: {text}");
    assert!(text.contains("deadline hit during fixpoint"), "{text}");
    assert!(text.contains("resume frontier"), "{text}");
}

#[test]
fn sweep_partial_constructibility_check_decides_nothing() {
    // Both journals are complete, so the zero deadline lands in the
    // constructibility scan: no model may be reported constructible.
    for engine in ["scalar", "lane64"] {
        let (code, text) = resume_with_zero_deadline("consdeadline", engine, |_| {});
        assert_eq!(code, Some(4), "partial (deadline) exit code: {text}");
        assert!(text.contains("resuming fixpoint from"), "{text}");
        assert!(!text.contains("constructible up to bound"), "{text}");
        assert!(text.contains("NN   not decided up to bound 4: the check was partial"), "{text}");
    }
}

#[test]
fn sweep_fixpoint_quarantine_is_deterministic_across_runs_and_engines() {
    let quarantined_run = |engine: &str| {
        let (mut cmd, json) = sweep_cmd(&format!("fixquar-{engine}"));
        let out = cmd
            .args(["--bound", "4", "--canonical", "--engine", engine])
            .args(["--fault", "panic-at-fixpoint=40"])
            .output()
            .unwrap();
        let _ = std::fs::remove_file(&json);
        assert_eq!(out.status.code(), Some(3), "degraded exit code");
        let text = String::from_utf8(out.stdout).unwrap();
        let quarantined: Vec<String> =
            text.lines().filter(|l| l.starts_with("quarantined:")).map(str::to_string).collect();
        (quarantined, fixpoint_line(&text))
    };
    let first = quarantined_run("scalar");
    let want = "quarantined: fixpoint task 40 (poset size 3) panicked twice: \
                injected fault: panic at fixpoint check 40";
    assert_eq!(first.0, [want]);
    assert_eq!(quarantined_run("scalar"), first);
    assert_eq!(quarantined_run("lane64"), first);
}

#[test]
fn sweep_refuses_to_resume_a_v1_fixpoint_journal() {
    // A v1 journal holds survivor-mask records. Resuming one must fail on
    // its fingerprint, before any record is decoded as a census snapshot.
    let ckpt = std::env::temp_dir().join(format!("ccmm-fix-v1-{}", std::process::id()));
    let fix = ckpt.with_extension("fixpoint");
    let shape = ["--bound", "4", "--canonical", "--threads", "2"];
    let (mut cmd, json1) = sweep_cmd("v1-ckpt");
    let out = cmd.args(shape).arg("--ckpt").arg(&ckpt).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let mut v1 =
        ccmm::core::ckpt::CkptWriter::create(&fix, "ccmm-fixpoint-v1 bound=4 locs=1 model=nn")
            .expect("create a v1 journal");
    v1.append(&[0u8; 24]).expect("append a v1 record");
    drop(v1);
    let (mut cmd, json2) = sweep_cmd("v1-resume");
    let out = cmd.args(shape).arg("--resume").arg(&ckpt).output().unwrap();
    for p in [&ckpt, &fix, &json1, &json2] {
        let _ = std::fs::remove_file(p);
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "a refused journal is a usage error: {stderr}");
    assert!(stderr.contains("fixpoint checkpoint fingerprint mismatch"), "{stderr}");
    assert!(stderr.contains("ccmm-fixpoint-v1"), "{stderr}");
}
