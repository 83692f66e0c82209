//! Fault-tolerance acceptance tests for the sweep supervisor.
//!
//! Pins the two contracts ISSUE 4 demands at `--bound 4 --canonical`
//! scale, across 1/2/4 threads:
//!
//! * **kill/resume determinism** — a sweep killed mid-run by the fault
//!   plan and resumed from its checkpoint journal produces counts and
//!   weighted totals bit-identical to an uninterrupted run;
//! * **panic quarantine** — an injected panic does not abort the sweep;
//!   the run completes degraded, reports the quarantined task, and every
//!   witness from a non-quarantined task matches the serial scan.

use ccmm::core::ckpt::{Checkpoint, CkptWriter};
use ccmm::core::fault::FaultPlan;
use ccmm::core::relation::compare;
use ccmm::core::sweep::supervisor::{
    self, decode_counts_snapshot, memberships, Scalar, Supervisor, SweepStatus,
};
use ccmm::core::sweep::SweepConfig;
use ccmm::core::universe::Universe;
use ccmm::core::Model;

const MODELS: [Model; 6] = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ccmm-it-sup-{name}-{}", std::process::id()))
}

#[test]
fn kill_resume_is_bit_identical_at_bound_4_canonical() {
    let u = Universe::new(4, 1);
    let serial = memberships(
        Scalar,
        &MODELS,
        &u,
        &SweepConfig::serial().canonical(true),
        &Supervisor::none(),
        None,
        None,
    );
    assert_eq!(serial.status, SweepStatus::Complete);
    for threads in [1usize, 2, 4] {
        let cfg = SweepConfig::with_threads(threads).canonical(true);
        let path = temp(&format!("kill-resume-{threads}"));
        let _ = std::fs::remove_file(&path);
        let fingerprint = "it bound=4 locs=1 canonical=true";

        // Run with a snapshot after every task and a kill after the
        // second journal record — a mid-sweep crash with the journal
        // left exactly as a real kill would leave it.
        let mut w = CkptWriter::create(&path, fingerprint).unwrap();
        let sup = Supervisor::with_fault(FaultPlan::none().kill_after_records(2));
        let killed = memberships(Scalar, &MODELS, &u, &cfg, &sup, None, Some((&mut w, 1)));
        assert_eq!(killed.status, SweepStatus::Killed, "at {threads} threads");
        assert!(killed.frontier.len() < killed.total_tasks, "the kill left work undone");
        drop(w);

        // Reload, decode the latest snapshot, and resume to completion.
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.fingerprint, fingerprint);
        let snap = decode_counts_snapshot(loaded.latest().expect("at least one snapshot"))
            .expect("snapshot decodes");
        let mut w = CkptWriter::append_to(&path).unwrap();
        let resumed = memberships(
            Scalar,
            &MODELS,
            &u,
            &cfg,
            &Supervisor::none(),
            Some(snap),
            Some((&mut w, 1)),
        );
        assert_eq!(resumed.status, SweepStatus::Complete, "at {threads} threads");
        assert_eq!(
            resumed.value, serial.value,
            "resumed counts drifted from the uninterrupted serial sweep at {threads} threads"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn quarantined_panic_preserves_other_witnesses_at_bound_4() {
    // LC vs NN at bound 4 has a genuine separating witness (the Figure-4
    // pattern first exists at 4 nodes). Panic task 0 — the empty poset,
    // which cannot hold the witness — and check the surviving tasks still
    // deliver exactly the serial scan's witness.
    let u = Universe::new(4, 1);
    let serial = compare(&Model::Lc, &Model::Nn, &u);
    assert!(serial.b_only.is_some(), "bound 4 separates LC from NN");
    for threads in [1usize, 2, 4] {
        let cfg = SweepConfig::with_threads(threads);
        let sup = Supervisor::with_fault(FaultPlan::none().panic_at_task(0));
        let out = supervisor::compare(Scalar, &Model::Lc, &Model::Nn, &u, &cfg, &sup);
        assert_eq!(out.status, SweepStatus::Degraded, "at {threads} threads");
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].task_idx, 0);
        // Task 0 is the single empty-poset pair: everything else was
        // scanned, and the witness contract holds on the survivors.
        assert_eq!(out.value.pairs_checked, serial.pairs_checked - 1, "at {threads} threads");
        assert_eq!(out.value.b_only, serial.b_only, "witness drift at {threads} threads");
        assert_eq!(out.value.a_only, serial.a_only, "witness drift at {threads} threads");
        assert_eq!(out.value.relation, serial.relation, "at {threads} threads");
    }
}

#[test]
fn ckpt_io_error_degrades_without_losing_any_verdicts() {
    // Fail the write of journal record 2: the sweep must keep scanning,
    // deliver verdicts bit-identical to a clean run, and complete
    // Degraded (not Complete — resumability is gone; not a panic).
    let u = Universe::new(4, 1);
    let clean = memberships(
        Scalar,
        &MODELS,
        &u,
        &SweepConfig::serial().canonical(true),
        &Supervisor::none(),
        None,
        None,
    );
    for threads in [1usize, 2] {
        let cfg = SweepConfig::with_threads(threads).canonical(true);
        let path = temp(&format!("io-error-{threads}"));
        let _ = std::fs::remove_file(&path);
        let mut w = CkptWriter::create(&path, "it io-error").unwrap();
        let sup = Supervisor::with_fault(FaultPlan::none().io_error_at_record(2));
        let out = memberships(Scalar, &MODELS, &u, &cfg, &sup, None, Some((&mut w, 1)));
        assert_eq!(out.status, SweepStatus::Degraded, "at {threads} threads");
        assert!(out.quarantined.is_empty(), "no task was quarantined — journalling failed");
        let err = out.ckpt_error.as_deref().expect("the I/O error is surfaced");
        assert!(err.contains("injected fault"), "{err}");
        assert_eq!(out.frontier.len(), out.total_tasks, "every task still scanned");
        assert_eq!(out.value, clean.value, "verdicts drifted at {threads} threads");
        // Exactly one record landed before the failure; the journal is
        // still loadable (torn-tail tolerance applies to real crashes,
        // a clean failure leaves whole records).
        drop(w);
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.snapshots.len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn transient_panic_heals_to_a_complete_bit_identical_sweep() {
    let u = Universe::new(4, 1);
    let cfg = SweepConfig::with_threads(2).canonical(true);
    let clean = memberships(Scalar, &MODELS, &u, &cfg, &Supervisor::none(), None, None);
    let sup = Supervisor::with_fault(FaultPlan::none().panic_once_at_task(1));
    let healed = memberships(Scalar, &MODELS, &u, &cfg, &sup, None, None);
    assert_eq!(healed.status, SweepStatus::Complete, "retry must absorb a transient fault");
    assert!(healed.quarantined.is_empty());
    assert_eq!(healed.value, clean.value);
}
