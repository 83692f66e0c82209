//! Pins the sweep engine's determinism contract across thread counts:
//! counts AND witnesses must be bit-identical to the serial scan at
//! 1, 2, 4 and 7 threads, both when the count is passed explicitly and
//! when it arrives as a `CCMM_THREADS` value (parsed here directly, so
//! no test touches the process environment).

use ccmm::core::model::Model;
use ccmm::core::relation::{compare, Comparison};
use ccmm::core::sweep::supervisor::{self, sweep_supervised, Scalar, Supervisor};
use ccmm::core::sweep::SweepConfig;
use ccmm::core::universe::Universe;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn par_compare(u: &Universe, cfg: &SweepConfig) -> Comparison {
    supervisor::compare(Scalar, &Model::Lc, &Model::Nn, u, cfg, &Supervisor::none())
        .expect_complete("compare")
}

/// Weighted computation count of a sweep.
fn weighted_count(u: &Universe, cfg: &SweepConfig) -> u128 {
    let count = |acc: &mut u128, _: &mut (), _, _: &_, w| *acc += u128::from(w);
    sweep_supervised(u, cfg, &Supervisor::none(), None, None, || 0, || (), count)
        .expect_complete("counting sweep")
}

#[test]
fn sweeps_are_bit_identical_to_serial_at_every_thread_count() {
    let u = Universe::new(3, 1);
    let serial = compare(&Model::Lc, &Model::Nn, &u);
    let serial_counts = weighted_count(&u, &SweepConfig::serial());
    assert_eq!(serial_counts, u.count_computations() as u128);

    for threads in THREAD_COUNTS {
        // Explicit thread count.
        let cfg = SweepConfig::with_threads(threads);
        check_identical(&serial, &par_compare(&u, &cfg), threads);
        assert_eq!(weighted_count(&u, &cfg), serial_counts, "count drift at {threads} threads");

        // Same thread count by way of a CCMM_THREADS value.
        let var_cfg = SweepConfig::from_threads_var(Some(&threads.to_string()));
        assert_eq!(var_cfg.threads, threads, "CCMM_THREADS value not honoured");
        check_identical(&serial, &par_compare(&u, &var_cfg), threads);
    }

    // Unset, garbage and zero values fall back to available parallelism
    // (≥ 1).
    let fallback = SweepConfig::from_threads_var(None).threads;
    assert!(fallback >= 1);
    for value in ["not-a-number", "0", ""] {
        let threads = SweepConfig::from_threads_var(Some(value)).threads;
        assert_eq!(threads, fallback, "{value:?} must fall back, not be taken");
    }
}

#[test]
fn canonical_sweep_is_bit_identical_at_bound_4() {
    // The symmetry-reduced sweep must reproduce the labelled scan's
    // model-membership counts AND witnesses exactly, at 1/2/4 threads —
    // the acceptance bar for enumerating only canonical representatives.
    let u = Universe::new(4, 1);
    let serial = compare(&Model::Lc, &Model::Nn, &u);
    let closed = u.count_computations_closed();
    for threads in [1, 2, 4] {
        let cfg = SweepConfig::with_threads(threads).canonical(true);
        check_identical(&serial, &par_compare(&u, &cfg), threads);
        assert_eq!(
            weighted_count(&u, &cfg),
            closed,
            "orbit-weighted total drift at {threads} threads"
        );
    }
}

fn check_identical(serial: &Comparison, par: &Comparison, threads: usize) {
    assert_eq!(serial.relation, par.relation, "relation drift at {threads} threads");
    assert_eq!(serial.both, par.both, "count drift at {threads} threads");
    assert_eq!(serial.a_total, par.a_total, "count drift at {threads} threads");
    assert_eq!(serial.b_total, par.b_total, "count drift at {threads} threads");
    assert_eq!(serial.pairs_checked, par.pairs_checked, "visit drift at {threads} threads");
    // Witnesses must be the serial scan's first witnesses, exactly.
    assert_eq!(serial.a_only, par.a_only, "a_only witness drift at {threads} threads");
    assert_eq!(serial.b_only, par.b_only, "b_only witness drift at {threads} threads");
}
