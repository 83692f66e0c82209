//! E5 — Theorem 19 and the abstract model properties.
//!
//! Machine-checks, over an exhaustive universe, that every model is
//! complete and monotonic, and that SC and LC (and WW) are constructible
//! while NN, NW, WN are not — Theorem 19 plus Figure 1's annotations.
//!
//! All three property checkers run on the parallel sweep engine
//! (`CCMM_THREADS` threads); witnesses are the serial scan's witnesses,
//! and the timing lands in `BENCH_sweep.json`.
//!
//! Run: `cargo run --release -p ccmm-bench --bin exp_properties`

use ccmm_bench::report::{self, SweepRecord};
use ccmm_bench::{mark, Table};
use ccmm_core::sweep::supervisor::{
    check_complete_supervised, check_constructible_aug_supervised, check_monotonic_supervised,
    Supervisor,
};
use ccmm_core::sweep::SweepConfig;
use ccmm_core::universe::Universe;
use ccmm_core::Model;

/// Whether `model` is complete, monotonic and constructible: the three
/// property sweeps (the last at `cons`), each finding no witness.
fn properties(model: &Model, u: &Universe, cons: &Universe, cfg: &SweepConfig) -> [bool; 3] {
    let none = Supervisor::none();
    [
        check_complete_supervised(model, u, cfg, &none).expect_complete("completeness").is_none(),
        check_monotonic_supervised(model, u, cfg, &none).expect_complete("monotonicity").is_none(),
        check_constructible_aug_supervised(model, cons, cfg, &none)
            .expect_complete("constructibility")
            .is_none(),
    ]
}

fn main() {
    // Completeness and monotonicity at a 4-node bound; constructibility
    // at a 5-node bound (its smallest counterexamples have 4-node
    // prefixes).
    let u4 = Universe::new(4, 1);
    let u5 = Universe::new(5, 1);
    let cfg = SweepConfig::from_env();
    println!(
        "universes: ≤4 nodes (complete/monotonic), ≤5 nodes (constructible), 1 location; \
         {} sweep threads\n",
        cfg.threads
    );

    let t0 = std::time::Instant::now();
    let mut t = Table::new(["model", "complete", "monotonic", "constructible", "paper"]);
    for m in [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww, Model::Any] {
        let [complete, monotonic, constructible] = properties(&m, &u4, &u5, &cfg);
        let paper = m.paper_says_constructible();
        t.row([
            m.name().to_string(),
            mark(complete).to_string(),
            mark(monotonic).to_string(),
            mark(constructible).to_string(),
            format!("constructible: {}", mark(paper)),
        ]);
        assert!(complete, "{m} must be complete (all models ⊇ some W_T)");
        assert!(monotonic, "{m} must be monotonic");
        assert_eq!(constructible, paper, "{m} constructibility vs paper");
    }
    let wall = t0.elapsed();
    println!("{}", t.render());
    println!("all property sweeps finished in {wall:?}\n");

    // Also check with two locations at a smaller bound — the properties
    // are not single-location artifacts.
    let u32 = Universe::new(3, 2);
    println!("cross-check at ≤3 nodes, 2 locations:");
    let mut t2 = Table::new(["model", "complete", "monotonic", "constructible(≤3)"]);
    for m in [Model::Sc, Model::Lc, Model::Nn, Model::Ww] {
        let [complete, monotonic, constructible] = properties(&m, &u32, &u32, &cfg);
        t2.row([
            m.name().to_string(),
            mark(complete).to_string(),
            mark(monotonic).to_string(),
            mark(constructible).to_string(),
        ]);
    }
    println!("{}", t2.render());

    let record = SweepRecord::new(
        "exp_properties/theorem19",
        if cfg.threads > 1 { "parallel" } else { "serial" },
        &u5,
        cfg.threads,
        wall,
        report::universe_pairs(&u4) + report::universe_pairs(&u5),
        0,
    );
    let path = report::bench_json_path();
    match report::emit(&path, std::slice::from_ref(&record)) {
        Ok(()) => println!("sweep timing appended to {path}"),
        Err(e) => eprintln!("could not write sweep timing: {e}"),
    }
    println!("(NN's smallest nonconstructibility witnesses need 4-node");
    println!("prefixes, so the 3-node scan correctly reports no failure.)");

    println!("\nTheorem 19 (SC, LC monotonic and constructible) reproduced;");
    println!("completeness and monotonicity hold for all six models.");
}
