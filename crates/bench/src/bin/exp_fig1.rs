//! E1/E6/E7 — Figure 1: the lattice of models, machine-checked.
//!
//! For every ordered pair of models, decide ⊊ / = / ⊋ / ∥ over the
//! exhaustive universe of computations with ≤ 4 nodes over one location,
//! and report pair counts plus separating witnesses. The SC/LC separation
//! needs two locations and is certified with an explicit store-buffering
//! witness.
//!
//! The matrix is computed by the parallel sweep engine (`CCMM_THREADS`
//! overrides the thread count); counts and witnesses are bit-identical to
//! the serial scan, and timings land in `BENCH_sweep.json`.
//!
//! Run: `cargo run --release -p ccmm-bench --bin exp_fig1`

use ccmm_bench::report::{self, SweepRecord};
use ccmm_bench::Table;
use ccmm_core::relation::Relation;
use ccmm_core::sweep::supervisor::{self, Scalar, Supervisor};
use ccmm_core::sweep::SweepConfig;
use ccmm_core::universe::Universe;
use ccmm_core::Location;
use ccmm_core::{Computation, Lc, MemoryModel, Model, ObserverFunction, Op, Sc};
use ccmm_dag::NodeId;

fn main() {
    let u = Universe::new(4, 1);
    let cfg = SweepConfig::from_env();
    let models = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];
    let compare = |a: &Model, b: &Model, u: &Universe| {
        supervisor::compare(Scalar, a, b, u, &cfg, &Supervisor::none())
            .expect_complete("E1 comparison")
    };

    println!(
        "== E1: pairwise model relations (all computations ≤ 4 nodes, 1 location; {} threads) ==\n",
        cfg.threads
    );
    let t0 = std::time::Instant::now();
    let mut pairs_checked = 0u64;
    let mut matrix = Table::new(
        std::iter::once("row \\ col".to_string())
            .chain(models.iter().map(|m| m.name().to_string())),
    );
    let mut pair_counts = Table::new(["model", "member pairs"]);
    for a in models {
        let mut cells = vec![a.name().to_string()];
        let mut a_total = 0;
        for b in models {
            let cmp = compare(&a, &b, &u);
            a_total = cmp.a_total;
            pairs_checked += cmp.pairs_checked as u64;
            cells.push(cmp.relation.to_string());
        }
        matrix.row(cells);
        pair_counts.row([a.name().to_string(), a_total.to_string()]);
    }
    let matrix_wall = t0.elapsed();
    println!("{}", matrix.render());
    println!("{}", pair_counts.render());
    println!("matrix swept in {matrix_wall:?} ({pairs_checked} pairs)\n");

    println!("paper (Figure 1) says: LC ⊊ NN ⊊ {{NW, WN}} ⊊ WW, NW ∥ WN;");
    println!("SC = LC at one location, SC ⊊ LC with more than one.\n");

    // Verify the claimed chain and report witnesses.
    println!("== E6/E7: strictness witnesses ==\n");
    let chain = [
        (Model::Lc, Model::Nn),
        (Model::Nn, Model::Nw),
        (Model::Nn, Model::Wn),
        (Model::Nw, Model::Ww),
        (Model::Wn, Model::Ww),
    ];
    for (a, b) in chain {
        let cmp = compare(&a, &b, &u);
        assert_eq!(cmp.relation, Relation::StrictlyStronger, "{a} vs {b}");
        let (c, phi) = cmp.b_only.expect("strict inclusion has a witness");
        println!("{} ⊊ {}: witness in {} \\ {}:", a, b, b, a);
        println!("  {c:?}");
        println!("  {phi:?}\n");
    }
    let nw_wn = compare(&Model::Nw, &Model::Wn, &u);
    assert_eq!(nw_wn.relation, Relation::Incomparable);
    println!("NW ∥ WN: both directions witnessed.\n");

    // SC vs LC at two locations: the store-buffering pair.
    println!("== SC ⊊ LC at two locations (store-buffering witness) ==\n");
    let l0 = Location::new(0);
    let l1 = Location::new(1);
    let c = Computation::from_edges(
        4,
        &[(0, 1), (2, 3)],
        vec![Op::Write(l0), Op::Read(l1), Op::Write(l1), Op::Read(l0)],
    );
    // Both reads observe ⊥ at the location they read; each node's row at
    // its own thread's written location is the thread's write (forced —
    // it follows the write).
    let phi = ObserverFunction::base(&c).with(l0, NodeId::new(1), Some(NodeId::new(0))).with(
        l1,
        NodeId::new(3),
        Some(NodeId::new(2)),
    );
    assert!(Lc.contains(&c, &phi));
    assert!(!Sc.contains(&c, &phi));
    println!("  {c:?}");
    println!("  both reads observe ⊥: in LC, not in SC ✓\n");

    // Also check SC ⊆ LC holds on a small 2-location universe.
    let u2 = Universe::new(3, 2);
    let cmp = supervisor::compare(Scalar, &Model::Sc, &Model::Lc, &u2, &cfg, &Supervisor::none())
        .expect_complete("SC ⊆ LC at two locations");
    assert!(cmp.a_only.is_none(), "SC ⊆ LC must hold");
    println!(
        "SC ⊆ LC over all computations ≤ 3 nodes, 2 locations: ✓ ({} pairs checked)",
        cmp.pairs_checked
    );
    println!("relation there: SC {} LC", cmp.relation);

    // Randomized evidence beyond the exhaustive bound: 10-node samples.
    println!("\n== sampled cross-check at 10 nodes, 2 locations (2000 samples/pair) ==\n");
    use ccmm_core::relation::compare_sampled;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(424242);
    let mut t = Table::new(["pair", "A\\B found", "B\\A found", "verdict"]);
    for (a, b) in [
        (Model::Sc, Model::Lc),
        (Model::Lc, Model::Nn),
        (Model::Nn, Model::Nw),
        (Model::Nn, Model::Wn),
        (Model::Nw, Model::Ww),
        (Model::Wn, Model::Ww),
    ] {
        let cmp = compare_sampled(&a, &b, 10, 2, 2000, &mut rng);
        assert!(cmp.a_only.is_none(), "{a} ⊆ {b} violated at 10 nodes!");
        t.row([
            format!("{a} vs {b}"),
            "no (inclusion holds)".to_string(),
            if cmp.b_only.is_some() { "yes (strict)" } else { "not sampled" }.to_string(),
            cmp.relation.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("sampling cannot prove inclusions, but any A\\B hit would be a");
    println!("disproof — none appears, while strictness witnesses do.");

    let record = SweepRecord::new(
        "exp_fig1/lattice",
        if cfg.threads > 1 { "parallel" } else { "serial" },
        &u,
        cfg.threads,
        matrix_wall,
        pairs_checked,
        0,
    );
    let path = report::bench_json_path();
    match report::emit(&path, std::slice::from_ref(&record)) {
        Ok(()) => println!("\nsweep timing appended to {path}"),
        Err(e) => eprintln!("\ncould not write sweep timing: {e}"),
    }

    println!("\nAll Figure-1 relations machine-verified.");
}
