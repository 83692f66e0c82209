//! `stress`: the seed's deterministic conformance-check count, derived
//! independently of `ccmm stress` (only its simulator leg is re-run),
//! and the layer-traced in-process replica of its iteration loop.

use crate::trace::{Metrics, Tracer};
use ccmm::backer::harvest::harvest_observers_cfg;
use ccmm::backer::{threads, BackerConfig, PerturbPlan};
use ccmm::conformance::sources;
use ccmm::core::telemetry::{self, Counter};
use ccmm::core::{Computation, Lc, Location, MemoryModel, ObserverFunction, Op, Sc};
use ccmm::stress::{iter_seed, StressConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The iteration's workload, drawn exactly as `ccmm stress` draws it:
/// the fixed Cilk conformance shapes, an 8-node write/read chain, a
/// depth-3 fork/join tree, or a seeded random computation.
fn workload_for(seed: u64) -> Computation {
    let fixed = ccmm::cilk::conformance_workloads();
    let pick = (seed % (fixed.len() as u64 + 3)) as usize;
    if pick < fixed.len() {
        return fixed.into_iter().nth(pick).expect("pick < len").1;
    }
    let alternating = |n: usize, locs: usize| -> Vec<Op> {
        (0..n)
            .map(|i| {
                let l = Location::new((i / 2) % locs);
                if i % 2 == 0 {
                    Op::Write(l)
                } else {
                    Op::Read(l)
                }
            })
            .collect()
    };
    match pick - fixed.len() {
        0 => Computation::new(ccmm::dag::generate::chain(8), alternating(8, 1)).expect("ops fit"),
        1 => {
            let dag = ccmm::dag::generate::fork_join_tree(3);
            let n = dag.node_count();
            Computation::new(dag, alternating(n, 2)).expect("ops fit")
        }
        _ => sources::random_computation(&mut StdRng::seed_from_u64(seed), 12, 3),
    }
}

fn backer_for(cfg: &StressConfig) -> BackerConfig {
    BackerConfig::with_processors(cfg.threads).cache_capacity(cfg.cache_lines.max(1))
}

/// Conformance checks a clean `ccmm stress --seed S --iters N --threads T`
/// run performs: one per iteration for the threaded leg, plus one per
/// distinct simulator-leg observer on every `harvest_every`-th iteration.
pub fn expected_checks(seed: u64, iters: usize, threads: usize) -> u64 {
    let cfg = StressConfig::new(seed, iters, threads);
    let backer = backer_for(&cfg);
    let mut checks = iters as u64;
    for i in (0..iters).step_by(cfg.harvest_every) {
        let s = iter_seed(seed, i);
        let c = workload_for(s);
        checks += harvest_observers_cfg(&c, 3, threads, cfg.cache_lines, s, &backer).len() as u64;
    }
    checks
}

fn conforms(c: &Computation, phi: &ObserverFunction) -> bool {
    phi.is_valid_for(c) && Lc.contains(c, phi)
}

/// Runs the traced replica and returns `(metrics, answers JSON)`.
pub fn traced(seed: u64, iters: usize, threads: usize, tr: &mut Tracer) -> (Metrics, String) {
    let mut m = Metrics::default();
    let cfg = StressConfig::new(seed, iters, threads);
    let backer = backer_for(&cfg);
    let (mut checks, mut failures) = (0u64, 0u64);
    let mut distinct: Vec<ObserverFunction> = Vec::new();
    telemetry::set_enabled(true);
    let _ = telemetry::snapshot_and_reset();
    tr.begin("bench.job", 0);
    tr.begin("stress.iterations", 0);
    let a_work = tr.accum("stress.workload");
    let a_run = tr.accum("backer.threads.run");
    let a_sc = tr.accum("model.sc_check");
    let a_lc = tr.accum("model.lc_check");
    let a_dedup = tr.accum("stress.dedup");
    let a_harvest = tr.accum("backer.sim.harvest");
    for i in 0..iters {
        let t0 = Instant::now();
        let s = iter_seed(seed, i);
        let c = workload_for(s);
        let plan: PerturbPlan = cfg.perturb.clone().with_seed(s);
        let t1 = Instant::now();
        let r = threads::run_perturbed(&c, &backer, &plan);
        let t2 = Instant::now();
        if c.node_count() <= 10 && r.observer.is_valid_for(&c) {
            std::hint::black_box(Sc.contains(&c, &r.observer));
        }
        let t3 = Instant::now();
        checks += 1;
        failures += u64::from(!conforms(&c, &r.observer));
        let t4 = Instant::now();
        if !distinct.contains(&r.observer) {
            distinct.push(r.observer);
        }
        let t5 = Instant::now();
        tr.add(a_work, t0, t1);
        tr.add(a_run, t1, t2);
        tr.add(a_sc, t2, t3);
        tr.add(a_lc, t3, t4);
        tr.add(a_dedup, t4, t5);
        if i.is_multiple_of(cfg.harvest_every) {
            let observers = harvest_observers_cfg(&c, 3, threads, cfg.cache_lines, s, &backer);
            let t6 = Instant::now();
            for phi in &observers {
                checks += 1;
                failures += u64::from(!conforms(&c, phi));
            }
            tr.add(a_harvest, t5, t6);
            tr.add(a_lc, t6, Instant::now());
        }
    }
    tr.end("stress.iterations");
    tr.span("stress.drop", 0, |_| drop(distinct));
    tr.end("bench.job");
    let snap = telemetry::snapshot_and_reset();
    telemetry::set_enabled(false);

    let selfs = tr.self_seconds();
    let get = |k: &str| selfs.get(k).copied().unwrap_or(0.0);
    m.set("backer.threads.run_s", get("backer.threads.run"));
    m.set("backer.sim.harvest_s", get("backer.sim.harvest"));
    m.set("model.lc_check_s", get("model.lc_check"));
    m.set("model.sc_check_s", get("model.sc_check"));
    m.set("backer.steal_attempts", snap[Counter::StealAttempts as usize] as f64);
    m.set("backer.perturb_injected", snap[Counter::PerturbInjected as usize] as f64);
    let answers = format!("{{\"iterations\":{iters},\"checks\":{checks},\"failures\":{failures}}}");
    (m, answers)
}
