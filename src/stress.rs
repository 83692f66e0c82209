//! The `ccmm stress` driver: adversarial schedule perturbation for the
//! threaded BACKER executor, with LC conformance as the oracle.
//!
//! Each iteration draws a workload and a fresh [`PerturbPlan`] seed,
//! runs the real threaded executor under the plan, and checks the
//! induced observer function: it must be *well-formed* (valid for the
//! computation) and *location consistent* — the theorem the executor
//! implements. Every `harvest_every`-th iteration additionally runs the
//! deterministic simulator leg ([`ccmm_backer::harvest`]) over seeded
//! schedules, which is what makes a seeded protocol mutation
//! ([`Mutation`]) reproducibly catchable even on a single-core machine,
//! where real data races may never materialize.
//!
//! The loop is a one-worker run of the engine behind `ccmm sweep`
//! ([`supervisor::run_supervised`]) over iteration indices: a panicking
//! iteration is retried once and then quarantined, a deadline turns the
//! run Partial with a resume [`Frontier`], the frontier is journalled
//! through [`ckpt::CkptWriter`] on the engine's cadence (a failed append
//! degrades the run), and a [`FaultPlan`] can panic/delay/kill specific
//! iterations or fail a journal record to exercise the supervision
//! itself.
//!
//! Determinism contract (per `(seed, iters, threads)`): the workload
//! sequence, the perturbation decisions, the simulator-leg observers,
//! and therefore the check count and every failure (seed + shrunk
//! trace) are reproducible. What the *OS* does with the injected
//! schedule points is not — so the distinct-observer and SC-membership
//! tallies from the threaded leg are reported as timing-dependent and
//! never checkpointed or compared.

use ccmm_backer::harvest::harvest_observers_cfg;
use ccmm_backer::{threads, BackerConfig, FaultInjection, PerturbPlan};
use ccmm_conformance::{shrink, sources};
use ccmm_core::fault::{splitmix64, FaultPlan};
use ccmm_core::sweep::supervisor::{self, CkptSink, Frontier, Supervised, SweepStatus};
use ccmm_core::{ckpt, Computation, Lc, Location, MemoryModel, ObserverFunction, Op, Sc};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::time::Duration;

/// A deliberately weakened executor, used by the self-test to prove the
/// harness catches real protocol bugs. Each mutation maps to a
/// [`FaultInjection`] switch: the executions it produces are exactly
/// what a lost happens-before edge would admit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Mutation {
    /// The correct protocol.
    #[default]
    None,
    /// Skip the flush before a node with a cross-processor predecessor —
    /// models trusting a stale `proc_of` read (a weakened Acquire).
    SkipFlush,
    /// Skip the reconcile after every node — models a lost release edge:
    /// writes never become visible across dependency edges.
    SkipReconcile,
}

impl Mutation {
    /// Every mutation, in the order usage texts list them.
    const ALL: [Mutation; 3] = [Mutation::None, Mutation::SkipFlush, Mutation::SkipReconcile];

    /// Parses a `--mutate` value (or a `ccmm watch --fault` value).
    pub fn from_name(name: &str) -> Result<Self, String> {
        Self::ALL.into_iter().find(|m| m.name() == name).ok_or_else(|| {
            let names = Self::ALL.map(Mutation::name).join(" | ");
            format!("unknown mutation `{name}` ({names})")
        })
    }

    /// The canonical name (inverse of [`Mutation::from_name`]).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::SkipFlush => "skip-flush",
            Mutation::SkipReconcile => "skip-reconcile",
        }
    }

    /// The executor fault switches this mutation throws; `ccmm watch
    /// --fault` takes the same names.
    pub fn faults(self) -> FaultInjection {
        match self {
            Mutation::None => FaultInjection::NONE,
            Mutation::SkipFlush => FaultInjection { skip_flush: true, skip_reconcile: false },
            Mutation::SkipReconcile => FaultInjection { skip_flush: false, skip_reconcile: true },
        }
    }
}

/// Configuration for one stress run.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Base seed; iteration `i` derives its own seed from `(seed, i)`.
    pub seed: u64,
    /// Total iterations.
    pub iters: usize,
    /// Worker threads for the threaded executor (and simulator procs).
    pub threads: usize,
    /// Perturbation shape (its seed is replaced per iteration).
    pub perturb: PerturbPlan,
    /// Executor mutation under test (`None` for a conformance run).
    pub mutation: Mutation,
    /// Wall-clock budget; exceeded ⇒ Partial with a resume frontier.
    pub deadline: Option<Duration>,
    /// Small-cache capacity exercised alongside unbounded caches.
    pub cache_lines: usize,
    /// Run the deterministic simulator leg every this many iterations
    /// (≥ 1; the threaded leg runs every iteration).
    pub harvest_every: usize,
}

impl StressConfig {
    /// Defaults: aggressive perturbation, no mutation, sim leg every 4th
    /// iteration, 1-line small caches.
    pub fn new(seed: u64, iters: usize, threads: usize) -> Self {
        StressConfig {
            seed,
            iters,
            threads,
            perturb: PerturbPlan::aggressive(seed),
            mutation: Mutation::None,
            deadline: None,
            cache_lines: 1,
            harvest_every: 4,
        }
    }

    /// The checkpoint fingerprint: pins everything that must match for a
    /// journal to be resumable into this run.
    pub fn fingerprint(&self) -> String {
        format!(
            "ccmm-stress-v1 seed={} iters={} threads={} perturb={} mutation={} cache_lines={} \
             harvest_every={}",
            self.seed,
            self.iters,
            self.threads,
            self.perturb,
            self.mutation.name(),
            self.cache_lines,
            self.harvest_every
        )
    }
}

/// One conformance failure, shrunk to a 1-minimal witness.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The iteration that failed.
    pub iteration: usize,
    /// Its derived seed — rerunning with `--seed` this and `--iters 1`
    /// reproduces the deterministic leg's failure.
    pub seed: u64,
    /// Which workload the iteration drew.
    pub workload: String,
    /// Which leg caught it.
    pub leg: &'static str,
    /// `invalid-observer` or `lc-violation`.
    pub kind: &'static str,
    /// The shrunk computation.
    pub c: Computation,
    /// The shrunk observer function.
    pub phi: ObserverFunction,
    /// Shrink moves taken.
    pub shrink_steps: usize,
}

/// What a stress run tallies — one iteration's delta, and the merged
/// total a [`StressReport`] carries.
#[derive(Debug, Default)]
pub struct StressTally {
    /// Conformance checks performed — deterministic per (S, N, T).
    pub checks: u64,
    /// Conformance failures (the run stops at the first).
    pub failures: Vec<Failure>,
    /// Distinct observers seen from the threaded leg, in first-seen order
    /// — timing-dependent.
    pub distinct_observers: Vec<ObserverFunction>,
    /// The set behind `distinct_observers`' deduplication.
    seen: HashSet<ObserverFunction>,
    /// Threaded-leg observers that were also SC — timing-dependent.
    pub sc_member: u64,
    /// Threaded-leg observers SC-checked — timing-dependent.
    pub sc_checked: u64,
}

impl StressTally {
    /// Folds one iteration's delta in; breaks at a conformance failure.
    fn merge(&mut self, delta: StressTally) -> ControlFlow<()> {
        self.checks += delta.checks;
        self.sc_member += delta.sc_member;
        self.sc_checked += delta.sc_checked;
        for phi in delta.distinct_observers {
            if self.seen.insert(phi.clone()) {
                self.distinct_observers.push(phi);
            }
        }
        self.failures.extend(delta.failures);
        if self.failures.is_empty() {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    }
}

/// The outcome of a stress run: the tally plus the engine's verdict
/// (status, completed-iteration frontier, quarantined iterations, and any
/// journalling failure).
pub type StressReport = Supervised<StressTally>;

/// The iteration seed: a pure function of the run seed and the index,
/// so a resumed run derives identical per-iteration behaviour.
/// Iteration 0 uses the run seed verbatim, which makes the failure
/// report's rerun hint exact: `--seed <failing seed> --iters 1` replays
/// the failing iteration as iteration 0 of a fresh run.
pub fn iter_seed(seed: u64, iteration: usize) -> u64 {
    if iteration == 0 {
        seed
    } else {
        splitmix64(seed ^ splitmix64(iteration as u64))
    }
}

/// The Cilk conformance workloads, built once per run.
type Fixed = [(&'static str, Computation)];

/// The deterministic workload pool. Fixed shapes come first (they pin
/// the executor's fork/join and chain paths); the rest of the index
/// space draws random computations from the iteration seed.
fn workload_for(fixed: &Fixed, iter_seed: u64) -> (String, Computation) {
    let pick = (iter_seed % (fixed.len() as u64 + 3)) as usize;
    if let Some((name, c)) = fixed.get(pick) {
        return (name.to_string(), c.clone());
    }
    match pick - fixed.len() {
        0 => {
            // An 8-node write/read chain: must behave like serial memory.
            let dag = ccmm_dag::generate::chain(8);
            let ops: Vec<Op> = (0..8)
                .map(|i| {
                    if i % 2 == 0 {
                        Op::Write(Location::new(0))
                    } else {
                        Op::Read(Location::new(0))
                    }
                })
                .collect();
            ("chain8".into(), Computation::new(dag, ops).expect("one op per node"))
        }
        1 => {
            let dag = ccmm_dag::generate::fork_join_tree(3);
            let n = dag.node_count();
            let ops: Vec<Op> = (0..n)
                .map(|i| match i % 4 {
                    0 => Op::Write(Location::new(0)),
                    1 => Op::Read(Location::new(0)),
                    2 => Op::Write(Location::new(1)),
                    _ => Op::Read(Location::new(1)),
                })
                .collect();
            ("fork-join3".into(), Computation::new(dag, ops).expect("one op per node"))
        }
        _ => {
            let mut rng = StdRng::seed_from_u64(iter_seed);
            ("random".into(), sources::random_computation(&mut rng, 12, 3))
        }
    }
}

/// Checks one observer; on disagreement shrinks it to a 1-minimal
/// witness and returns the failure.
fn check_observer(
    iteration: usize,
    seed: u64,
    workload: &str,
    leg: &'static str,
    c: &Computation,
    phi: &ObserverFunction,
) -> Result<(), Box<Failure>> {
    let kind = if !phi.is_valid_for(c) {
        "invalid-observer"
    } else if !Lc.contains(c, phi) {
        "lc-violation"
    } else {
        return Ok(());
    };
    let shrunk = shrink(c, phi, |c2, p2| !p2.is_valid_for(c2) || !Lc.contains(c2, p2));
    Err(Box::new(Failure {
        iteration,
        seed,
        workload: workload.to_string(),
        leg,
        kind,
        c: shrunk.c,
        phi: shrunk.phi,
        shrink_steps: shrunk.steps,
    }))
}

/// Runs one iteration: the threaded leg (every time) and the simulator
/// leg (on `harvest_every` boundaries).
fn run_iteration(cfg: &StressConfig, fixed: &Fixed, iteration: usize) -> StressTally {
    let seed = iter_seed(cfg.seed, iteration);
    let (workload, c) = workload_for(fixed, seed);
    let plan = cfg.perturb.clone().with_seed(seed);
    let backer = BackerConfig::with_processors(cfg.threads)
        .cache_capacity(cfg.cache_lines.max(1))
        .faults(cfg.mutation.faults());
    let mut delta = StressTally::default();

    // Threaded leg: real OS threads under the perturbation plan.
    let r = threads::run_perturbed(&c, &backer, &plan);
    delta.checks += 1;
    // SC membership is worth tallying only where the exact checker is
    // cheap; the tally is timing-dependent either way.
    if c.node_count() <= 10 && r.observer.is_valid_for(&c) {
        delta.sc_checked += 1;
        delta.sc_member += Sc.contains(&c, &r.observer) as u64;
    }
    if let Err(f) = check_observer(iteration, seed, &workload, "threaded", &c, &r.observer) {
        delta.failures.push(*f);
        return delta;
    }
    delta.distinct_observers.push(r.observer);

    // Simulator leg: deterministic seeded schedules through the same
    // protocol switches — the leg that reproduces mutations reliably.
    if iteration.is_multiple_of(cfg.harvest_every.max(1)) {
        for phi in harvest_observers_cfg(&c, 3, cfg.threads, cfg.cache_lines, seed, &backer) {
            delta.checks += 1;
            if let Err(f) = check_observer(iteration, seed, &workload, "sim", &c, &phi) {
                delta.failures.push(*f);
                return delta;
            }
        }
    }
    delta
}

/// Encodes the checkpoint payload: frontier + deterministic counters.
/// Timing-dependent tallies are deliberately not journalled — a resumed
/// run re-derives only what is reproducible.
fn encode_snapshot(frontier: &Frontier, checks: u64) -> Vec<u8> {
    let mut out = Vec::new();
    frontier.encode_into(&mut out);
    ckpt::put_u64(&mut out, checks);
    out
}

/// Decodes a checkpoint payload.
pub fn decode_snapshot(mut bytes: &[u8]) -> Option<(Frontier, u64)> {
    let f = Frontier::decode_from(&mut bytes)?;
    let checks = ckpt::get_u64(&mut bytes)?;
    if bytes.is_empty() {
        Some((f, checks))
    } else {
        None
    }
}

/// Runs the stress loop under supervision: a one-worker
/// [`supervisor::run_supervised`] over the iteration indices.
///
/// One worker, because the executor under test is internally parallel —
/// nesting thread pools would only dilute the contention the
/// perturbation works to create. The run carries the full supervisor
/// contract: panic → retry once → quarantine; deadline → Partial with a
/// resume frontier; `fault` can panic/delay specific iterations, kill
/// after checkpoint records and fail a record's write; `resume` skips
/// already-completed iterations; `ckpt` (`(journal, every-N-iterations)`)
/// journals `(frontier, checks)` snapshots. The run stops early at the
/// first conformance failure — there is nothing more valuable to learn,
/// and the failing seed plus shrunk trace is the deliverable.
pub fn run_supervised(
    cfg: &StressConfig,
    fault: &FaultPlan,
    resume: Option<(Frontier, u64)>,
    ckpt: Option<(&mut ckpt::CkptWriter, usize)>,
) -> StressReport {
    let (frontier, checks) = resume.unwrap_or_default();
    let encode = |tally: &StressTally, f: &Frontier| encode_snapshot(f, tally.checks);
    let sink = ckpt.map(|(writer, every)| CkptSink { writer, every, encode: &encode });
    let fixed = ccmm_cilk::programs::conformance_workloads();
    supervisor::run_supervised(
        (0..cfg.iters).collect(),
        1,
        cfg.deadline,
        fault,
        frontier,
        StressTally { checks, ..StressTally::default() },
        sink,
        || (),
        |&i, _| run_iteration(cfg, &fixed, i),
        |tally, delta, _| tally.merge(delta),
    )
}

/// Convenience entry: unsupervised faults, no checkpoint.
pub fn run(cfg: &StressConfig) -> StressReport {
    run_supervised(cfg, &FaultPlan::none(), None, None)
}

/// The self-test: proves the harness catches a deliberately weakened
/// executor. Runs a seeded mutation (`skip-reconcile`, modelling a lost
/// release edge) and requires a conformance failure with a reproducible
/// seed and a shrunk trace; then re-runs the identical seeds unmutated
/// and requires a clean pass.
pub fn self_test(threads: usize) -> Result<(), String> {
    let mut cfg = StressConfig::new(0x00C0_FFEE, 24, threads);
    cfg.harvest_every = 1; // the deterministic leg every iteration
    cfg.mutation = Mutation::SkipReconcile;
    let mutated = run(&cfg);
    let Some(f) = mutated.value.failures.first() else {
        return Err("self-test: the skip-reconcile mutation was NOT caught".into());
    };
    if f.c.node_count() == 0 {
        return Err("self-test: shrunk trace is empty".into());
    }
    // The failure must reproduce from its reported seed alone.
    let (_, c) = workload_for(&ccmm_cilk::programs::conformance_workloads(), f.seed);
    let backer = BackerConfig::with_processors(threads)
        .cache_capacity(cfg.cache_lines.max(1))
        .faults(Mutation::SkipReconcile.faults());
    let reproduced = harvest_observers_cfg(&c, 3, threads, cfg.cache_lines, f.seed, &backer)
        .iter()
        .any(|phi| !phi.is_valid_for(&c) || !Lc.contains(&c, phi));
    if f.leg == "sim" && !reproduced {
        return Err(format!("self-test: seed {} did not reproduce the sim-leg failure", f.seed));
    }
    cfg.mutation = Mutation::None;
    let clean = run(&cfg);
    if clean.status != SweepStatus::Complete || !clean.value.failures.is_empty() {
        return Err(format!(
            "self-test: unmutated executor failed conformance (status {:?}, {} failure(s))",
            clean.status,
            clean.value.failures.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_is_deterministic_per_seed_in_its_deterministic_outputs() {
        let cfg = StressConfig::new(42, 12, 2);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.status, SweepStatus::Complete);
        assert_eq!(
            a.value.checks, b.value.checks,
            "check count is part of the determinism contract"
        );
        assert_eq!(a.value.failures.len(), 0);
        assert_eq!(b.value.failures.len(), 0);
        assert_eq!(a.frontier, b.frontier);
    }

    #[test]
    fn iteration_seeds_differ_and_are_stable() {
        let s: Vec<u64> = (0..16).map(|i| iter_seed(7, i)).collect();
        let t: Vec<u64> = (0..16).map(|i| iter_seed(7, i)).collect();
        assert_eq!(s, t);
        let mut u = s.clone();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), s.len(), "iteration seeds must not collide");
    }

    #[test]
    fn deadline_yields_partial_with_a_resumable_frontier() {
        let mut cfg = StressConfig::new(3, 10_000, 2);
        cfg.deadline = Some(Duration::from_millis(30));
        let r = run(&cfg);
        assert_eq!(r.status, SweepStatus::Partial);
        assert!(r.frontier.len() < cfg.iters);
        // Resuming from the frontier completes the remaining indices
        // (shrink the total so the resumed run finishes quickly).
        let mut cfg2 = cfg.clone();
        cfg2.iters = r.frontier.len() + 5;
        cfg2.deadline = None;
        let resumed = run_supervised(
            &cfg2,
            &FaultPlan::none(),
            Some((r.frontier.clone(), r.value.checks)),
            None,
        );
        assert_eq!(resumed.status, SweepStatus::Complete);
        assert_eq!(resumed.frontier.len(), cfg2.iters);
    }

    #[test]
    fn fault_plan_panics_are_quarantined() {
        let cfg = StressConfig::new(5, 8, 2);
        let fault = FaultPlan::none().panic_at_task(3);
        let r = run_supervised(&cfg, &fault, None, None);
        assert_eq!(r.status, SweepStatus::Degraded);
        assert_eq!(r.quarantined.len(), 1);
        assert_eq!(r.quarantined[0].task_idx, 3);
        assert!(!r.frontier.contains(3));
    }

    #[test]
    fn mutation_is_caught_with_seed_and_shrunk_trace() {
        let mut cfg = StressConfig::new(0x00C0_FFEE, 24, 2);
        cfg.harvest_every = 1;
        cfg.mutation = Mutation::SkipReconcile;
        let r = run(&cfg);
        let f = r.value.failures.first().expect("skip-reconcile must be caught");
        assert!(f.c.node_count() >= 1);
        assert!(f.shrink_steps > 0 || f.c.node_count() <= 3, "trace should have shrunk");
        assert_eq!(f.seed, iter_seed(cfg.seed, f.iteration));
    }

    #[test]
    fn self_test_passes() {
        self_test(2).expect("self-test");
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let mut f = Frontier::new();
        for i in [0usize, 1, 2, 7, 8, 20] {
            f.insert(i);
        }
        let bytes = encode_snapshot(&f, 99);
        let (f2, checks) = decode_snapshot(&bytes).expect("decode");
        assert_eq!(f2, f);
        assert_eq!(checks, 99);
        assert_eq!(decode_snapshot(&bytes[..bytes.len() - 1]), None);
    }
}
