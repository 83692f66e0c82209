//! Parallel universe sweeps: sharding the (poset × op-labelling) space.
//!
//! Every exhaustive checker in this crate walks the same space — all
//! naturally labelled posets of each size crossed with all op labellings
//! and all valid observer functions. This module shards that space across
//! worker threads: the *task* unit is one poset (all labellings of one
//! dag), materialised in serial enumeration order with a global index and
//! distributed through a work-stealing [`Injector`] under
//! [`std::thread::scope`].
//!
//! **Symmetry reduction.** Every property swept here is invariant under
//! dag isomorphism and under permutations of the location alphabet. With
//! [`SweepConfig::canonical`] set, the sweep enumerates only canonical
//! poset representatives ([`ccmm_dag::canon`]) weighted by orbit size,
//! and within each poset only location-canonical op labellings weighted
//! by their `S_k`-orbit, so weighted totals are *integer-identical* to
//! the labelled scan at a fraction of the work. Witnesses are also
//! bit-identical: the minimal witnessing poset is necessarily canonical
//! (its class representative is the first class member in enumeration
//! order and witnesses too, by invariance), and the first witnessing
//! labelling within it is necessarily location-canonical (ditto), so the
//! smallest-task-index merge returns exactly the serial labelled witness.
//!
//! Determinism is part of the contract, not an accident:
//!
//! * counting sweeps ([`supervisor::memberships`], [`supervisor::compare`])
//!   visit every pair exactly once (canonical mode: exactly once per
//!   orbit, weighted), so the merged totals are bit-identical to the
//!   serial scan;
//! * witness sweeps ([`supervisor::check_complete_supervised`] and its
//!   siblings, and [`supervisor::compare`]'s witnesses) resolve races by
//!   *smallest task index wins*. A task is scanned serially by exactly
//!   one worker, so "first witness within the minimal witnessing task" is
//!   exactly the witness the serial scan returns. A shared atomic
//!   best-index lets workers skip or abandon tasks that can no longer
//!   win — cooperative early exit without changing the answer.
//!
//! Every entry point lives in [`supervisor`]. Thread count comes from
//! [`SweepConfig`]: the `CCMM_THREADS` environment variable when set,
//! otherwise [`std::thread::available_parallelism`].

pub mod supervisor;

use crate::computation::Computation;
use crate::op::{Location, Op};
use crate::universe::Universe;
use ccmm_dag::canon::for_each_canonical_poset;
use ccmm_dag::poset::{count_posets_fast, for_each_poset_indexed};
use ccmm_dag::Dag;
use crossbeam::deque::{Injector, Steal};
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How a sweep is parallelised and enumerated.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Number of worker threads (≥ 1).
    pub threads: usize,
    /// Sweep canonical poset representatives and location-canonical
    /// labellings only, weighting counts by orbit size (see the module
    /// docs). Totals and witnesses are identical to the labelled sweep.
    pub canonical: bool,
    /// Cooperative time budget: workers stop between tasks once it
    /// elapses and the sweep reports a partial result with its resume
    /// frontier. [`supervisor::Supervised::expect_complete`] panics on a
    /// partial result — set a deadline only when the caller inspects
    /// [`supervisor::SweepStatus`].
    pub deadline: Option<Duration>,
}

impl SweepConfig {
    /// `CCMM_THREADS` when set to a positive integer, otherwise the
    /// machine's available parallelism (1 if unknown).
    pub fn from_env() -> Self {
        Self::from_threads_var(std::env::var("CCMM_THREADS").ok().as_deref())
    }

    /// [`SweepConfig::from_env`] given the variable's value: a positive
    /// integer (surrounding whitespace allowed) is the thread count;
    /// anything else, or no value, falls back to the machine's available
    /// parallelism (1 if unknown).
    pub fn from_threads_var(value: Option<&str>) -> Self {
        let available = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let parsed = value.and_then(|s| s.trim().parse().ok()).filter(|&n| n > 0);
        Self::with_threads(parsed.unwrap_or_else(available))
    }

    /// A single-threaded sweep (the serial scan, run through the same
    /// engine).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// An explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "a sweep needs at least one thread");
        SweepConfig { threads, canonical: false, deadline: None }
    }

    /// Enables or disables symmetry-reduced (canonical) enumeration.
    pub fn canonical(mut self, on: bool) -> Self {
        self.canonical = on;
        self
    }

    /// Sets the cooperative time budget (see the `deadline` field).
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig::from_env()
    }
}

/// One unit of sweep work: one poset, covering all its op labellings.
pub(crate) struct Task {
    /// Global index in serial enumeration order (sizes ascending, posets
    /// in `for_each_poset` order within a size). Canonical tasks keep
    /// their *labelled* global index, so smallest-index witness merging
    /// stays comparable with the labelled scan.
    pub(crate) idx: usize,
    /// Node count of the poset.
    pub(crate) size: usize,
    /// Number of labelled posets in this poset's isomorphism class
    /// (1 in labelled mode).
    pub(crate) weight: u64,
    /// The poset's transitive-closure dag.
    pub(crate) dag: Dag,
}

/// All tasks of the universe, in serial enumeration order. In canonical
/// mode, only class representatives — weighted by orbit, keeping their
/// labelled global indices.
pub(crate) fn materialize(u: &Universe, canonical: bool) -> Vec<Task> {
    let mut tasks = Vec::new();
    let mut base = 0usize;
    for n in 0..=u.max_nodes {
        if canonical {
            for (idx, weight, dag) in canonical_posets(n).iter() {
                tasks.push(Task { idx: base + idx, size: n, weight: *weight, dag: dag.clone() });
            }
        } else {
            for_each_poset_indexed(n, |idx, dag| {
                tasks.push(Task { idx: base + idx, size: n, weight: 1, dag: dag.clone() });
            });
        }
        base += count_posets_fast(n) as usize;
    }
    tasks
}

type Posets = Arc<Vec<(usize, u64, Dag)>>;

/// Canonical `n`-node posets as `(index, orbit, dag)`, listed once per
/// process and shared by every canonical phase of a run.
fn canonical_posets(n: usize) -> Posets {
    static CACHE: Mutex<Vec<Posets>> = Mutex::new(Vec::new());
    // A panic mid-listing pushes nothing, so a poisoned cache is valid.
    let mut cache = CACHE.lock().unwrap_or_else(|e| e.into_inner());
    while cache.len() <= n {
        let mut posets = Vec::new();
        for_each_canonical_poset(cache.len(), |i, dag, info| {
            posets.push((i, info.orbit, dag.clone()))
        });
        cache.push(Arc::new(posets));
    }
    Arc::clone(&cache[n])
}

/// Per-worker labelling state: one reusable [`Computation`] retargeted per
/// task and relabelled per op labelling (zero allocation in the loop), the
/// base-`k` digit counter, and the op buffer.
pub(crate) struct LabelScratch {
    c: Computation,
    digits: Vec<usize>,
    ops: Vec<Op>,
}

impl LabelScratch {
    pub(crate) fn new() -> Self {
        LabelScratch { c: Computation::empty(), digits: Vec::new(), ops: Vec::new() }
    }
}

/// Digit maps of the location-permutation group: for each `π ∈ S_k`,
/// entry `d` is the alphabet index of `alphabet[d]` with `π` applied to
/// its location. The identity is included. Labelled sweeps pass
/// `num_locations = 0` (or 1), collapsing the group to the identity.
fn location_digit_maps(alphabet: &[Op], num_locations: usize) -> Vec<Vec<usize>> {
    let mut perms: Vec<Vec<usize>> = vec![Vec::new()];
    for i in 0..num_locations {
        perms = perms
            .into_iter()
            .flat_map(|p| {
                (0..=i).map(move |at| {
                    let mut q = p.clone();
                    q.insert(at, i);
                    q
                })
            })
            .collect();
    }
    perms
        .iter()
        .map(|p| {
            alphabet
                .iter()
                .map(|op| {
                    let moved = match *op {
                        Op::Nop => Op::Nop,
                        Op::Read(l) => Op::Read(Location::new(p[l.index()])),
                        Op::Write(l) => Op::Write(Location::new(p[l.index()])),
                    };
                    alphabet
                        .iter()
                        .position(|&o| o == moved)
                        .expect("alphabet is closed under location permutation")
                })
                .collect()
        })
        .collect()
}

/// Whether `digits` is the first member of its `S_k`-orbit in labelling
/// enumeration order (reversed-digit lexicographic: `digits[n-1]` most
/// significant, matching the base-`k` counter that increments `digits[0]`
/// fastest), and if so its orbit size `|S_k| / |Stab|`.
fn location_canonical_weight(digits: &[usize], maps: &[Vec<usize>]) -> (bool, u64) {
    let mut stabilizers = 0u64;
    for m in maps {
        let mut cmp = std::cmp::Ordering::Equal;
        for &d in digits.iter().rev() {
            cmp = m[d].cmp(&d);
            if cmp != std::cmp::Ordering::Equal {
                break;
            }
        }
        match cmp {
            std::cmp::Ordering::Less => return (false, 0),
            std::cmp::Ordering::Equal => stabilizers += 1,
            std::cmp::Ordering::Greater => {}
        }
    }
    (true, maps.len() as u64 / stabilizers)
}

/// Calls `f` with every op labelling of a task's poset, in the same
/// base-`k` digit-counter order as `Universe::for_each_computation_of_size`,
/// plus the labelling's universe multiplicity (poset orbit × location
/// orbit; 1 in labelled mode). With more than one digit map, only
/// location-canonical labellings are visited.
pub(crate) fn for_each_labelling<F>(
    alphabet: &[Op],
    maps: &[Vec<usize>],
    task: &Task,
    scratch: &mut LabelScratch,
    f: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&Computation, u64) -> ControlFlow<()>,
{
    let n = task.size;
    let k = alphabet.len();
    crate::telemetry::count(crate::telemetry::Counter::PosetsScanned, 1);
    scratch.c.retarget(&task.dag);
    scratch.digits.clear();
    scratch.digits.resize(n, 0);
    loop {
        let (canonical, loc_weight) = if maps.len() <= 1 {
            (true, 1)
        } else {
            location_canonical_weight(&scratch.digits, maps)
        };
        if canonical {
            crate::telemetry::count(crate::telemetry::Counter::LabellingsScanned, 1);
            scratch.ops.clear();
            scratch.ops.extend(scratch.digits.iter().map(|&d| alphabet[d]));
            scratch.c.refresh_ops(&scratch.ops);
            f(&scratch.c, task.weight * loc_weight)?;
        }
        let mut i = 0;
        loop {
            if i == n {
                return ControlFlow::Continue(());
            }
            scratch.digits[i] += 1;
            if scratch.digits[i] < k {
                break;
            }
            scratch.digits[i] = 0;
            i += 1;
        }
    }
}

/// The digit maps a config asks for: the full `S_k` group in canonical
/// mode, just the identity otherwise.
pub(crate) fn maps_for(u: &Universe, cfg: &SweepConfig, alphabet: &[Op]) -> Vec<Vec<usize>> {
    if cfg.canonical {
        location_digit_maps(alphabet, u.num_locations)
    } else {
        vec![(0..alphabet.len()).collect()]
    }
}

/// Pops the next unit, absorbing `Retry`.
pub(crate) fn pop<T>(injector: &Injector<T>) -> Option<T> {
    loop {
        match injector.steal() {
            Steal::Success(t) => return Some(t),
            Steal::Empty => return None,
            Steal::Retry => continue,
        }
    }
}

/// Runs `worker` on `threads` scoped threads over a shared FIFO queue of
/// `units` and collects the per-worker results. With one thread the
/// worker runs on the caller's thread — no spawn, same code path — and
/// takes the units in order.
pub(crate) fn run_workers<T, R, W>(units: Vec<T>, threads: usize, worker: W) -> Vec<R>
where
    T: Send,
    R: Send,
    W: Fn(&Injector<T>) -> R + Sync,
{
    let injector = Injector::new();
    for u in units {
        injector.push(u);
    }
    if threads == 1 {
        return vec![worker(&injector)];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| worker(&injector))).collect();
        // Task panics are caught per task inside the supervised engine,
        // so a panic escaping a worker is an infrastructure bug — re-raise
        // it instead of replacing it with a generic expect message.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::supervisor::{
        check_complete_supervised, check_constructible_aug_supervised, check_monotonic_supervised,
        compare, sweep_supervised, Scalar, Supervisor, SweepStatus,
    };
    use super::*;
    use crate::model::{Model, Nn};
    use crate::props::{check_complete, check_constructible_aug, check_monotonic};
    use crate::relation::{self, Comparison};

    fn assert_same_comparison(serial: &Comparison, par: &Comparison) {
        assert_eq!(serial.relation, par.relation);
        assert_eq!(serial.both, par.both);
        assert_eq!(serial.a_total, par.a_total);
        assert_eq!(serial.b_total, par.b_total);
        assert_eq!(serial.pairs_checked, par.pairs_checked);
        assert_eq!(serial.a_only, par.a_only, "a_only witness differs");
        assert_eq!(serial.b_only, par.b_only, "b_only witness differs");
    }

    fn par_compare(a: &Model, b: &Model, u: &Universe, cfg: &SweepConfig) -> Comparison {
        compare(Scalar, a, b, u, cfg, &Supervisor::none()).expect_complete("compare")
    }

    /// Weighted computation count of a sweep.
    fn weighted_count(u: &Universe, cfg: &SweepConfig) -> u128 {
        let count = |acc: &mut u128, _: &mut (), _, _: &_, w| *acc += u128::from(w);
        sweep_supervised(u, cfg, &Supervisor::none(), None, None, || 0, || (), count)
            .expect_complete("counting sweep")
    }

    #[test]
    fn compare_is_bit_identical_to_serial() {
        let u = Universe::new(3, 1);
        for threads in [1, 2, 4, 7] {
            let cfg = SweepConfig::with_threads(threads);
            for (a, b) in [
                (Model::Lc, Model::Nn),
                (Model::Nn, Model::Lc),
                (Model::Sc, Model::Any),
                (Model::Nw, Model::Wn),
            ] {
                let serial = relation::compare(&a, &b, &u);
                assert_same_comparison(&serial, &par_compare(&a, &b, &u, &cfg));
            }
        }
    }

    #[test]
    fn compare_two_locations() {
        let u = Universe::new(3, 2);
        let serial = relation::compare(&Model::Sc, &Model::Lc, &u);
        let cfg = SweepConfig::with_threads(3);
        assert_same_comparison(&serial, &par_compare(&Model::Sc, &Model::Lc, &u, &cfg));
    }

    #[test]
    fn parallel_props_agree_with_serial_on_passing_models() {
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(4);
        let none = Supervisor::none();
        for m in [Model::Sc, Model::Lc, Model::Nn, Model::Ww] {
            assert_eq!(
                check_complete(&m, &u).is_ok(),
                check_complete_supervised(&m, &u, &cfg, &none)
                    .expect_complete("complete")
                    .is_none()
            );
            assert_eq!(
                check_monotonic(&m, &u).is_ok(),
                check_monotonic_supervised(&m, &u, &cfg, &none)
                    .expect_complete("monotonic")
                    .is_none()
            );
            assert_eq!(
                check_constructible_aug(&m, &u).is_ok(),
                check_constructible_aug_supervised(&m, &u, &cfg, &none)
                    .expect_complete("constructible")
                    .is_none()
            );
        }
    }

    #[test]
    fn parallel_constructibility_witness_matches_serial() {
        // NN fails constructibility at the 5-node bound; the parallel
        // search must return the exact witness the serial scan finds —
        // labelled and canonical alike.
        let u = Universe::new(5, 1);
        let serial =
            check_constructible_aug(&Nn::default(), &u).expect_err("NN is not constructible");
        for cfg in [SweepConfig::with_threads(4), SweepConfig::with_threads(2).canonical(true)] {
            let par =
                check_constructible_aug_supervised(&Nn::default(), &u, &cfg, &Supervisor::none())
                    .expect_complete("constructibility")
                    .expect("NN is not constructible (parallel)");
            assert_eq!(serial.c, par.c);
            assert_eq!(serial.phi, par.phi);
            assert_eq!(serial.extension, par.extension);
            assert_eq!(serial.op, par.op);
        }
    }

    #[test]
    fn counting_sweep_counts_the_universe() {
        let u = Universe::new(3, 1);
        for threads in [1, 2, 4, 7] {
            let n = weighted_count(&u, &SweepConfig::with_threads(threads));
            assert_eq!(n, u.count_computations() as u128);
        }
    }

    #[test]
    fn canonical_weighted_counts_recover_closed_form() {
        // Orbit-weighted totals must equal the labelled universe size
        // *exactly*, at every bound and with a multi-location alphabet
        // (exercising the location quotient), at several thread counts.
        for (nodes, locs) in [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2)] {
            let u = Universe::new(nodes, locs);
            for threads in [1, 2, 4] {
                let cfg = SweepConfig::with_threads(threads).canonical(true);
                assert_eq!(
                    weighted_count(&u, &cfg),
                    u.count_computations_closed(),
                    "bound {nodes}, {locs} locations, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn panicking_task_degrades_with_surviving_counts() {
        // A panicking task must quarantine and degrade — not abort the
        // process — with every other task's delta intact, serial and
        // parallel alike.
        let u = Universe::new(3, 1);
        let none = Supervisor::none();
        let count = |cfg: &SweepConfig, only_task_1: bool| {
            let count = |acc: &mut u64, _: &mut (), idx, _: &_, _| {
                *acc += u64::from(!only_task_1 || idx == 1)
            };
            sweep_supervised(&u, cfg, &none, None, None, || 0, || (), count)
        };
        let total = count(&SweepConfig::serial(), false).expect_complete("clean sweep");
        let task1 = count(&SweepConfig::serial(), true).expect_complete("task-1 sweep");
        assert!(task1 > 0, "task 1 does real work at this bound");
        for threads in [1, 2, 4] {
            let out = sweep_supervised(
                &u,
                &SweepConfig::with_threads(threads),
                &none,
                None,
                None,
                || 0u64,
                || (),
                |acc, _, idx, _, _| {
                    assert!(idx != 1, "task 1 always panics");
                    *acc += 1;
                },
            );
            assert_eq!(out.status, SweepStatus::Degraded, "{threads} threads");
            assert_eq!(out.quarantined.len(), 1);
            assert_eq!(out.quarantined[0].task_idx, 1);
            assert!(out.quarantined[0].payload.contains("always panics"));
            assert!(!out.frontier.contains(1));
            assert_eq!(out.frontier.len(), out.total_tasks - 1);
            assert_eq!(out.value, total - task1);
        }
    }

    #[test]
    fn canonical_compare_is_bit_identical_to_labelled() {
        // Same totals, same witnesses — including with two locations,
        // where the location quotient is non-trivial.
        for (nodes, locs) in [(3, 1), (3, 2)] {
            let u = Universe::new(nodes, locs);
            for threads in [1, 2, 4] {
                let cfg = SweepConfig::with_threads(threads).canonical(true);
                for (a, b) in [(Model::Lc, Model::Nn), (Model::Sc, Model::Lc)] {
                    let serial = relation::compare(&a, &b, &u);
                    assert_same_comparison(&serial, &par_compare(&a, &b, &u, &cfg));
                }
            }
        }
    }

    #[test]
    fn canonical_witness_checks_match_labelled() {
        // NN is complete and monotonic at this bound.
        let u = Universe::new(4, 1);
        let cfg = SweepConfig::with_threads(2).canonical(true);
        let none = Supervisor::none();
        let complete = check_complete_supervised(&Model::Nn, &u, &cfg, &none);
        assert!(complete.expect_complete("complete").is_none());
        let monotonic = check_monotonic_supervised(&Model::Nn, &u, &cfg, &none);
        assert!(monotonic.expect_complete("monotonic").is_none());
    }

    #[test]
    fn location_digit_maps_group_properties() {
        let u = Universe::new(2, 2);
        let alphabet = u.alphabet();
        let maps = location_digit_maps(&alphabet, 2);
        assert_eq!(maps.len(), 2, "S_2 has two elements");
        // Each map is a permutation of alphabet indices fixing Nop.
        for m in &maps {
            let mut seen = vec![false; alphabet.len()];
            for &i in m {
                assert!(!seen[i]);
                seen[i] = true;
            }
            assert_eq!(m[0], 0, "Nop is fixed");
        }
        // Labelled mode: identity only.
        let id = maps_for(&u, &SweepConfig::serial(), &alphabet);
        assert_eq!(id, vec![(0..alphabet.len()).collect::<Vec<_>>()]);
    }

    #[test]
    fn config_constructors_and_threads_var() {
        assert_eq!(SweepConfig::serial().threads, 1);
        assert_eq!(SweepConfig::with_threads(7).threads, 7);
        assert!(SweepConfig::from_env().threads >= 1);
        assert_eq!(SweepConfig::from_threads_var(Some(" 3 ")).threads, 3);
        let fallback = SweepConfig::from_threads_var(None).threads;
        assert!(fallback >= 1);
        for garbage in ["0", "-2", "many", ""] {
            assert_eq!(
                SweepConfig::from_threads_var(Some(garbage)).threads,
                fallback,
                "{garbage:?}"
            );
        }
    }
}
