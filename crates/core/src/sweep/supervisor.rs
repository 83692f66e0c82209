//! The sweep engine: fault-tolerant supervision, the membership kernels,
//! and the phase loop every exhaustive sweep runs through.
//!
//! Every entry point shards the universe at poset granularity over a
//! work-stealing queue ([`crate::sweep`]) with three guarantees:
//!
//! 1. **Panic quarantine.** Every task runs under `catch_unwind` and
//!    folds into a *fresh per-task delta*, merged into the global state
//!    only on success — so a mid-task panic cannot corrupt counts. A
//!    panicking task gets its worker scratch rebuilt and is retried once
//!    (transient faults heal); a second panic quarantines the task
//!    ([`Quarantined`]) and the sweep completes
//!    [`SweepStatus::Degraded`]. Witnesses of all other tasks keep the
//!    smallest-task-index contract, so they still match the serial scan.
//!
//! 2. **Deadline budgets.** [`SweepConfig::deadline`] cooperatively
//!    stops workers between tasks; the result is [`SweepStatus::Partial`]
//!    with the exact completed-task [`Frontier`].
//!
//! 3. **Crash-safe checkpoint/resume.** Counting sweeps can journal
//!    `(frontier, merged state)` snapshots to an append-only
//!    [`CkptWriter`] every N completed tasks (see [`crate::ckpt`]). A
//!    resumed run skips completed tasks and merges the rest into the
//!    restored state; every [`Merge`] is commutative and associative, so
//!    resumed totals and witnesses are **bit-identical** to an
//!    uninterrupted run (and so are results merged in racy completion
//!    order).
//!
//! Membership phases ([`memberships`], from which
//! [`CountsState::lattice`] reads Figure 1, and [`compare`]) are written
//! once, over a [`Kernel`]: [`Scalar`] decides one observer
//! function per word with `contains_with`, [`Lane64`] up to 64 per word
//! with `contains_lanes`. Either way the phase loop sees per-word verdict
//! masks, so counts, lowest-set-bit witnesses and the separation mask the
//! lattice is read from are computed in one place. Callers that want no
//! supervision pass [`Supervisor::none`] and unwrap with
//! [`Supervised::expect_complete`]. Faults are injected deterministically
//! via [`FaultPlan`] ([`crate::fault`]); the injected kill
//! ([`SweepStatus::Killed`]) leaves the journal exactly as a real
//! `kill -9` would.
//!
//! The engine ([`run_supervised`]) is generic over its work [`Unit`], so
//! `ccmm stress` runs it too, over iteration indices. Its pieces are
//! public for the loops that are not queues of independent units
//! (`ccmm watch`'s stream, the Δ* census checks): [`retry_once`] (the
//! retry-once-then-quarantine rule), [`Cadence`] (the checkpoint
//! cadence) and [`SweepStatus::of`] (the status rule).

use super::{
    for_each_labelling, maps_for, materialize, pop, run_workers, LabelScratch, SweepConfig, Task,
};
use crate::ckpt::{get_u64, put_u64, CkptWriter};
use crate::computation::Computation;
use crate::constructible::lanes::{block_empty, member_mask};
use crate::enumerate::{
    for_each_observer, for_each_observer_node_major, location_major_index, node_major_block,
};
use crate::fault::{payload_string, FaultPlan};
use crate::model::{CheckScratch, LanePack, LaneScratch, MemoryModel};
use crate::observer::ObserverFunction;
use crate::props::{
    any_extension, ConstructibilityWitness, IncompleteWitness, MonotonicityWitness,
};
use crate::relation::{Comparison, LatticeRow, Relation};
use crate::telemetry::{self, Counter};
use crate::universe::Universe;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Supervision settings for a sweep: the deterministic fault-injection
/// plan. Deadlines live on [`SweepConfig`]; checkpointing is passed to
/// the entry points that support it ([`sweep_supervised`],
/// [`memberships`]).
#[derive(Debug, Default)]
pub struct Supervisor {
    /// Faults to inject (empty by default — see [`FaultPlan::none`]).
    pub fault: FaultPlan,
}

impl Supervisor {
    /// A supervisor that injects nothing.
    pub fn none() -> Self {
        Supervisor { fault: FaultPlan::none() }
    }

    /// A supervisor driving the given fault plan.
    pub fn with_fault(fault: FaultPlan) -> Self {
        Supervisor { fault }
    }
}

/// How a supervised sweep ended, from best to worst.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SweepStatus {
    /// Every task scanned, nothing quarantined: results are exactly the
    /// serial scan's.
    Complete,
    /// Every task attempted but some quarantined after a failed retry, or
    /// checkpoint journalling failed: counts exclude the quarantined
    /// tasks' contributions; witnesses for all other tasks still match
    /// the serial scan.
    Degraded,
    /// The deadline stopped the sweep before every task was attempted:
    /// counts cover exactly the frontier.
    Partial,
    /// The fault plan's simulated kill fired after a checkpoint record;
    /// the journal on disk is the source of truth for resume.
    Killed,
}

impl SweepStatus {
    /// The one status rule every supervised loop ends with: a kill wins;
    /// then a run that left units unattempted is Partial; then a run
    /// that quarantined a unit or failed to journal is Degraded — a
    /// journalling failure degrades a run even when every unit scanned
    /// cleanly, because the verdicts are exact but the promised
    /// resumability is gone, and exit codes must say so.
    pub fn of(killed: bool, unfinished: bool, degraded: bool) -> Self {
        if killed {
            SweepStatus::Killed
        } else if unfinished {
            SweepStatus::Partial
        } else if degraded {
            SweepStatus::Degraded
        } else {
            SweepStatus::Complete
        }
    }
}

/// One unit that panicked twice and was excluded from the results.
#[derive(Clone, Debug)]
pub struct Quarantined {
    /// Index of the failed unit: a sweep task's global poset index, a
    /// stress iteration, a sampled watch prefix, a Δ* check.
    pub task_idx: usize,
    /// Size of the unit: the poset's (or computation's) node count.
    pub size: usize,
    /// The second panic's payload, rendered as a string.
    pub payload: String,
}

/// Runs `attempt` under `catch_unwind`, retries it once if it panics, and
/// quarantines unit `idx` (of `size` nodes) if it panics again: the one
/// retry-once-then-quarantine rule of every supervised loop. A panic may
/// leave the caller's working memory `x` in an arbitrary state, so each
/// one rebuilds it with `fresh`.
pub fn retry_once<X, T>(
    idx: usize,
    size: usize,
    x: &mut X,
    fresh: impl Fn() -> X,
    attempt: impl Fn(&mut X) -> T,
) -> Result<T, Quarantined> {
    if let Ok(t) = catch_unwind(AssertUnwindSafe(|| attempt(x))) {
        return Ok(t);
    }
    *x = fresh();
    catch_unwind(AssertUnwindSafe(|| attempt(x))).map_err(|payload| {
        *x = fresh();
        telemetry::count(Counter::Quarantines, 1);
        Quarantined { task_idx: idx, size, payload: payload_string(payload) }
    })
}

/// The set of completed task indices, kept as sorted disjoint half-open
/// ranges `[start, end)` — the resume frontier of a partial sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Frontier {
    ranges: Vec<(usize, usize)>,
}

impl Frontier {
    /// The empty frontier.
    pub fn new() -> Self {
        Frontier::default()
    }

    /// Marks task `idx` complete, coalescing adjacent ranges.
    pub fn insert(&mut self, idx: usize) {
        let i = self.ranges.partition_point(|&(_, end)| end < idx);
        if i < self.ranges.len() {
            let (s, e) = self.ranges[i];
            if s <= idx && idx < e {
                return; // already complete
            }
        }
        let left = i < self.ranges.len() && self.ranges[i].1 == idx;
        let right_pos = if left { i + 1 } else { i };
        let right = right_pos < self.ranges.len() && self.ranges[right_pos].0 == idx + 1;
        match (left, right) {
            (true, true) => {
                self.ranges[i].1 = self.ranges[right_pos].1;
                self.ranges.remove(right_pos);
            }
            (true, false) => self.ranges[i].1 = idx + 1,
            (false, true) => self.ranges[right_pos].0 = idx,
            (false, false) => self.ranges.insert(i, (idx, idx + 1)),
        }
    }

    /// Whether task `idx` is complete.
    pub fn contains(&self, idx: usize) -> bool {
        let i = self.ranges.partition_point(|&(_, end)| end <= idx);
        i < self.ranges.len() && self.ranges[i].0 <= idx
    }

    /// Number of completed tasks.
    pub fn len(&self) -> usize {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// Whether no task is complete.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The sorted disjoint ranges, for display.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Appends the wire encoding (`count`, then `start`,`end` per range,
    /// all little-endian u64).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.ranges.len() as u64);
        for &(s, e) in &self.ranges {
            put_u64(out, s as u64);
            put_u64(out, e as u64);
        }
    }

    /// Consumes a wire encoding from the front of `input`; `None` if the
    /// bytes are truncated or the ranges are not sorted and disjoint.
    pub fn decode_from(input: &mut &[u8]) -> Option<Self> {
        let n = get_u64(input)? as usize;
        let mut ranges = Vec::with_capacity(n.min(1024));
        let mut prev_end = 0usize;
        for i in 0..n {
            let s = get_u64(input)? as usize;
            let e = get_u64(input)? as usize;
            if s >= e || (i > 0 && s <= prev_end) {
                return None;
            }
            prev_end = e;
            ranges.push((s, e));
        }
        Some(Frontier { ranges })
    }
}

/// The outcome of a supervised sweep: the merged value plus everything
/// needed to interpret (and resume) it.
#[derive(Debug)]
pub struct Supervised<S> {
    /// The merged result. Complete ⇒ exactly the serial scan's value;
    /// Degraded ⇒ quarantined tasks' contributions are missing;
    /// Partial/Killed ⇒ covers exactly `frontier`.
    pub value: S,
    /// How the sweep ended.
    pub status: SweepStatus,
    /// Tasks excluded after panicking twice, sorted by task index.
    pub quarantined: Vec<Quarantined>,
    /// Completed task indices (includes tasks completed by a resumed-from
    /// run).
    pub frontier: Frontier,
    /// Total tasks in the sweep, including already-resumed ones.
    pub total_tasks: usize,
    /// A checkpoint-append failure, if one stopped journalling.
    pub ckpt_error: Option<String>,
}

impl<S> Supervised<S> {
    /// Whether every task was scanned successfully.
    pub fn is_complete(&self) -> bool {
        self.status == SweepStatus::Complete
    }

    /// Unwraps a sweep that must have completed cleanly — for callers
    /// that run under [`Supervisor::none`] and have no way to use
    /// degraded or partial results. Panics (with the first quarantined
    /// task's payload) otherwise, so a persistent panic in model code
    /// still aborts such a caller.
    pub fn expect_complete(self, what: &str) -> S {
        match self.status {
            SweepStatus::Complete => self.value,
            SweepStatus::Degraded => match self.quarantined.first() {
                Some(q) => panic!(
                    "{what}: sweep degraded — {} task(s) quarantined; first: task {} ({} nodes): {}",
                    self.quarantined.len(),
                    q.task_idx,
                    q.size,
                    q.payload
                ),
                // Degraded with nothing quarantined: journalling failed.
                None => panic!(
                    "{what}: sweep degraded — checkpoint journalling failed: {}",
                    self.ckpt_error.as_deref().unwrap_or("unknown")
                ),
            },
            SweepStatus::Partial => panic!(
                "{what}: sweep stopped early with {} of {} tasks done — use a supervised entry point to consume partial results",
                self.frontier.len(),
                self.total_tasks
            ),
            SweepStatus::Killed => panic!("{what}: sweep killed by its fault plan"),
        }
    }

    /// Maps the value, keeping the supervision verdict.
    pub fn map<T>(self, f: impl FnOnce(S) -> T) -> Supervised<T> {
        Supervised {
            value: f(self.value),
            status: self.status,
            quarantined: self.quarantined,
            frontier: self.frontier,
            total_tasks: self.total_tasks,
            ckpt_error: self.ckpt_error,
        }
    }
}

/// Per-task delta merging. Supervised sweeps merge deltas in completion
/// order, so `merge` must be commutative and associative for results to
/// be deterministic (weighted counts and min-task-index witness slots
/// both are).
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// Counts merge by summation.
macro_rules! merge_by_sum {
    ($($t:ty),*) => {$(
        impl Merge for $t {
            fn merge(&mut self, other: Self) {
                *self += other;
            }
        }
    )*};
}
merge_by_sum!(u64, u128);

/// Concatenation: the merged order is completion order, so a `Vec` state
/// is deterministic only as a multiset — consumers must not depend on
/// its order.
impl<T> Merge for Vec<T> {
    fn merge(&mut self, mut other: Self) {
        self.append(&mut other);
    }
}

/// Serializes a merged state and its frontier into one journal record.
pub type Encode<'a, S> = &'a (dyn Fn(&S, &Frontier) -> Vec<u8> + Sync);

/// Where and how often a counting sweep journals `(frontier, state)`
/// snapshots.
pub struct CkptSink<'a, S> {
    /// Open journal to append to (created via [`CkptWriter::create`] or
    /// [`CkptWriter::append_to`]).
    pub writer: &'a mut CkptWriter,
    /// Append a snapshot every this many completed tasks (≥ 1).
    pub every: usize,
    /// Serializes the merged state + frontier into one record payload.
    pub encode: Encode<'a, S>,
}

/// The one checkpoint cadence of every supervised loop. It counts
/// completed units and appends a snapshot every `every` of them (every
/// one when `every` ≤ 1). Each append goes through the fault plan's
/// injected I/O error and kill hooks and counts
/// [`Counter::CkptRecords`]. The first failed append is latched:
/// journalling stops, the run goes on, and [`SweepStatus::of`] makes it
/// Degraded.
pub struct Cadence<'a> {
    writer: &'a mut CkptWriter,
    every: usize,
    fault: &'a FaultPlan,
    since: usize,
    error: Option<String>,
}

impl<'a> Cadence<'a> {
    /// A cadence appending to `writer` every `every` units under `fault`.
    pub fn new(writer: &'a mut CkptWriter, every: usize, fault: &'a FaultPlan) -> Self {
        Cadence { writer, every, fault, since: 0, error: None }
    }

    /// Counts one completed unit and appends `snapshot()` if that ends a
    /// period. Returns whether the fault plan's kill fires now.
    pub fn tick(&mut self, snapshot: impl FnOnce() -> Vec<u8>) -> bool {
        if self.error.is_some() {
            return false;
        }
        self.since += 1;
        if self.since < self.every {
            return false;
        }
        self.since = 0;
        self.append(&snapshot())
    }

    /// Appends `payload` now, off the period (a final snapshot). Returns
    /// whether the fault plan's kill fires now.
    pub fn append(&mut self, payload: &[u8]) -> bool {
        if self.error.is_some() {
            return false;
        }
        // The fault plan can fail this record's write (the "disk full
        // mid-run" shape) without going anywhere near the real file.
        let record = self.writer.snapshots() + 1;
        let wrote = if self.fault.io_error_at(record) {
            Err(std::io::Error::other(format!("injected fault: io error at ckpt record {record}")))
        } else {
            self.writer.append(payload)
        };
        match wrote {
            Ok(()) => {
                telemetry::count(Counter::CkptRecords, 1);
                self.fault.should_kill(self.writer.snapshots())
            }
            Err(e) => {
                self.error = Some(e.to_string());
                false
            }
        }
    }

    /// The first failed append, if journalling stopped.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
}

/// A unit of supervised work: all the engine needs to know of it.
pub trait Unit: Send {
    /// The unit's index: its frontier key and fault-plan position.
    fn idx(&self) -> usize;
    /// Its size, reported if it is quarantined.
    fn size(&self) -> usize;
}

impl Unit for Task {
    fn idx(&self) -> usize {
        self.idx
    }

    fn size(&self) -> usize {
        self.size
    }
}

/// A bare index is a unit of size 0 (a `ccmm stress` iteration).
impl Unit for usize {
    fn idx(&self) -> usize {
        *self
    }

    fn size(&self) -> usize {
        0
    }
}

/// Shared mutable progress, behind one mutex (units are coarse — one
/// poset covers all its labellings — so commit contention is noise).
struct Shared<'a, S> {
    state: S,
    frontier: Frontier,
    quarantined: Vec<Quarantined>,
    journal: Option<(Cadence<'a>, Encode<'a, S>)>,
}

/// The supervised engine: distributes `units` over `threads` workers,
/// each unit scanned into a fresh delta under [`retry_once`], deltas
/// committed through `merge` under the shared lock, with cooperative
/// deadline stop and optional checkpoint journalling on the one
/// [`Cadence`]. `merge` returning [`ControlFlow::Break`] means the caller
/// has what it wants: the remaining units are drained unscanned, nothing
/// more is journalled, and the run still ends Complete or Degraded.
#[allow(clippy::too_many_arguments)] // the engine; wrappers present friendlier faces
pub fn run_supervised<U, S, X, XF, SC, MG>(
    mut units: Vec<U>,
    threads: usize,
    deadline: Option<Duration>,
    fault: &FaultPlan,
    resume: Frontier,
    initial: S,
    ckpt: Option<CkptSink<'_, S>>,
    scratch: XF,
    scan: SC,
    merge: MG,
) -> Supervised<S>
where
    U: Unit,
    S: Send,
    XF: Fn() -> X + Sync,
    SC: Fn(&U, &mut X) -> S + Sync,
    MG: Fn(&mut S, S, usize) -> ControlFlow<()> + Sync,
{
    let ids: Vec<usize> = units.iter().map(Unit::idx).collect();
    fault.resolve_indices(&ids);
    let total_tasks = units.len();
    if !resume.is_empty() {
        units.retain(|u| !resume.contains(u.idx()));
    }
    let start = Instant::now();
    // Ordering audit: all three flags are accessed with Relaxed
    // throughout, which is sufficient because they are *advisory*,
    // monotonic (false→true once) booleans: they only influence how
    // soon workers stop scanning, never what a scanned unit computes.
    // All result data travels through the `shared` Mutex (lock/unlock
    // provides acquire/release), and the final `into_inner` reads
    // happen after `run_workers` joins every worker thread — thread
    // join is a synchronizes-with edge, so the last stores to the
    // flags are visible without any fence. A worker seeing a stale
    // `false` merely scans one extra unit; seeing a stale `true` is
    // impossible to distinguish from a slightly earlier stop.
    let stop = AtomicBool::new(false);
    let broke = AtomicBool::new(false);
    let killed = AtomicBool::new(false);
    let shared = Mutex::new(Shared {
        state: initial,
        frontier: resume,
        quarantined: Vec::new(),
        journal: ckpt.map(|s| (Cadence::new(s.writer, s.every, fault), s.encode)),
    });
    run_workers(units, threads, |inj| {
        let mut x = scratch();
        while let Some(unit) = pop(inj) {
            if stop.load(Ordering::Relaxed) {
                continue; // drain the queue without scanning
            }
            if deadline.is_some() {
                telemetry::count(Counter::DeadlinePolls, 1);
            }
            if deadline.is_some_and(|d| start.elapsed() >= d) {
                stop.store(true, Ordering::Relaxed);
                continue;
            }
            let attempt = |x: &mut X| {
                fault.before_task(unit.idx());
                scan(&unit, x)
            };
            let delta = match retry_once(unit.idx(), unit.size(), &mut x, &scratch, attempt) {
                Ok(delta) => delta,
                Err(q) => {
                    shared.lock().unwrap().quarantined.push(q);
                    continue;
                }
            };
            let mut guard = shared.lock().unwrap();
            let g = &mut *guard;
            let flow = merge(&mut g.state, delta, unit.idx());
            g.frontier.insert(unit.idx());
            telemetry::progress_tick(g.frontier.len(), total_tasks, g.quarantined.len());
            if flow.is_break() {
                broke.store(true, Ordering::Relaxed);
                stop.store(true, Ordering::Relaxed);
                continue;
            }
            let Some((cadence, encode)) = g.journal.as_mut() else { continue };
            if cadence.tick(|| encode(&g.state, &g.frontier)) {
                killed.store(true, Ordering::Relaxed);
                stop.store(true, Ordering::Relaxed);
            }
        }
    });
    let mut sh = shared.into_inner().unwrap();
    sh.quarantined.sort_by_key(|q| q.task_idx);
    let ckpt_error = sh.journal.and_then(|(cadence, _)| cadence.error);
    let scanned = sh.frontier.len() + sh.quarantined.len();
    let status = SweepStatus::of(
        killed.into_inner(),
        scanned < total_tasks && !broke.into_inner(),
        !sh.quarantined.is_empty() || ckpt_error.is_some(),
    );
    Supervised {
        value: sh.state,
        status,
        quarantined: sh.quarantined,
        frontier: sh.frontier,
        total_tasks,
        ckpt_error,
    }
}

/// The general supervised sweep: runs `work` once per computation of the
/// universe (canonical mode: once per isomorphism orbit) with per-task
/// transactional deltas, panic quarantine, deadline support and optional
/// checkpoint/resume. `empty` seeds each task's delta; `scratch` builds
/// per-worker scratch (rebuilt after a panic); `work` folds one
/// computation into the delta, given its task (poset) index and its
/// universe multiplicity (1 in labelled mode), so weighted counts
/// reproduce labelled totals exactly. `resume` restores a decoded
/// `(frontier, state)` snapshot (completed tasks are skipped and their
/// contributions are already in `state`); `ckpt` journals fresh
/// snapshots as the sweep progresses. Because [`Merge`] is commutative
/// and associative and witnesses merge by unique minimal task index, a
/// resumed run is bit-identical to an uninterrupted one.
#[allow(clippy::too_many_arguments)]
pub fn sweep_supervised<S, X, EF, XF, WF>(
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
    resume: Option<(Frontier, S)>,
    ckpt: Option<CkptSink<'_, S>>,
    empty: EF,
    scratch: XF,
    work: WF,
) -> Supervised<S>
where
    S: Merge + Send,
    EF: Fn() -> S + Sync,
    XF: Fn() -> X + Sync,
    WF: Fn(&mut S, &mut X, usize, &Computation, u64) + Sync,
{
    let alphabet = u.alphabet();
    let maps = maps_for(u, cfg, &alphabet);
    let (resume_frontier, initial) = match resume {
        Some((f, s)) => (f, s),
        None => (Frontier::new(), empty()),
    };
    run_supervised(
        materialize(u, cfg.canonical),
        cfg.threads,
        cfg.deadline,
        &sup.fault,
        resume_frontier,
        initial,
        ckpt,
        || (LabelScratch::new(), scratch()),
        |task, xs| {
            let (ls, x) = xs;
            let mut delta = empty();
            let _ = for_each_labelling(&alphabet, &maps, task, ls, &mut |c, w| {
                work(&mut delta, x, task.idx, c, w);
                ControlFlow::Continue(())
            });
            delta
        },
        |g, d, _| {
            g.merge(d);
            ControlFlow::Continue(())
        },
    )
}

// ---------------------------------------------------------------------
// Membership kernels and the phase loop
// ---------------------------------------------------------------------

/// One word of membership verdicts: up to 64 observer functions of one
/// computation, lane `j` holding the `j`-th of them in the order the
/// kernel visits them.
pub struct Word<'a> {
    /// The occupied lanes: always the lowest `used.count_ones()` bits.
    pub used: u64,
    /// Per model (caller order), the lanes whose pair is a member; every
    /// mask is a subset of `used`.
    pub verdicts: &'a [u64],
    /// The observer function in a lane.
    pub observer: &'a dyn Fn(usize) -> ObserverFunction,
}

/// A membership kernel: how a sweep decides a computation's observer
/// functions, one [`Word`] of verdict masks at a time. The kernel is a
/// zero-sized strategy chosen at compile time, so each phase is written
/// once and instantiated per kernel.
pub trait Kernel: Copy + Sync {
    /// Per-worker working memory (rebuilt after a panic).
    type Scratch;

    /// Fresh working memory.
    fn scratch(self) -> Self::Scratch;

    /// Decides every observer function of `c` against every model —
    /// in [`for_each_observer_node_major`] order when `node_major` is
    /// set, [`for_each_observer`] order otherwise — handing each verdict
    /// word to `f`. A word never spans a 64-observer boundary.
    fn words<M, F>(
        self,
        models: &[M],
        c: &Computation,
        x: &mut Self::Scratch,
        node_major: bool,
        f: F,
    ) where
        M: MemoryModel,
        F: FnMut(&Word<'_>);
}

/// Visits the observer functions of `c` in the order a kernel was asked
/// for.
fn visit_observers<F>(c: &Computation, node_major: bool, f: F)
where
    F: FnMut(&ObserverFunction) -> ControlFlow<()>,
{
    let _ = if node_major { for_each_observer_node_major(c, f) } else { for_each_observer(c, f) };
}

/// The scalar kernel: one-bit words decided by
/// [`MemoryModel::contains_with`]. The labelled-mode engine and the
/// reference for [`Lane64`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Scalar;

impl Kernel for Scalar {
    type Scratch = (CheckScratch, Vec<u64>);

    fn scratch(self) -> Self::Scratch {
        (CheckScratch::new(), Vec::new())
    }

    fn words<M, F>(
        self,
        models: &[M],
        c: &Computation,
        x: &mut Self::Scratch,
        node_major: bool,
        mut f: F,
    ) where
        M: MemoryModel,
        F: FnMut(&Word<'_>),
    {
        let (check, verdicts) = x;
        visit_observers(c, node_major, |phi| {
            verdicts.clear();
            verdicts.extend(models.iter().map(|m| u64::from(m.contains_with(c, phi, check))));
            f(&Word { used: 1, verdicts, observer: &|_| phi.clone() });
            ControlFlow::Continue(())
        });
    }
}

/// The lane kernel: up to [`crate::model::LANES`] observer functions per
/// [`LanePack`] word, decided in lockstep by
/// [`MemoryModel::contains_lanes`]. Lanes fill in enumeration order, so
/// the lowest set bit of a verdict mask is the scalar scan's first hit.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lane64;

impl Kernel for Lane64 {
    type Scratch = (LanePack, LaneScratch, Vec<u64>);

    fn scratch(self) -> Self::Scratch {
        (LanePack::new(), LaneScratch::new(), Vec::new())
    }

    fn words<M, F>(
        self,
        models: &[M],
        c: &Computation,
        x: &mut Self::Scratch,
        node_major: bool,
        mut f: F,
    ) where
        M: MemoryModel,
        F: FnMut(&Word<'_>),
    {
        let (pack, lanes, verdicts) = x;
        pack.prepare(c);
        let mut flush = |pack: &mut LanePack| {
            let used = pack.used();
            telemetry::count(Counter::LaneWords, 1);
            telemetry::count(Counter::LaneSlots, u64::from(used.count_ones()));
            verdicts.clear();
            verdicts.extend(models.iter().map(|m| m.contains_lanes(c, pack, lanes) & used));
            f(&Word { used, verdicts, observer: &|lane| pack.extract(c, lane) });
            pack.clear_lanes();
        };
        visit_observers(c, node_major, |phi| {
            pack.push_valid(c, phi);
            if pack.is_full() {
                flush(pack);
            }
            ControlFlow::Continue(())
        });
        if !pack.is_empty() {
            flush(pack);
        }
    }
}

/// The phase loop: every `(C, Φ)` pair of the universe, decided by
/// `kernel` against `models` and folded word by word into per-task
/// deltas of `S` (`fold` gets the task index, the computation, its
/// universe multiplicity and the word), under the full supervisor with
/// optional checkpoint/resume.
#[allow(clippy::too_many_arguments)]
fn drive<K, M, S>(
    kernel: K,
    models: &[M],
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
    resume: Option<(Frontier, S)>,
    ckpt: Option<CkptSink<'_, S>>,
    empty: impl Fn() -> S + Sync,
    fold: impl Fn(&mut S, usize, &Computation, u64, &Word<'_>) + Sync,
) -> Supervised<S>
where
    K: Kernel,
    M: MemoryModel + Sync,
    S: Merge + Send,
{
    sweep_supervised(
        u,
        cfg,
        sup,
        resume,
        ckpt,
        empty,
        || kernel.scratch(),
        |acc, x, task, c, weight| {
            kernel.words(models, c, x, false, |word| {
                telemetry::count(Counter::PairsChecked, u64::from(word.used.count_ones()));
                fold(acc, task, c, weight, word);
            });
        },
    )
}

// ---------------------------------------------------------------------
// Memberships, the derived lattice, and pairwise comparison
// ---------------------------------------------------------------------

/// Weighted membership counts plus the separation mask: the
/// checkpointable state behind `ccmm sweep`'s memberships phase, from
/// which its lattice phase is read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountsState {
    /// Weighted (C, Φ) pairs visited.
    pub pairs: u64,
    /// Weighted membership count per model, in caller order.
    pub per_model: Vec<u64>,
    /// Bit `a·n + b` (n models) is set iff some visited pair is in model
    /// `a` but not in model `b`.
    pub separated: u64,
}

impl CountsState {
    /// Zero counts for `models` models (at most 8, so every ordered pair
    /// has a bit in the separation mask).
    pub fn new(models: usize) -> Self {
        assert!(models <= 8, "the separation mask holds at most 8 models");
        CountsState { pairs: 0, per_model: vec![0; models], separated: 0 }
    }

    /// Folds one verdict word of universe multiplicity `weight`: the pair
    /// count, each model's member count, and every separation it shows.
    fn tally(&mut self, weight: u64, word: &Word<'_>) {
        let n = self.per_model.len();
        self.pairs += weight * u64::from(word.used.count_ones());
        for (a, &va) in word.verdicts.iter().enumerate() {
            self.per_model[a] += weight * u64::from(va.count_ones());
            for (b, &vb) in word.verdicts.iter().enumerate() {
                if va & !vb != 0 {
                    self.separated |= 1 << (a * n + b);
                }
            }
        }
    }

    /// Whether some visited pair is in model `a` but not in model `b`.
    pub fn separates(&self, a: usize, b: usize) -> bool {
        self.separated >> (a * self.per_model.len() + b) & 1 == 1
    }

    /// The pairwise relation matrix of `models` (the models these counts
    /// were taken over, in the same order) on the visited pairs.
    pub fn lattice<M: MemoryModel>(&self, models: &[M]) -> Vec<LatticeRow> {
        assert_eq!(models.len(), self.per_model.len(), "one model per count");
        models
            .iter()
            .enumerate()
            .map(|(a, m)| LatticeRow {
                name: m.name().to_string(),
                relations: (0..models.len())
                    .map(|b| Relation::from_separations(self.separates(a, b), self.separates(b, a)))
                    .collect(),
            })
            .collect()
    }

    /// Appends the wire encoding (`pairs`, model count, per-model counts,
    /// separation mask, all little-endian u64).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.pairs);
        put_u64(out, self.per_model.len() as u64);
        for &m in &self.per_model {
            put_u64(out, m);
        }
        put_u64(out, self.separated);
    }

    /// Consumes a wire encoding from the front of `input`.
    pub fn decode_from(input: &mut &[u8]) -> Option<Self> {
        let pairs = get_u64(input)?;
        let n = get_u64(input)? as usize;
        if n > 8 {
            return None; // corrupt count, not a real model list
        }
        let mut per_model = Vec::with_capacity(n);
        for _ in 0..n {
            per_model.push(get_u64(input)?);
        }
        let separated = get_u64(input)?;
        Some(CountsState { pairs, per_model, separated })
    }
}

impl Merge for CountsState {
    fn merge(&mut self, other: Self) {
        debug_assert_eq!(self.per_model.len(), other.per_model.len());
        self.pairs += other.pairs;
        for (d, s) in self.per_model.iter_mut().zip(other.per_model) {
            *d += s;
        }
        self.separated |= other.separated;
    }
}

/// Encodes one checkpoint snapshot payload: frontier, then counts.
pub fn encode_counts_snapshot(frontier: &Frontier, counts: &CountsState) -> Vec<u8> {
    let mut out = Vec::new();
    frontier.encode_into(&mut out);
    counts.encode_into(&mut out);
    out
}

/// Decodes a snapshot produced by [`encode_counts_snapshot`].
pub fn decode_counts_snapshot(mut bytes: &[u8]) -> Option<(Frontier, CountsState)> {
    let frontier = Frontier::decode_from(&mut bytes)?;
    let counts = CountsState::decode_from(&mut bytes)?;
    Some((frontier, counts))
}

/// Weighted membership counts and the separation mask over every
/// `(C, Φ)` pair of the universe: the checkpointable sweep behind
/// `ccmm sweep`'s memberships phase. `ckpt` is `(journal,
/// every-N-tasks)`; `resume` a decoded snapshot. Both kernels produce
/// identical states, so a journal written under one resumes under the
/// other.
pub fn memberships<K: Kernel, M: MemoryModel + Sync>(
    kernel: K,
    models: &[M],
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
    resume: Option<(Frontier, CountsState)>,
    ckpt: Option<(&mut CkptWriter, usize)>,
) -> Supervised<CountsState> {
    let encode = |s: &CountsState, f: &Frontier| encode_counts_snapshot(f, s);
    let sink = ckpt.map(|(writer, every)| CkptSink { writer, every, encode: &encode });
    let empty = || CountsState::new(models.len());
    drive(kernel, models, u, cfg, sup, resume, sink, empty, |acc, _, _, w, word| acc.tally(w, word))
}

/// [`memberships`] through the [`Lane64`] kernel.
pub fn memberships_lanes_supervised<M: MemoryModel + Sync>(
    models: &[M],
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
    resume: Option<(Frontier, CountsState)>,
    ckpt: Option<(&mut CkptWriter, usize)>,
) -> Supervised<CountsState> {
    memberships(Lane64, models, u, cfg, sup, resume, ckpt)
}

/// The pairwise relation matrix of `models` (Figure 1 at this bound),
/// read off one [`memberships`] pass through the [`Lane64`] kernel. Under
/// quarantine the matrix misses exactly the quarantined tasks' pairs.
pub fn lattice_lanes_supervised<M: MemoryModel + Sync>(
    models: &[M],
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
) -> Supervised<Vec<LatticeRow>> {
    memberships(Lane64, models, u, cfg, sup, None, None).map(|counts| counts.lattice(models))
}

/// A witness tagged with the task index it was found in; merged by
/// smallest index, which reproduces the serial scan's first witness.
struct Keyed<W> {
    task_idx: usize,
    witness: W,
}

fn keep_min<W>(slot: &mut Option<Keyed<W>>, task_idx: usize, witness: impl FnOnce() -> W) {
    if slot.as_ref().is_none_or(|k| task_idx < k.task_idx) {
        *slot = Some(Keyed { task_idx, witness: witness() });
    }
}

/// Keeps the smaller-task-index keyed witness of two merged slots.
fn merge_keyed<W>(dst: &mut Option<Keyed<W>>, src: Option<Keyed<W>>) {
    if let Some(k) = src {
        keep_min(dst, k.task_idx, || k.witness);
    }
}

/// Per-task (and merged) comparison state.
struct CmpState {
    counts: CountsState,
    both: u64,
    a_only: Option<Keyed<(Computation, ObserverFunction)>>,
    b_only: Option<Keyed<(Computation, ObserverFunction)>>,
}

impl Merge for CmpState {
    fn merge(&mut self, other: Self) {
        self.counts.merge(other.counts);
        self.both += other.both;
        merge_keyed(&mut self.a_only, other.a_only);
        merge_keyed(&mut self.b_only, other.b_only);
    }
}

/// The supervised counterpart of [`crate::relation::compare`]: the same
/// `Comparison` when complete — totals are exact and the `a_only`/`b_only`
/// witnesses are the serial scan's first witnesses (smallest task index,
/// then the lowest set bit of the first separating word). Under
/// quarantine, totals exclude the quarantined tasks and the witnesses of
/// all other tasks still match the serial scan.
pub fn compare<K: Kernel, M: MemoryModel + Sync + Clone>(
    kernel: K,
    a: &M,
    b: &M,
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
) -> Supervised<Comparison> {
    let models = [a.clone(), b.clone()];
    let empty = || CmpState { counts: CountsState::new(2), both: 0, a_only: None, b_only: None };
    let out = drive(kernel, &models, u, cfg, sup, None, None, empty, |p, task, c, weight, word| {
        p.counts.tally(weight, word);
        let [va, vb] = [word.verdicts[0], word.verdicts[1]];
        p.both += weight * u64::from((va & vb).count_ones());
        for (slot, only) in [(&mut p.a_only, va & !vb), (&mut p.b_only, vb & !va)] {
            if only != 0 {
                keep_min(slot, task, || {
                    (c.clone(), (word.observer)(only.trailing_zeros() as usize))
                });
            }
        }
    });
    out.map(|p| Comparison {
        relation: Relation::from_separations(p.counts.separates(0, 1), p.counts.separates(1, 0)),
        a_only: p.a_only.map(|k| k.witness),
        b_only: p.b_only.map(|k| k.witness),
        both: p.both as usize,
        a_total: p.counts.per_model[0] as usize,
        b_total: p.counts.per_model[1] as usize,
        pairs_checked: p.counts.pairs as usize,
    })
}

// ---------------------------------------------------------------------
// First-witness searches: completeness, monotonicity, constructibility
// ---------------------------------------------------------------------

/// Supervised first-witness search over every labelled computation of
/// `u` (the engine behind the `check_*` entry points): `scan` returns a
/// computation's first witness, if any, and the search returns the
/// serial scan's first witness — the one in the minimal task. That task
/// index is published to the shared `best` atomic only at commit time, so
/// a task that found a candidate but then panicked cannot suppress other
/// tasks' witnesses.
fn first_witness<W, X>(
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
    scratch: impl Fn() -> X + Sync,
    scan: impl Fn(&Computation, &mut X) -> Option<W> + Sync,
) -> Supervised<Option<W>>
where
    W: Send,
{
    let alphabet = u.alphabet();
    let maps = maps_for(u, cfg, &alphabet);
    // Ordering audit: `best` is a Relaxed pruning hint, not the answer.
    // fetch_min is an atomic RMW, so concurrent minima commute and none
    // is lost regardless of ordering; a worker reading a stale (larger)
    // value only scans a task whose witness `merge_keyed` then discards
    // under the shared lock — the authoritative min-task-index merge.
    let best = AtomicUsize::new(usize::MAX);
    let superseded = |task: &Task| best.load(Ordering::Relaxed) < task.idx;
    let out = run_supervised(
        materialize(u, cfg.canonical),
        cfg.threads,
        cfg.deadline,
        &sup.fault,
        Frontier::new(),
        None::<Keyed<W>>,
        None,
        || (LabelScratch::new(), scratch()),
        |task: &Task, (ls, x)| {
            if superseded(task) {
                return None; // an earlier task already has a witness
            }
            let mut found = None;
            let _ = for_each_labelling(&alphabet, &maps, task, ls, &mut |c, _| {
                if superseded(task) {
                    return ControlFlow::Break(());
                }
                found = scan(c, x);
                if found.is_some() {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            found.map(|witness| Keyed { task_idx: task.idx, witness })
        },
        |g, d, idx| {
            if d.is_some() {
                best.fetch_min(idx, Ordering::Relaxed);
            }
            merge_keyed(g, d);
            ControlFlow::Continue(())
        },
    );
    out.map(|k| k.map(|k| k.witness))
}

/// Supervised [`crate::props::check_complete`]; `Some` is the serial
/// scan's witness.
pub fn check_complete_supervised<M: MemoryModel + Sync>(
    model: &M,
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
) -> Supervised<Option<IncompleteWitness>> {
    first_witness(u, cfg, sup, CheckScratch::new, |c, check| {
        let member = for_each_observer(c, |phi| {
            if model.contains_with(c, phi, check) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        member.is_continue().then(|| c.clone())
    })
}

/// Supervised [`crate::props::check_monotonic`]; `Some` is the serial
/// scan's witness.
pub fn check_monotonic_supervised<M: MemoryModel + Sync>(
    model: &M,
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
) -> Supervised<Option<MonotonicityWitness>> {
    first_witness(u, cfg, sup, CheckScratch::new, |c, check| {
        let mut found = None;
        let _ = for_each_observer(c, |phi| {
            if !model.contains_with(c, phi, check) {
                return ControlFlow::Continue(());
            }
            for (na, nb) in c.dag().edges() {
                let relaxed = c.without_edge(na, nb).expect("edge exists");
                if !model.contains_with(&relaxed, phi, check) {
                    found = Some(MonotonicityWitness { c: c.clone(), phi: phi.clone(), relaxed });
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
        found
    })
}

/// The universe whose computations a one-step augmentation check scans:
/// one node short of `u`'s bound, so every augmentation stays inside `u`.
fn augmentable(u: &Universe) -> Universe {
    Universe { max_nodes: u.max_nodes.saturating_sub(1), ..*u }
}

/// Supervised [`crate::props::check_constructible_aug`]; `Some` is the
/// serial scan's witness.
pub fn check_constructible_aug_supervised<M: MemoryModel + Sync>(
    model: &M,
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
) -> Supervised<Option<ConstructibilityWitness>> {
    let alphabet = u.alphabet();
    first_witness(&augmentable(u), cfg, sup, CheckScratch::new, |c, check| {
        let mut found = None;
        let _ = for_each_observer(c, |phi| {
            if !model.contains_with(c, phi, check) {
                return ControlFlow::Continue(());
            }
            for &op in &alphabet {
                let extension = c.augment(op);
                if !any_extension(&extension, phi, |phi2| {
                    model.contains_with(&extension, phi2, check)
                }) {
                    found = Some(ConstructibilityWitness {
                        c: c.clone(),
                        phi: phi.clone(),
                        extension,
                        op,
                    });
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
        found
    })
}

/// Lane-parallel [`check_constructible_aug_supervised`]: instead of
/// probing `any_extension` per member observer, it packs each
/// labelling's member verdicts and each augmentation's member verdicts
/// into node-major masks, so one aligned block-emptiness test per
/// `(member, op)` replaces the scalar candidate enumeration. The
/// returned witness is **identical** to the scalar scan's: node-major
/// failures are re-ranked by location-major observer index (the scalar
/// enumeration order) and op position before the first one is chosen.
pub fn check_constructible_aug_lanes_supervised<M: MemoryModel + Sync>(
    model: &M,
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
) -> Supervised<Option<ConstructibilityWitness>> {
    let alphabet = u.alphabet();
    // Bit `p` of a node-major member mask ⇔ the `p`-th node-major
    // observer function is a member.
    let member_mask = |c: &Computation, x: &mut <Lane64 as Kernel>::Scratch| {
        let mut mask = Vec::new();
        member_mask(Lane64, model, c, x, &mut mask);
        mask
    };
    let scan = |c: &Computation, x: &mut <Lane64 as Kernel>::Scratch| {
        let members = member_mask(c, x);
        if members.iter().all(|&w| w == 0) {
            return None;
        }
        // Per op: the augmentation, its member mask, and its block size
        // E — member bit p of `c` extends exactly into the block
        // [p·E, (p+1)·E) of the augmentation's mask.
        let augs: Vec<_> = alphabet
            .iter()
            .map(|&op| {
                let aug = c.augment(op);
                let block = node_major_block(&aug);
                (op, member_mask(&aug, x), aug, block)
            })
            .collect();
        // For each member, the first op (alphabet order) whose extension
        // block is empty — mirroring the scalar scan's inner op loop.
        let first_dead = |p: u64| {
            augs.iter().position(|(_, mask, _, block)| block_empty(mask, p * block, *block))
        };
        let failing: Vec<(u64, usize)> = (0..members.len() as u64 * 64)
            .filter(|&p| members[(p / 64) as usize] >> (p % 64) & 1 == 1)
            .filter_map(|p| first_dead(p).map(|j| (p, j)))
            .collect();
        if failing.is_empty() {
            return None;
        }
        // Re-rank node-major failures into the scalar scan's
        // (location-major observer, op) order and keep the first.
        let mut best: Option<(u64, usize, ObserverFunction)> = None;
        let mut p = 0u64;
        let _ = for_each_observer_node_major(c, |phi| {
            if let Some(&(_, j)) = failing.iter().find(|&&(q, _)| q == p) {
                let rank = location_major_index(c, phi).expect("enumerated observer is valid");
                if best.as_ref().is_none_or(|(r, bj, _)| (rank, j) < (*r, *bj)) {
                    best = Some((rank, j, phi.clone()));
                }
            }
            p += 1;
            ControlFlow::Continue(())
        });
        let (_, j, phi) = best.expect("failing set is non-empty");
        let (op, _, extension, _) = &augs[j];
        Some(ConstructibilityWitness { c: c.clone(), phi, extension: extension.clone(), op: *op })
    };
    first_witness(&augmentable(u), cfg, sup, || Lane64.scratch(), scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::relation;

    const MODELS: [Model; 6] = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ccmm-sup-{name}-{}", std::process::id()))
    }

    #[test]
    fn frontier_insert_coalesces_and_round_trips() {
        let mut f = Frontier::new();
        for idx in [5, 3, 4, 9, 0, 1, 10, 7] {
            f.insert(idx);
            f.insert(idx); // idempotent
        }
        assert_eq!(f.ranges(), &[(0, 2), (3, 6), (7, 8), (9, 11)]);
        assert_eq!(f.len(), 8);
        for idx in [0, 1, 3, 4, 5, 7, 9, 10] {
            assert!(f.contains(idx));
        }
        for idx in [2, 6, 8, 11, 100] {
            assert!(!f.contains(idx));
        }
        f.insert(8); // bridges (7,8) and (9,11)
        assert_eq!(f.ranges(), &[(0, 2), (3, 6), (7, 11)]);
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        let mut r: &[u8] = &buf;
        assert_eq!(Frontier::decode_from(&mut r), Some(f));
        assert!(r.is_empty());
        // Truncated and unsorted encodings are rejected.
        let mut torn: &[u8] = &buf[..buf.len() - 1];
        assert!(Frontier::decode_from(&mut torn).is_none());
        let mut bad = Vec::new();
        put_u64(&mut bad, 2);
        for v in [5u64, 9, 1, 3] {
            put_u64(&mut bad, v);
        }
        let mut r: &[u8] = &bad;
        assert!(Frontier::decode_from(&mut r).is_none());
    }

    /// Sums unit indices `0..10` on one worker, breaking after `stop`.
    fn sum_until(stop: usize, fault: &FaultPlan) -> Supervised<usize> {
        let units: Vec<usize> = (0..10).collect();
        let merge = |sum: &mut usize, d: usize, idx: usize| {
            *sum += d;
            if idx == stop {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        run_supervised(units, 1, None, fault, Frontier::new(), 0, None, || (), |&i, _| i, merge)
    }

    #[test]
    fn break_drains_the_rest_and_keeps_the_status() {
        let out = sum_until(3, &FaultPlan::none());
        assert_eq!(out.status, SweepStatus::Complete, "a break is not a partial run");
        assert_eq!(out.value, 1 + 2 + 3);
        assert_eq!(out.frontier.ranges(), &[(0, 4)]);
        let out = sum_until(3, &FaultPlan::none().panic_at_task(1));
        assert_eq!(out.status, SweepStatus::Degraded);
        assert_eq!(out.value, 2 + 3);
        assert_eq!(out.quarantined[0].size, 0, "a bare index is a unit of size 0");
    }

    #[test]
    fn cadence_appends_every_n_latches_a_failure_and_reports_the_kill() {
        let path = temp("cadence");
        let mut writer = CkptWriter::create(&path, "test fp").unwrap();
        let fault = FaultPlan::none().io_error_at_record(2);
        let mut cadence = Cadence::new(&mut writer, 2, &fault);
        for _ in 0..8 {
            assert!(!cadence.tick(|| vec![7]), "no kill in this plan");
        }
        assert!(cadence.error().is_some_and(|e| e.contains("io error at ckpt record 2")));
        assert!(!cadence.append(&[8]), "a latched cadence appends nothing");
        assert_eq!(writer.snapshots(), 1, "record 1 landed, record 2 failed, then none");
        // Kills count the writer's records: this writer already holds one.
        let fault = FaultPlan::none().kill_after_records(3);
        let mut cadence = Cadence::new(&mut writer, 1, &fault);
        assert!(!cadence.tick(|| vec![9]));
        assert!(cadence.append(&[10]), "the kill fires after the third record");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clean_supervised_memberships_are_complete_and_match_unsupervised() {
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(2);
        let sup = Supervisor::none();
        let out = memberships(Scalar, &MODELS, &u, &cfg, &sup, None, None);
        assert!(out.is_complete());
        assert!(out.quarantined.is_empty());
        assert_eq!(out.frontier.len(), out.total_tasks);
        // Pair totals match the exhaustive comparison's count.
        let serial = relation::compare(&Model::Sc, &Model::Lc, &u);
        assert_eq!(out.value.pairs as usize, serial.pairs_checked);
        assert_eq!(out.value.per_model[0] as usize, serial.a_total);
        assert_eq!(out.value.per_model[1] as usize, serial.b_total);
    }

    #[test]
    fn persistent_panic_quarantines_and_degrades() {
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(2);
        let clean = memberships(Scalar, &MODELS, &u, &cfg, &Supervisor::none(), None, None).value;
        let sup = Supervisor::with_fault(FaultPlan::none().panic_at_task(0));
        let out = memberships(Scalar, &MODELS, &u, &cfg, &sup, None, None);
        assert_eq!(out.status, SweepStatus::Degraded);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].task_idx, 0);
        assert!(out.quarantined[0].payload.contains("panic at task 0"));
        assert!(!out.frontier.contains(0));
        assert_eq!(out.frontier.len() + 1, out.total_tasks);
        // Task 0 is the empty poset: exactly one (C, Φ) pair missing.
        assert_eq!(out.value.pairs, clean.pairs - 1);
    }

    #[test]
    fn transient_panic_heals_on_retry() {
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(2);
        let clean = memberships(Scalar, &MODELS, &u, &cfg, &Supervisor::none(), None, None).value;
        let sup = Supervisor::with_fault(FaultPlan::none().panic_once_at_task(2));
        let out = memberships(Scalar, &MODELS, &u, &cfg, &sup, None, None);
        assert!(out.is_complete(), "retry should heal a once-fault");
        assert_eq!(out.value, clean);
    }

    #[test]
    fn zero_deadline_yields_partial_with_empty_frontier() {
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(2).deadline(Duration::ZERO);
        let out = memberships(Scalar, &MODELS, &u, &cfg, &Supervisor::none(), None, None);
        assert_eq!(out.status, SweepStatus::Partial);
        assert!(out.frontier.is_empty());
        assert_eq!(out.value.pairs, 0);
    }

    /// Kills a `kernel` memberships run after two journal records, resumes
    /// it, and asserts the resumed counts and separation mask are
    /// bit-identical to an uninterrupted run, at 1, 2 and 4 threads.
    fn assert_kill_resume_is_bit_identical<K: Kernel>(kernel: K, name: &str) {
        let u = Universe::new(3, 1);
        for threads in [1, 2, 4] {
            let cfg = SweepConfig::with_threads(threads).canonical(true);
            let clean =
                memberships(kernel, &MODELS, &u, &cfg, &Supervisor::none(), None, None).value;
            assert_ne!(clean.separated, 0, "bound 3 separates NW and WW from the rest");
            let path = temp(&format!("{name}-killres-{threads}"));
            let mut writer = CkptWriter::create(&path, "test fp").unwrap();
            let sup = Supervisor::with_fault(FaultPlan::none().kill_after_records(2));
            let out = memberships(kernel, &MODELS, &u, &cfg, &sup, None, Some((&mut writer, 1)));
            assert_eq!(out.status, SweepStatus::Killed);
            drop(writer);
            let ck = crate::ckpt::Checkpoint::load(&path).unwrap();
            assert_eq!(ck.fingerprint, "test fp");
            assert!(ck.snapshots.len() >= 2);
            let (frontier, counts) = decode_counts_snapshot(ck.latest().unwrap()).unwrap();
            assert!(frontier.len() >= 2);
            let mut writer = CkptWriter::append_to(&path).unwrap();
            let resumed = memberships(
                kernel,
                &MODELS,
                &u,
                &cfg,
                &Supervisor::none(),
                Some((frontier, counts)),
                Some((&mut writer, 1)),
            );
            assert!(resumed.is_complete(), "{name}, {threads} threads");
            assert_eq!(
                resumed.value, clean,
                "{name}, {threads} threads: resume must be bit-identical"
            );
            assert_eq!(
                resumed.value.separated, clean.separated,
                "{name}, {threads} threads: the lattice mask must resume bit-identically"
            );
            assert_eq!(resumed.frontier.len(), resumed.total_tasks);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn kill_resume_is_bit_identical() {
        assert_kill_resume_is_bit_identical(Scalar, "scalar");
    }

    #[test]
    fn lane_kill_resume_is_bit_identical() {
        assert_kill_resume_is_bit_identical(Lane64, "lane");
    }

    #[test]
    fn lane_memberships_match_scalar_at_every_thread_count() {
        // The lane64 engine must reproduce the scalar engine's weighted
        // membership counts and separation mask exactly — labelled and
        // canonical, 1/2/4 threads — because downstream tables and gates
        // treat the two engines as interchangeable up to throughput.
        let u = Universe::new(4, 1);
        for canonical in [false, true] {
            let scalar = memberships(
                Scalar,
                &MODELS,
                &u,
                &SweepConfig::with_threads(1).canonical(canonical),
                &Supervisor::none(),
                None,
                None,
            )
            .expect_complete("scalar memberships");
            for threads in [1, 2, 4] {
                let cfg = SweepConfig::with_threads(threads).canonical(canonical);
                let lanes = memberships_lanes_supervised(
                    &MODELS,
                    &u,
                    &cfg,
                    &Supervisor::none(),
                    None,
                    None,
                )
                .expect_complete("lane memberships");
                assert_eq!(lanes, scalar, "canonical={canonical} threads={threads}");
            }
        }
    }

    #[test]
    fn lane_compare_matches_scalar_counts_and_witnesses() {
        let u = Universe::new(4, 1);
        let serial = relation::compare(&Model::Lc, &Model::Nn, &u);
        for threads in [1, 2, 4] {
            let cfg = SweepConfig::with_threads(threads).canonical(true);
            let out = compare(Lane64, &Model::Lc, &Model::Nn, &u, &cfg, &Supervisor::none())
                .expect_complete("lane compare");
            assert_eq!(out.relation, serial.relation, "{threads} threads");
            assert_eq!(out.both, serial.both, "{threads} threads");
            assert_eq!(out.a_total, serial.a_total, "{threads} threads");
            assert_eq!(out.b_total, serial.b_total, "{threads} threads");
            assert_eq!(out.pairs_checked, serial.pairs_checked, "{threads} threads");
            assert_eq!(out.a_only, serial.a_only, "{threads} threads: a_only witness");
            assert_eq!(out.b_only, serial.b_only, "{threads} threads: b_only witness");
        }
    }

    #[test]
    fn lane_lattice_matches_scalar() {
        // The lattice derived from one memberships pass must equal the
        // serial 36-cell `relation::lattice` — with both kernels,
        // labelled and canonical, at 1/2/4 threads. (3, 2) is where SC ⊊
        // LC; (4, 1) is where NW ∥ WN first shows.
        for (nodes, locs) in [(3, 1), (3, 2), (4, 1)] {
            let u = Universe::new(nodes, locs);
            let serial = relation::lattice(&MODELS, &u);
            for canonical in [false, true] {
                for threads in [1, 2, 4] {
                    let cfg = SweepConfig::with_threads(threads).canonical(canonical);
                    let none = Supervisor::none();
                    let scalar = memberships(Scalar, &MODELS, &u, &cfg, &none, None, None)
                        .map(|counts| counts.lattice(&MODELS));
                    let lanes = lattice_lanes_supervised(&MODELS, &u, &cfg, &none);
                    for derived in [scalar, lanes] {
                        let rows = derived.expect_complete("derived lattice");
                        for (s, d) in serial.iter().zip(&rows) {
                            assert_eq!(s.name, d.name);
                            assert_eq!(
                                s.relations, d.relations,
                                "row {} at bound {nodes}, {locs} locs, canonical={canonical}, \
                                 {threads} threads",
                                s.name
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lane_and_scalar_snapshots_interoperate() {
        // A journal written by the scalar engine can seed a lane resume:
        // the snapshot encoding (frontier + counts) is engine-agnostic.
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(2).canonical(true);
        let clean = memberships(Scalar, &MODELS, &u, &cfg, &Supervisor::none(), None, None).value;
        let path = temp("lane-interop");
        let mut writer = CkptWriter::create(&path, "test fp").unwrap();
        let sup = Supervisor::with_fault(FaultPlan::none().kill_after_records(2));
        let out = memberships(Scalar, &MODELS, &u, &cfg, &sup, None, Some((&mut writer, 1)));
        assert_eq!(out.status, SweepStatus::Killed);
        drop(writer);
        let ck = crate::ckpt::Checkpoint::load(&path).unwrap();
        let (frontier, counts) = decode_counts_snapshot(ck.latest().unwrap()).unwrap();
        let resumed = memberships_lanes_supervised(
            &MODELS,
            &u,
            &cfg,
            &Supervisor::none(),
            Some((frontier, counts)),
            None,
        );
        assert!(resumed.is_complete());
        assert_eq!(resumed.value, clean, "scalar journal + lane resume must match clean scalar");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn degraded_compare_keeps_other_witnesses() {
        // Panic at task 0 (the empty poset, which witnesses nothing):
        // the LC/NN disagreement witnesses must still equal the serial
        // scan's, and the verdict must be Degraded, not a crash.
        let u = Universe::new(3, 1);
        let serial = relation::compare(&Model::Lc, &Model::Nn, &u);
        let sup = Supervisor::with_fault(FaultPlan::none().panic_at_task(0));
        let cfg = SweepConfig::with_threads(2);
        let out = compare(Scalar, &Model::Lc, &Model::Nn, &u, &cfg, &sup);
        assert_eq!(out.status, SweepStatus::Degraded);
        assert_eq!(out.value.relation, serial.relation);
        assert_eq!(out.value.a_only, serial.a_only);
        assert_eq!(out.value.b_only, serial.b_only);
        // Exactly the empty computation's single pair is missing.
        assert_eq!(out.value.pairs_checked, serial.pairs_checked - 1);
    }

    #[test]
    fn degraded_witness_search_does_not_abort() {
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(2);
        let sup = Supervisor::with_fault(FaultPlan::none().panic_at_task(0));
        let out = check_complete_supervised(&Model::Nn, &u, &cfg, &sup);
        assert_eq!(out.status, SweepStatus::Degraded);
        assert!(out.value.is_none(), "NN is complete at this bound");
        assert_eq!(out.quarantined.len(), 1);
    }

    #[test]
    fn lane_constructibility_witness_matches_scalar() {
        // NN first fails constructibility at the 5-node bound: both
        // engines must return the *same* first witness (min task,
        // labelling, location-major observer, op). Below the bound (and
        // at two locations) both must agree there is none.
        for &(b, l, fails) in &[(4usize, 1usize, false), (3, 2, false), (5, 1, true)] {
            let u = Universe::new(b, l);
            for cfg in [
                SweepConfig::with_threads(1),
                SweepConfig::with_threads(4),
                SweepConfig { canonical: true, ..SweepConfig::with_threads(2) },
            ] {
                let scalar =
                    check_constructible_aug_supervised(&Model::Nn, &u, &cfg, &Supervisor::none())
                        .expect_complete("scalar constructibility");
                let lane = check_constructible_aug_lanes_supervised(
                    &Model::Nn,
                    &u,
                    &cfg,
                    &Supervisor::none(),
                )
                .expect_complete("lane constructibility");
                assert_eq!(scalar.is_some(), fails, "scalar at bound {b}, {l} locs");
                match (scalar, lane) {
                    (None, None) => {}
                    (Some(s), Some(n)) => {
                        assert_eq!(s.c, n.c);
                        assert_eq!(s.phi, n.phi);
                        assert_eq!(s.extension, n.extension);
                        assert_eq!(s.op, n.op);
                    }
                    (s, n) => panic!("engines disagree: scalar {s:?} vs lane {n:?}"),
                }
            }
        }
        // Constructible models return no witness under either engine.
        let u = Universe::new(3, 2);
        let cfg = SweepConfig::with_threads(2);
        for m in [Model::Sc, Model::Lc, Model::Ww] {
            let lane = check_constructible_aug_lanes_supervised(&m, &u, &cfg, &Supervisor::none())
                .expect_complete("lane constructibility");
            assert!(lane.is_none(), "{m:?} is constructible");
        }
    }

    #[test]
    fn counts_snapshot_round_trip() {
        let mut f = Frontier::new();
        f.insert(3);
        f.insert(4);
        f.insert(9);
        let counts =
            CountsState { pairs: 123, per_model: vec![7, 0, 99], separated: 0b1_0010_0000 };
        let bytes = encode_counts_snapshot(&f, &counts);
        let (f2, c2) = decode_counts_snapshot(&bytes).unwrap();
        assert_eq!(f2, f);
        assert_eq!(c2, counts);
        assert!(decode_counts_snapshot(&bytes[..bytes.len() - 3]).is_none());
    }
}
