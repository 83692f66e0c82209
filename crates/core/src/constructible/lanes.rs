//! Lane-parallel bounded Δ* fixpoint: survivor sets as `u64` verdict
//! masks over node-major observer columns. This is the one production
//! Δ* engine; [`BoundedConstructible::compute`] is the naïve reference it
//! is tested against.
//!
//! The naïve reference keys survivor sets by
//! `HashMap<Computation, HashSet<ObserverFunction>>` — every membership
//! query hashes a whole observer table, and every extension check
//! re-enumerates candidates one `HashSet` probe at a time. This module
//! replaces that representation with a flat bit arena:
//!
//! * Every labelled computation in the universe gets an [`Entry`]: a
//!   contiguous run of mask words in which bit `p` is the survivor flag
//!   of the `p`-th observer in **node-major** enumeration order
//!   ([`crate::enumerate::for_each_observer_node_major`]).
//! * Node-major order sorts free observer slots by `(node, location)`,
//!   so the final node's slots always form the least-significant digits
//!   of the mixed-radix observer index. Because augmentation appends a
//!   node that succeeds every existing node, the order is *recursively*
//!   self-consistent: for an augmentation `A = C·o` with last-node slot
//!   radix product `E`, observer `p` of `C` extends exactly to the
//!   block `[p·E, (p+1)·E)` of `A`'s observers, and conversely
//!   `index(A, Φ′) / E = index(C, Φ′|_C)`. The `Δ*` extension
//!   condition "some extension of `Φ` survives in `A`" is therefore a
//!   single aligned block-emptiness test on `A`'s mask — one word-AND
//!   covers up to 64 scalar `HashSet` probes — and deletion
//!   propagation to the unique augmentation parent is a shift
//!   (`parent bit = p / E`) instead of an observer-table restriction.
//!   Masking is exact: clearing bit `p` removes exactly the pair `(C, Φ)`,
//!   and a block emptiness flip is exactly the `any_extension` condition
//!   turning false, so the greatest fixpoint (and `deleted`) is
//!   bit-identical to the naïve reference's.
//!
//! Stage A (mask materialisation) runs under the full supervisor
//! machinery — work-stealing shards, deadlines, quarantine,
//! checkpoint/resume — via [`sweep_supervised`], filling each
//! task's mask words through a sweep [`Kernel`]: [`Lane64`] (64
//! observers per word through [`MemoryModel::contains_lanes`]) or
//! [`Scalar`] (bit-at-a-time through [`MemoryModel::contains_with`]; the
//! same bits). Stage B is a serial worklist cascade over the arena: one
//! full pass, then each deletion re-checks only the unique augmentation
//! parent of the cleared bit. Deletion is monotone and the extension
//! condition anti-monotone in the survivor sets, so the cascade reaches
//! the same greatest fixpoint as the naïve re-scan; `passes` counts the
//! initial pass plus the cascade rounds that deleted something (the
//! naïve re-scan also counts its final, deletion-free pass).
//!
//! Checkpoint records are *incremental*: each snapshot journals only
//! the mask groups completed since the previous record (plus the full
//! frontier), so the journal stays proportional to the state instead
//! of quadratic in it; decoding folds every record of the journal.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::ControlFlow;

use ccmm_dag::{Dag, NodeId};

use crate::ckpt::{get_u64, put_u64, Checkpoint, CkptWriter};
use crate::computation::Computation;
use crate::constructible::{size_agreement, SizeAgreement};
use crate::enumerate::{node_major_index, node_major_shape};
use crate::fault::FaultPlan;
use crate::model::MemoryModel;
use crate::observer::ObserverFunction;
use crate::op::Op;
use crate::sweep::supervisor::{
    retry_once, sweep_supervised, CkptSink, Frontier, Kernel, Lane64, Merge, Quarantined, Scalar,
    Supervised, Supervisor, SweepStatus,
};
use crate::sweep::{for_each_labelling, materialize, LabelScratch, SweepConfig};
use crate::telemetry::{self, Counter};
use crate::universe::Universe;

#[cfg(doc)]
use crate::constructible::BoundedConstructible;

/// One completed task's survivor-mask words: all `kⁿ` labellings of one
/// poset, in labelling order, each labelling's mask starting on a fresh
/// word boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaskGroup {
    /// Dense labelled-task index (position in the labelled task list).
    pub task: u64,
    /// Mask words, concatenated per labelling.
    pub words: Vec<u64>,
}

/// Checkpointable Stage-A state of the lane fixpoint: the mask groups
/// of every completed shard, in completion order.
#[derive(Debug, Default)]
pub struct MaskState {
    /// Completed groups (unordered across tasks; each task appears once).
    pub groups: Vec<MaskGroup>,
    // High-water mark of groups already written to the journal, so each
    // checkpoint record is incremental. Interior mutability because the
    // encode hook only gets `&MaskState`; records are serialised under
    // the supervisor's checkpoint mutex, so the `Cell` is never raced.
    journaled: Cell<usize>,
}

impl Merge for MaskState {
    fn merge(&mut self, other: Self) {
        self.groups.extend(other.groups);
    }
}

/// Serialises the groups completed since the last snapshot:
/// `frontier ‖ ngroups ‖ (task ‖ nwords ‖ words…)*`.
pub fn encode_masks_snapshot(frontier: &Frontier, state: &MaskState) -> Vec<u8> {
    let from = state.journaled.get();
    let fresh = &state.groups[from..];
    let mut out = Vec::new();
    frontier.encode_into(&mut out);
    put_u64(&mut out, fresh.len() as u64);
    for g in fresh {
        put_u64(&mut out, g.task);
        put_u64(&mut out, g.words.len() as u64);
        for &w in &g.words {
            put_u64(&mut out, w);
        }
    }
    state.journaled.set(state.groups.len());
    out
}

/// Folds every record of a fixpoint journal back into `(frontier,
/// state)`. Records are incremental, so groups concatenate across
/// records and the *last* record's frontier wins. Returns `None` on a
/// torn or malformed journal.
pub fn decode_masks_journal(ckpt: &Checkpoint) -> Option<(Frontier, MaskState)> {
    let mut frontier = Frontier::default();
    let mut groups = Vec::new();
    for rec in &ckpt.snapshots {
        let mut at: &[u8] = rec;
        frontier = Frontier::decode_from(&mut at)?;
        let n = get_u64(&mut at)? as usize;
        for _ in 0..n {
            let task = get_u64(&mut at)?;
            let nwords = get_u64(&mut at)? as usize;
            let mut words = Vec::with_capacity(nwords);
            for _ in 0..nwords {
                words.push(get_u64(&mut at)?);
            }
            groups.push(MaskGroup { task, words });
        }
    }
    let journaled = Cell::new(groups.len());
    Some((frontier, MaskState { groups, journaled }))
}

impl MaskState {
    fn group_for(&mut self, task: usize) -> &mut Vec<u64> {
        if self.groups.last().is_none_or(|g| g.task != task as u64) {
            self.groups.push(MaskGroup { task: task as u64, words: Vec::new() });
        }
        &mut self.groups.last_mut().expect("just pushed").words
    }
}

// ---------------------------------------------------------------------
// Layout: dense metadata for every labelled task and labelling.
// ---------------------------------------------------------------------

/// Per labelled computation: where its mask lives and how it factors
/// through augmentation.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// First word of this labelling's mask in the arena.
    off: u64,
    /// Number of observers (mask bits; tail bits of the last word are 0).
    observers: u32,
    /// Block size `E`: product of the final node's slot radices. The
    /// parent observer of bit `p` is bit `p / block` of the parent
    /// entry, and conversely parent bit `q` extends to exactly
    /// `[q·block, (q+1)·block)` here.
    block: u32,
}

#[derive(Clone, Debug)]
struct TaskMeta {
    size: usize,
    /// Index of this task's first entry; labellings are contiguous, one
    /// entry per base-`k` op assignment (digit of node 0 fastest).
    entry_base: usize,
    /// Number of labellings, `k^size`.
    labellings: u64,
    /// Task whose poset is this one minus its final node — present iff
    /// the final node succeeds every other node (the unique
    /// augmentation parent shape).
    parent: Option<u32>,
    /// Task whose poset is this one plus a new final node above all —
    /// present iff `size < max_nodes`.
    aug: Option<u32>,
}

struct Layout {
    k: usize,
    metas: Vec<TaskMeta>,
    entries: Vec<Entry>,
    words_len: u64,
    /// `(node count, closure bits over u<v pairs)` → task position.
    key_map: HashMap<(u8, u64), u32>,
}

/// Bit-packs the edges among the first `n` nodes of a naturally
/// labelled dag: pair `(u, v)` with `u < v` at bit `v(v−1)/2 + u`.
fn sub_key(dag: &Dag, n: usize) -> u64 {
    assert!(n <= 11, "lane fixpoint packs closures into u64 (≤ 11 nodes)");
    let mut bits = 0u64;
    let mut i = 0;
    for v in 1..n {
        for u in 0..v {
            if dag.has_edge(NodeId::new(u), NodeId::new(v)) {
                bits |= 1 << i;
            }
            i += 1;
        }
    }
    bits
}

/// Key of `dag` augmented with a new final node above every node.
fn aug_key(dag: &Dag) -> u64 {
    let n = dag.node_count();
    let mut bits = sub_key(dag, n);
    let base = n * n.saturating_sub(1) / 2;
    for u in 0..n {
        bits |= 1 << (base + u);
    }
    bits
}

fn build_layout(u: &Universe) -> Layout {
    let alphabet = u.alphabet();
    let k = alphabet.len();
    let tasks = materialize(u, false);
    let mut key_map = HashMap::with_capacity(tasks.len());
    for (pos, t) in tasks.iter().enumerate() {
        debug_assert_eq!(t.idx, pos, "labelled tasks are dense");
        key_map.insert((t.size as u8, sub_key(&t.dag, t.size)), pos as u32);
    }
    let identity: Vec<Vec<usize>> = vec![(0..k).collect()];
    let mut scratch = LabelScratch::new();
    let mut metas = Vec::with_capacity(tasks.len());
    let mut entries = Vec::new();
    let mut words_len = 0u64;
    for t in &tasks {
        let n = t.size;
        let parent =
            if n > 0 && (0..n - 1).all(|us| t.dag.has_edge(NodeId::new(us), NodeId::new(n - 1))) {
                let key = (n as u8 - 1, sub_key(&t.dag, n - 1));
                Some(*key_map.get(&key).expect("prefix poset is enumerated"))
            } else {
                None
            };
        let aug = if n < u.max_nodes {
            let key = (n as u8 + 1, aug_key(&t.dag));
            Some(*key_map.get(&key).expect("universe is closed under augmentation below the bound"))
        } else {
            None
        };
        let entry_base = entries.len();
        let _ = for_each_labelling(&alphabet, &identity, t, &mut scratch, &mut |c, _w| {
            let (observers, block) = node_major_shape(c);
            entries.push(Entry {
                off: words_len,
                observers: u32::try_from(observers).expect("observer count fits u32"),
                block: u32::try_from(block).expect("block size fits u32"),
            });
            words_len += observers.div_ceil(64);
            ControlFlow::Continue(())
        });
        let labellings = (entries.len() - entry_base) as u64;
        metas.push(TaskMeta { size: n, entry_base, labellings, parent, aug });
    }
    Layout { k, metas, entries, words_len, key_map }
}

fn entry_words(e: &Entry) -> usize {
    (e.observers as usize).div_ceil(64)
}

/// Entries are laid out in task order, so the owning task of entry `e`
/// is found by partition point on `entry_base`.
fn owner(metas: &[TaskMeta], e: usize) -> usize {
    metas.partition_point(|m| m.entry_base <= e) - 1
}

/// Copies completed mask groups into a zeroed arena. Tasks with no
/// group (Stage-A quarantine kept the shard out of the state) are
/// filled all-ones masked to their observer counts — the conservative
/// *keep* that preserves the fixpoint's over-approximation invariant.
fn fill_arena(layout: &Layout, state: MaskState) -> Vec<u64> {
    let mut words = vec![0u64; layout.words_len as usize];
    let mut have = vec![false; layout.metas.len()];
    for g in state.groups {
        let t = g.task as usize;
        let meta = &layout.metas[t];
        let start = layout.entries[meta.entry_base].off as usize;
        let last = &layout.entries[meta.entry_base + meta.labellings as usize - 1];
        let end = last.off as usize + entry_words(last);
        assert!(!have[t], "task {t} journalled twice");
        assert_eq!(end - start, g.words.len(), "mask group length mismatch for task {t}");
        words[start..end].copy_from_slice(&g.words);
        have[t] = true;
    }
    for (t, meta) in layout.metas.iter().enumerate() {
        if have[t] {
            continue;
        }
        for e in &layout.entries[meta.entry_base..meta.entry_base + meta.labellings as usize] {
            let off = e.off as usize;
            let nw = entry_words(e);
            for w in &mut words[off..off + nw] {
                *w = !0;
            }
            let tail = e.observers % 64;
            if nw > 0 && tail != 0 {
                words[off + nw - 1] = (1u64 << tail) - 1;
            }
        }
    }
    words
}

/// Whether the `len`-bit block starting at bit `start` of an entry's
/// mask slice is all zeros. Counts the words it examines toward
/// [`Counter::LaneFixpointWords`].
pub(crate) fn block_empty(words: &[u64], start: u64, len: u64) -> bool {
    debug_assert!(len > 0);
    let end = start + len;
    telemetry::count(Counter::LaneFixpointWords, (end - 1) / 64 - start / 64 + 1);
    let mut bit = start;
    while bit < end {
        let w = (bit / 64) as usize;
        let off = bit % 64;
        let span = (64 - off).min(end - bit);
        let mask = if span == 64 { !0 } else { ((1u64 << span) - 1) << off };
        if words[w] & mask != 0 {
            return false;
        }
        bit += span;
    }
    true
}

// ---------------------------------------------------------------------
// Stage A: mask materialisation under the supervisor.
// ---------------------------------------------------------------------

fn materialize_masks<K: Kernel, M: MemoryModel + Sync>(
    kernel: K,
    model: &M,
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
    resume: Option<(Frontier, MaskState)>,
    ckpt: Option<(&mut CkptWriter, usize)>,
) -> Supervised<MaskState> {
    let encode = |s: &MaskState, f: &Frontier| encode_masks_snapshot(f, s);
    let sink = ckpt.map(|(writer, every)| CkptSink { writer, every, encode: &encode });
    sweep_supervised(
        u,
        cfg,
        sup,
        resume,
        sink,
        MaskState::default,
        || kernel.scratch(),
        |acc, x, idx, c, _w| {
            let words = acc.group_for(idx);
            // Kernel words never span a 64-observer boundary, so each one
            // lands whole in the labelling's current mask word.
            let mut filled = 0u32;
            kernel.words(std::slice::from_ref(model), c, x, true, |w| {
                if filled.is_multiple_of(64) {
                    telemetry::count(Counter::LaneFixpointWords, 1);
                    words.push(0);
                }
                *words.last_mut().expect("a mask word was pushed") |=
                    w.verdicts[0] << (filled % 64);
                filled += w.used.count_ones();
            });
        },
    )
}

// ---------------------------------------------------------------------
// Stage B: serial masked worklist cascade.
// ---------------------------------------------------------------------

struct FixOutcome {
    passes: usize,
    deleted: usize,
    quarantined: Vec<Quarantined>,
}

fn entry_slice<'a>(words: &'a [u64], e: &Entry) -> &'a [u64] {
    &words[e.off as usize..e.off as usize + entry_words(e)]
}

fn run_fixpoint(layout: &Layout, words: &mut [u64], fault: &FaultPlan) -> FixOutcome {
    // Initial full pass: for every surviving bit of every interior
    // entry, test each op's extension block in the augmentation's mask.
    // One interior *computation* is one supervised check, numbered in
    // layout order, under `retry_once`: retried once, and quarantined —
    // keeping its bits, which preserves the over-approximation
    // `Δ* ⊆ result ⊆ Δ` — on a second panic.
    let mut queue: Vec<(u32, u32)> = Vec::new();
    let mut quarantined = Vec::new();
    let mut check_idx = 0usize;
    for meta in &layout.metas {
        let Some(aug_task) = meta.aug else { continue };
        let aug_meta = &layout.metas[aug_task as usize];
        for ord in 0..meta.labellings {
            let e = meta.entry_base + ord as usize;
            let i = check_idx;
            check_idx += 1;
            let attempt = |_: &mut ()| {
                fault.before_fixpoint_check(i);
                let mut doomed: Vec<(u32, u32)> = Vec::new();
                let entry = &layout.entries[e];
                let off = entry.off as usize;
                for wi in 0..entry_words(entry) {
                    let mut w = words[off + wi];
                    while w != 0 {
                        let p = (wi as u32) * 64 + w.trailing_zeros();
                        w &= w - 1;
                        for j in 0..layout.k as u64 {
                            let a = aug_meta.entry_base + (ord + j * meta.labellings) as usize;
                            let ae = &layout.entries[a];
                            let block = u64::from(ae.block);
                            if block_empty(entry_slice(words, ae), u64::from(p) * block, block) {
                                doomed.push((e as u32, p));
                                break;
                            }
                        }
                    }
                }
                doomed
            };
            match retry_once(i, meta.size, &mut (), || (), attempt) {
                Ok(doomed) => queue.extend(doomed),
                Err(q) => quarantined.push(q),
            }
        }
    }

    // Cascade: clear a round of bits, push the unique augmentation
    // parent of each cleared bit for re-check, evaluate re-checks after
    // the round. `passes` counts the initial pass plus every round that
    // queued a deletion.
    let mut passes = 1;
    let mut deleted = 0usize;
    telemetry::count(Counter::WorklistPushes, queue.len() as u64);
    while !queue.is_empty() {
        telemetry::count(Counter::WorklistPops, queue.len() as u64);
        let mut recheck: Vec<(u32, u32, u32)> = Vec::new();
        for (e, p) in queue.drain(..) {
            let entry = &layout.entries[e as usize];
            let w = entry.off as usize + (p / 64) as usize;
            let m = 1u64 << (p % 64);
            if words[w] & m == 0 {
                continue; // deleted earlier this cascade
            }
            words[w] &= !m;
            deleted += 1;
            telemetry::count(Counter::LaneDeletionsMasked, 1);
            let t = owner(&layout.metas, e as usize);
            let meta = &layout.metas[t];
            if let Some(pt) = meta.parent {
                let pmeta = &layout.metas[pt as usize];
                let ord = e as usize - meta.entry_base;
                let pe = pmeta.entry_base + ord % pmeta.labellings as usize;
                let pb = p / entry.block;
                let pentry = &layout.entries[pe];
                debug_assert_eq!(
                    u64::from(pentry.observers) * u64::from(entry.block),
                    u64::from(entry.observers),
                    "augmentation factorisation"
                );
                let pw = pentry.off as usize + (pb / 64) as usize;
                if words[pw] & (1u64 << (pb % 64)) != 0 {
                    recheck.push((pe as u32, pb, e));
                }
            }
        }
        let mut next: Vec<(u32, u32)> = Vec::new();
        for (pe, pb, ce) in recheck {
            let pentry = &layout.entries[pe as usize];
            let pw = pentry.off as usize + (pb / 64) as usize;
            if words[pw] & (1u64 << (pb % 64)) == 0 {
                continue;
            }
            let centry = &layout.entries[ce as usize];
            let block = u64::from(centry.block);
            if block_empty(entry_slice(words, centry), u64::from(pb) * block, block) {
                next.push((pe, pb));
            }
        }
        queue = next;
        telemetry::count(Counter::WorklistPushes, queue.len() as u64);
        if !queue.is_empty() {
            passes += 1;
        }
    }
    FixOutcome { passes, deleted, quarantined }
}

// ---------------------------------------------------------------------
// Public result type.
// ---------------------------------------------------------------------

/// The bounded Δ* fixpoint computed lane-parallel over mask words.
/// Survivors and `deleted` are identical to the naïve
/// [`BoundedConstructible::compute`] on the same universe.
pub struct LaneConstructible {
    alphabet: Vec<Op>,
    metas: Vec<TaskMeta>,
    entries: Vec<Entry>,
    key_map: HashMap<(u8, u64), u32>,
    words: Vec<u64>,
    /// The universe bound the fixpoint was computed at.
    pub max_nodes: usize,
    /// Worklist rounds (initial pass + cascade generations).
    pub passes: usize,
    /// Pairs deleted by the fixpoint.
    pub deleted: usize,
    /// Stage-A shard and Stage-B check quarantine reports (empty on a
    /// clean run). Stage-B entries use initial-pass check indices.
    pub quarantined: Vec<Quarantined>,
}

impl LaneConstructible {
    fn empty(u: &Universe) -> Self {
        LaneConstructible {
            alphabet: u.alphabet(),
            metas: Vec::new(),
            entries: Vec::new(),
            key_map: HashMap::new(),
            words: Vec::new(),
            max_nodes: u.max_nodes,
            passes: 0,
            deleted: 0,
            quarantined: Vec::new(),
        }
    }

    /// Computes the fixpoint with the lane kernel, panicking unless the
    /// run completes cleanly. See [`Self::compute_supervised`].
    pub fn compute<M: MemoryModel + Sync>(model: &M, u: &Universe, cfg: &SweepConfig) -> Self {
        Self::compute_supervised(model, u, cfg, &Supervisor::none(), None, None, true)
            .expect_complete("lane Δ* fixpoint")
    }

    /// Computes the fixpoint under full supervision: Stage A
    /// (materialisation) honours deadlines, checkpoints to `ckpt`
    /// (`(writer, every)`), resumes from a decoded journal, and
    /// quarantines panicking shards (their masks are conservatively
    /// kept all-ones); Stage B quarantines one interior computation's
    /// check at a time. `lanes` selects the lane kernel
    /// ([`MemoryModel::contains_lanes`]) or the scalar kernel for Stage
    /// A — the journals and results are bit-identical either way, so a
    /// journal written by one engine resumes under the other.
    ///
    /// A `Killed`/`Partial` Stage A returns an empty value carrying the
    /// status and frontier; the fixpoint only runs on a complete
    /// (possibly degraded) materialisation.
    pub fn compute_supervised<M: MemoryModel + Sync>(
        model: &M,
        u: &Universe,
        cfg: &SweepConfig,
        sup: &Supervisor,
        resume: Option<(Frontier, MaskState)>,
        ckpt: Option<(&mut CkptWriter, usize)>,
        lanes: bool,
    ) -> Supervised<Self> {
        // The fixpoint keys survivors by labelled computation (every
        // augmentation parent must be present), so Stage A always runs
        // the labelled enumeration, even under a canonical config.
        let cfg = &SweepConfig { canonical: false, ..*cfg };
        let stage_a = if lanes {
            materialize_masks(Lane64, model, u, cfg, sup, resume, ckpt)
        } else {
            materialize_masks(Scalar, model, u, cfg, sup, resume, ckpt)
        };
        if matches!(stage_a.status, SweepStatus::Partial | SweepStatus::Killed) {
            return stage_a.map(|_| Self::empty(u));
        }
        let Supervised { value, mut status, mut quarantined, frontier, total_tasks, ckpt_error } =
            stage_a;
        let layout = build_layout(u);
        let mut words = fill_arena(&layout, value);
        let out = run_fixpoint(&layout, &mut words, &sup.fault);
        if !out.quarantined.is_empty() {
            status = status.max(SweepStatus::Degraded);
        }
        quarantined.extend(out.quarantined);
        let value = LaneConstructible {
            alphabet: u.alphabet(),
            metas: layout.metas,
            entries: layout.entries,
            key_map: layout.key_map,
            words,
            max_nodes: u.max_nodes,
            passes: out.passes,
            deleted: out.deleted,
            quarantined: quarantined.clone(),
        };
        telemetry::count(Counter::LaneSurvivorPop, value.total_pairs() as u64);
        Supervised { value, status, quarantined, frontier, total_tasks, ckpt_error }
    }

    /// Whether `(c, phi)` survived the fixpoint. Matches the naïve
    /// [`BoundedConstructible::contains`] on every computation of the
    /// universe: an unknown shape (too large, backward edge, op outside
    /// the alphabet, non-enumerated closure) is simply not a survivor.
    pub fn contains(&self, c: &Computation, phi: &ObserverFunction) -> bool {
        let n = c.node_count();
        if n > self.max_nodes || n > 11 {
            return false;
        }
        for (a, b) in c.dag().edges() {
            if a.index() >= b.index() {
                return false; // tasks are naturally labelled
            }
        }
        let Some(&t) = self.key_map.get(&(n as u8, sub_key(c.dag(), n))) else {
            return false;
        };
        let meta = &self.metas[t as usize];
        let mut ord = 0u64;
        for v in (0..n).rev() {
            let Some(d) = self.alphabet.iter().position(|&o| o == c.op(NodeId::new(v))) else {
                return false;
            };
            ord = ord * self.alphabet.len() as u64 + d as u64;
        }
        let e = &self.entries[meta.entry_base + ord as usize];
        let Some(p) = node_major_index(c, phi) else {
            return false;
        };
        debug_assert!(p < u64::from(e.observers));
        self.words[e.off as usize + (p / 64) as usize] & (1u64 << (p % 64)) != 0
    }

    /// Compares the survivors of size `n` against `model`, over every
    /// valid observer of the size-`n` computations of `u`.
    pub fn agreement_with<M: MemoryModel>(
        &self,
        model: &M,
        n: usize,
        u: &Universe,
    ) -> SizeAgreement {
        size_agreement(|c, phi| self.contains(c, phi), model, n, u)
    }

    /// Total surviving pairs (mask population count).
    pub fn total_pairs(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Surviving pairs for computations of exactly `n` nodes.
    pub fn pairs_of_size(&self, n: usize) -> usize {
        self.metas
            .iter()
            .filter(|m| m.size == n)
            .flat_map(|m| &self.entries[m.entry_base..m.entry_base + m.labellings as usize])
            .map(|e| {
                entry_slice(&self.words, e).iter().map(|w| w.count_ones() as usize).sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructible::BoundedConstructible;
    use crate::enumerate::for_each_observer;
    use crate::model::{Lc, Model, Nn, Sc};

    fn cfg(threads: usize) -> SweepConfig {
        SweepConfig { threads, ..SweepConfig::default() }
    }

    /// Asserts that the mask fixpoint kept exactly the naïve reference's
    /// survivors, pair by pair over the universe. The naïve re-scan
    /// counts one more pass than the cascade whenever it deleted
    /// anything: its final, deletion-free pass.
    fn assert_matches_naive<M: MemoryModel>(model: &M, u: &Universe, lane: &LaneConstructible) {
        let naive = BoundedConstructible::compute(model, u);
        assert_eq!(lane.total_pairs(), naive.total_pairs());
        assert_eq!(lane.deleted, naive.deleted);
        assert_eq!(naive.passes, lane.passes + usize::from(lane.deleted > 0));
        for n in 0..=u.max_nodes {
            assert_eq!(lane.pairs_of_size(n), naive.pairs_of_size(n), "size {n}");
        }
        let _ = u.for_each_computation(|c| {
            let _ = for_each_observer(c, |phi| {
                assert_eq!(
                    lane.contains(c, phi),
                    naive.contains(c, phi),
                    "pair disagreement on {c:?} / {phi:?}"
                );
                ControlFlow::Continue(())
            });
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn lane_fixpoint_matches_naive_for_nn() {
        for &(b, l, threads) in &[(3, 1, 1), (4, 1, 1), (4, 1, 4), (3, 2, 1)] {
            let u = Universe::new(b, l);
            let lane = LaneConstructible::compute(&Nn::default(), &u, &cfg(threads));
            assert_matches_naive(&Nn::default(), &u, &lane);
        }
    }

    #[test]
    fn lane_fixpoint_matches_naive_for_constructible_models() {
        // A constructible model is its own fixpoint: nothing is deleted
        // and the initial pass is the only one.
        let u = Universe::new(3, 1);
        let lc = LaneConstructible::compute(&Lc, &u, &cfg(2));
        assert_matches_naive(&Lc, &u, &lc);
        assert_eq!((lc.deleted, lc.passes), (0, 1));
        let sc = LaneConstructible::compute(&Sc, &u, &cfg(2));
        assert_matches_naive(&Sc, &u, &sc);
        // Two locations as well: an augmentation's final node then has
        // one observer slot per location.
        let u2 = Universe::new(3, 2);
        for threads in [2, 4] {
            let lane = LaneConstructible::compute(&Lc, &u2, &cfg(threads));
            assert_matches_naive(&Lc, &u2, &lane);
        }
    }

    #[test]
    fn bound_5_deletions_are_pinned_for_both_kernels() {
        // No universe of at most 4 nodes deletes anything: Figure 4's
        // dead end is a 4-node prefix, and only a 5-node bound holds its
        // augmentations. These are the bound-5, 1-location results.
        let u = Universe::new(5, 1);
        let pins = [(Model::Nn, 513_984, 96), (Model::Nw, 603_236, 12), (Model::Wn, 520_816, 40)];
        for (model, survivors, deleted) in pins {
            for lanes in [false, true] {
                let fix = LaneConstructible::compute_supervised(
                    &model,
                    &u,
                    &cfg(2),
                    &Supervisor::none(),
                    None,
                    None,
                    lanes,
                )
                .expect_complete("bound-5 fixpoint");
                let got = (fix.total_pairs(), fix.deleted, fix.passes);
                assert_eq!(got, (survivors, deleted, 1), "{model} (lanes: {lanes})");
            }
        }
    }

    #[test]
    fn scalar_kernel_stage_a_is_bit_identical_to_lanes() {
        let u = Universe::new(4, 1);
        let lane = LaneConstructible::compute(&Nn::default(), &u, &cfg(1));
        let scalar_kernel = LaneConstructible::compute_supervised(
            &Nn::default(),
            &u,
            &cfg(2),
            &Supervisor::none(),
            None,
            None,
            false,
        )
        .expect_complete("scalar-kernel fixpoint");
        assert_eq!(lane.words, scalar_kernel.words);
        assert_eq!(lane.deleted, scalar_kernel.deleted);
        assert_eq!(lane.passes, scalar_kernel.passes);
    }

    #[test]
    fn kill_and_resume_is_bit_identical_across_engines() {
        let path = std::env::temp_dir().join(format!("ccmm-lanefix-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let u = Universe::new(4, 1);
        let clean = LaneConstructible::compute(&Nn::default(), &u, &cfg(1));

        let sup = Supervisor::with_fault(FaultPlan::none().kill_after_records(2));
        let mut writer = CkptWriter::create(&path, "lanefix-test").expect("create journal");
        let killed = LaneConstructible::compute_supervised(
            &Nn::default(),
            &u,
            &cfg(1),
            &sup,
            None,
            Some((&mut writer, 4)),
            true,
        );
        assert_eq!(killed.status, SweepStatus::Killed);
        drop(writer);

        let ckpt = Checkpoint::load(&path).expect("journal readable");
        let (frontier, state) = decode_masks_journal(&ckpt).expect("journal decodes");
        assert!(!frontier.is_empty(), "kill happened after a checkpoint");
        // Resume with the *scalar* kernel: journals interoperate.
        let mut writer = CkptWriter::append_to(&path).expect("reopen journal");
        let resumed = LaneConstructible::compute_supervised(
            &Nn::default(),
            &u,
            &cfg(1),
            &Supervisor::none(),
            Some((frontier, state)),
            Some((&mut writer, 4)),
            false,
        )
        .expect_complete("resumed fixpoint");
        assert_eq!(resumed.words, clean.words);
        assert_eq!(resumed.deleted, clean.deleted);
        assert_eq!(resumed.passes, clean.passes);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fixpoint_quarantine_keeps_bits_and_degrades() {
        // A persistent panic in one initial-pass check must not abort the
        // fixpoint: the computation is quarantined (bits kept) and the
        // result stays a sound over-approximation.
        let u = Universe::new(4, 1);
        let clean = LaneConstructible::compute(&Nn::default(), &u, &cfg(1));
        let sup = Supervisor::with_fault(FaultPlan::none().panic_at_fixpoint(0));
        let out = LaneConstructible::compute_supervised(
            &Nn::default(),
            &u,
            &cfg(2),
            &sup,
            None,
            None,
            false,
        );
        assert_eq!(out.status, SweepStatus::Degraded);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].task_idx, 0);
        assert!(out.quarantined[0].payload.contains("fixpoint check 0"));
        // Quarantine keeps pairs: never fewer survivors than the clean
        // run, and every survivor is still in the model.
        assert!(out.value.total_pairs() >= clean.total_pairs());
        let _ = u.for_each_computation(|c| {
            let _ = for_each_observer(c, |phi| {
                if out.value.contains(c, phi) {
                    assert!(Nn::default().contains(c, phi), "quarantine broke fixpoint ⊆ NN");
                }
                ControlFlow::Continue(())
            });
            ControlFlow::Continue(())
        });
        // A healing fault (panics once, the retry succeeds) is not
        // degraded, and its masks are the clean run's, bit for bit.
        let sup = Supervisor::with_fault(FaultPlan::none().panic_once_at_fixpoint(1));
        let healed = LaneConstructible::compute_supervised(
            &Nn::default(),
            &u,
            &cfg(2),
            &sup,
            None,
            None,
            true,
        );
        assert_eq!(healed.status, SweepStatus::Complete);
        assert!(healed.quarantined.is_empty());
        assert_eq!(healed.value.words, clean.words);
    }
}
