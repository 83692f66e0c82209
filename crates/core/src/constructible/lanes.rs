//! The production bounded Δ* fixpoint (DESIGN.md §12); the naïve
//! [`BoundedConstructible::compute`] is its reference.
//!
//! A member mask has bit `p` set iff the `p`-th observer function in
//! node-major order ([`crate::enumerate::for_each_observer_node_major`])
//! is a member. For an augmentation `A = aug_o(C)` whose final node has
//! slot radix product `E`, observer `p` of `C` extends to exactly the
//! block `[p·E, (p+1)·E)` of `A`: "some extension survives" is one
//! [`block_empty`] test, and bit `i` of `A` restricts to bit `i / E`.
//!
//! **Census.** One supervised pass over the canonical universe builds
//! each labelling's member mask with a sweep [`Kernel`] ([`Lane64`] or
//! [`Scalar`]; the same bits) and adds the orbit-weighted member count per
//! size. Each labelling below the bound is one *check*, numbered in
//! enumeration order and run under [`retry_once`] with the
//! [`FaultPlan::before_fixpoint_check`] hook. A member whose block is
//! empty for some op is an initial dead end: a [`Seed`], counted in its
//! size's dead count. A quarantined check keeps its pairs, which
//! preserves `Δ* ⊆ result ⊆ Δ`. The census journals full snapshots
//! ([`encode_census_snapshot`]), the same bytes under either kernel.
//!
//! **Cascade.** Serially, the seeds are expanded to labelled pairs, which
//! must reproduce the census's dead counts (asserted on every run). A
//! deletion can only empty its augmentation parent's block, so each round
//! re-checks those parents against the kernel's member masks minus the
//! deleted set. Survivors are the members minus the deletions.
//!
//! **Symmetry precondition.** The census reads every orbit off one
//! representative, so the result is exact only for models invariant
//! under poset isomorphism and location permutation, as all six models
//! of Figure 1 are.

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

use ccmm_dag::bitset::BitSet;
use ccmm_dag::topo::for_each_topo_sort;
use ccmm_dag::{Dag, NodeId};

use crate::ckpt::{get_u64, put_u64, CkptWriter};
use crate::computation::Computation;
use crate::constructible::{size_agreement, SizeAgreement};
use crate::enumerate::{node_major_block, node_major_index, node_major_observer};
use crate::model::MemoryModel;
use crate::observer::ObserverFunction;
use crate::op::{Location, Op};
use crate::sweep::supervisor::{
    retry_once, run_supervised, CkptSink, Frontier, Kernel, Lane64, Merge, Quarantined, Scalar,
    Supervised, Supervisor, SweepStatus,
};
use crate::sweep::{for_each_labelling, maps_for, materialize, LabelScratch, SweepConfig, Task};
use crate::telemetry::{self, Counter};
use crate::universe::Universe;

#[cfg(doc)]
use crate::{constructible::BoundedConstructible, fault::FaultPlan};

/// One initial dead end found by the census: node-major observer
/// `observer` of op labelling `labelling` (the base-`k` number of the
/// ops' alphabet positions, node 0 least significant) of the canonical
/// poset with global index `task`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[allow(missing_docs)]
pub struct Seed {
    pub task: u64,
    pub labelling: u64,
    pub observer: u64,
}

/// The checkpointable state of the census.
#[derive(Clone, Debug, Default)]
pub struct CensusState {
    /// Per size: the orbit-weighted member count.
    pub members: Vec<u64>,
    /// Per size: the orbit-weighted count of initial dead ends.
    pub dead: Vec<u64>,
    /// The dead ends found on the canonical representatives.
    pub seeds: Vec<Seed>,
    /// Checks that panicked twice; their pairs are kept.
    pub quarantined: Vec<Quarantined>,
}

impl CensusState {
    fn new(sizes: usize) -> Self {
        CensusState { members: vec![0; sizes], dead: vec![0; sizes], ..CensusState::default() }
    }
}

impl Merge for CensusState {
    fn merge(&mut self, other: Self) {
        for (d, s) in self.members.iter_mut().zip(other.members) {
            *d += s;
        }
        for (d, s) in self.dead.iter_mut().zip(other.dead) {
            *d += s;
        }
        self.seeds.extend(other.seeds);
        self.quarantined.extend(other.quarantined);
    }
}

/// Serialises one census snapshot: `frontier ‖ sizes ‖ (members ‖
/// dead)* ‖ seeds ‖ (task ‖ labelling ‖ observer)* ‖ quarantined ‖
/// (check ‖ size ‖ payload length ‖ payload)*`, every integer a
/// little-endian u64.
pub fn encode_census_snapshot(frontier: &Frontier, state: &CensusState) -> Vec<u8> {
    let mut out = Vec::new();
    frontier.encode_into(&mut out);
    put_u64(&mut out, state.members.len() as u64);
    for (&m, &d) in state.members.iter().zip(&state.dead) {
        put_u64(&mut out, m);
        put_u64(&mut out, d);
    }
    put_u64(&mut out, state.seeds.len() as u64);
    for s in &state.seeds {
        for v in [s.task, s.labelling, s.observer] {
            put_u64(&mut out, v);
        }
    }
    put_u64(&mut out, state.quarantined.len() as u64);
    for q in &state.quarantined {
        for v in [q.task_idx, q.size, q.payload.len()] {
            put_u64(&mut out, v as u64);
        }
        out.extend_from_slice(q.payload.as_bytes());
    }
    out
}

/// Decodes a snapshot written by [`encode_census_snapshot`]; `None` if
/// it is truncated, malformed or has trailing bytes.
pub fn decode_census_snapshot(mut bytes: &[u8]) -> Option<(Frontier, CensusState)> {
    let at = &mut bytes;
    let frontier = Frontier::decode_from(at)?;
    let mut state = CensusState::default();
    for _ in 0..get_u64(at)?.min(64) {
        state.members.push(get_u64(at)?);
        state.dead.push(get_u64(at)?);
    }
    for _ in 0..get_u64(at)? {
        let (task, labelling, observer) = (get_u64(at)?, get_u64(at)?, get_u64(at)?);
        state.seeds.push(Seed { task, labelling, observer });
    }
    for _ in 0..get_u64(at)? {
        let (task_idx, size, len) =
            (get_u64(at)? as usize, get_u64(at)? as usize, get_u64(at)? as usize);
        let payload = String::from_utf8(at.get(..len)?.to_vec()).ok()?;
        *at = &at[len..];
        state.quarantined.push(Quarantined { task_idx, size, payload });
    }
    at.is_empty().then_some((frontier, state))
}

/// Fills `mask` with `c`'s node-major member mask under `model`.
pub(crate) fn member_mask<K: Kernel, M: MemoryModel>(
    kernel: K,
    model: &M,
    c: &Computation,
    x: &mut K::Scratch,
    mask: &mut Vec<u64>,
) {
    mask.clear();
    // Kernel words never span a 64-observer boundary, so each one lands
    // whole in the current mask word.
    let mut filled = 0u64;
    kernel.words(std::slice::from_ref(model), c, x, true, |w| {
        if filled.is_multiple_of(64) {
            mask.push(0);
        }
        *mask.last_mut().expect("a mask word was pushed") |= w.verdicts[0] << (filled % 64);
        filled += u64::from(w.used.count_ones());
    });
    telemetry::count(Counter::LaneFixpointWords, mask.len() as u64);
}

/// Whether the `len`-bit block starting at bit `start` of a mask is all
/// zeros. Counts the words it examines toward
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

fn bit(mask: &[u64], p: u64) -> bool {
    mask[(p / 64) as usize] >> (p % 64) & 1 == 1
}

fn set_bits(mask: &[u64]) -> impl Iterator<Item = u64> + '_ {
    (0..mask.len() as u64 * 64).filter(|&p| bit(mask, p))
}

/// Working memory of the census checks (rebuilt after a panic), with the
/// current poset's augmentation, relabelled in place per op.
struct AugScratch<X> {
    kernel: X,
    mask: Vec<u64>,
    ops: Vec<Op>,
    /// `(poset index, its augmentation)`.
    aug: Option<(usize, Computation)>,
}

/// The members of `c` (bits of `members`) that some augmentation leaves
/// without a member extension. `c` labels the poset `task`, whose
/// augmentation is `aug_dag`.
fn dead_members<K: Kernel, M: MemoryModel>(
    kernel: K,
    model: &M,
    c: &Computation,
    (task, aug_dag): (usize, &Dag),
    alphabet: &[Op],
    members: &[u64],
    x: &mut AugScratch<K::Scratch>,
) -> Vec<u64> {
    if members.iter().all(|&w| w == 0) {
        return Vec::new();
    }
    if x.aug.as_ref().is_none_or(|&(t, _)| t != task) {
        let mut aug = Computation::empty();
        aug.retarget(aug_dag);
        x.aug = Some((task, aug));
    }
    let (_, aug) = x.aug.as_mut().expect("just targeted");
    let mut alive = members.to_vec();
    for &op in alphabet {
        x.ops.clear();
        x.ops.extend_from_slice(c.ops());
        x.ops.push(op);
        aug.refresh_ops(&x.ops);
        let block = node_major_block(aug);
        member_mask(kernel, model, aug, &mut x.kernel, &mut x.mask);
        for p in set_bits(members) {
            if bit(&alive, p) && block_empty(&x.mask, p * block, block) {
                alive[(p / 64) as usize] &= !(1 << (p % 64));
            }
        }
    }
    set_bits(members).filter(|&p| !bit(&alive, p)).collect()
}

/// The census over `tasks`, the canonical posets of `u`.
#[allow(clippy::too_many_arguments)]
fn census<K: Kernel, M: MemoryModel + Sync>(
    kernel: K,
    model: &M,
    u: &Universe,
    tasks: Vec<Task>,
    cfg: &SweepConfig,
    sup: &Supervisor,
    resume: Option<(Frontier, CensusState)>,
    ckpt: Option<(&mut CkptWriter, usize)>,
) -> Supervised<CensusState> {
    let alphabet = u.alphabet();
    let maps = maps_for(u, cfg, &alphabet);
    let sizes = u.max_nodes + 1;
    // Each poset below the bound numbers its labellings' checks from here.
    // A poset of `n` nodes has one location-canonical labelling per
    // location-permutation orbit: by Burnside, the mean of `fix(m)ⁿ`.
    let fixed = |m: &Vec<usize>| (0..m.len()).filter(|&d| m[d] == d).count();
    let (mut first_check, mut checks) = (HashMap::new(), 0);
    for t in tasks.iter().filter(|t| t.size < u.max_nodes) {
        first_check.insert(t.idx, checks);
        checks += maps.iter().map(|m| fixed(m).pow(t.size as u32)).sum::<usize>() / maps.len();
    }
    let (frontier, initial) = resume.unwrap_or_else(|| (Frontier::new(), CensusState::new(sizes)));
    assert_eq!(initial.members.len(), sizes, "census journal of another bound");
    let encode = |s: &CensusState, f: &Frontier| encode_census_snapshot(f, s);
    let sink = ckpt.map(|(writer, every)| CkptSink { writer, every, encode: &encode });
    let fresh =
        || AugScratch { kernel: kernel.scratch(), mask: Vec::new(), ops: Vec::new(), aug: None };
    let (k, digit) = (alphabet.len() as u64, |op: &Op| alphabet.iter().position(|o| o == op));
    let scan = |task: &Task, (ls, mask, x): &mut (LabelScratch, Vec<u64>, AugScratch<_>)| {
        let (n, aug_dag) = (task.size, task.dag.augment());
        let mut delta = CensusState::new(sizes);
        let mut check = first_check.get(&task.idx).copied();
        let _ = for_each_labelling(&alphabet, &maps, task, ls, &mut |c, weight| {
            member_mask(kernel, model, c, &mut x.kernel, mask);
            let members: u64 = mask.iter().map(|w| u64::from(w.count_ones())).sum();
            delta.members[n] += weight * members;
            let Some(i) = check else { return ControlFlow::Continue(()) };
            check = Some(i + 1);
            let attempt = |x: &mut AugScratch<K::Scratch>| {
                sup.fault.before_fixpoint_check(i);
                dead_members(kernel, model, c, (task.idx, &aug_dag), &alphabet, mask, x)
            };
            match retry_once(i, n, x, fresh, attempt) {
                Err(q) => delta.quarantined.push(q),
                Ok(dead) => {
                    delta.dead[n] += weight * dead.len() as u64;
                    let labelling = c.ops().iter().rev().fold(0, |acc, op| {
                        acc * k + digit(op).expect("an op of the alphabet") as u64
                    });
                    let seed = |observer| Seed { task: task.idx as u64, labelling, observer };
                    delta.seeds.extend(dead.into_iter().map(seed));
                }
            }
            ControlFlow::Continue(())
        });
        delta
    };
    run_supervised(
        tasks,
        cfg.threads,
        cfg.deadline,
        &sup.fault,
        frontier,
        initial,
        sink,
        || (LabelScratch::new(), Vec::new(), fresh()),
        scan,
        |g, d, _| {
            g.merge(d);
            ControlFlow::Continue(())
        },
    )
}

/// Labelled pairs by computation, as node-major observer indices.
type Pairs = HashMap<Computation, Vec<u64>>;

/// Deleted pairs by computation, as node-major observer indices.
type Deleted = HashMap<Computation, HashSet<u64>>;

/// Every labelled pair in the orbits of the (sorted) `seeds`, along each
/// linear extension `t` (new node `j` is old node `t[j]`) and location
/// permutation. An image is visited once: by model symmetry, its dead
/// members are the image of its labelling's under any isomorphism.
fn expand(
    seeds: &[Seed],
    posets: &HashMap<u64, Dag>,
    alphabet: &[Op],
    maps: &[Vec<usize>],
) -> Pairs {
    let k = alphabet.len() as u64;
    // Where digit map `m` sends location `l`.
    let moved = |m: &[usize], l: Location| {
        let w =
            alphabet.iter().position(|&o| o == Op::Write(l)).expect("every location is written");
        alphabet[m[w]].location().expect("a write has a location")
    };
    // Images are keyed by `(nodes, closure bits, op digits)`: bit
    // `b(b−1)/2 + a` is edge `a → b` (canonical posets have ≤ 10 nodes),
    // and the op digits are base `k`, node 0 least significant.
    let mut images = HashSet::new();
    let mut out = Pairs::new();
    for poset_seeds in seeds.chunk_by(|a, b| a.task == b.task) {
        let dag = &posets[&poset_seeds[0].task];
        let n = dag.node_count();
        // Per labelling: its op digits and its dead members.
        let labellings: Vec<(Vec<usize>, Vec<ObserverFunction>)> = poset_seeds
            .chunk_by(|a, b| a.labelling == b.labelling)
            .map(|group| {
                let digits: Vec<usize> =
                    (0..n).map(|v| (group[0].labelling / k.pow(v as u32) % k) as usize).collect();
                let ops = digits.iter().map(|&d| alphabet[d]).collect();
                let c = Computation::new(dag.clone(), ops).expect("one op per node");
                let seed = |s: &Seed| node_major_observer(&c, s.observer).expect("an observer");
                (digits, group.iter().map(seed).collect())
            })
            .collect();
        let (mut image, mut pos, mut ops) = (Computation::empty(), vec![0; n], Vec::new());
        let _ = for_each_topo_sort(dag, |t| {
            for (j, v) in t.iter().enumerate() {
                pos[v.index()] = j;
            }
            let edges: Vec<(usize, usize)> =
                dag.edges().map(|(a, b)| (pos[a.index()], pos[b.index()])).collect();
            let dag_key = edges.iter().fold(0u64, |key, &(a, b)| key | 1 << (b * (b - 1) / 2 + a));
            let mut targeted = false;
            for (digits, phis) in &labellings {
                for m in maps {
                    let op_key =
                        t.iter().rev().fold(0, |key, v| key * k + m[digits[v.index()]] as u64);
                    if !images.insert((n, dag_key, op_key)) {
                        continue;
                    }
                    if !targeted {
                        image.retarget(&Dag::from_edges(n, &edges).expect("a relabelled dag"));
                        targeted = true;
                    }
                    ops.clear();
                    ops.extend(t.iter().map(|v| alphabet[m[digits[v.index()]]]));
                    image.refresh_ops(&ops);
                    let relabel = |phi: &ObserverFunction| {
                        let mut phi2 = ObserverFunction::base(&image);
                        for l in (0..phi.num_locations()).map(Location::new) {
                            for (u, &j) in pos.iter().enumerate() {
                                if let Some(w) = phi.get(l, NodeId::new(u)) {
                                    let seen = Some(NodeId::new(pos[w.index()]));
                                    phi2.set(moved(m, l), NodeId::new(j), seen);
                                }
                            }
                        }
                        node_major_index(&image, &phi2).expect("relabelling keeps an observer")
                    };
                    out.insert(image.clone(), phis.iter().map(relabel).collect());
                }
            }
            ControlFlow::Continue(())
        });
    }
    out
}

/// `c` minus its final node, if that node succeeds every other node —
/// the unique computation `c` is an augmentation of.
fn augmentation_parent(c: &Computation) -> Option<Computation> {
    let last = c.last_node()?;
    if !c.nodes().take(last.index()).all(|v| c.precedes(v, last)) {
        return None;
    }
    let mut keep = BitSet::full(c.node_count());
    keep.remove(last.index());
    Some(c.prefix(&keep).expect("dropping a maximal node keeps a prefix").0)
}

/// Deletes the expanded `seeds` (which must match the census's `dead`
/// counts), then re-checks parents round by round until a round deletes
/// nothing. Returns the passes, the deletions per size and the pairs.
fn cascade<K: Kernel, M: MemoryModel>(
    kernel: K,
    model: &M,
    seeds: Pairs,
    dead: &[u64],
) -> (usize, Vec<u64>, Deleted) {
    let mut deleted = Deleted::new();
    let mut deleted_of_size = vec![0u64; dead.len()];
    let mut x = kernel.scratch();
    let (mut queue, mut passes) = (seeds, 0);
    loop {
        passes += 1;
        let queued = queue.values().map(|ps| ps.len() as u64).sum();
        telemetry::count(Counter::WorklistPushes, queued);
        telemetry::count(Counter::WorklistPops, queued);
        // Delete the round, noting each fresh deletion's parent bit.
        let mut rechecks = Vec::new();
        for (c, ps) in queue {
            let set = deleted.entry(c.clone()).or_default();
            let fresh: Vec<u64> = ps.into_iter().filter(|&p| set.insert(p)).collect();
            deleted_of_size[c.node_count()] += fresh.len() as u64;
            telemetry::count(Counter::LaneDeletionsMasked, fresh.len() as u64);
            if let (false, Some(parent)) = (fresh.is_empty(), augmentation_parent(&c)) {
                let block = node_major_block(&c);
                let mut pbs: Vec<u64> = fresh.iter().map(|p| p / block).collect();
                pbs.sort_unstable();
                pbs.dedup();
                rechecks.push((c, parent, block, pbs));
            }
        }
        if passes == 1 {
            assert_eq!(deleted_of_size, dead, "seed expansion disagrees with the census");
        }
        // Re-check each touched parent block against the child's
        // surviving members. Siblings share their parent's mask.
        let surviving = |c: &Computation, x: &mut K::Scratch| {
            let mut mask = Vec::new();
            member_mask(kernel, model, c, x, &mut mask);
            for &p in deleted.get(c).into_iter().flatten() {
                mask[(p / 64) as usize] &= !(1 << (p % 64));
            }
            mask
        };
        let mut parents = HashMap::new();
        queue = Pairs::new();
        for (child, parent, block, mut pbs) in rechecks {
            let child_mask = surviving(&child, &mut x);
            let parent_mask =
                parents.entry(parent.clone()).or_insert_with(|| surviving(&parent, &mut x));
            pbs.retain(|&pb| bit(parent_mask, pb) && block_empty(&child_mask, pb * block, block));
            if !pbs.is_empty() {
                queue.entry(parent).or_default().extend(pbs);
            }
        }
        if queue.is_empty() {
            return (passes, deleted_of_size, deleted);
        }
    }
}

/// The bounded Δ* fixpoint: the model's pairs minus the deleted ones.
/// Survivors, `deleted` and `passes` match the naïve
/// [`BoundedConstructible::compute`] on the same universe for every
/// model invariant under poset isomorphism and location permutation.
pub struct LaneConstructible {
    model: Box<dyn MemoryModel + Send + Sync>,
    alphabet: Vec<Op>,
    members: Vec<u64>,
    deleted_of_size: Vec<u64>,
    deleted_pairs: Deleted,
    /// The universe bound the fixpoint was computed at.
    pub max_nodes: usize,
    /// Deletion rounds: the seed round plus every cascade round that
    /// deleted something.
    pub passes: usize,
    /// Pairs deleted by the fixpoint.
    pub deleted: usize,
    /// Census task and check quarantine reports (empty on a clean run).
    /// Check entries carry their check number as `task_idx`. A
    /// quarantined task's members are missing from the counts, as in the
    /// memberships phase; a quarantined check's pairs are kept.
    pub quarantined: Vec<Quarantined>,
}

impl LaneConstructible {
    fn new<M: MemoryModel + Clone + Send + Sync + 'static>(model: &M, u: &Universe) -> Self {
        LaneConstructible {
            model: Box::new(model.clone()),
            alphabet: u.alphabet(),
            members: Vec::new(),
            deleted_of_size: Vec::new(),
            deleted_pairs: Deleted::new(),
            max_nodes: u.max_nodes,
            passes: 0,
            deleted: 0,
            quarantined: Vec::new(),
        }
    }

    /// Computes the fixpoint with the lane kernel, panicking unless the
    /// run completes cleanly. See [`Self::compute_supervised`].
    pub fn compute<M: MemoryModel + Clone + Send + Sync + 'static>(
        model: &M,
        u: &Universe,
        cfg: &SweepConfig,
    ) -> Self {
        Self::compute_supervised(model, u, cfg, &Supervisor::none(), None, None, true)
            .expect_complete("lane Δ* fixpoint")
    }

    /// Computes the fixpoint under full supervision: the census honours
    /// `cfg`'s threads and deadline (but is always canonical),
    /// checkpoints to `ckpt` (`(writer, every)`), resumes from a decoded
    /// snapshot, and quarantines panicking tasks and checks. `lanes`
    /// selects the [`Lane64`] or the [`Scalar`] kernel, with identical
    /// results and journals. A `Killed`/`Partial` census returns an empty
    /// value; the cascade runs only on a complete (or degraded) one.
    pub fn compute_supervised<M: MemoryModel + Clone + Send + Sync + 'static>(
        model: &M,
        u: &Universe,
        cfg: &SweepConfig,
        sup: &Supervisor,
        resume: Option<(Frontier, CensusState)>,
        ckpt: Option<(&mut CkptWriter, usize)>,
        lanes: bool,
    ) -> Supervised<Self> {
        let cfg = &SweepConfig { canonical: true, ..*cfg };
        if lanes {
            Self::run(Lane64, model, u, cfg, sup, resume, ckpt)
        } else {
            Self::run(Scalar, model, u, cfg, sup, resume, ckpt)
        }
    }

    fn run<K: Kernel, M: MemoryModel + Clone + Send + Sync + 'static>(
        kernel: K,
        model: &M,
        u: &Universe,
        cfg: &SweepConfig,
        sup: &Supervisor,
        resume: Option<(Frontier, CensusState)>,
        ckpt: Option<(&mut CkptWriter, usize)>,
    ) -> Supervised<Self> {
        let tasks = materialize(u, true);
        let posets: HashMap<u64, Dag> =
            tasks.iter().map(|t| (t.idx as u64, t.dag.clone())).collect();
        let mut out = census(kernel, model, u, tasks, cfg, sup, resume, ckpt);
        if matches!(out.status, SweepStatus::Partial | SweepStatus::Killed) {
            return out.map(|_| Self::new(model, u));
        }
        let mut checks = std::mem::take(&mut out.value.quarantined);
        checks.sort_by_key(|q| q.task_idx);
        if !checks.is_empty() {
            out.status = out.status.max(SweepStatus::Degraded);
        }
        out.quarantined.extend(checks);
        let quarantined = out.quarantined.clone();
        out.map(|mut state| {
            state.seeds.sort_unstable();
            let alphabet = u.alphabet();
            let seeds = expand(&state.seeds, &posets, &alphabet, &maps_for(u, cfg, &alphabet));
            let (passes, deleted_of_size, deleted_pairs) =
                cascade(kernel, model, seeds, &state.dead);
            let value = LaneConstructible {
                members: state.members,
                deleted: deleted_of_size.iter().sum::<u64>() as usize,
                deleted_of_size,
                deleted_pairs,
                passes,
                quarantined,
                ..Self::new(model, u)
            };
            telemetry::count(Counter::LaneSurvivorPop, value.total_pairs() as u64);
            value
        })
    }

    /// Whether `(c, phi)` survived the fixpoint, as the naïve
    /// [`BoundedConstructible::contains`]: a computation outside the
    /// universe (too large, not a naturally labelled closure, an op
    /// outside the alphabet) has no survivors.
    pub fn contains(&self, c: &Computation, phi: &ObserverFunction) -> bool {
        let in_universe = c.node_count() <= self.max_nodes
            && c.ops().iter().all(|o| self.alphabet.contains(o))
            && c.nodes()
                .all(|a| c.nodes().all(|b| c.dag().has_edge(a, b) == (a < b && c.precedes(a, b))));
        let deleted = |s: &HashSet<u64>| node_major_index(c, phi).is_some_and(|p| s.contains(&p));
        in_universe
            && self.model.contains(c, phi)
            && !self.deleted_pairs.get(c).is_some_and(deleted)
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

    /// Total surviving pairs.
    pub fn total_pairs(&self) -> usize {
        (0..self.members.len()).map(|n| self.pairs_of_size(n)).sum()
    }

    /// Surviving pairs for computations of exactly `n` nodes.
    pub fn pairs_of_size(&self, n: usize) -> usize {
        let members = self.members.get(n).copied().unwrap_or(0);
        members.saturating_sub(self.deleted_of_size.get(n).copied().unwrap_or(0)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::Checkpoint;
    use crate::constructible::BoundedConstructible;
    use crate::enumerate::for_each_observer;
    use crate::fault::FaultPlan;
    use crate::model::{Lc, Model, Nn, Sc};

    fn cfg(threads: usize) -> SweepConfig {
        SweepConfig { threads, ..SweepConfig::default() }
    }

    /// Asserts that the fixpoint kept exactly the naïve reference's
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

    /// Asserts two fixpoint results are the same, deleted pair for pair.
    fn assert_same(a: &LaneConstructible, b: &LaneConstructible) {
        assert_eq!((a.members.as_slice(), a.passes), (b.members.as_slice(), b.passes));
        assert_eq!(a.deleted_of_size, b.deleted_of_size);
        assert_eq!(a.deleted_pairs, b.deleted_pairs);
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
        // and the seed round is the only one.
        let u = Universe::new(3, 1);
        let lc = LaneConstructible::compute(&Lc, &u, &cfg(2));
        assert_matches_naive(&Lc, &u, &lc);
        assert_eq!((lc.deleted, lc.passes), (0, 1));
        let sc = LaneConstructible::compute(&Sc, &u, &cfg(2));
        assert_matches_naive(&Sc, &u, &sc);
        // Two locations as well: an augmentation's final node then has
        // one observer slot per location, and the census folds location
        // permutations.
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

    /// NN minus a banned set of pairs on 1-location chain computations.
    /// A chain has one natural labelling and one location permutation
    /// applies, so the model keeps both symmetries the census needs.
    #[derive(Clone)]
    struct NnMinus(HashSet<(Computation, ObserverFunction)>);

    impl MemoryModel for NnMinus {
        fn name(&self) -> &str {
            "NN-minus"
        }

        fn contains(&self, c: &Computation, phi: &ObserverFunction) -> bool {
            Nn::default().contains(c, phi) && !self.0.contains(&(c.clone(), phi.clone()))
        }
    }

    #[test]
    fn cascade_rounds_match_the_naive_rescan() {
        // Ban the one observer of the 4-write chain. The 3-write chain
        // then has no extension under W: a seed. Its death empties the
        // W block of the 2-write chain, whose death empties that of the
        // 1-write chain, and so on down to ε: four deletion rounds, of
        // which the cascade finds three.
        let w = Op::Write(Location::new(0));
        let chain = (0..4).fold(Computation::empty(), |c, _| c.augment(w));
        let ban = HashSet::from([(chain.clone(), ObserverFunction::base(&chain))]);
        let model = NnMinus(ban);
        let u = Universe::new(4, 1);
        let naive = BoundedConstructible::compute(&model, &u);
        assert!(naive.passes >= 3, "the naïve re-scan needs ≥ 2 deletion rounds");
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
            .expect_complete("cascade fixpoint");
            assert_eq!((fix.deleted, fix.passes), (4, 4));
            assert_matches_naive(&model, &u, &fix);
        }
    }

    #[test]
    fn scalar_kernel_census_matches_lanes() {
        let u = Universe::new(5, 1);
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
        assert_same(&lane, &scalar_kernel);
    }

    #[test]
    fn census_snapshot_round_trips() {
        let mut frontier = Frontier::new();
        frontier.insert(3);
        let state = CensusState {
            members: vec![1, 2, 3],
            dead: vec![0, 1, 0],
            seeds: vec![Seed { task: 3, labelling: 7, observer: 1 }],
            quarantined: vec![Quarantined { task_idx: 9, size: 2, payload: "boom ü".into() }],
        };
        let bytes = encode_census_snapshot(&frontier, &state);
        let (f, s) = decode_census_snapshot(&bytes).expect("decodes");
        assert_eq!(f, frontier);
        assert_eq!((s.members, s.dead, s.seeds), (state.members, state.dead, state.seeds));
        assert_eq!(s.quarantined[0].payload, "boom ü");
        assert!(decode_census_snapshot(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn kill_and_resume_is_bit_identical_across_engines() {
        let path = std::env::temp_dir().join(format!("ccmm-lanefix-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let u = Universe::new(5, 1);
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
        let (frontier, state) =
            decode_census_snapshot(ckpt.latest().expect("a record")).expect("journal decodes");
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
        assert_same(&resumed, &clean);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fixpoint_quarantine_keeps_pairs_and_degrades() {
        // A persistent panic in one check must not abort the fixpoint:
        // the check is quarantined (its pairs kept) and the result stays
        // a sound over-approximation. Check 0 is ε at bound 5; the other
        // is the first labelling with a dead end. With one location every
        // labelling is checked, `3ⁿ` per interior poset of `n` nodes.
        let u = Universe::new(5, 1);
        let clean = LaneConstructible::compute(&Nn::default(), &u, &cfg(1));
        let (tasks, none) = (materialize(&u, true), Supervisor::none());
        let state =
            census(Lane64, &Nn::default(), &u, materialize(&u, true), &cfg(2), &none, None, None);
        let seed = state.value.seeds.iter().min().expect("NN has dead ends at bound 5");
        let earlier = tasks.iter().filter(|t| t.size < 5 && (t.idx as u64) < seed.task);
        let dead_check =
            earlier.map(|t| 3usize.pow(t.size as u32)).sum::<usize>() + seed.labelling as usize;
        for check in [0, dead_check] {
            let sup = Supervisor::with_fault(FaultPlan::none().panic_at_fixpoint(check));
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
            assert_eq!(out.quarantined[0].task_idx, check);
            assert!(out.quarantined[0].payload.contains(&format!("fixpoint check {check}")));
            // Quarantine keeps pairs: never fewer survivors than the
            // clean run, and every survivor is still in the model.
            assert!(out.value.total_pairs() >= clean.total_pairs());
            assert_eq!(out.value.deleted < clean.deleted, check == dead_check);
            for (c, ps) in &out.value.deleted_pairs {
                for p in ps {
                    assert!(clean.deleted_pairs[c].contains(p), "quarantine deleted more");
                }
            }
        }
        // A healing fault (panics once, the retry succeeds) is not
        // degraded, and its result is the clean run's.
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
        assert_same(&healed.value, &clean);
    }
}
