//! A Cilk-style spawn/sync builder for computations.
//!
//! The paper takes computations as given and points at multithreaded
//! languages with fork/join parallelism (Cilk) as their source. This
//! builder is that source: write a program with `op`/`spawn`/`sync`, get
//! the computation dag its execution unfolds into.
//!
//! Semantics mirrored from Cilk:
//!
//! * a *strand* is a maximal sequence of ops with no parallel control;
//! * `spawn` forks a child whose first op depends on the spawn point;
//! * `sync` joins all outstanding children of the current function
//!   (represented as an `N` node — the paper's synchronization-only
//!   instruction);
//! * every function syncs implicitly before returning.

use ccmm_core::{Computation, Location, Op};
use ccmm_dag::{FlatDag, NodeId, SpOrder};
use std::sync::Arc;

/// One entry of the builder's structural event log. Execution is
/// depth-first (a `spawn` runs its child closure immediately), so the log
/// is a properly nested stream: plain nodes, one `Open` heading each
/// spawned child's block, and the sync node joining the blocks deferred
/// since the last sync at that level.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A sequential op node.
    Node(u32),
    /// A spawned child block starts; holds the log index just past it.
    Open(u32),
    /// A sync node joining the open blocks at this level.
    Sync(u32),
}

/// Accumulates nodes and edges while the program runs. Edges go straight
/// into the predecessor half of a [`FlatDag`]: node `v`'s sorted
/// predecessor run is `preds[pred_off[v]..pred_off[v + 1]]`.
pub struct ProgramBuilder {
    ops: Vec<Op>,
    pred_off: Vec<u32>,
    preds: Vec<NodeId>,
    events: Vec<Ev>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        ProgramBuilder { ops: Vec::new(), pred_off: vec![0], preds: Vec::new(), events: Vec::new() }
    }
}

/// The sequential position inside one function activation.
#[derive(Clone, Debug, Default)]
pub struct Strand {
    /// The most recent node of this strand, if any.
    cursor: Option<NodeId>,
    /// Last nodes of spawned-but-unsynced children.
    children: Vec<NodeId>,
}

impl ProgramBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, op: Op, preds: impl IntoIterator<Item = NodeId>) -> NodeId {
        let id = NodeId::new(self.ops.len());
        self.ops.push(op);
        let start = self.preds.len();
        self.preds.extend(preds);
        self.preds[start..].sort_unstable();
        self.pred_off.push(u32::try_from(self.preds.len()).expect("edge count fits in u32"));
        id
    }

    /// Appends a sequential op to the strand.
    pub fn op(&mut self, s: &mut Strand, op: Op) -> NodeId {
        let id = self.push(op, s.cursor);
        self.events.push(Ev::Node(id.index() as u32));
        s.cursor = Some(id);
        id
    }

    /// Appends a read of `l`.
    pub fn read(&mut self, s: &mut Strand, l: Location) -> NodeId {
        self.op(s, Op::Read(l))
    }

    /// Appends a write of `l`.
    pub fn write(&mut self, s: &mut Strand, l: Location) -> NodeId {
        self.op(s, Op::Write(l))
    }

    /// Appends a no-op.
    pub fn nop(&mut self, s: &mut Strand) -> NodeId {
        self.op(s, Op::Nop)
    }

    /// Spawns `f` as a child of the current strand. The child's first op
    /// depends on the spawn point; the parent continues in parallel with
    /// the child until the next `sync`.
    pub fn spawn<F>(&mut self, s: &mut Strand, f: F)
    where
        F: FnOnce(&mut ProgramBuilder, &mut Strand),
    {
        let mut child = Strand { cursor: s.cursor, children: Vec::new() };
        let open = self.events.len();
        self.events.push(Ev::Open(0));
        f(self, &mut child);
        // Implicit sync before the child returns.
        self.sync(&mut child);
        self.events[open] = Ev::Open(u32::try_from(self.events.len()).expect("log fits in u32"));
        match child.cursor {
            // The child produced nodes (or a sync node): join it later.
            Some(last) if child.cursor != s.cursor => s.children.push(last),
            // Empty child: nothing to join.
            _ => {}
        }
    }

    /// Joins all outstanding children with an `N` node. No-op if nothing
    /// was spawned since the last sync.
    pub fn sync(&mut self, s: &mut Strand) {
        if s.children.is_empty() {
            return;
        }
        let id = self.push(Op::Nop, s.cursor.into_iter().chain(s.children.drain(..)));
        self.events.push(Ev::Sync(id.index() as u32));
        s.cursor = Some(id);
    }

    /// Finalises the program into a computation, syncing the root strand.
    pub fn finish(mut self, mut root: Strand) -> Computation {
        self.sync(&mut root);
        let dag = FlatDag::from_pred_runs(self.pred_off, self.preds).expect("edges point forward");
        Computation::new(dag.to_dag(), self.ops).expect("one op per node")
    }

    /// Finalises the program into a [`RawTrace`]: the flat dag, the ops,
    /// and the Hebrew linear extension — but **no transitive closure and
    /// no dense observer table**, so million-node programs stay
    /// O(n + e). [`finish`](ProgramBuilder::finish) by contrast builds a
    /// [`Computation`], whose reachability bitsets are Θ(n²) bits.
    pub fn finish_raw(mut self, mut root: Strand) -> RawTrace {
        self.sync(&mut root);
        let ProgramBuilder { ops, pred_off, preds, events } = self;
        let hebrew = hebrew_ranks(&events, ops.len());
        // Free the log before the successor side is built.
        drop(events);
        let dag = FlatDag::from_pred_runs(pred_off, preds).expect("edges point forward");
        let num_locations =
            ops.iter().filter_map(|o| o.location()).map(|l| l.index() + 1).max().unwrap_or(0);
        RawTrace { dag, ops, hebrew: Arc::new(hebrew), num_locations }
    }
}

/// Computes each node's rank in the *Hebrew* linear extension from the
/// builder's event log.
///
/// Creation order is the *English* extension: a `spawn` runs its child
/// closure immediately, so child blocks come before the parent's
/// continuation. The Hebrew extension enumerates the branches of every
/// parallel composition in the opposite order: walking the log, plain
/// nodes emit in order, each child block is deferred, and a sync emits
/// the blocks deferred at its level in **reverse spawn order** (each
/// recursively Hebrew-ordered) before the sync node itself.
///
/// Correctness for the builder's fork/join grammar: a segment
/// `a₁…; spawn C; rest` decomposes as the series-parallel expression
/// `a₁… ; (C ∥ rest)`, and reversing branch order at every parallel
/// composition is exactly the standard 2-realizer of a series-parallel
/// order — comparable pairs keep their creation order, incomparable
/// pairs (one in `C`, one in `rest`) flip. The differential tests below
/// check `SpOrder` against full reachability on every pair.
fn hebrew_ranks(events: &[Ev], n: usize) -> Vec<u32> {
    /// Pending emission work, on an explicit stack: a log segment to
    /// walk, or a sync node that waits for the blocks stacked above it.
    enum Work {
        Segment(u32, u32),
        Sync(u32),
    }
    let mut rank = vec![0u32; n];
    let mut next = 0u32;
    let mut emit = |id: u32| {
        rank[id as usize] = next;
        next += 1;
    };
    let mut work = vec![Work::Segment(0, u32::try_from(events.len()).expect("log fits in u32"))];
    let mut deferred: Vec<Work> = Vec::new();
    while let Some(w) = work.pop() {
        let (mut i, hi) = match w {
            Work::Sync(id) => {
                emit(id);
                continue;
            }
            Work::Segment(lo, hi) => (lo, hi),
        };
        // Walk to the next sync or the segment's end, deferring child
        // blocks. At a sync, its continuation and then the sync node go on
        // the stack first, so the deferred blocks pushed next run before
        // them, last-spawned first.
        while i < hi {
            match events[i as usize] {
                Ev::Node(id) => emit(id),
                Ev::Open(end) => {
                    deferred.push(Work::Segment(i + 1, end));
                    i = end;
                    continue;
                }
                Ev::Sync(id) => {
                    work.push(Work::Segment(i + 1, hi));
                    work.push(Work::Sync(id));
                    break;
                }
            }
            i += 1;
        }
        // Blocks still deferred at a segment's end belong to empty
        // children; they are pushed the same way.
        work.append(&mut deferred);
    }
    debug_assert_eq!(next as usize, n, "hebrew order must visit every node once");
    rank
}

/// A lean trace of a built program: the dag, one op per node, and the
/// Hebrew linear extension. Everything the streaming membership checker
/// needs — precedence is O(1) through [`SpOrder`] at two integer
/// comparisons per query — and nothing quadratic: no transitive-closure
/// bitsets, no dense `L × n` observer table. This is the form `ccmm
/// watch` harvests million-node programs in.
pub struct RawTrace {
    /// The computation dag in flat form; node creation order is a
    /// topological sort (every edge points forward).
    pub dag: FlatDag,
    /// One op per node, indexed by [`NodeId`].
    pub ops: Vec<Op>,
    /// Hebrew rank per node (creation order is the English rank), shared
    /// with every [`SpOrder`] the trace hands out.
    pub hebrew: Arc<Vec<u32>>,
    /// One more than the largest location index mentioned by any op.
    pub num_locations: usize,
}

impl RawTrace {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.ops.len()
    }

    /// The two-extension precedence oracle for this trace. It shares the
    /// trace's ranks (a pointer copy) and re-validates them on each call.
    pub fn sp_order(&self) -> SpOrder {
        SpOrder::new(self.node_count(), self.dag.edges(), Arc::clone(&self.hebrew))
            .expect("builder creation/hebrew orders realize the dag")
    }

    /// Densifies into a [`Computation`] (Θ(n²) reachability — for
    /// small-scale cross-checks only).
    pub fn to_computation(&self) -> Computation {
        Computation::new(self.dag.to_dag(), self.ops.clone()).expect("one op per node")
    }
}

/// Runs a program closure and returns its computation.
pub fn build_program<F>(f: F) -> Computation
where
    F: FnOnce(&mut ProgramBuilder, &mut Strand),
{
    let mut b = ProgramBuilder::new();
    let mut root = Strand::default();
    f(&mut b, &mut root);
    b.finish(root)
}

/// Runs a program closure and returns its [`RawTrace`] (closure-free
/// form for streaming-scale programs).
pub fn build_program_raw<F>(f: F) -> RawTrace
where
    F: FnOnce(&mut ProgramBuilder, &mut Strand),
{
    let mut b = ProgramBuilder::new();
    let mut root = Strand::default();
    f(&mut b, &mut root);
    b.finish_raw(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: usize) -> Location {
        Location::new(i)
    }

    #[test]
    fn sequential_program_is_a_chain() {
        let c = build_program(|b, s| {
            b.write(s, l(0));
            b.read(s, l(0));
            b.read(s, l(0));
        });
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.dag().edge_count(), 2);
        assert!(c.precedes(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn spawned_children_are_parallel() {
        let c = build_program(|b, s| {
            b.nop(s); // 0: spawn point
            b.spawn(s, |b, t| {
                b.write(t, l(0)); // 1
            });
            b.spawn(s, |b, t| {
                b.write(t, l(1)); // 2
            });
            b.sync(s); // 3
            b.read(s, l(0)); // 4
        });
        assert_eq!(c.node_count(), 5);
        let r = c.reach();
        assert!(r.incomparable(NodeId::new(1), NodeId::new(2)));
        assert!(c.precedes(NodeId::new(1), NodeId::new(4)));
        assert!(c.precedes(NodeId::new(2), NodeId::new(4)));
    }

    #[test]
    fn spawn_depends_on_spawn_point() {
        let c = build_program(|b, s| {
            b.write(s, l(0)); // 0
            b.spawn(s, |b, t| {
                b.read(t, l(0)); // 1: must come after the write
            });
            b.sync(s);
        });
        assert!(c.precedes(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn sync_without_children_is_noop() {
        let c = build_program(|b, s| {
            b.nop(s);
            b.sync(s);
            b.sync(s);
        });
        assert_eq!(c.node_count(), 1);
    }

    #[test]
    fn empty_spawn_adds_nothing() {
        let c = build_program(|b, s| {
            b.nop(s);
            b.spawn(s, |_, _| {});
            b.sync(s);
        });
        assert_eq!(c.node_count(), 1);
    }

    #[test]
    fn nested_spawns_form_series_parallel_structure() {
        let c = build_program(|b, s| {
            b.nop(s);
            b.spawn(s, |b, t| {
                b.spawn(t, |b, u| {
                    b.write(u, l(0));
                });
                b.spawn(t, |b, u| {
                    b.write(u, l(1));
                });
                // implicit sync of the child's children
            });
            b.sync(s);
        });
        // Nodes: root nop, two grandchild writes, child's implicit sync
        // node, root sync node.
        assert_eq!(c.node_count(), 5);
        let roots = c.dag().roots();
        assert_eq!(roots.len(), 1);
        let leaves = c.dag().leaves();
        assert_eq!(leaves.len(), 1);
    }

    #[test]
    fn child_implicit_sync_only_when_needed() {
        // A child with no spawns of its own adds no sync node.
        let c = build_program(|b, s| {
            b.nop(s);
            b.spawn(s, |b, t| {
                b.write(t, l(0));
                b.write(t, l(1));
            });
            b.sync(s);
        });
        // 0: nop, 1-2: writes, 3: root sync.
        assert_eq!(c.node_count(), 4);
    }

    /// Checks the raw trace's `SpOrder` against full reachability on
    /// every node pair — soundness *and* completeness of the 2-realizer.
    fn assert_sp_order_matches_reachability(trace: &RawTrace, tag: &str) {
        let sp = trace.sp_order();
        let reach = ccmm_dag::Reachability::new(&trace.dag.to_dag());
        let n = trace.node_count();
        for u in 0..n {
            for v in 0..n {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                assert_eq!(
                    sp.precedes(u, v),
                    reach.reaches(u, v),
                    "{tag}: SpOrder disagrees with reachability on {u} ≺ {v}"
                );
            }
        }
    }

    /// A seeded random fork/join program: nested spawns, multiple syncs
    /// per level, ops before/between/after spawns.
    fn lcg(rng: &mut u64) -> u32 {
        *rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*rng >> 33) as u32
    }

    fn random_program(b: &mut ProgramBuilder, s: &mut Strand, depth: u32, rng: &mut u64) {
        let steps = 2 + lcg(rng) % 4;
        for _ in 0..steps {
            match lcg(rng) % 5 {
                0 => {
                    b.write(s, l((lcg(rng) % 3) as usize));
                }
                1 => {
                    b.read(s, l((lcg(rng) % 3) as usize));
                }
                2 if depth > 0 => {
                    let spawns = 1 + lcg(rng) % 3;
                    for _ in 0..spawns {
                        b.spawn(s, |b, t| random_program(b, t, depth - 1, rng));
                    }
                    if lcg(rng).is_multiple_of(2) {
                        b.sync(s);
                    }
                }
                3 => b.sync(s),
                _ => {
                    b.nop(s);
                }
            }
        }
    }

    #[test]
    fn sp_order_matches_reachability_on_canonical_programs() {
        for n in 2..=8 {
            let trace = crate::programs::fib::fib_trace(n);
            assert_sp_order_matches_reachability(&trace, &format!("fib({n})"));
        }
        let trace = crate::programs::matmul::matmul_trace(2);
        assert_sp_order_matches_reachability(&trace, "matmul(2)");
        let trace = crate::programs::stencil::stencil_trace(3, 2);
        assert_sp_order_matches_reachability(&trace, "stencil(3,2)");
        let trace = build_program_raw(|b, s| {
            for i in 0..4 {
                b.spawn(s, |b, t| {
                    b.write(t, l(i));
                    b.spawn(t, |b, u| {
                        b.read(u, l(i));
                    });
                });
            }
            b.sync(s);
            b.read(s, l(0));
        });
        assert_sp_order_matches_reachability(&trace, "nested spawn fan");
    }

    #[test]
    fn sp_order_matches_reachability_on_random_programs() {
        for seed in 0..40u64 {
            let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let trace = build_program_raw(|b, s| random_program(b, s, 3, &mut rng));
            if trace.node_count() > 120 {
                continue; // keep the all-pairs check cheap
            }
            assert_sp_order_matches_reachability(&trace, &format!("random seed {seed}"));
        }
    }

    /// The flat store must be exactly the `Dag` that `Dag::from_edges`
    /// builds on the same edges: same runs on both sides, same edge count.
    fn assert_flat_matches_dag(trace: &RawTrace, tag: &str) {
        let flat = &trace.dag;
        let edges: Vec<(usize, usize)> =
            flat.edges().map(|(u, v)| (u.index(), v.index())).collect();
        let dag = ccmm_dag::Dag::from_edges(trace.node_count(), &edges).expect(tag);
        assert_eq!(flat.node_count(), dag.node_count(), "{tag}");
        assert_eq!(flat.edge_count(), dag.edge_count(), "{tag}");
        for u in dag.nodes() {
            assert_eq!(flat.predecessors(u), dag.predecessors(u), "{tag}: predecessors of {u}");
            assert_eq!(flat.successors(u), dag.successors(u), "{tag}: successors of {u}");
        }
    }

    #[test]
    fn flat_store_matches_dag_on_canonical_and_random_programs() {
        for n in 2..=8 {
            assert_flat_matches_dag(&crate::programs::fib::fib_trace(n), &format!("fib({n})"));
        }
        assert_flat_matches_dag(&crate::programs::matmul::matmul_trace(2), "matmul(2)");
        assert_flat_matches_dag(&crate::programs::stencil::stencil_trace(3, 2), "stencil(3,2)");
        for seed in 0..40u64 {
            let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let trace = build_program_raw(|b, s| random_program(b, s, 3, &mut rng));
            assert_flat_matches_dag(&trace, &format!("random seed {seed}"));
        }
    }

    #[test]
    fn raw_trace_matches_finish() {
        // finish() and finish_raw() must describe the same computation.
        let build = |b: &mut ProgramBuilder, s: &mut Strand| {
            b.write(s, l(0));
            b.spawn(s, |b, t| {
                b.read(t, l(0));
                b.write(t, l(1));
            });
            b.spawn(s, |b, t| {
                b.read(t, l(0));
            });
            b.sync(s);
            b.read(s, l(1));
        };
        let c = build_program(build);
        let trace = build_program_raw(build);
        assert_eq!(trace.node_count(), c.node_count());
        assert_eq!(trace.num_locations, c.num_locations());
        assert_eq!(trace.to_computation(), c);
        // Hebrew is a permutation of 0..n.
        let mut seen = vec![false; trace.node_count()];
        for &h in trace.hebrew.iter() {
            assert!(!seen[h as usize]);
            seen[h as usize] = true;
        }
    }

    #[test]
    fn program_with_leading_spawn_has_parallel_roots() {
        let c = build_program(|b, s| {
            b.spawn(s, |b, t| {
                b.write(t, l(0));
            });
            b.write(s, l(1));
            b.sync(s);
        });
        // Both the child write and the parent write have no predecessors.
        assert_eq!(c.dag().roots().len(), 2);
    }
}
