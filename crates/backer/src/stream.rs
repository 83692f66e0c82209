//! A lean streaming BACKER runner for million-node traces.
//!
//! [`crate::sim`] is exact but dense: it probes **every** location after
//! every node (O(n·L) work) and keeps per-processor caches as
//! location-indexed vectors (O(p·L) memory), both of which are
//! prohibitive at the 10⁵–10⁷-node scale that `ccmm watch` targets. This
//! module runs the same flush-before / reconcile-after protocol with:
//!
//! * occupancy-bounded caches ([`LeanCache`]: a hash map of resident
//!   lines, so a flush costs O(occupancy), not O(L));
//! * per-node probing of the executed node's **own** location only —
//!   exactly the observation the streaming membership checker needs
//!   (everything else is completed by the last-writer function, Def. 13);
//! * a deterministic block-cyclic schedule over creation order, so a
//!   resumed run re-derives the identical execution without storing a
//!   schedule of n entries.
//!
//! The nodes are executed in creation order, which is a topological order
//! for builder-produced traces: the [`FlatDag`] they are stored in accepts
//! only forward edges. Faults from [`crate::config::FaultInjection`] apply
//! as in the dense simulator, so `watch --fault` can stream genuine LC
//! violations.

use crate::cache::{CacheOps, LeanCache};
use crate::config::BackerConfig;
use crate::memory::{node_of, token_of, MainMemory};
use crate::stats::Stats;
use ccmm_core::Op;
use ccmm_dag::{FlatDag, NodeId};

/// The processor that executes node `index` under a block-cyclic
/// schedule: blocks of `block` consecutive nodes rotate over the
/// processors. Deterministic, so checkpoint/resume re-derives the same
/// execution from `(block, processors)` alone.
#[inline]
pub fn block_cyclic_proc(index: usize, block: usize, processors: usize) -> usize {
    (index / block.max(1)) % processors.max(1)
}

/// A resumable streaming BACKER execution: one [`step`](StreamRunner::step)
/// per node in creation order, so a supervisor can interleave deadline
/// checks, checkpoints, and membership checking between nodes. The whole
/// execution is a pure function of `(config, block)` — replaying steps
/// re-derives the identical observations, which is how `ccmm watch`
/// resumes from a journalled position.
#[derive(Debug)]
pub struct StreamRunner {
    config: BackerConfig,
    block: usize,
    procs: usize,
    mem: MainMemory,
    caches: Vec<LeanCache>,
    per_proc: Vec<Stats>,
    next: usize,
}

impl StreamRunner {
    /// A runner at position 0 over `num_locations` memory cells.
    pub fn new(num_locations: usize, config: &BackerConfig, block: usize) -> Self {
        let procs = config.processors.max(1);
        StreamRunner {
            config: *config,
            block,
            procs,
            mem: MainMemory::new(num_locations),
            caches: (0..procs).map(|_| LeanCache::new(config.cache_capacity.max(1))).collect(),
            per_proc: vec![Stats::default(); procs],
            next: 0,
        }
    }

    /// Index of the next node to execute.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Merged protocol counters so far.
    pub fn stats(&self) -> Stats {
        let mut stats = Stats::default();
        for s in &self.per_proc {
            stats.merge(s);
        }
        stats
    }

    /// Executes the next node and returns `(node, op, observed)`, where
    /// `observed` is what the executing processor sees at the node's own
    /// location (the write itself for writes, the token fetched or hit
    /// for reads, `None` for nops). `None` once the trace is exhausted.
    ///
    /// Panics if `ops.len() != dag.node_count()`.
    pub fn step(&mut self, dag: &FlatDag, ops: &[Op]) -> Option<(NodeId, Op, Option<NodeId>)> {
        assert_eq!(ops.len(), dag.node_count(), "one op per node");
        let i = self.next;
        if i >= ops.len() {
            return None;
        }
        self.next += 1;
        let u = NodeId::new(i);
        let op = ops[i];
        let p = block_cyclic_proc(i, self.block, self.procs);
        let cross_pred = dag
            .predecessors(u)
            .iter()
            .any(|&q| block_cyclic_proc(q.index(), self.block, self.procs) != p);
        if cross_pred && !self.config.faults.skip_flush {
            self.caches[p].flush_all(&mut self.mem, &mut self.per_proc[p]);
        }
        let observed = match op {
            Op::Read(l) => node_of(self.caches[p].read(l, &mut self.mem, &mut self.per_proc[p])),
            Op::Write(l) => {
                self.caches[p].write(l, token_of(u), &mut self.mem, &mut self.per_proc[p]);
                Some(u)
            }
            Op::Nop => None,
        };
        let cross_succ = dag
            .successors(u)
            .iter()
            .any(|&v| block_cyclic_proc(v.index(), self.block, self.procs) != p);
        if cross_succ && !self.config.faults.skip_reconcile {
            self.caches[p].reconcile_all(&mut self.mem, &mut self.per_proc[p]);
        }
        Some((u, op, observed))
    }
}

/// Runs BACKER over the whole trace in creation order under the
/// deterministic block-cyclic schedule, calling `sink(u, op, observed)`
/// after each node (see [`StreamRunner::step`]). Returns the merged
/// protocol counters.
pub fn run_stream<F>(
    dag: &FlatDag,
    ops: &[Op],
    num_locations: usize,
    config: &BackerConfig,
    block: usize,
    mut sink: F,
) -> Stats
where
    F: FnMut(NodeId, Op, Option<NodeId>),
{
    let mut runner = StreamRunner::new(num_locations, config, block);
    while let Some((u, op, observed)) = runner.step(dag, ops) {
        sink(u, op, observed);
    }
    runner.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use crate::sim;
    use ccmm_cilk::{fib_trace, stencil_trace};

    /// The dense simulator run under the same block-cyclic schedule must
    /// report the same own-location observation for every node.
    fn assert_stream_matches_sim(trace: &ccmm_cilk::RawTrace, config: &BackerConfig, block: usize) {
        let c = trace.to_computation();
        let n = c.node_count();
        let procs = config.processors.max(1);
        let schedule = Schedule {
            order: (0..n).map(NodeId::new).collect(),
            proc: (0..n).map(|i| block_cyclic_proc(i, block, procs)).collect(),
            processors: procs,
        };
        let dense = sim::run(&c, &schedule, config);
        let mut streamed: Vec<Option<NodeId>> = Vec::with_capacity(n);
        let stream_stats =
            run_stream(&trace.dag, &trace.ops, trace.num_locations, config, block, |_, _, obs| {
                streamed.push(obs)
            });
        for (i, &got) in streamed.iter().enumerate() {
            let u = NodeId::new(i);
            let want = c.op(u).location().and_then(|l| dense.observer.get(l, u));
            assert_eq!(got, want, "node {u} (block={block}, p={procs})");
        }
        assert_eq!(stream_stats.writes, dense.stats.writes);
        assert_eq!(stream_stats.reconciles, dense.stats.reconciles);
    }

    #[test]
    fn block_cyclic_rotates_blocks() {
        let procs: Vec<usize> = (0..8).map(|i| block_cyclic_proc(i, 2, 3)).collect();
        assert_eq!(procs, vec![0, 0, 1, 1, 2, 2, 0, 0]);
        assert_eq!(block_cyclic_proc(5, 0, 2), 1, "block 0 clamps to 1");
    }

    #[test]
    fn stream_matches_dense_sim_on_own_locations() {
        for trace in [fib_trace(7), stencil_trace(4, 3)] {
            for (procs, block) in [(1, 1), (2, 1), (3, 4), (4, 7)] {
                let cfg = BackerConfig::with_processors(procs);
                assert_stream_matches_sim(&trace, &cfg, block);
            }
        }
    }

    #[test]
    fn stream_matches_dense_sim_under_capacity_pressure() {
        let trace = stencil_trace(5, 2);
        for cap in [1, 2, 8] {
            let cfg = BackerConfig::with_processors(3).cache_capacity(cap);
            assert_stream_matches_sim(&trace, &cfg, 2);
        }
    }

    #[test]
    fn stream_matches_dense_sim_with_faults() {
        let trace = fib_trace(6);
        for faults in [
            crate::config::FaultInjection { skip_flush: true, skip_reconcile: false },
            crate::config::FaultInjection { skip_flush: false, skip_reconcile: true },
        ] {
            let cfg = BackerConfig::with_processors(2).faults(faults);
            assert_stream_matches_sim(&trace, &cfg, 3);
        }
    }
}
