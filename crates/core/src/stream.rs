//! Streaming SC/LC membership checking for series-parallel traces.
//!
//! The batch checkers ([`crate::model::Sc`], [`crate::model::Lc`]) need
//! the dense pair — a transitive closure and an L×n observer table — so
//! they cannot exist at 10⁶ nodes. This module checks membership
//! *on-the-fly*, race-detector style: nodes arrive in commit order with
//! the single observation the executing processor made at the node's own
//! location, and the checker keeps only O(L + n) state:
//!
//! * an [`SpOrder`] two-extension realizer (4 bytes/node) answering
//!   `u ≺ v` in O(1) for series-parallel dags;
//! * a [`LastWriterIndex`] — the commit-order last writer per location;
//! * the per-location committed write lists.
//!
//! **The checked pair.** The execution defines the total observer
//! function `Φ̂(l, u) = obs(u)` when `u`'s op touches `l`, and
//! `Φ̂(l, u) = W_T(l, u)` otherwise, where `T` is the commit order — the
//! paper's device (§4) of extending memory semantics to all nodes via the
//! last-writer function (Definition 13). Since `W_T ∈ SC ⊆ LC`
//! (Theorem 14), every verdict reduces to the entries the execution
//! actually chose.
//!
//! **Per-access predicates.**
//!
//! * *Validity* (Definition 2): a write observes itself; a read's
//!   observed node must be a committed write to the same location.
//! * *Streaming SC*: the access observes the commit-order last writer,
//!   i.e. its entry agrees with `W_T` — then `Φ̂ = W_T` exactly and `T`
//!   itself witnesses `(C, Φ̂) ∈ SC`.
//! * *Streaming LC*: the observed write is not *superseded* — there is no
//!   write `w'` with `w ≺ w' ≺ u` in the dag — and an access observing ⊥
//!   has no dag-preceding write at all.
//!
//! For **race-free** programs (every pair of conflicting accesses
//! ordered — the determinate Cilk workloads `ccmm watch` streams) these
//! predicates are *exact*: all writes to a location are totally ordered
//! by ≺, so `W_T` at an access equals its unique dag-last writer, a stale
//! observation fails every topological sort (the superseding write sits
//! between it and the access in all of them), and the block-contraction
//! cycles of the batch LC checker collapse to exactly the supersession
//! and ⊥-after-write cases. For racy inputs the predicates remain sound
//! in one direction (batch membership ⇒ streaming pass), but a crossing
//! pair of stale observations of concurrent writes can pass streaming
//! while failing the batch checker; `ccmm watch`'s conformance sampler
//! pins the race-free equivalence.

use crate::last_writer::LastWriterIndex;
use crate::op::{Location, Op};
use ccmm_dag::{NodeId, SpOrder};

/// Per-access verdict triple returned by [`StreamChecker::commit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessVerdict {
    /// Definition-2 validity of this access's observation.
    pub valid: bool,
    /// The access observed the commit-order last writer.
    pub sc: bool,
    /// The observation is not superseded (and ⊥ only without a
    /// dag-preceding write).
    pub lc: bool,
}

impl AccessVerdict {
    const PASS: AccessVerdict = AccessVerdict { valid: true, sc: true, lc: true };
}

/// Cumulative verdicts over every access committed so far.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamVerdicts {
    /// Nodes committed.
    pub nodes: usize,
    /// All observations were Definition-2 valid.
    pub valid: bool,
    /// `(C, Φ̂) ∈ SC`, witnessed by the commit order.
    pub sc: bool,
    /// `(C, Φ̂) ∈ LC` (exact for race-free traces).
    pub lc: bool,
    /// Number of accesses failing the validity predicate.
    pub validity_violations: u64,
    /// Number of accesses failing the SC predicate.
    pub sc_violations: u64,
    /// Number of accesses failing the LC predicate.
    pub lc_violations: u64,
}

/// The streaming membership checker. Feed nodes in commit order via
/// [`commit`](StreamChecker::commit); read cumulative verdicts at any
/// prefix via [`verdicts`](StreamChecker::verdicts).
#[derive(Debug)]
pub struct StreamChecker {
    sp: SpOrder,
    last: LastWriterIndex,
    /// `writes[l]` = committed writes to `l`, in commit order.
    writes: Vec<Vec<NodeId>>,
    committed: usize,
    validity_violations: u64,
    sc_violations: u64,
    lc_violations: u64,
}

impl StreamChecker {
    /// A checker for a trace whose precedence order is `sp`, over
    /// `num_locations` locations.
    pub fn new(sp: SpOrder, num_locations: usize) -> Self {
        StreamChecker {
            sp,
            last: LastWriterIndex::new(num_locations),
            writes: vec![Vec::new(); num_locations],
            committed: 0,
            validity_violations: 0,
            sc_violations: 0,
            lc_violations: 0,
        }
    }

    /// Number of nodes committed so far.
    pub fn committed(&self) -> usize {
        self.committed
    }

    /// The precedence realizer (for callers that need `≺` themselves).
    pub fn sp(&self) -> &SpOrder {
        &self.sp
    }

    /// Commits the next node (they must arrive in creation = commit
    /// order) with the observation the execution made at its own
    /// location, and returns this access's verdict. `Nop` nodes always
    /// pass. Cost: O(W_l) against the location's committed write list.
    pub fn commit(&mut self, u: NodeId, op: Op, observed: Option<NodeId>) -> AccessVerdict {
        assert_eq!(u.index(), self.committed, "nodes must be committed in creation order");
        assert!(u.index() < self.sp.node_count(), "node beyond the trace");
        self.committed += 1;
        crate::telemetry::count(crate::telemetry::Counter::WatchReveals, 1);
        let Some(l) = op.location() else {
            return AccessVerdict::PASS;
        };
        let verdict = self.check_access(u, op, l, observed);
        if !verdict.valid {
            self.validity_violations += 1;
        }
        if !verdict.sc {
            self.sc_violations += 1;
        }
        if !verdict.lc {
            self.lc_violations += 1;
        }
        self.last.observe(u, op);
        if matches!(op, Op::Write(_)) {
            if l.index() >= self.writes.len() {
                self.writes.resize(l.index() + 1, Vec::new());
            }
            self.writes[l.index()].push(u);
        }
        verdict
    }

    fn check_access(
        &self,
        u: NodeId,
        op: Op,
        l: Location,
        observed: Option<NodeId>,
    ) -> AccessVerdict {
        let committed_writes: &[NodeId] =
            self.writes.get(l.index()).map_or(&[], |ws| ws.as_slice());
        if let Op::Write(_) = op {
            // Definition 2.3: a write observes itself; with `u` maximal in
            // the committed prefix both SC (`W_T(l, u) = u`) and LC hold.
            let valid = observed == Some(u);
            return AccessVerdict { valid, sc: valid, lc: valid };
        }
        match observed {
            Some(w) => {
                // Valid iff `w` is a committed write to `l` (being
                // committed means `w < u`, so ¬(u ≺ w) is automatic).
                let valid = committed_writes.binary_search(&w).is_ok();
                let sc = valid && self.last.last(l) == Some(w);
                // Superseded: some write `w'` with `w ≺ w' ≺ u`.
                let lc = valid
                    && !committed_writes
                        .iter()
                        .any(|&w2| self.sp.precedes(w, w2) && self.sp.precedes(w2, u));
                AccessVerdict { valid, sc, lc }
            }
            None => {
                // ⊥ is always valid; SC needs the commit-order last
                // writer to be ⊥ too; LC needs no dag-preceding write.
                let sc = self.last.last(l).is_none();
                let lc = !committed_writes.iter().any(|&w| self.sp.precedes(w, u));
                AccessVerdict { valid: true, sc, lc }
            }
        }
    }

    /// Cumulative verdicts for the committed prefix.
    pub fn verdicts(&self) -> StreamVerdicts {
        StreamVerdicts {
            nodes: self.committed,
            valid: self.validity_violations == 0,
            sc: self.validity_violations == 0 && self.sc_violations == 0,
            lc: self.validity_violations == 0 && self.lc_violations == 0,
            validity_violations: self.validity_violations,
            sc_violations: self.sc_violations,
            lc_violations: self.lc_violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmm_dag::Dag;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }
    fn l(i: usize) -> Location {
        Location::new(i)
    }

    /// A serial chain 0 → 1 → … → k-1: hebrew order = creation order.
    fn chain_sp(k: usize) -> SpOrder {
        let edges: Vec<(usize, usize)> = (0..k.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        let dag = Dag::from_edges(k, &edges).unwrap();
        SpOrder::new(dag.node_count(), dag.edges(), (0..k as u32).collect()).unwrap()
    }

    /// The diamond 0 → {1, 2} → 3 (1 ∥ 2): hebrew reverses the branches.
    fn diamond_sp() -> SpOrder {
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        SpOrder::new(dag.node_count(), dag.edges(), vec![0, 2, 1, 3]).unwrap()
    }

    #[test]
    fn race_free_chain_passes_everything() {
        let mut ck = StreamChecker::new(chain_sp(3), 1);
        assert_eq!(ck.commit(n(0), Op::Write(l(0)), Some(n(0))), AccessVerdict::PASS);
        assert_eq!(ck.commit(n(1), Op::Read(l(0)), Some(n(0))), AccessVerdict::PASS);
        assert_eq!(ck.commit(n(2), Op::Read(l(0)), Some(n(0))), AccessVerdict::PASS);
        let v = ck.verdicts();
        assert!(v.valid && v.sc && v.lc);
        assert_eq!(v.nodes, 3);
    }

    #[test]
    fn superseded_observation_fails_lc_and_sc() {
        // W(0) → W(1) → R observing the first write: superseded.
        let mut ck = StreamChecker::new(chain_sp(3), 1);
        ck.commit(n(0), Op::Write(l(0)), Some(n(0)));
        ck.commit(n(1), Op::Write(l(0)), Some(n(1)));
        let v = ck.commit(n(2), Op::Read(l(0)), Some(n(0)));
        assert!(v.valid);
        assert!(!v.sc);
        assert!(!v.lc);
        let total = ck.verdicts();
        assert!(!total.sc && !total.lc && total.valid);
        assert_eq!(total.lc_violations, 1);
    }

    #[test]
    fn bottom_after_preceding_write_fails_lc() {
        let mut ck = StreamChecker::new(chain_sp(2), 1);
        ck.commit(n(0), Op::Write(l(0)), Some(n(0)));
        let v = ck.commit(n(1), Op::Read(l(0)), None);
        assert!(v.valid, "⊥ is always a valid observation");
        assert!(!v.lc, "the write precedes the read in the dag");
        assert!(!v.sc);
    }

    #[test]
    fn concurrent_write_may_be_missed_under_lc_but_not_sc() {
        // Diamond: node 1 writes, node 2 (concurrent) reads ⊥. LC allows
        // it (2 serializes before 1 in some sort); commit-order SC does
        // not (1 committed first).
        let mut ck = StreamChecker::new(diamond_sp(), 1);
        ck.commit(n(0), Op::Nop, None);
        ck.commit(n(1), Op::Write(l(0)), Some(n(1)));
        let v = ck.commit(n(2), Op::Read(l(0)), None);
        assert!(v.valid && v.lc);
        assert!(!v.sc);
        let total = ck.verdicts();
        assert!(total.lc && !total.sc);
    }

    #[test]
    fn observing_a_non_write_is_invalid() {
        let mut ck = StreamChecker::new(chain_sp(3), 1);
        ck.commit(n(0), Op::Nop, None);
        ck.commit(n(1), Op::Write(l(0)), Some(n(1)));
        let v = ck.commit(n(2), Op::Read(l(0)), Some(n(0)));
        assert!(!v.valid, "node 0 is not a write to l0");
        assert!(!ck.verdicts().valid);
    }

    #[test]
    fn write_must_observe_itself() {
        let mut ck = StreamChecker::new(chain_sp(2), 1);
        ck.commit(n(0), Op::Write(l(0)), Some(n(0)));
        let v = ck.commit(n(1), Op::Write(l(0)), Some(n(0)));
        assert!(!v.valid);
    }

    #[test]
    #[should_panic(expected = "creation order")]
    fn out_of_order_commit_rejected() {
        let mut ck = StreamChecker::new(chain_sp(3), 1);
        ck.commit(n(1), Op::Nop, None);
    }
}
