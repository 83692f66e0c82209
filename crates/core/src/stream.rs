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
//! * the per-location committed write lists, whose last entry is the
//!   commit-order last writer `W_T(l, u)` (Definition 13).
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
//! **Cost.** `w ≺ w'` needs `w < w'` in creation order, which is commit
//! order, so only the writes committed *after* `w` can supersede it. A
//! read of the last writer therefore passes in O(1); any other read
//! binary-searches `w` in the location's list and scans the suffix after
//! it; a ⊥ read scans the list until the first dag-preceding write. On a
//! race-free trace that passes, every read observes the last writer and
//! every ⊥ read finds an empty list, so each commit is O(1).
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
    /// pass. Cost: O(1) for a write or a read of the last writer; a stale
    /// read costs O(log W_l) plus the writes committed after the one it
    /// observed, and a ⊥ read at most O(W_l).
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
            // The commit-order last writer: valid, SC by definition, and
            // no write committed after it can supersede it.
            Some(w) if committed_writes.last() == Some(&w) => AccessVerdict::PASS,
            Some(w) => {
                // Valid iff `w` is a committed write to `l` (being
                // committed means `w < u`, so ¬(u ≺ w) is automatic).
                let Ok(pos) = committed_writes.binary_search(&w) else {
                    return AccessVerdict { valid: false, sc: false, lc: false };
                };
                // Superseded: some write `w'` with `w ≺ w' ≺ u`; `w ≺ w'`
                // needs `w < w'`, so only the suffix after `w` can hold it.
                let lc = !committed_writes[pos + 1..]
                    .iter()
                    .any(|&w2| self.sp.precedes(w, w2) && self.sp.precedes(w2, u));
                AccessVerdict { valid: true, sc: false, lc }
            }
            None => {
                // ⊥ is always valid; SC needs the commit-order last
                // writer to be ⊥ too; LC needs no dag-preceding write.
                let sc = committed_writes.is_empty();
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
    use crate::last_writer::last_writer_function;
    use crate::Computation;
    use ccmm_dag::{Dag, Reachability, SpExpr};

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
        SpOrder::new(dag.node_count(), dag.edges(), (0..k as u32).collect::<Vec<_>>()).unwrap()
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

    /// The reference predicate: scans the location's whole committed write
    /// list on every access and tracks the commit-order last writer in a
    /// slot of its own. [`StreamChecker`] must agree with it on every
    /// commit.
    struct FullScan {
        sp: SpOrder,
        last: Vec<Option<NodeId>>,
        writes: Vec<Vec<NodeId>>,
        committed: usize,
        violations: [u64; 3],
    }

    impl FullScan {
        fn new(sp: SpOrder, num_locations: usize) -> Self {
            FullScan {
                sp,
                last: vec![None; num_locations],
                writes: vec![Vec::new(); num_locations],
                committed: 0,
                violations: [0; 3],
            }
        }

        fn commit(&mut self, u: NodeId, op: Op, observed: Option<NodeId>) -> AccessVerdict {
            self.committed += 1;
            let Some(l) = op.location() else {
                return AccessVerdict::PASS;
            };
            let (ws, last) = (&self.writes[l.index()], self.last[l.index()]);
            let v = match (op, observed) {
                (Op::Write(_), _) => {
                    let valid = observed == Some(u);
                    AccessVerdict { valid, sc: valid, lc: valid }
                }
                (_, Some(w)) => {
                    let valid = ws.binary_search(&w).is_ok();
                    let sc = valid && last == Some(w);
                    let lc = valid
                        && !ws.iter().any(|&w2| self.sp.precedes(w, w2) && self.sp.precedes(w2, u));
                    AccessVerdict { valid, sc, lc }
                }
                (_, None) => AccessVerdict {
                    valid: true,
                    sc: last.is_none(),
                    lc: !ws.iter().any(|&w| self.sp.precedes(w, u)),
                },
            };
            for (count, pass) in self.violations.iter_mut().zip([v.valid, v.sc, v.lc]) {
                *count += u64::from(!pass);
            }
            if let Op::Write(_) = op {
                self.last[l.index()] = Some(u);
                self.writes[l.index()].push(u);
            }
            v
        }

        fn verdicts(&self) -> StreamVerdicts {
            let [validity, sc, lc] = self.violations;
            StreamVerdicts {
                nodes: self.committed,
                valid: validity == 0,
                sc: validity == 0 && sc == 0,
                lc: validity == 0 && lc == 0,
                validity_violations: validity,
                sc_violations: sc,
                lc_violations: lc,
            }
        }
    }

    fn next(rng: &mut u64) -> usize {
        *rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*rng >> 33) as usize
    }

    fn pick(rng: &mut u64, from: &[NodeId]) -> Option<NodeId> {
        (!from.is_empty()).then(|| from[next(rng) % from.len()])
    }

    fn random_expr(rng: &mut u64, depth: u32) -> SpExpr {
        match next(rng) % 5 {
            _ if depth == 0 => SpExpr::leaf(),
            0 => SpExpr::leaf(),
            1 | 2 => random_expr(rng, depth - 1).then(random_expr(rng, depth - 1)),
            _ => random_expr(rng, depth - 1).par(random_expr(rng, depth - 1)),
        }
    }

    /// Hebrew ranks for `e` lowered from node `first` on: nodes are
    /// numbered as [`SpExpr::build`] numbers them (fork, left, right,
    /// join), but the right branch is ranked before the left.
    fn hebrew(e: &SpExpr, first: usize, next: &mut u32, rank: &mut [u32]) {
        match e {
            SpExpr::Leaf => {
                rank[first] = *next;
                *next += 1;
            }
            SpExpr::Series(a, b) => {
                hebrew(a, first, next, rank);
                hebrew(b, first + a.node_count(), next, rank);
            }
            SpExpr::Parallel(a, b) => {
                let right = first + 1 + a.node_count();
                rank[first] = *next;
                *next += 1;
                hebrew(b, right, next, rank);
                hebrew(a, first + 1, next, rank);
                rank[right + b.node_count()] = *next;
                *next += 1;
            }
        }
    }

    /// A seeded random series-parallel trace: its dag, its exact
    /// precedence oracle (checked against reachability here) and one op
    /// per node over two locations.
    fn random_trace(rng: &mut u64) -> (Dag, SpOrder, Vec<Op>) {
        let e = random_expr(rng, 6);
        let dag = e.build().dag;
        let mut rank = vec![0; dag.node_count()];
        hebrew(&e, 0, &mut 0, &mut rank);
        let sp = SpOrder::new(dag.node_count(), dag.edges(), rank).unwrap();
        let reach = Reachability::new(&dag);
        for u in dag.nodes() {
            for v in dag.nodes() {
                assert_eq!(sp.precedes(u, v), reach.reaches(u, v), "{u} ≺ {v}");
            }
        }
        let ops = (0..dag.node_count())
            .map(|_| match next(rng) % 5 {
                0 | 1 => Op::Write(l(next(rng) % 2)),
                2 | 3 => Op::Read(l(next(rng) % 2)),
                _ => Op::Nop,
            })
            .collect();
        (dag, sp, ops)
    }

    /// What a read at `u` observes: the last writer, a stale write, a
    /// concurrent (racy) write, a committed node that is not a write to
    /// `l`, a node not yet committed, or ⊥.
    fn read_observation(
        rng: &mut u64,
        u: NodeId,
        l: Location,
        ops: &[Op],
        sp: &SpOrder,
        writes: &[NodeId],
    ) -> Option<NodeId> {
        let racy: Vec<NodeId> = writes.iter().copied().filter(|&w| sp.concurrent(w, u)).collect();
        let invalid: Vec<NodeId> =
            (0..u.index()).map(n).filter(|&v| !ops[v.index()].is_write_to(l)).collect();
        let uncommitted: Vec<NodeId> = (u.index()..ops.len()).map(n).collect();
        match next(rng) % 6 {
            0 => writes.last().copied(),
            1 => pick(rng, writes),
            2 => pick(rng, &racy).or(writes.last().copied()),
            3 => pick(rng, &invalid),
            4 => pick(rng, &uncommitted),
            _ => None,
        }
    }

    #[test]
    fn suffix_scan_matches_the_full_scan_on_random_sp_traces() {
        // [last writer passes, stale superseded, stale or racy but not
        // superseded, invalid, ⊥ after a dag-preceding write]
        let mut seen = [0u32; 5];
        for seed in 0..200u64 {
            let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let (dag, sp, ops) = random_trace(&mut rng);
            let c = Computation::new(dag, ops.clone()).unwrap();
            let order: Vec<NodeId> = c.nodes().collect();
            let phi = last_writer_function(&c, &order);
            let mut ck = StreamChecker::new(sp.clone(), 2);
            let mut oracle = FullScan::new(sp.clone(), 2);
            for (i, &op) in ops.iter().enumerate() {
                let u = n(i);
                let observed = match op {
                    Op::Write(_) if next(&mut rng).is_multiple_of(10) => pick(&mut rng, &order),
                    Op::Write(_) => Some(u),
                    Op::Read(l) => {
                        read_observation(&mut rng, u, l, &ops, &sp, &oracle.writes[l.index()])
                    }
                    Op::Nop => None,
                };
                let got = ck.commit(u, op, observed);
                assert_eq!(got, oracle.commit(u, op, observed), "seed {seed}, {u}: {op:?}");
                assert_eq!(ck.verdicts(), oracle.verdicts(), "seed {seed}, {u}");
                if let Some(l) = op.location() {
                    // Streaming SC is agreement with W_T over the commit
                    // (creation) order.
                    assert_eq!(got.sc, observed == phi.get(l, u), "seed {seed}, {u}: {op:?}");
                }
                if let Op::Read(_) = op {
                    let slot = match (got.valid, got.sc, got.lc, observed) {
                        (true, true, _, _) => 0,
                        (true, false, false, Some(_)) => 1,
                        (true, false, true, Some(_)) => 2,
                        (false, ..) => 3,
                        (true, false, false, None) => 4,
                        _ => continue,
                    };
                    seen[slot] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&k| k > 0), "every read category is exercised: {seen:?}");
    }
}
