//! Series-parallel dag construction.
//!
//! Fork/join programs (e.g. Cilk, the paper's motivating language) unfold
//! into *series-parallel* computations: single-source, single-sink dags
//! closed under series and parallel composition. [`SpExpr`] is the
//! composition tree; [`SpExpr::build`] lowers it to a [`Dag`] plus the list
//! of leaf nodes in expression order, so callers can attach payloads
//! (memory operations) to leaves.

use crate::graph::{Dag, NodeId};
use std::sync::Arc;

/// A series-parallel expression tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpExpr {
    /// A single leaf node.
    Leaf,
    /// Sequential composition: left's sink precedes right's source.
    Series(Box<SpExpr>, Box<SpExpr>),
    /// Parallel composition: a fresh fork node precedes both branches and a
    /// fresh join node succeeds both.
    Parallel(Box<SpExpr>, Box<SpExpr>),
}

impl SpExpr {
    /// A leaf.
    pub fn leaf() -> Self {
        SpExpr::Leaf
    }

    /// `self ; other` — series composition.
    pub fn then(self, other: SpExpr) -> Self {
        SpExpr::Series(Box::new(self), Box::new(other))
    }

    /// `self ∥ other` — parallel composition with fresh fork/join nodes.
    pub fn par(self, other: SpExpr) -> Self {
        SpExpr::Parallel(Box::new(self), Box::new(other))
    }

    /// Series composition of an iterator of expressions.
    ///
    /// Panics on an empty iterator.
    pub fn seq<I: IntoIterator<Item = SpExpr>>(items: I) -> Self {
        let mut it = items.into_iter();
        let first = it.next().expect("seq of zero expressions");
        it.fold(first, SpExpr::then)
    }

    /// Balanced parallel composition of an iterator of expressions.
    ///
    /// Panics on an empty iterator.
    pub fn par_all<I: IntoIterator<Item = SpExpr>>(items: I) -> Self {
        let mut items: Vec<SpExpr> = items.into_iter().collect();
        assert!(!items.is_empty(), "par_all of zero expressions");
        while items.len() > 1 {
            let mut next = Vec::with_capacity(items.len().div_ceil(2));
            let mut it = items.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(a.par(b)),
                    None => next.push(a),
                }
            }
            items = next;
        }
        items.pop().expect("nonempty by construction")
    }

    /// Number of leaves in the expression.
    pub fn leaf_count(&self) -> usize {
        match self {
            SpExpr::Leaf => 1,
            SpExpr::Series(a, b) | SpExpr::Parallel(a, b) => a.leaf_count() + b.leaf_count(),
        }
    }

    /// Total node count after lowering (leaves plus fork/join pairs).
    pub fn node_count(&self) -> usize {
        match self {
            SpExpr::Leaf => 1,
            SpExpr::Series(a, b) => a.node_count() + b.node_count(),
            SpExpr::Parallel(a, b) => a.node_count() + b.node_count() + 2,
        }
    }

    /// Lowers the expression to a dag.
    ///
    /// Returns `(dag, leaves, source, sink)` where `leaves` lists the dag
    /// nodes of the expression's leaves in left-to-right expression order.
    /// Fork and join nodes are fresh non-leaf nodes.
    pub fn build(&self) -> SpDag {
        let mut edges = Vec::new();
        let mut leaves = Vec::new();
        let mut next = 0usize;
        let (source, sink) = lower(self, &mut next, &mut edges, &mut leaves);
        let dag = Dag::from_edges(next, &edges).expect("series-parallel dags are acyclic");
        SpDag { dag, leaves, source, sink }
    }
}

/// An O(1) strict-precedence oracle for series-parallel dags, backed by a
/// two-linear-extension realizer instead of an O(n²)-bit transitive
/// closure.
///
/// Series-parallel partial orders have order dimension ≤ 2, so two linear
/// extensions suffice to decide every precedence query: `u ≺ v` iff both
/// extensions place `u` before `v`. The first extension is the node
/// numbering itself (fork/join builders emit nodes in left-to-right
/// depth-first execution order, the "English" order); the caller supplies
/// the second ("Hebrew": continuation before child, later children first,
/// see `ccmm-cilk`'s builder). Storage is one `u32` per node, which is
/// what lets million-node traces answer precedence queries at all —
/// closure bitsets would need O(n²) bits.
///
/// Construction validates that both orders are linear extensions of the
/// dag, which makes `precedes` *sound* (`precedes(u, v)` ⟹ a path exists
/// or the pair is incomparable-but-agreed). *Completeness* — every
/// incomparable pair disagrees between the two orders, making the oracle
/// exact — holds when the pair is a realizer, which the fork/join builder
/// guarantees by construction and its tests pin differentially against
/// [`crate::Reachability`].
///
/// The ranks sit behind an [`Arc`], so a trace that keeps its ranks can
/// hand out oracles without copying 4 bytes per node each time.
#[derive(Clone, Debug)]
pub struct SpOrder {
    /// `hebrew[u]` = rank of node `u` in the second linear extension.
    hebrew: Arc<Vec<u32>>,
}

impl SpOrder {
    /// Wraps a Hebrew rank assignment, validating that the identity order
    /// and `hebrew` are both linear extensions of the dag on `n` nodes
    /// with the given `edges` (any dag representation can supply them).
    /// A `Vec` is moved into a fresh `Arc`, never copied.
    pub fn new(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
        hebrew: impl Into<Arc<Vec<u32>>>,
    ) -> Result<SpOrder, String> {
        let hebrew = hebrew.into();
        if hebrew.len() != n {
            return Err(format!("hebrew rank has {} entries for {} nodes", hebrew.len(), n));
        }
        let mut seen = vec![false; n];
        for &r in hebrew.iter() {
            let r = r as usize;
            if r >= n || seen[r] {
                return Err(format!("hebrew rank is not a permutation of 0..{n}"));
            }
            seen[r] = true;
        }
        for (u, v) in edges {
            if u.index() >= v.index() {
                return Err(format!("edge {u} → {v} violates the creation (identity) order"));
            }
            if hebrew[u.index()] >= hebrew[v.index()] {
                return Err(format!("edge {u} → {v} violates the hebrew order"));
            }
        }
        Ok(SpOrder { hebrew })
    }

    /// Number of nodes covered by the oracle.
    pub fn node_count(&self) -> usize {
        self.hebrew.len()
    }

    /// Strict precedence `u ≺ v`: both linear extensions agree.
    #[inline]
    pub fn precedes(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < v.index() && self.hebrew[u.index()] < self.hebrew[v.index()]
    }

    /// Whether `u` and `v` are incomparable (the extensions disagree).
    #[inline]
    pub fn concurrent(&self, u: NodeId, v: NodeId) -> bool {
        u != v && !self.precedes(u, v) && !self.precedes(v, u)
    }
}

/// The result of lowering an [`SpExpr`].
#[derive(Clone, Debug)]
pub struct SpDag {
    /// The lowered dag.
    pub dag: Dag,
    /// Leaf nodes in expression order.
    pub leaves: Vec<NodeId>,
    /// The unique source.
    pub source: NodeId,
    /// The unique sink.
    pub sink: NodeId,
}

fn lower(
    e: &SpExpr,
    next: &mut usize,
    edges: &mut Vec<(usize, usize)>,
    leaves: &mut Vec<NodeId>,
) -> (NodeId, NodeId) {
    match e {
        SpExpr::Leaf => {
            let u = NodeId::new(*next);
            *next += 1;
            leaves.push(u);
            (u, u)
        }
        SpExpr::Series(a, b) => {
            let (a_src, a_snk) = lower(a, next, edges, leaves);
            let (b_src, b_snk) = lower(b, next, edges, leaves);
            edges.push((a_snk.index(), b_src.index()));
            (a_src, b_snk)
        }
        SpExpr::Parallel(a, b) => {
            let fork = NodeId::new(*next);
            *next += 1;
            let (a_src, a_snk) = lower(a, next, edges, leaves);
            let (b_src, b_snk) = lower(b, next, edges, leaves);
            let join = NodeId::new(*next);
            *next += 1;
            edges.push((fork.index(), a_src.index()));
            edges.push((fork.index(), b_src.index()));
            edges.push((a_snk.index(), join.index()));
            edges.push((b_snk.index(), join.index()));
            (fork, join)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::Reachability;

    #[test]
    fn single_leaf() {
        let sp = SpExpr::leaf().build();
        assert_eq!(sp.dag.node_count(), 1);
        assert_eq!(sp.leaves.len(), 1);
        assert_eq!(sp.source, sp.sink);
    }

    #[test]
    fn series_of_three() {
        let e = SpExpr::seq([SpExpr::leaf(), SpExpr::leaf(), SpExpr::leaf()]);
        let sp = e.build();
        assert_eq!(sp.dag.node_count(), 3);
        assert_eq!(sp.dag.edge_count(), 2);
        let r = Reachability::new(&sp.dag);
        assert!(r.reaches(sp.leaves[0], sp.leaves[2]));
    }

    #[test]
    fn parallel_pair_has_fork_and_join() {
        let e = SpExpr::leaf().par(SpExpr::leaf());
        let sp = e.build();
        assert_eq!(sp.dag.node_count(), 4);
        assert_eq!(sp.leaves.len(), 2);
        let r = Reachability::new(&sp.dag);
        assert!(r.incomparable(sp.leaves[0], sp.leaves[1]));
        assert!(r.reaches(sp.source, sp.leaves[0]));
        assert!(r.reaches(sp.leaves[1], sp.sink));
    }

    #[test]
    fn node_count_agrees_with_build() {
        let e = SpExpr::seq([
            SpExpr::leaf(),
            SpExpr::leaf().par(SpExpr::leaf().then(SpExpr::leaf())),
            SpExpr::leaf(),
        ]);
        let sp = e.build();
        assert_eq!(sp.dag.node_count(), e.node_count());
        assert_eq!(sp.leaves.len(), e.leaf_count());
    }

    #[test]
    fn single_source_single_sink() {
        let e = SpExpr::par_all((0..5).map(|_| SpExpr::leaf()));
        let sp = e.build();
        assert_eq!(sp.dag.roots(), vec![sp.source]);
        assert_eq!(sp.dag.leaves(), vec![sp.sink]);
    }

    #[test]
    fn par_all_balances() {
        let e = SpExpr::par_all((0..4).map(|_| SpExpr::leaf()));
        // 4 leaves, 3 parallel compositions => 4 + 6 = 10 nodes.
        assert_eq!(e.node_count(), 10);
        let sp = e.build();
        let r = Reachability::new(&sp.dag);
        for i in 0..4 {
            for j in i + 1..4 {
                assert!(r.incomparable(sp.leaves[i], sp.leaves[j]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "seq of zero")]
    fn seq_empty_panics() {
        SpExpr::seq([]);
    }

    #[test]
    fn sp_order_decides_the_fork_join_diamond() {
        // 0 forks to {1, 2}, joining at 3. Hebrew runs the later branch
        // first: 0, 2, 1, 3.
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let o = SpOrder::new(dag.node_count(), dag.edges(), vec![0, 2, 1, 3]).unwrap();
        let r = Reachability::new(&dag);
        for u in 0..4 {
            for v in 0..4 {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                assert_eq!(o.precedes(u, v), r.reaches(u, v), "{u} ≺ {v}");
                if u != v {
                    assert_eq!(o.concurrent(u, v), r.incomparable(u, v));
                }
            }
        }
    }

    #[test]
    fn sp_order_rejects_non_extensions() {
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        // Wrong length.
        assert!(SpOrder::new(dag.node_count(), dag.edges(), vec![0, 1]).is_err());
        // Not a permutation.
        assert!(SpOrder::new(dag.node_count(), dag.edges(), vec![0, 0, 1]).is_err());
        // Violates an edge.
        assert!(SpOrder::new(dag.node_count(), dag.edges(), vec![1, 0, 2]).is_err());
        // The chain itself is fine.
        assert!(SpOrder::new(dag.node_count(), dag.edges(), vec![0, 1, 2]).is_ok());
    }

    #[test]
    fn leaves_in_expression_order() {
        let e = SpExpr::leaf().then(SpExpr::leaf().par(SpExpr::leaf()));
        let sp = e.build();
        assert_eq!(sp.leaves.len(), 3);
        // First leaf is the series head, which is also the source.
        assert_eq!(sp.leaves[0], sp.source);
    }
}
