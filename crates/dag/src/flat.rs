//! An append-only dag in compressed-sparse-row form: `u32` offsets plus
//! one `NodeId` edge array per direction. It is for harvested traces of
//! millions of nodes, built once in creation order and read node by node;
//! [`Dag`] keeps one heap list per node and direction instead.

use crate::error::DagError;
use crate::graph::{Dag, NodeId};

/// A dag whose node numbering is a topological order, stored as one
/// predecessor run and one successor run per node in flat arrays.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatDag {
    pred_off: Vec<u32>,
    preds: Vec<NodeId>,
    succ_off: Vec<u32>,
    succs: Vec<NodeId>,
}

impl FlatDag {
    /// Builds the store from each node's predecessor run: node `v`'s
    /// predecessors are `preds[pred_off[v]..pred_off[v + 1]]`. The
    /// successor side is filled by one counting pass.
    ///
    /// Each run, followed by its node, must be a strictly increasing
    /// chain: every edge points forward, which is what makes the graph
    /// acyclic. A predecessor `≥ n` is [`DagError::NodeOutOfRange`], one
    /// equal to its node is [`DagError::SelfLoop`], and any other break
    /// of the chain — a backward edge, a duplicate or an unsorted run —
    /// is [`DagError::CycleDetected`]: the order no longer proves the
    /// graph acyclic.
    ///
    /// Panics if `pred_off` is not a non-decreasing table of `n + 1`
    /// offsets from 0 to `preds.len()`.
    pub fn from_pred_runs(pred_off: Vec<u32>, preds: Vec<NodeId>) -> Result<Self, DagError> {
        assert!(
            pred_off.first() == Some(&0)
                && pred_off.last().map(|&e| e as usize) == Some(preds.len())
                && pred_off.is_sorted(),
            "malformed predecessor offset table"
        );
        let n = pred_off.len() - 1;
        let mut succ_off = vec![0u32; n + 1];
        for v in 0..n {
            let mut prev = None;
            for &p in &preds[pred_off[v] as usize..pred_off[v + 1] as usize] {
                if p.index() >= n {
                    return Err(DagError::NodeOutOfRange { node: p.index(), n });
                }
                if p.index() == v {
                    return Err(DagError::SelfLoop { node: v });
                }
                if p.index() > v || prev.is_some_and(|q| q >= p) {
                    return Err(DagError::CycleDetected);
                }
                prev = Some(p);
                succ_off[p.index() + 1] += 1;
            }
        }
        for u in 0..n {
            succ_off[u + 1] += succ_off[u];
        }
        // `succ_off[u]` serves as the next free slot of `u`'s run, which
        // leaves it at the run's end, so one shift restores the table.
        // Targets are visited in increasing order: every run comes out
        // sorted.
        let mut succs = vec![NodeId(0); preds.len()];
        for v in 0..n {
            for &p in &preds[pred_off[v] as usize..pred_off[v + 1] as usize] {
                succs[succ_off[p.index()] as usize] = NodeId::new(v);
                succ_off[p.index()] += 1;
            }
        }
        succ_off.copy_within(0..n, 1);
        succ_off[0] = 0;
        Ok(FlatDag { pred_off, preds, succ_off, succs })
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.pred_off.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.preds.len()
    }

    /// Direct predecessors of `u`, in increasing order.
    #[inline]
    pub fn predecessors(&self, u: NodeId) -> &[NodeId] {
        &self.preds[self.pred_off[u.index()] as usize..self.pred_off[u.index() + 1] as usize]
    }

    /// Direct successors of `u`, in increasing order.
    #[inline]
    pub fn successors(&self, u: NodeId) -> &[NodeId] {
        &self.succs[self.succ_off[u.index()] as usize..self.succ_off[u.index() + 1] as usize]
    }

    /// Iterates over all edges `(u, v)`, grouped by target.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.node_count())
            .map(NodeId::new)
            .flat_map(move |v| self.predecessors(v).iter().map(move |&u| (u, v)))
    }

    /// The same graph as a [`Dag`] (for small computations that need
    /// reachability or the paper's dag operations).
    pub fn to_dag(&self) -> Dag {
        let edges: Vec<(usize, usize)> =
            self.edges().map(|(u, v)| (u.index(), v.index())).collect();
        Dag::from_edges(self.node_count(), &edges).expect("a flat dag's edges point forward")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(runs: &[&[usize]]) -> Result<FlatDag, DagError> {
        let mut off = vec![0u32];
        let mut preds = Vec::new();
        for run in runs {
            preds.extend(run.iter().map(|&p| NodeId::new(p)));
            off.push(preds.len() as u32);
        }
        FlatDag::from_pred_runs(off, preds)
    }

    #[test]
    fn empty_store_has_no_nodes() {
        let flat = runs(&[]).unwrap();
        assert_eq!(flat.node_count(), 0);
        assert_eq!(flat.to_dag(), Dag::empty());
    }

    #[test]
    fn rejects_every_run_that_breaks_the_forward_chain() {
        assert_eq!(runs(&[&[], &[5]]), Err(DagError::NodeOutOfRange { node: 5, n: 2 }));
        assert_eq!(runs(&[&[], &[1]]), Err(DagError::SelfLoop { node: 1 }));
        assert_eq!(runs(&[&[1], &[]]), Err(DagError::CycleDetected), "backward edge");
        assert_eq!(runs(&[&[], &[], &[0, 0]]), Err(DagError::CycleDetected), "duplicate");
        assert_eq!(runs(&[&[], &[], &[1, 0]]), Err(DagError::CycleDetected), "unsorted");
    }

    #[test]
    #[should_panic(expected = "malformed predecessor offset table")]
    fn malformed_offsets_panic() {
        let _ = FlatDag::from_pred_runs(vec![0, 2], vec![NodeId::new(0)]);
    }
}
