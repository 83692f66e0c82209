//! Last-writer functions (Definition 13).
//!
//! Given a topological sort `T` of a computation, the last-writer function
//! `W_T(l, u)` is the most recent write to `l` at or before `u` in `T`
//! (or ⊥ if none). Theorem 14 says it exists and is unique; Theorem 16
//! says it is an observer function. Both are machine-checked in the tests
//! below and by property tests.

use crate::computation::Computation;
use crate::observer::ObserverFunction;
use crate::op::Op;
use ccmm_dag::NodeId;

/// Computes the last-writer function `W_T` for the topological sort
/// `order` of `c` (Definition 13), as an [`ObserverFunction`].
///
/// Panics in debug builds if `order` is not a topological sort of `c`.
pub fn last_writer_function(c: &Computation, order: &[NodeId]) -> ObserverFunction {
    debug_assert!(
        ccmm_dag::topo::is_topological_sort(c.dag(), order),
        "order is not a topological sort"
    );
    let mut phi = ObserverFunction::bottom(c.num_locations(), c.node_count());
    // last[l] = most recent write to l seen so far in T.
    let mut last: Vec<Option<NodeId>> = vec![None; c.num_locations()];
    for &u in order {
        if let Op::Write(l) = c.op(u) {
            last[l.index()] = Some(u);
        }
        for l in c.locations() {
            phi.set(l, u, last[l.index()]);
        }
    }
    phi
}

/// Checks Definition 13 directly: whether `phi` is *the* last-writer
/// function of `order` (conditions 13.1–13.3). Used to cross-validate
/// [`last_writer_function`] (Theorem 14 uniqueness).
pub fn is_last_writer_function(c: &Computation, order: &[NodeId], phi: &ObserverFunction) -> bool {
    if !ccmm_dag::topo::is_topological_sort(c.dag(), order) {
        return false;
    }
    let mut pos = vec![usize::MAX; c.node_count()];
    for (i, u) in order.iter().enumerate() {
        pos[u.index()] = i;
    }
    for l in c.locations() {
        for u in c.nodes() {
            match phi.get(l, u) {
                Some(w) => {
                    // 13.1: w writes l. 13.2: w ⪯_T u.
                    if !c.op(w).is_write_to(l) || pos[w.index()] > pos[u.index()] {
                        return false;
                    }
                    // 13.3: no write to l strictly between w and u in T.
                    for x in &order[pos[w.index()] + 1..=pos[u.index()]] {
                        if c.op(*x).is_write_to(l) {
                            return false;
                        }
                    }
                }
                None => {
                    // No write to l at or before u in T.
                    for x in &order[..=pos[u.index()]] {
                        if c.op(*x).is_write_to(l) {
                            return false;
                        }
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Location;
    use ccmm_dag::topo::all_topo_sorts;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }
    fn l(i: usize) -> Location {
        Location::new(i)
    }

    /// W(0); R(0); W(0); R(0) in a chain.
    fn chain_warw() -> Computation {
        Computation::from_edges(
            4,
            &[(0, 1), (1, 2), (2, 3)],
            vec![Op::Write(l(0)), Op::Read(l(0)), Op::Write(l(0)), Op::Read(l(0))],
        )
    }

    #[test]
    fn chain_last_writer() {
        let c = chain_warw();
        let order: Vec<NodeId> = (0..4).map(n).collect();
        let phi = last_writer_function(&c, &order);
        assert_eq!(phi.get(l(0), n(0)), Some(n(0)));
        assert_eq!(phi.get(l(0), n(1)), Some(n(0)));
        assert_eq!(phi.get(l(0), n(2)), Some(n(2)));
        assert_eq!(phi.get(l(0), n(3)), Some(n(2)));
    }

    #[test]
    fn theorem_16_last_writer_is_observer_function() {
        let c = chain_warw();
        for t in all_topo_sorts(c.dag()) {
            let phi = last_writer_function(&c, &t);
            assert!(phi.is_valid_for(&c), "W_T invalid for T={t:?}");
        }
    }

    #[test]
    fn no_write_yields_bottom() {
        let c = Computation::from_edges(2, &[(0, 1)], vec![Op::Read(l(0)), Op::Nop]);
        let order = vec![n(0), n(1)];
        let phi = last_writer_function(&c, &order);
        assert_eq!(phi.get(l(0), n(0)), None);
        assert_eq!(phi.get(l(0), n(1)), None);
    }

    #[test]
    fn order_matters_for_incomparable_writes() {
        // Two incomparable writes; a read after both.
        let c = Computation::from_edges(
            3,
            &[(0, 2), (1, 2)],
            vec![Op::Write(l(0)), Op::Write(l(0)), Op::Read(l(0))],
        );
        let phi01 = last_writer_function(&c, &[n(0), n(1), n(2)]);
        let phi10 = last_writer_function(&c, &[n(1), n(0), n(2)]);
        assert_eq!(phi01.get(l(0), n(2)), Some(n(1)));
        assert_eq!(phi10.get(l(0), n(2)), Some(n(0)));
    }

    #[test]
    fn definition_13_agreement() {
        let c = chain_warw();
        let order: Vec<NodeId> = (0..4).map(n).collect();
        let phi = last_writer_function(&c, &order);
        assert!(is_last_writer_function(&c, &order, &phi));
        // Perturb one entry: no longer the last-writer function.
        let bad = phi.clone().with(l(0), n(3), Some(n(0)));
        assert!(!is_last_writer_function(&c, &order, &bad));
        let bad2 = phi.with(l(0), n(1), None);
        assert!(!is_last_writer_function(&c, &order, &bad2));
    }

    #[test]
    fn theorem_15_convexity() {
        // For any T and u with W_T(l,u)=w, every v with w ≺_T v ⪯_T u has
        // W_T(l,v) = w.
        let c = Computation::from_edges(
            5,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
            vec![Op::Write(l(0)), Op::Read(l(0)), Op::Write(l(0)), Op::Read(l(0)), Op::Nop],
        );
        for t in all_topo_sorts(c.dag()) {
            let phi = last_writer_function(&c, &t);
            let mut pos = [0; 5];
            for (i, u) in t.iter().enumerate() {
                pos[u.index()] = i;
            }
            for u in c.nodes() {
                if let Some(w) = phi.get(l(0), u) {
                    for v in c.nodes() {
                        if pos[w.index()] < pos[v.index()] && pos[v.index()] <= pos[u.index()] {
                            assert_eq!(phi.get(l(0), v), Some(w));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn multiple_locations_tracked_independently() {
        let c = Computation::from_edges(
            3,
            &[(0, 1), (1, 2)],
            vec![Op::Write(l(0)), Op::Write(l(1)), Op::Read(l(0))],
        );
        let phi = last_writer_function(&c, &[n(0), n(1), n(2)]);
        assert_eq!(phi.get(l(0), n(2)), Some(n(0)));
        assert_eq!(phi.get(l(1), n(2)), Some(n(1)));
        assert_eq!(phi.get(l(1), n(0)), None);
    }
}
