//! Deciding the strength relation between models over a universe.
//!
//! "Δ is stronger than Δ′" means Δ ⊆ Δ′ (Definition 4 — the *subset* is
//! stronger, since it allows fewer behaviours). [`compare`] decides the
//! relation between two models restricted to a bounded universe, with
//! separating witnesses; [`lattice`] assembles the full matrix of
//! Figure 1.

use crate::computation::Computation;
use crate::enumerate::for_each_observer;
use crate::model::MemoryModel;
use crate::observer::ObserverFunction;
use crate::universe::Universe;
use std::ops::ControlFlow;

/// How two models relate as sets, restricted to a universe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// `A = B` on the universe.
    Equal,
    /// `A ⊊ B` (A is strictly stronger).
    StrictlyStronger,
    /// `A ⊋ B` (A is strictly weaker).
    StrictlyWeaker,
    /// Neither contains the other.
    Incomparable,
}

impl Relation {
    /// The relation of `A` to `B` given whether some pair is in `A` but
    /// not `B` (`a_only`) and whether some pair is in `B` but not `A`
    /// (`b_only`).
    pub fn from_separations(a_only: bool, b_only: bool) -> Self {
        match (a_only, b_only) {
            (false, false) => Relation::Equal,
            (false, true) => Relation::StrictlyStronger,
            (true, false) => Relation::StrictlyWeaker,
            (true, true) => Relation::Incomparable,
        }
    }
}

impl std::fmt::Display for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Relation::Equal => "=",
            Relation::StrictlyStronger => "⊊",
            Relation::StrictlyWeaker => "⊋",
            Relation::Incomparable => "∥",
        };
        f.write_str(s)
    }
}

/// The outcome of comparing two models over a universe.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// The set relation of A versus B.
    pub relation: Relation,
    /// A pair in `A \ B`, if any.
    pub a_only: Option<(Computation, ObserverFunction)>,
    /// A pair in `B \ A`, if any.
    pub b_only: Option<(Computation, ObserverFunction)>,
    /// Number of pairs in both models.
    pub both: usize,
    /// Number of pairs in A.
    pub a_total: usize,
    /// Number of pairs in B.
    pub b_total: usize,
    /// Number of (computation, observer) pairs examined.
    pub pairs_checked: usize,
}

/// Compares models `a` and `b` over every (computation, observer) pair of
/// the universe.
pub fn compare<A, B>(a: &A, b: &B, u: &Universe) -> Comparison
where
    A: MemoryModel,
    B: MemoryModel,
{
    let mut cmp = Comparison {
        relation: Relation::Equal,
        a_only: None,
        b_only: None,
        both: 0,
        a_total: 0,
        b_total: 0,
        pairs_checked: 0,
    };
    let _ = u.for_each_computation(|c| {
        let _ = for_each_observer(c, |phi| {
            cmp.pairs_checked += 1;
            let in_a = a.contains(c, phi);
            let in_b = b.contains(c, phi);
            if in_a {
                cmp.a_total += 1;
            }
            if in_b {
                cmp.b_total += 1;
            }
            if in_a && in_b {
                cmp.both += 1;
            }
            if in_a && !in_b && cmp.a_only.is_none() {
                cmp.a_only = Some((c.clone(), phi.clone()));
            }
            if in_b && !in_a && cmp.b_only.is_none() {
                cmp.b_only = Some((c.clone(), phi.clone()));
            }
            ControlFlow::Continue(())
        });
        ControlFlow::Continue(())
    });
    cmp.relation = Relation::from_separations(cmp.a_only.is_some(), cmp.b_only.is_some());
    cmp
}

/// Searches the universe for a pair contained in all of `ins` and none of
/// `outs` — the witness-finding engine behind the Figures 2 and 3
/// separations.
pub fn find_pair<M: MemoryModel>(
    ins: &[&M],
    outs: &[&M],
    u: &Universe,
) -> Option<(Computation, ObserverFunction)> {
    let mut found = None;
    let _ = u.for_each_computation(|c| {
        for_each_observer(c, |phi| {
            if ins.iter().all(|m| m.contains(c, phi)) && outs.iter().all(|m| !m.contains(c, phi)) {
                found = Some((c.clone(), phi.clone()));
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        })
    });
    found
}

/// Randomized relation evidence at sizes beyond exhaustive reach: sample
/// random computations of exactly `nodes` nodes over `locations`
/// locations with random valid observer functions, and count memberships.
///
/// A returned `a_only`/`b_only` witness is *proof* of non-inclusion;
/// absence of one is only sampling evidence. Complements [`compare`]'s
/// exhaustive verdicts at small bounds.
pub fn compare_sampled<A, B, R>(
    a: &A,
    b: &B,
    nodes: usize,
    locations: usize,
    samples: usize,
    rng: &mut R,
) -> Comparison
where
    A: MemoryModel,
    B: MemoryModel,
    R: rand::Rng + ?Sized,
{
    use crate::op::{Location, Op};
    use ccmm_dag::NodeId;
    let mut cmp = Comparison {
        relation: Relation::Equal,
        a_only: None,
        b_only: None,
        both: 0,
        a_total: 0,
        b_total: 0,
        pairs_checked: 0,
    };
    for _ in 0..samples {
        let dag = ccmm_dag::generate::gnp_dag(nodes, 2.0 / nodes as f64, rng);
        let ops: Vec<Op> = (0..nodes)
            .map(|_| match rng.gen_range(0..3) {
                0 => Op::Nop,
                1 => Op::Read(Location::new(rng.gen_range(0..locations))),
                _ => Op::Write(Location::new(rng.gen_range(0..locations))),
            })
            .collect();
        let c = Computation::new(dag, ops).expect("one op per node");
        // A random valid observer: per free slot, a random candidate.
        let mut phi = ObserverFunction::base(&c);
        for l in c.locations() {
            for u in c.nodes() {
                if c.op(u).is_write_to(l) {
                    continue;
                }
                let mut cands: Vec<Option<NodeId>> = vec![None];
                for &w in c.writes_to(l) {
                    if !c.precedes(u, w) {
                        cands.push(Some(w));
                    }
                }
                phi.set(l, u, cands[rng.gen_range(0..cands.len())]);
            }
        }
        cmp.pairs_checked += 1;
        let in_a = a.contains(&c, &phi);
        let in_b = b.contains(&c, &phi);
        cmp.a_total += in_a as usize;
        cmp.b_total += in_b as usize;
        cmp.both += (in_a && in_b) as usize;
        if in_a && !in_b && cmp.a_only.is_none() {
            cmp.a_only = Some((c.clone(), phi.clone()));
        }
        if in_b && !in_a && cmp.b_only.is_none() {
            cmp.b_only = Some((c, phi));
        }
    }
    cmp.relation = Relation::from_separations(cmp.a_only.is_some(), cmp.b_only.is_some());
    cmp
}

/// One row of the lattice matrix.
#[derive(Clone, Debug)]
pub struct LatticeRow {
    /// Model name of the row.
    pub name: String,
    /// Relation of the row model to each column model.
    pub relations: Vec<Relation>,
}

/// The full pairwise relation matrix of a model list over a universe.
pub fn lattice<M: MemoryModel>(models: &[M], u: &Universe) -> Vec<LatticeRow> {
    models
        .iter()
        .map(|a| LatticeRow {
            name: a.name().to_string(),
            relations: models.iter().map(|b| compare(a, b, u).relation).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AnyObserver, Lc, Model, Sc};

    #[test]
    fn model_equals_itself() {
        let u = Universe::new(3, 1);
        let cmp = compare(&Lc, &Lc, &u);
        assert_eq!(cmp.relation, Relation::Equal);
        assert_eq!(cmp.a_total, cmp.b_total);
        assert!(cmp.pairs_checked > 0);
    }

    #[test]
    fn sc_strictly_stronger_than_any() {
        let u = Universe::new(3, 1);
        let cmp = compare(&Sc, &AnyObserver, &u);
        assert_eq!(cmp.relation, Relation::StrictlyStronger);
        assert!(cmp.a_only.is_none());
        let (c, phi) = cmp.b_only.expect("Any must have extra pairs");
        assert!(!Sc.contains(&c, &phi));
    }

    #[test]
    fn sc_equals_lc_with_one_location() {
        // With a single location one sort per location *is* one global
        // sort; strictness appears only with more than one location (the
        // paper notes "as long as there is more than one location"). The
        // two-location separation is exercised by the store-buffering
        // litmus test in `litmus.rs` and by experiment E1.
        let u1 = Universe::new(3, 1);
        assert_eq!(compare(&Sc, &Lc, &u1).relation, Relation::Equal);
    }

    #[test]
    fn find_pair_respects_all_constraints() {
        let u = Universe::new(3, 1);
        // NN ⊆ WW strictly: find WW-but-not-NN.
        let w = find_pair(&[&Model::Ww], &[&Model::Nn], &u);
        assert!(w.is_some());
        let (c, phi) = w.unwrap();
        assert!(Model::Ww.contains(&c, &phi));
        assert!(!Model::Nn.contains(&c, &phi));
    }

    #[test]
    fn lattice_diagonal_is_equal() {
        let u = Universe::new(2, 1);
        let rows = lattice(&[Model::Sc, Model::Lc, Model::Nn], &u);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.relations[i], Relation::Equal);
        }
    }

    #[test]
    fn relation_display() {
        assert_eq!(Relation::Equal.to_string(), "=");
        assert_eq!(Relation::StrictlyStronger.to_string(), "⊊");
    }

    #[test]
    fn sampled_comparison_respects_known_inclusions() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(88);
        // At 8 nodes (beyond exhaustive reach), sampling must never find
        // an SC pair outside LC, nor an LC pair outside NN.
        let cmp = compare_sampled(&Model::Sc, &Model::Lc, 8, 2, 300, &mut rng);
        assert!(cmp.a_only.is_none(), "SC ⊆ LC violated by sampling");
        let cmp = compare_sampled(&Model::Lc, &Model::Nn, 8, 2, 300, &mut rng);
        assert!(cmp.a_only.is_none(), "LC ⊆ NN violated by sampling");
        assert_eq!(cmp.pairs_checked, 300);
        // And random observers do witness the converse strictness.
        assert!(cmp.b_only.is_some(), "expected an NN\\LC sample at 8 nodes");
    }
}
