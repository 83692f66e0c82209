//! The bounded constructible version Δ* (Definition 8, Theorem 9).
//!
//! `Δ*` is the union of all constructible models stronger than `Δ` — the
//! weakest constructible strengthening. On an unbounded universe it is the
//! greatest fixpoint of "every augmentation admits a compatible
//! extension" (the Theorem 12 condition); we compute that fixpoint on a
//! bounded universe:
//!
//! 1. materialise `S₀ = {(C, Φ) ∈ Δ : |V_C| ≤ max_nodes}`;
//! 2. repeatedly delete `(C, Φ)` with `|V_C| < max_nodes` for which some
//!    op `o` has **no** `Φ'` on `aug_o(C)` with `(aug_o(C), Φ') ∈ Sᵢ` and
//!    `Φ'|_C = Φ`;
//! 3. stop at the fixpoint.
//!
//! Pairs at the size boundary are never deleted (their augmentations lie
//! outside the universe), so the result *over-approximates* `Δ*`: it is
//! exact in the limit, and each deletion pass pushes exactness one size
//! level down from the boundary. Two invariants hold unconditionally and
//! are tested: `LC ⊆ fixpoint(NN) ⊆ NN` at every size, and the fixpoint
//! is sandwiched between `Δ*` and `Δ`. Experiment E8 reports, per size,
//! whether `fixpoint(NN) = LC` — the machine-checkable face of
//! Theorem 23.

pub mod lanes;

use crate::computation::Computation;
use crate::enumerate::for_each_observer;
use crate::fault::{payload_string, FaultPlan};
use crate::model::MemoryModel;
use crate::observer::ObserverFunction;
use crate::props::any_extension;
use crate::sweep::supervisor::Quarantined;
use crate::sweep::supervisor::{sweep_supervised, Supervisor};
use crate::sweep::SweepConfig;
use crate::telemetry::{self, Counter};
use crate::universe::Universe;
use ccmm_dag::bitset::BitSet;
use ccmm_dag::NodeId;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The result of the bounded Δ* fixpoint computation.
pub struct BoundedConstructible {
    /// Surviving pairs, keyed by computation.
    pairs: HashMap<Computation, HashSet<ObserverFunction>>,
    /// The universe bound used.
    pub max_nodes: usize,
    /// Number of fixpoint passes until convergence.
    pub passes: usize,
    /// Pairs deleted in total.
    pub deleted: usize,
    /// Initial-pass extension checks that panicked twice and were
    /// quarantined (worklist only; `task_idx` is the interior-computation
    /// check index, `size` its node count). Quarantined computations keep
    /// all their pairs — deleting nothing preserves the fixpoint's
    /// over-approximation invariant (`Δ* ⊆` result `⊆ Δ`) — so a
    /// non-empty list means the result may over-approximate more loosely
    /// than an undisturbed run, never that it under-approximates.
    pub quarantined: Vec<Quarantined>,
}

impl BoundedConstructible {
    /// Computes the bounded fixpoint of `model` over `u`.
    pub fn compute<M: MemoryModel>(model: &M, u: &Universe) -> Self {
        // Materialise S₀.
        let mut pairs: HashMap<Computation, HashSet<ObserverFunction>> = HashMap::new();
        let _ = u.for_each_computation(|c| {
            let mut set = HashSet::new();
            let _ = for_each_observer(c, |phi| {
                if model.contains(c, phi) {
                    set.insert(phi.clone());
                }
                ControlFlow::Continue(())
            });
            pairs.insert(c.clone(), set);
            ControlFlow::Continue(())
        });

        let alphabet = u.alphabet();
        let mut passes = 0;
        let mut deleted = 0;
        loop {
            passes += 1;
            let mut to_delete: Vec<(Computation, ObserverFunction)> = Vec::new();
            for (c, set) in &pairs {
                if c.node_count() >= u.max_nodes {
                    continue; // boundary: augmentation out of reach
                }
                for phi in set {
                    for &o in &alphabet {
                        let aug = c.augment(o);
                        let survivors = pairs
                            .get(&aug)
                            .expect("universe is closed under augmentation below the bound");
                        let ok = any_extension(&aug, phi, |phi2| survivors.contains(phi2));
                        if !ok {
                            to_delete.push((c.clone(), phi.clone()));
                            break;
                        }
                    }
                }
            }
            if to_delete.is_empty() {
                break;
            }
            deleted += to_delete.len();
            for (c, phi) in to_delete {
                pairs.get_mut(&c).expect("key present").remove(&phi);
            }
        }
        BoundedConstructible {
            pairs,
            max_nodes: u.max_nodes,
            passes,
            deleted,
            quarantined: Vec::new(),
        }
    }

    /// Computes the same bounded fixpoint as [`compute`], by a worklist
    /// (semi-naïve) algorithm with a parallel base materialisation.
    ///
    /// [`compute`] re-scans the whole universe after every deletion pass.
    /// But a pair `(C, Φ)` can only *newly* fail the extension condition
    /// when some augmentation of `C` loses a member — and deleting
    /// `(D, Ψ)` affects exactly one candidate: `D` is an augmentation of
    /// at most one computation (its final node must succeed every other
    /// node; removing it gives the parent `C` with indices unchanged),
    /// and `Ψ` restricts to exactly one parent observer `Φ = Ψ|_C`. So
    /// after the initial full pass, each deletion enqueues one
    /// `(parent, Φ|, op)` re-check instead of a universe scan. Deletion
    /// is monotone and the condition anti-monotone in the survivor sets,
    /// so the worklist converges to the same greatest fixpoint in any
    /// processing order — survivors, and hence `deleted`, are identical
    /// to [`compute`]'s. `passes` counts worklist rounds (initial pass +
    /// cascade generations), which may differ from the naïve pass count.
    ///
    /// [`compute`]: BoundedConstructible::compute
    pub fn compute_worklist<M: MemoryModel + Sync>(
        model: &M,
        u: &Universe,
        cfg: &SweepConfig,
    ) -> Self {
        Self::compute_worklist_supervised(model, u, cfg, &FaultPlan::none())
    }

    /// [`compute_worklist`] under supervision: every initial-pass
    /// extension check runs under `catch_unwind` with `fault`'s
    /// [`FaultPlan::before_fixpoint_check`] hook. A panicking check is
    /// retried once; a second panic quarantines that computation's checks
    /// (reported in [`BoundedConstructible::quarantined`], identifying
    /// which augmentation step failed) and conservatively *keeps* its
    /// pairs, so the run completes with an explicit degraded report
    /// instead of aborting the whole fixpoint.
    ///
    /// [`compute_worklist`]: BoundedConstructible::compute_worklist
    pub fn compute_worklist_supervised<M: MemoryModel + Sync>(
        model: &M,
        u: &Universe,
        cfg: &SweepConfig,
        fault: &FaultPlan,
    ) -> Self {
        // Materialise S₀ with a parallel sweep (poset-granular shards).
        // The fixpoint keys survivor sets by *labelled* computation (every
        // augmentation of every member must be present), so the
        // materialisation always runs the labelled enumeration even when
        // the caller's config asks for a canonical sweep.
        let cfg = &SweepConfig { canonical: false, ..*cfg };
        let chunks = sweep_supervised(
            u,
            cfg,
            &Supervisor::none(),
            None,
            None,
            Vec::new,
            || (),
            |acc: &mut Vec<(Computation, HashSet<ObserverFunction>)>, _, _, c, _| {
                let mut set = HashSet::new();
                let _ = for_each_observer(c, |phi| {
                    if model.contains(c, phi) {
                        set.insert(phi.clone());
                    }
                    ControlFlow::Continue(())
                });
                acc.push((c.clone(), set));
            },
        )
        // Completeness here is a soundness requirement: the fixpoint
        // assumes the universe is closed under augmentation, so a
        // degraded/partial materialisation must not be silently used.
        .expect_complete("Δ* materialisation");
        let mut pairs: HashMap<Computation, HashSet<ObserverFunction>> =
            chunks.into_iter().collect();

        // Initial full pass, parallelised over computations: the survivor
        // map is only read here, so workers share it immutably and report
        // pairs that fail some op's extension condition.
        let alphabet = u.alphabet();
        let interior: Vec<&Computation> =
            pairs.keys().filter(|c| c.node_count() < u.max_nodes).collect();
        let check_one = |c: &Computation, phi: &ObserverFunction| -> bool {
            alphabet.iter().all(|&o| {
                let aug = c.augment(o);
                let survivors =
                    pairs.get(&aug).expect("universe is closed under augmentation below the bound");
                any_extension(&aug, phi, |phi2| survivors.contains(phi2))
            })
        };
        // Each interior computation's checks run under `catch_unwind`
        // (retried once, quarantined on a second panic — the quarantined
        // computation keeps its pairs, preserving the fixpoint's
        // over-approximation invariant), so one panicking augmentation
        // step degrades the result instead of aborting the run.
        let next = AtomicUsize::new(0);
        let quarantine = Mutex::new(Vec::new());
        let worker = || {
            let mut q = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&c) = interior.get(i) else { break };
                let attempt = || {
                    fault.before_fixpoint_check(i);
                    let mut failed = Vec::new();
                    for phi in &pairs[c] {
                        if !check_one(c, phi) {
                            failed.push((c.clone(), phi.clone()));
                        }
                    }
                    failed
                };
                match catch_unwind(AssertUnwindSafe(attempt)) {
                    Ok(failed) => q.extend(failed),
                    Err(_first) => match catch_unwind(AssertUnwindSafe(attempt)) {
                        Ok(failed) => q.extend(failed),
                        Err(second) => {
                            telemetry::count(Counter::Quarantines, 1);
                            quarantine.lock().unwrap().push(Quarantined {
                                task_idx: i,
                                size: c.node_count(),
                                payload: payload_string(second),
                            });
                        }
                    },
                }
            }
            q
        };
        let mut queue: Vec<(Computation, ObserverFunction)> = if cfg.threads == 1 {
            worker()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..cfg.threads).map(|_| s.spawn(worker)).collect();
                handles
                    .into_iter()
                    .flat_map(|h| {
                        // Checks are caught above, so a worker can only die
                        // outside the quarantined region — propagate that
                        // panic unchanged rather than masking it.
                        h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
                    })
                    .collect()
            })
        };
        let mut quarantined = quarantine.into_inner().unwrap();
        quarantined.sort_by_key(|q| q.task_idx);

        // Worklist cascade: apply a round of deletions, re-check only the
        // unique augmentation parents of what was deleted.
        let mut passes = 1;
        let mut deleted = 0;
        telemetry::count(Counter::WorklistPushes, queue.len() as u64);
        while !queue.is_empty() {
            telemetry::count(Counter::WorklistPops, queue.len() as u64);
            let mut recheck: Vec<(Computation, ObserverFunction, Computation)> = Vec::new();
            for (c, phi) in queue.drain(..) {
                let set = pairs.get_mut(&c).expect("key present");
                if !set.remove(&phi) {
                    continue; // deleted earlier this cascade
                }
                deleted += 1;
                if let Some((parent, pphi)) = augmentation_parent(&c, &phi) {
                    if pairs.get(&parent).is_some_and(|s| s.contains(&pphi)) {
                        recheck.push((parent, pphi, c.clone()));
                    }
                }
            }
            let mut next_queue = Vec::new();
            for (parent, pphi, aug) in recheck {
                if !pairs.get(&parent).is_some_and(|s| s.contains(&pphi)) {
                    continue;
                }
                let survivors = pairs.get(&aug).expect("augmentation is in the universe");
                if !any_extension(&aug, &pphi, |phi2| survivors.contains(phi2)) {
                    next_queue.push((parent, pphi));
                }
            }
            queue = next_queue;
            telemetry::count(Counter::WorklistPushes, queue.len() as u64);
            if !queue.is_empty() {
                passes += 1;
            }
        }
        BoundedConstructible { pairs, max_nodes: u.max_nodes, passes, deleted, quarantined }
    }

    /// Whether `(c, phi)` survived the fixpoint. Exact for `Δ*` only when
    /// `c` is small enough relative to the bound (see module docs).
    pub fn contains(&self, c: &Computation, phi: &ObserverFunction) -> bool {
        self.pairs.get(c).is_some_and(|s| s.contains(phi))
    }

    /// Number of surviving pairs for computations of exactly `n` nodes.
    pub fn pairs_of_size(&self, n: usize) -> usize {
        self.pairs.iter().filter(|(c, _)| c.node_count() == n).map(|(_, s)| s.len()).sum()
    }

    /// Total surviving pairs.
    pub fn total_pairs(&self) -> usize {
        self.pairs.values().map(HashSet::len).sum()
    }

    /// Iterates over surviving pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Computation, &ObserverFunction)> {
        self.pairs.iter().flat_map(|(c, s)| s.iter().map(move |phi| (c, phi)))
    }

    /// Compares the survivors of size `n` against a model: returns
    /// `(survivors, in_model, agreements)` where `agreements` counts pairs
    /// on which membership coincides over all valid observers of size-`n`
    /// computations.
    pub fn agreement_with<M: MemoryModel>(
        &self,
        model: &M,
        n: usize,
        u: &Universe,
    ) -> SizeAgreement {
        let mut out = SizeAgreement { size: n, survivors: 0, in_model: 0, disagreements: 0 };
        let mut f = |c: &Computation| {
            let _ = for_each_observer(c, |phi| {
                let in_fix = self.contains(c, phi);
                let in_m = model.contains(c, phi);
                if in_fix {
                    out.survivors += 1;
                }
                if in_m {
                    out.in_model += 1;
                }
                if in_fix != in_m {
                    out.disagreements += 1;
                }
                ControlFlow::Continue(())
            });
            ControlFlow::Continue(())
        };
        let _ = u.for_each_computation_of_size(n, &mut f);
        out
    }
}

/// Inverts Definition 11 structurally: if `c`'s final node succeeds every
/// other node, `c = aug_o(parent)` for exactly one `parent` (drop the
/// final node; indices are unchanged) — returns `(parent, psi|_parent)`,
/// the unique pair whose extension condition mentions `(c, psi)`.
/// Returns `None` when `c` is empty or not an augmentation.
///
/// The restriction always succeeds: `psi` is valid for `c`, and no old
/// node can observe the final node's write (it precedes it), so every
/// retained entry stays in range.
fn augmentation_parent(
    c: &Computation,
    psi: &ObserverFunction,
) -> Option<(Computation, ObserverFunction)> {
    let last = c.last_node()?;
    let n = c.node_count();
    for u in 0..n - 1 {
        if !c.precedes(NodeId::new(u), last) {
            return None;
        }
    }
    let mut keep = BitSet::full(n);
    keep.remove(last.index());
    let (parent, _) = c.prefix(&keep).expect("dropping the final node keeps a prefix");
    let phi = psi
        .restrict(parent.num_locations(), parent.node_count())
        .expect("old nodes cannot observe the final node");
    Some((parent, phi))
}

/// Exact `k`-step survival test for a single pair, without materialising
/// any universe: `(C, Φ)` survives `k` steps iff it is in the model and,
/// for `k > 0`, every augmentation admits an extension that survives
/// `k − 1` steps.
///
/// The extension operator is co-continuous (each condition quantifies
/// over the finitely many final-row candidates), so by Kleene iteration
/// `(C, Φ) ∈ Δ*` **iff it survives every finite `k`** — deep lookahead
/// converges to the true constructible version from above. This is the
/// tool behind experiment E11's probe of the paper's open problem
/// (is `LC ⊊ NW*`? `LC ⊊ WN*`?).
pub fn survives_lookahead<M: MemoryModel>(
    model: &M,
    c: &Computation,
    phi: &ObserverFunction,
    k: usize,
    alphabet: &[crate::op::Op],
) -> bool {
    let mut memo: HashMap<(Computation, ObserverFunction, usize), bool> = HashMap::new();
    fn go<M: MemoryModel>(
        model: &M,
        c: &Computation,
        phi: &ObserverFunction,
        k: usize,
        alphabet: &[crate::op::Op],
        memo: &mut HashMap<(Computation, ObserverFunction, usize), bool>,
    ) -> bool {
        if !model.contains(c, phi) {
            return false;
        }
        if k == 0 {
            return true;
        }
        let key = (c.clone(), phi.clone(), k);
        if let Some(&v) = memo.get(&key) {
            return v;
        }
        let mut ok = true;
        'ops: for &o in alphabet {
            let aug = c.augment(o);
            let mut found = false;
            let found_ref = &mut found;
            let _ = crate::props::any_extension(&aug, phi, |phi2| {
                if go(model, &aug, phi2, k - 1, alphabet, memo) {
                    *found_ref = true;
                    true
                } else {
                    false
                }
            });
            if !found {
                ok = false;
                break 'ops;
            }
        }
        memo.insert(key, ok);
        ok
    }
    go(model, c, phi, k, alphabet, &mut memo)
}

/// Per-size agreement between a fixpoint and a reference model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeAgreement {
    /// Computation size compared at.
    pub size: usize,
    /// Pairs surviving the fixpoint at this size.
    pub survivors: usize,
    /// Pairs in the reference model at this size.
    pub in_model: usize,
    /// Pairs on which the two disagree.
    pub disagreements: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Lc, Nn, Sc};

    #[test]
    fn constructible_model_is_its_own_fixpoint() {
        let u = Universe::new(3, 1);
        let fix = BoundedConstructible::compute(&Lc, &u);
        assert_eq!(fix.deleted, 0, "LC is constructible; nothing deleted");
        assert_eq!(fix.passes, 1);
        // Same for SC.
        let fix_sc = BoundedConstructible::compute(&Sc, &u);
        assert_eq!(fix_sc.deleted, 0);
    }

    #[test]
    fn theorem_23_lc_equals_nn_star_small() {
        // Bounded check of LC = NN*: with a 5-node bound, sizes ≤ 4 are
        // past at least one deletion pass; the paper predicts exact
        // agreement with LC at every size below the boundary.
        let u = Universe::new(4, 1);
        let fix = BoundedConstructible::compute(&Nn::new(), &u);
        for n in 0..u.max_nodes {
            let agree = fix.agreement_with(&Lc, n, &u);
            assert_eq!(agree.disagreements, 0, "NN* ≠ LC at size {n}: {agree:?}");
        }
    }

    #[test]
    fn fixpoint_sandwiched_between_lc_and_nn() {
        let u = Universe::new(4, 1);
        let fix = BoundedConstructible::compute(&Nn::new(), &u);
        for (c, phi) in fix.iter() {
            assert!(Nn::new().contains(c, phi), "fixpoint ⊆ NN violated");
        }
        // LC ⊆ fixpoint at every size (LC is constructible and ⊆ NN, so it
        // survives every pass).
        let _ = u.for_each_computation(|c| {
            let _ = for_each_observer(c, |phi| {
                if Lc.contains(c, phi) {
                    assert!(fix.contains(c, phi), "LC ⊄ fixpoint at {c:?} {phi:?}");
                }
                ControlFlow::Continue(())
            });
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn lookahead_kills_figure4_pair() {
        // The Figure-4 prefix pair is in NN but dies at lookahead 1.
        let w = crate::witness::figure4_prefix();
        let alphabet = crate::op::Op::all(1);
        assert!(survives_lookahead(&Nn::default(), &w.computation, &w.phi, 0, &alphabet));
        assert!(!survives_lookahead(&Nn::default(), &w.computation, &w.phi, 1, &alphabet));
    }

    #[test]
    fn lookahead_spares_lc_pairs() {
        // LC is constructible: its pairs survive any finite lookahead.
        let c = crate::computation::Computation::from_edges(
            3,
            &[(0, 1)],
            vec![
                crate::op::Op::Write(crate::op::Location::new(0)),
                crate::op::Op::Read(crate::op::Location::new(0)),
                crate::op::Op::Write(crate::op::Location::new(0)),
            ],
        );
        let phi = crate::observer::ObserverFunction::base(&c).with(
            crate::op::Location::new(0),
            ccmm_dag::NodeId::new(1),
            Some(ccmm_dag::NodeId::new(0)),
        );
        assert!(Lc.contains(&c, &phi));
        let alphabet = crate::op::Op::all(1);
        for k in 0..4 {
            assert!(survives_lookahead(&Lc, &c, &phi, k, &alphabet), "k={k}");
        }
        // And since LC ⊆ NN with LC constructible, it also survives in NN.
        for k in 0..4 {
            assert!(survives_lookahead(&Nn::default(), &c, &phi, k, &alphabet), "k={k}");
        }
    }

    #[test]
    fn lookahead_agrees_with_bounded_fixpoint() {
        // For pairs of size s in a bound-b universe, the fixpoint applies
        // (b - s) levels of lookahead... at least one pass; cross-check
        // 2-node pairs in a 4-bound universe against 2-step lookahead.
        let u = Universe::new(4, 1);
        let fix = BoundedConstructible::compute(&Nn::default(), &u);
        let alphabet = u.alphabet();
        let mut f = |c: &Computation| {
            let _ = for_each_observer(c, |phi| {
                if Nn::default().contains(c, phi) {
                    let deep = survives_lookahead(&Nn::default(), c, phi, 2, &alphabet);
                    let in_fix = fix.contains(c, phi);
                    // fixpoint lookahead ≥ 2 here, so fixpoint ⊆ deep.
                    assert!(!in_fix || deep, "fixpoint kept a 2-step-dead pair");
                }
                std::ops::ControlFlow::Continue(())
            });
            std::ops::ControlFlow::Continue(())
        };
        let _ = u.for_each_computation_of_size(2, &mut f);
    }

    /// Asserts that two fixpoints kept exactly the same survivor sets,
    /// by scanning every pair of the universe.
    fn assert_same_survivors(a: &BoundedConstructible, b: &BoundedConstructible, u: &Universe) {
        assert_eq!(a.total_pairs(), b.total_pairs());
        assert_eq!(a.deleted, b.deleted, "deletion counts differ");
        for n in 0..=u.max_nodes {
            assert_eq!(a.pairs_of_size(n), b.pairs_of_size(n), "size {n} differs");
        }
        let _ = u.for_each_computation(|c| {
            let _ = for_each_observer(c, |phi| {
                assert_eq!(
                    a.contains(c, phi),
                    b.contains(c, phi),
                    "survivor sets differ at {c:?} {phi:?}"
                );
                ControlFlow::Continue(())
            });
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn worklist_matches_naive_fixpoint_for_nn() {
        // NN actually deletes at the 4-node bound (3-node prefixes die),
        // so this exercises the cascade, serial and multi-threaded.
        let u = Universe::new(4, 1);
        let naive = BoundedConstructible::compute(&Nn::default(), &u);
        for threads in [1, 4] {
            let cfg = crate::sweep::SweepConfig::with_threads(threads);
            let wl = BoundedConstructible::compute_worklist(&Nn::default(), &u, &cfg);
            assert_same_survivors(&naive, &wl, &u);
        }
    }

    #[test]
    fn worklist_matches_naive_for_constructible_models() {
        let u = Universe::new(3, 1);
        let cfg = crate::sweep::SweepConfig::with_threads(2);
        for_each_model_pair(&u, &cfg);
        // Two locations as well — locations interact with the restriction
        // in `augmentation_parent`.
        let u2 = Universe::new(3, 2);
        let naive = BoundedConstructible::compute(&Lc, &u2);
        let wl = BoundedConstructible::compute_worklist(&Lc, &u2, &cfg);
        assert_same_survivors(&naive, &wl, &u2);
    }

    fn for_each_model_pair(u: &Universe, cfg: &crate::sweep::SweepConfig) {
        let naive_lc = BoundedConstructible::compute(&Lc, u);
        let wl_lc = BoundedConstructible::compute_worklist(&Lc, u, cfg);
        assert_same_survivors(&naive_lc, &wl_lc, u);
        assert_eq!(wl_lc.deleted, 0);
        assert_eq!(wl_lc.passes, 1, "constructible model: no cascade rounds");
        let naive_sc = BoundedConstructible::compute(&Sc, u);
        let wl_sc = BoundedConstructible::compute_worklist(&Sc, u, cfg);
        assert_same_survivors(&naive_sc, &wl_sc, u);
    }

    #[test]
    fn fixpoint_quarantine_degrades_instead_of_aborting() {
        // A persistent panic in one initial-pass check must not abort the
        // fixpoint: the computation is quarantined (pairs kept) and the
        // result stays a sound over-approximation.
        let u = Universe::new(4, 1);
        let cfg = crate::sweep::SweepConfig::with_threads(2);
        let naive = BoundedConstructible::compute(&Nn::default(), &u);
        let fault = FaultPlan::none().panic_at_fixpoint(0);
        let fix =
            BoundedConstructible::compute_worklist_supervised(&Nn::default(), &u, &cfg, &fault);
        assert_eq!(fix.quarantined.len(), 1);
        assert_eq!(fix.quarantined[0].task_idx, 0);
        assert!(fix.quarantined[0].payload.contains("fixpoint check 0"));
        // Conservative keep: never fewer survivors than the clean run,
        // and every survivor is still in the model.
        assert!(fix.total_pairs() >= naive.total_pairs());
        for (c, phi) in fix.iter() {
            assert!(Nn::default().contains(c, phi), "quarantine broke fixpoint ⊆ NN");
        }
    }

    #[test]
    fn fixpoint_transient_fault_heals_identically() {
        // A once-fault is healed by the serial retry: the result must be
        // bit-identical to the undisturbed fixpoint, with nothing
        // quarantined.
        let u = Universe::new(4, 1);
        let cfg = crate::sweep::SweepConfig::with_threads(2);
        let naive = BoundedConstructible::compute(&Nn::default(), &u);
        let fault = FaultPlan::none().panic_once_at_fixpoint(1);
        let fix =
            BoundedConstructible::compute_worklist_supervised(&Nn::default(), &u, &cfg, &fault);
        assert!(fix.quarantined.is_empty());
        assert_same_survivors(&naive, &fix, &u);
    }

    #[test]
    fn augmentation_parent_inverts_augment() {
        use crate::op::{Location, Op};
        let c = Computation::from_edges(
            2,
            &[(0, 1)],
            vec![Op::Write(Location::new(0)), Op::Read(Location::new(0))],
        );
        for phi in crate::enumerate::all_observers(&c) {
            for o in [Op::Nop, Op::Write(Location::new(1))] {
                let aug = c.augment(o);
                // Any extension of phi onto aug must restrict back to
                // exactly (c, phi).
                any_extension(&aug, &phi, |psi| {
                    let (parent, pphi) =
                        augmentation_parent(&aug, psi).expect("aug is an augmentation");
                    assert_eq!(parent, c);
                    assert_eq!(pphi, phi);
                    false // keep enumerating
                });
            }
        }
        // A non-augmentation (final node incomparable to node 0) has no
        // augmentation parent.
        let fork = Computation::from_edges(2, &[], vec![Op::Nop, Op::Nop]);
        let psi = ObserverFunction::base(&fork);
        assert!(augmentation_parent(&fork, &psi).is_none());
        // The empty computation has none either.
        let empty = Computation::empty();
        assert!(augmentation_parent(&empty, &ObserverFunction::empty()).is_none());
    }

    #[test]
    fn nn_fixpoint_actually_deletes() {
        // NN is not constructible, so the fixpoint must remove pairs
        // (the size-4 crossing pairs of Figure 4 are below a 5-node
        // boundary only when max_nodes = 5; at max_nodes = 4 deletions
        // happen at size 3 or smaller — verify *some* deletion occurs at
        // the 5-node bound).
        let u = Universe::new(5, 1);
        let fix = BoundedConstructible::compute(&Nn::new(), &u);
        assert!(fix.deleted > 0, "NN fixpoint deleted nothing");
        assert!(fix.passes >= 2);
    }
}
