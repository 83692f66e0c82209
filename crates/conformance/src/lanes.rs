//! Lane-engine conformance: pins `contains_lanes` ≡ 64 × `contains_with`.
//!
//! The lane kernels ([`ccmm_core::model::lane`]) answer 64 membership
//! questions per call; this module proves the verdict masks agree bit-for
//! bit with the scalar checkers over two sources:
//!
//! * **exhaustive** — every `(C, Φ)` pair of the bounded universe, packed
//!   in enumeration order exactly as the lane sweep packs them, including
//!   the underfull tail word of each computation; and
//! * **random** — seeded random computations with a random number of
//!   lanes (1..=64) occupied, so partial packings, invalid observers, and
//!   stale bytes left by a previous flush are all exercised.
//!
//! Verdicts are compared against the *pushed* observer (not the lane's
//! decoded one): an invalid observer is not representable in the pack's
//! write-index encoding, and the contract is that such lanes answer
//! "not a member" — exactly what the scalar checker says about the
//! original Φ.

use crate::sources::{random_computation, random_observer};
use ccmm_core::enumerate::for_each_observer;
use ccmm_core::model::{CheckScratch, LanePack, LaneScratch, LANES};
use ccmm_core::sweep::supervisor::{sweep_supervised, Merge, Supervisor};
use ccmm_core::telemetry::{self, Counter};
use ccmm_core::universe::Universe;
use ccmm_core::{Computation, MemoryModel, Model, ObserverFunction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::ops::ControlFlow;

use crate::harness::HarnessConfig;

/// One lane verdict that disagrees with its scalar twin.
#[derive(Clone, Debug)]
pub struct LaneMismatch {
    /// The model whose lane kernel split from its scalar checker.
    pub model: Model,
    /// `"exhaustive"` or `"random"`.
    pub source: &'static str,
    /// The computation the pack was prepared for.
    pub c: Computation,
    /// The observer that was pushed into the disagreeing lane.
    pub phi: ObserverFunction,
    /// The lane index within its word.
    pub lane: usize,
    /// What the lane kernel said.
    pub lane_verdict: bool,
    /// What the scalar checker said.
    pub scalar_verdict: bool,
}

impl fmt::Display for LaneMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} lane {}: lane says {}, scalar says {} on C={:?} phi={:?}",
            self.source,
            self.model,
            self.lane,
            self.lane_verdict,
            self.scalar_verdict,
            self.c,
            self.phi
        )
    }
}

/// What a lane differential run saw.
#[derive(Clone, Debug, Default)]
pub struct LaneReport {
    /// Lane words evaluated (per model-set, i.e. flushes).
    pub words: u64,
    /// Individual lane-vs-scalar verdict comparisons (lanes × models).
    pub verdicts: u64,
    /// Disagreements, in discovery order.
    pub mismatches: Vec<LaneMismatch>,
}

impl LaneReport {
    /// True iff every lane verdict matched its scalar twin.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl Merge for LaneReport {
    fn merge(&mut self, other: Self) {
        self.words += other.words;
        self.verdicts += other.verdicts;
        self.mismatches.extend(other.mismatches);
    }
}

/// Compares every (model, occupied lane) verdict of one packed word
/// against the scalar checker on the observer that was pushed there.
fn check_word(
    rep: &mut LaneReport,
    source: &'static str,
    c: &Computation,
    origs: &[ObserverFunction],
    pack: &LanePack,
    lanes: &mut LaneScratch,
    check: &mut CheckScratch,
) {
    debug_assert_eq!(pack.used().count_ones() as usize, origs.len());
    rep.words += 1;
    for m in Model::ALL {
        let verdict = m.contains_lanes(c, pack, lanes);
        for (lane, phi) in origs.iter().enumerate() {
            let lane_verdict = verdict >> lane & 1 == 1;
            let scalar_verdict = m.contains_with(c, phi, check);
            telemetry::count(Counter::ConformanceChecks, 1);
            rep.verdicts += 1;
            if lane_verdict != scalar_verdict {
                rep.mismatches.push(LaneMismatch {
                    model: m,
                    source,
                    c: c.clone(),
                    phi: phi.clone(),
                    lane,
                    lane_verdict,
                    scalar_verdict,
                });
            }
        }
    }
}

/// Runs the lane differential: the exhaustive bounded sweep plus seeded
/// random partial packings, reusing the harness's bound/seed/thread
/// configuration.
pub fn run_lanes(cfg: &HarnessConfig) -> LaneReport {
    let u = Universe::new(cfg.max_nodes, cfg.num_locations);
    let mut report = sweep_supervised(
        &u,
        &cfg.sweep,
        &Supervisor::none(),
        None,
        None,
        LaneReport::default,
        || (LanePack::new(), LaneScratch::new(), CheckScratch::new(), Vec::new()),
        |rep, xs, _, c, _| {
            let (pack, lanes, check, origs) = xs;
            pack.prepare(c);
            origs.clear();
            let _ = for_each_observer(c, |phi| {
                pack.push(c, phi);
                origs.push(phi.clone());
                if pack.is_full() {
                    check_word(rep, "exhaustive", c, origs, pack, lanes, check);
                    pack.clear_lanes();
                    origs.clear();
                }
                ControlFlow::Continue(())
            });
            if !pack.is_empty() {
                check_word(rep, "exhaustive", c, origs, pack, lanes, check);
                pack.clear_lanes();
                origs.clear();
            }
        },
    )
    .expect_complete("lane conformance sweep");

    // Random partial packings: a fresh computation per case, 1..=64 lanes
    // occupied, no zeroing between cases — stale bytes from the previous
    // word must stay unobservable.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4c41_4e45); // ^ "LANE"
    let mut pack = LanePack::new();
    let mut lanes = LaneScratch::new();
    let mut check = CheckScratch::new();
    for _ in 0..cfg.random_cases {
        let c = random_computation(&mut rng, cfg.max_random_nodes, cfg.random_locations);
        pack.prepare(&c);
        let k = rng.gen_range(1..=LANES);
        let mut origs = Vec::with_capacity(k);
        for _ in 0..k {
            let phi = random_observer(&mut rng, &c);
            pack.push(&c, &phi);
            origs.push(phi);
        }
        check_word(&mut report, "random", &c, &origs, &pack, &mut lanes, &mut check);
        pack.clear_lanes();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_differential_is_clean_at_bound_3() {
        let cfg = HarnessConfig {
            max_nodes: 3,
            random_cases: 48,
            harvest: false,
            lock_cases: 0,
            ..HarnessConfig::default()
        };
        let rep = run_lanes(&cfg);
        for m in &rep.mismatches {
            eprintln!("{m}");
        }
        assert!(rep.ok(), "{} lane mismatches", rep.mismatches.len());
        assert!(rep.words > 0 && rep.verdicts > 0);
        // Underfull tails and the 7-model panel are both covered.
        assert!(rep.verdicts >= rep.words * Model::ALL.len() as u64);
    }
}
