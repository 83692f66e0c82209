//! `sweep-b5l2`: reference facts for checking `ccmm sweep` output, and the
//! layer-traced in-process replica of the same four phases plus a
//! single-threaded memberships pass split into enumeration, closure,
//! lane packing and per-model kernels.

use crate::trace::{process_cpu_seconds, Metrics, Tracer};
use ccmm::core::constructible::lanes::LaneConstructible;
use ccmm::core::enumerate::for_each_observer;
use ccmm::core::sweep::supervisor::{
    check_constructible_aug_lanes_supervised, lattice_lanes_supervised,
    memberships_lanes_supervised, Supervisor,
};
use ccmm::core::sweep::SweepConfig;
use ccmm::core::telemetry::{self, Counter};
use ccmm::core::universe::Universe;
use ccmm::core::{Computation, LanePack, LaneScratch, MemoryModel, Model, Nn, Op};
use ccmm::dag::canon::{count_canonical_posets, for_each_canonical_poset};
use ccmm::dag::poset::count_posets_fast;
use std::ops::ControlFlow;
use std::time::Instant;

const MODELS: [Model; 6] = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];

/// Supervised tasks one `ccmm sweep --canonical --engine lane64` run
/// schedules: memberships and each of the 36 lattice cells over the
/// canonical posets, the fixpoint's labelled stage A, and six
/// constructibility scans one size down.
fn sweep_tasks(bound: usize) -> u64 {
    let canon = |b: usize| (0..=b).map(|n| count_canonical_posets(n) as u64).sum::<u64>();
    let labelled: u64 = (0..=bound).map(count_posets_fast).sum();
    37 * canon(bound) + labelled + 6 * canon(bound.saturating_sub(1))
}

/// `{"computations": …, "tasks": …}` for a universe, from the library.
pub fn facts(bound: usize, locs: usize) -> String {
    format!(
        "{{\"computations\":{},\"tasks\":{}}}",
        Universe::new(bound, locs).count_computations_closed(),
        sweep_tasks(bound)
    )
}

fn counter(snap: &[u64], c: Counter) -> u64 {
    snap[c as usize]
}

/// Runs the traced replica and returns `(metrics, answers JSON)`.
pub fn traced(bound: usize, locs: usize, threads: usize, tr: &mut Tracer) -> (Metrics, String) {
    let mut m = Metrics::default();
    let cfg = SweepConfig::with_threads(threads).canonical(true);
    let sup = Supervisor::none();
    tr.begin("bench.job", 0);
    let (u, computations) = tr.span("core.universe", 0, |_| {
        let u = Universe::new(bound, locs);
        let n = u.count_computations_closed();
        (u, n)
    });
    telemetry::set_enabled(true);
    let _ = telemetry::snapshot_and_reset();
    let phase =
        |tr: &mut Tracer, name: &'static str, key: &str, m: &mut Metrics, f: &mut dyn FnMut()| {
            let cpu0 = process_cpu_seconds();
            let t0 = Instant::now();
            tr.span(name, 0, |_| f());
            let wall = t0.elapsed().as_secs_f64();
            let cpu = process_cpu_seconds() - cpu0;
            m.set(format!("sweep.{key}_s"), wall);
            m.set(format!("sweep.busy_share.{key}"), cpu / (wall * threads as f64).max(1e-9));
            telemetry::snapshot_and_reset()
        };
    let mut members = None;
    let snap_m = phase(tr, "sweep.memberships", "memberships", &mut m, &mut || {
        members = Some(memberships_lanes_supervised(&MODELS, &u, &cfg, &sup, None, None));
    });
    let mut lattice = None;
    let snap_l = phase(tr, "sweep.lattice", "lattice", &mut m, &mut || {
        lattice = Some(lattice_lanes_supervised(&MODELS, &u, &cfg, &sup));
    });
    let mut fix = None;
    let snap_f = phase(tr, "sweep.fixpoint", "fixpoint", &mut m, &mut || {
        fix = Some(LaneConstructible::compute_supervised(
            &Nn::default(),
            &u,
            &cfg,
            &sup,
            None,
            None,
            true,
        ));
    });
    let mut cons = Vec::new();
    let snap_c = phase(tr, "sweep.constructibility", "constructibility", &mut m, &mut || {
        for model in &MODELS {
            cons.push(check_constructible_aug_lanes_supervised(model, &u, &cfg, &sup));
        }
    });
    telemetry::set_enabled(false);
    tr.end("bench.job");

    let members = members.expect("memberships ran");
    let lattice = lattice.expect("lattice ran");
    let fix = fix.expect("fixpoint ran");
    let sc_checks = |s: &[u64]| counter(s, Counter::PhiChecksSc) as f64;
    m.set("sweep.lattice_recheck_ratio", sc_checks(&snap_l) / sc_checks(&snap_m).max(1.0));
    let (hits, misses) = [snap_m, snap_l, snap_f, snap_c].iter().fold((0, 0), |(h, x), s| {
        (h + counter(s, Counter::ScMemoHits), x + counter(s, Counter::ScMemoMisses))
    });
    m.set("model.sc_memo_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    m.set("constructible.fixpoint_words", counter(&snap_f, Counter::LaneFixpointWords) as f64);
    m.set("constructible.deletions_masked", counter(&snap_f, Counter::LaneDeletionsMasked) as f64);
    m.set("constructible.survivor_pop", counter(&snap_f, Counter::LaneSurvivorPop) as f64);

    let breakdown = tr.span("bench.extra", 0, |tr| breakdown_pass(&u, tr));
    let selfs = tr.self_seconds();
    for (name, secs) in [
        ("dag.canon_enum_s", "dag.canon_enum"),
        ("dag.closure_s", "dag.closure"),
        ("model.lane_pack_s", "model.lane_pack"),
        ("model.lane_kernel_s.sc", "model.lane_kernel.sc"),
        ("model.lane_kernel_s.lc", "model.lane_kernel.lc"),
        ("model.lane_kernel_s.qdag", "model.lane_kernel.qdag"),
    ] {
        m.set(name, selfs.get(secs).copied().unwrap_or(0.0));
    }

    let quarantined = members.quarantined.len()
        + lattice.quarantined.len()
        + fix.quarantined.len()
        + cons.iter().map(|c| c.quarantined.len()).sum::<usize>();
    let tasks = members.total_tasks
        + lattice.total_tasks
        + fix.total_tasks
        + cons.iter().map(|c| c.total_tasks).sum::<usize>();
    let rows: Vec<String> = lattice
        .value
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.relations.iter().map(|x| format!("\"{x}\"")).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    let constructible: Vec<String> = cons.iter().map(|c| c.value.is_none().to_string()).collect();
    let per_model: Vec<String> = members.value.per_model.iter().map(u64::to_string).collect();
    let answers = format!(
        "{{\"computations\":{computations},\"pairs\":{},\"per_model\":[{}],\"lattice\":[{}],\
         \"survivors\":{},\"deleted\":{},\"constructible\":[{}],\"quarantined\":{quarantined},\
         \"tasks\":{tasks},\"breakdown_pairs\":{},\"breakdown_per_model\":[{}],\"sc_memo_lookups\":{},\
         \"memberships_sc_checks\":{},\"lattice_sc_checks\":{}}}",
        members.value.pairs,
        per_model.join(","),
        rows.join(","),
        fix.value.total_pairs(),
        fix.value.deleted,
        constructible.join(","),
        breakdown.0,
        breakdown.1.iter().map(u64::to_string).collect::<Vec<_>>().join(","),
        hits + misses,
        sc_checks(&snap_m),
        sc_checks(&snap_l),
    );
    (m, answers)
}

/// Single-threaded memberships pass over the canonical posets and every
/// op labelling, timed per labelling: poset enumeration and
/// canonicalisation (`for_each_canonical_poset`), the closure rebuild
/// (`Computation::new`), observer enumeration into lane packs
/// (`LanePack::push_valid`), and the `contains_lanes` kernels. Returns the
/// weighted pair total and per-model member counts, which must equal the
/// memberships phase's.
fn breakdown_pass(u: &Universe, tr: &mut Tracer) -> (u64, [u64; 6]) {
    let alphabet = u.alphabet();
    let k = alphabet.len();
    let mut pairs = 0u64;
    let mut per_model = [0u64; 6];
    // One scratch per pack: a `LaneScratch` caches LC results keyed by its
    // pack's generation counter, which is only unique within one pack.
    let mut packs: Vec<(LanePack, LaneScratch)> = vec![(LanePack::new(), LaneScratch::new())];
    let mut ops: Vec<Op> = Vec::new();
    let mut digits: Vec<usize> = Vec::new();
    for n in 0..=u.max_nodes {
        tr.begin("dag.canon_enum", n as u64);
        let a_label = tr.accum("core.sweep.labelling");
        let a_closure = tr.accum("dag.closure");
        let a_pack = tr.accum("model.lane_pack");
        let a_sc = tr.accum("model.lane_kernel.sc");
        let a_lc = tr.accum("model.lane_kernel.lc");
        let a_qdag = tr.accum("model.lane_kernel.qdag");
        for_each_canonical_poset(n, |_, dag, info| {
            let w = info.orbit;
            digits.clear();
            digits.resize(n, 0);
            loop {
                let t0 = Instant::now();
                ops.clear();
                ops.extend(digits.iter().map(|&d| alphabet[d]));
                let t1 = Instant::now();
                let c = Computation::new(dag.clone(), ops.clone()).expect("one op per node");
                let t2 = Instant::now();
                let mut used = 0usize;
                packs[0].0.prepare(&c);
                let _ = for_each_observer(&c, |phi| {
                    if packs[used].0.is_full() {
                        used += 1;
                        if packs.len() == used {
                            packs.push((LanePack::new(), LaneScratch::new()));
                        }
                        packs[used].0.prepare(&c);
                    }
                    packs[used].0.push_valid(&c, phi);
                    ControlFlow::Continue(())
                });
                let t3 = Instant::now();
                tr.add(a_label, t0, t1);
                tr.add(a_closure, t1, t2);
                tr.add(a_pack, t2, t3);
                for (pack, scratch) in &mut packs[..=used] {
                    let mask = pack.used();
                    pairs += w * u64::from(mask.count_ones());
                    let ta = Instant::now();
                    let v = MODELS[0].contains_lanes(&c, pack, scratch) & mask;
                    per_model[0] += w * u64::from(v.count_ones());
                    let tb = Instant::now();
                    let v = MODELS[1].contains_lanes(&c, pack, scratch) & mask;
                    per_model[1] += w * u64::from(v.count_ones());
                    let tc = Instant::now();
                    for (i, model) in MODELS.iter().enumerate().skip(2) {
                        let v = model.contains_lanes(&c, pack, scratch) & mask;
                        per_model[i] += w * u64::from(v.count_ones());
                    }
                    let td = Instant::now();
                    tr.add(a_sc, ta, tb);
                    tr.add(a_lc, tb, tc);
                    tr.add(a_qdag, tc, td);
                }
                // Base-k digit counter, digit 0 fastest.
                let mut i = 0;
                while i < n {
                    digits[i] += 1;
                    if digits[i] < k {
                        break;
                    }
                    digits[i] = 0;
                    i += 1;
                }
                if i == n {
                    break;
                }
            }
        });
        tr.end("dag.canon_enum");
    }
    (pairs, per_model)
}
