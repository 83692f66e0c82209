//! Benchmarks the bit-parallel lane engine against the scalar-scratch
//! membership path it accelerates: the same six-model weighted
//! membership workload, decided one `(C, Φ)` pair at a time
//! (`contains_with` + reused `CheckScratch`) vs 64 observers per `u64`
//! lane word (`contains_lanes` + `LanePack`). Both run single-threaded
//! over the canonical enumeration so the ratio is a kernel ratio, not a
//! scheduling artifact — this is the reproducible form of the ≥4×
//! speedup claim behind `ccmm sweep --engine lane64`.

use ccmm_core::constructible::lanes::LaneConstructible;
use ccmm_core::constructible::BoundedConstructible;
use ccmm_core::model::Nn;
use ccmm_core::sweep::supervisor::{memberships, Kernel, Lane64, Scalar, Supervisor};
use ccmm_core::sweep::SweepConfig;
use ccmm_core::universe::Universe;
use ccmm_core::Model;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const MODELS: [Model; 6] = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];

/// The `ccmm sweep` phase-1 workload through `kernel`: total weighted
/// memberships over the six models.
fn memberships_with<K: Kernel>(kernel: K, u: &Universe, cfg: &SweepConfig) -> u64 {
    memberships(kernel, &MODELS, u, cfg, &Supervisor::none(), None, None)
        .expect_complete("bench memberships")
        .per_model
        .iter()
        .sum()
}

fn bench_lane_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("lane_engine");
    group.sample_size(10);
    for (nodes, locs) in [(4usize, 1usize), (4, 2), (5, 1)] {
        let u = Universe::new(nodes, locs);
        let cfg = SweepConfig::serial().canonical(true);
        let id = format!("{nodes}n{locs}l");
        let scalar = memberships_with(Scalar, &u, &cfg);
        let lane = memberships_with(Lane64, &u, &cfg);
        assert_eq!(scalar, lane, "engines disagree at {id}; the ratio would be meaningless");
        group.bench_function(BenchmarkId::new("scalar-scratch", &id), |b| {
            b.iter(|| black_box(memberships_with(Scalar, &u, &cfg)))
        });
        group.bench_function(BenchmarkId::new("lane64", &id), |b| {
            b.iter(|| black_box(memberships_with(Lane64, &u, &cfg)))
        });
    }
    group.finish();
}

/// The `ccmm sweep` phase-3 workload both ways: the scalar Δ* worklist
/// (hash-set survivor sets, one membership check per recheck) vs the
/// lane fixpoint (node-major survivor masks, 64-wide deltas). Both are
/// single-threaded end-to-end — Stage A plus the cascade — so the ratio
/// is the `--engine lane64` fixpoint claim in its reproducible form.
fn bench_lane_fixpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("lane_fixpoint");
    group.sample_size(10);
    for (nodes, locs) in [(4usize, 1usize), (4, 2), (5, 1)] {
        let u = Universe::new(nodes, locs);
        let cfg = SweepConfig::serial();
        let id = format!("{nodes}n{locs}l");
        let scalar = BoundedConstructible::compute_worklist(&Nn::default(), &u, &cfg);
        let lane = LaneConstructible::compute(&Nn::default(), &u, &cfg);
        assert_eq!(
            (scalar.total_pairs(), scalar.deleted),
            (lane.total_pairs(), lane.deleted),
            "engines disagree at {id}; the ratio would be meaningless"
        );
        group.bench_function(BenchmarkId::new("worklist", &id), |b| {
            b.iter(|| {
                black_box(BoundedConstructible::compute_worklist(&Nn::default(), &u, &cfg))
                    .total_pairs()
            })
        });
        group.bench_function(BenchmarkId::new("lane64", &id), |b| {
            b.iter(|| black_box(LaneConstructible::compute(&Nn::default(), &u, &cfg)).total_pairs())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lane_engine, bench_lane_fixpoint);
criterion_main!(benches);
