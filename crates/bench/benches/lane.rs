//! Benchmarks the bit-parallel lane engine against the scalar-scratch
//! membership path it accelerates: the same six-model weighted
//! membership workload, decided one `(C, Φ)` pair at a time
//! (`contains_with` + reused `CheckScratch`) vs 64 observers per `u64`
//! lane word (`contains_lanes` + `LanePack`). Both run single-threaded
//! over the canonical enumeration so the ratio is a kernel ratio, not a
//! scheduling artifact — this is the reproducible form of the ≥4×
//! speedup claim behind `ccmm sweep --engine lane64`.

use ccmm_core::constructible::lanes::LaneConstructible;
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

/// The `ccmm sweep` phase-3 workload through both kernels of the Δ*
/// fixpoint: `Scalar` (one `contains_with` per observer, the default
/// engine) vs `Lane64` (64 observers per `contains_lanes` word,
/// `--engine lane64`). Census and cascade are shared, and both run
/// single-threaded end to end, so the ratio is a kernel ratio.
fn bench_lane_fixpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("lane_fixpoint");
    group.sample_size(10);
    let fixpoint = |u: &Universe, cfg: &SweepConfig, lanes: bool| {
        let none = Supervisor::none();
        LaneConstructible::compute_supervised(&Nn::default(), u, cfg, &none, None, None, lanes)
            .expect_complete("bench fixpoint")
    };
    for (nodes, locs) in [(4usize, 1usize), (4, 2), (5, 1)] {
        let u = Universe::new(nodes, locs);
        let cfg = SweepConfig::serial();
        let id = format!("{nodes}n{locs}l");
        let (scalar, lane) = (fixpoint(&u, &cfg, false), fixpoint(&u, &cfg, true));
        assert_eq!(
            (scalar.total_pairs(), scalar.deleted),
            (lane.total_pairs(), lane.deleted),
            "kernels disagree at {id}; the ratio would be meaningless"
        );
        group.bench_function(BenchmarkId::new("scalar-kernel", &id), |b| {
            b.iter(|| black_box(fixpoint(&u, &cfg, false)).total_pairs())
        });
        group.bench_function(BenchmarkId::new("lane64", &id), |b| {
            b.iter(|| black_box(fixpoint(&u, &cfg, true)).total_pairs())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lane_engine, bench_lane_fixpoint);
criterion_main!(benches);
