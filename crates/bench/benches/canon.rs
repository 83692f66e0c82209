//! Benchmarks the symmetry-reduced sweep against the labelled sweep it
//! shadows, and the reusable-scratch checker kernels against the
//! allocate-per-pair path they replace.
//!
//! `canon_sweep` isolates the enumeration win (canonical posets ×
//! location-canonical labellings vs every labelled computation) on the
//! same membership workload; `canon_scratch` isolates the allocation win
//! (one `CheckScratch` reused across every pair vs fresh checker state
//! per call) on a fixed pair set. Both run single-threaded so the ratios
//! are engine ratios, not scheduling artifacts.

use ccmm_core::enumerate::for_each_observer;
use ccmm_core::sweep::supervisor::{self, sweep_supervised, Scalar, Supervisor};
use ccmm_core::sweep::SweepConfig;
use ccmm_core::universe::Universe;
use ccmm_core::{MemoryModel, Model};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::ops::ControlFlow;

const MODELS: [Model; 6] = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];

/// Weighted membership counts over the universe — the `ccmm sweep`
/// phase-1 workload.
fn memberships(u: &Universe, cfg: &SweepConfig) -> u64 {
    supervisor::memberships(Scalar, &MODELS, u, cfg, &Supervisor::none(), None, None)
        .expect_complete("bench memberships sweep")
        .per_model
        .iter()
        .sum()
}

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("canon_sweep");
    group.sample_size(10);
    for (nodes, locs) in [(4usize, 1usize), (4, 2)] {
        let u = Universe::new(nodes, locs);
        let id = format!("{nodes}n{locs}l");
        group.bench_function(BenchmarkId::new("labelled", &id), |b| {
            let cfg = SweepConfig::serial();
            b.iter(|| black_box(memberships(&u, &cfg)))
        });
        group.bench_function(BenchmarkId::new("canonical", &id), |b| {
            let cfg = SweepConfig::serial().canonical(true);
            b.iter(|| black_box(memberships(&u, &cfg)))
        });
    }
    group.finish();
}

fn bench_scratch(c: &mut Criterion) {
    let mut group = c.benchmark_group("canon_scratch");
    group.sample_size(10);
    let u = Universe::new(4, 1);
    let cfg = SweepConfig::serial();
    group.bench_function("alloc_per_pair", |b| {
        b.iter(|| {
            let n: u64 = sweep_supervised(
                &u,
                &cfg,
                &Supervisor::none(),
                None,
                None,
                || 0u64,
                || (),
                |acc, _, _, c, _| {
                    let _ = for_each_observer(c, |phi| {
                        for m in &MODELS {
                            *acc += m.contains(c, phi) as u64;
                        }
                        ControlFlow::Continue(())
                    });
                },
            )
            .expect_complete("bench alloc sweep");
            black_box(n)
        })
    });
    group.bench_function("reused_scratch", |b| b.iter(|| black_box(memberships(&u, &cfg))));
    group.finish();
}

criterion_group!(benches, bench_enumeration, bench_scratch);
criterion_main!(benches);
