//! Ignored perf probe: per-model scalar vs lane timing. Run with
//! `cargo test -p ccmm-core --release --test lane_perf -- --ignored --nocapture`.

use ccmm_core::sweep::supervisor::{memberships, Kernel, Lane64, Scalar, Supervisor};
use ccmm_core::sweep::SweepConfig;
use ccmm_core::universe::Universe;
use ccmm_core::Model;
use std::time::Instant;

fn total<K: Kernel>(kernel: K, u: &Universe, cfg: &SweepConfig, models: &[Model]) -> u64 {
    memberships(kernel, models, u, cfg, &Supervisor::none(), None, None)
        .expect_complete("memberships")
        .per_model
        .iter()
        .sum()
}

fn scalar(u: &Universe, cfg: &SweepConfig, models: &[Model]) -> u64 {
    total(Scalar, u, cfg, models)
}

fn lanes(u: &Universe, cfg: &SweepConfig, models: &[Model]) -> u64 {
    total(Lane64, u, cfg, models)
}

#[test]
#[ignore]
fn per_model_timing() {
    let u = Universe::new(5, 1);
    let cfg = SweepConfig::serial().canonical(true);
    for m in [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww] {
        let t = Instant::now();
        let s = scalar(&u, &cfg, &[m]);
        let ts = t.elapsed();
        let t = Instant::now();
        let l = lanes(&u, &cfg, &[m]);
        let tl = t.elapsed();
        assert_eq!(s, l);
        println!(
            "{:<4} scalar {:>8.2?}  lane {:>8.2?}  speedup {:.2}x",
            m.name(),
            ts,
            tl,
            ts.as_secs_f64() / tl.as_secs_f64()
        );
    }
    // Shared enumeration cost vs pure pack overhead: no models at all.
    let t = Instant::now();
    let s = scalar(&u, &cfg, &[]);
    println!("enumeration-only:   {:?} (sum {s})", t.elapsed());
    let t = Instant::now();
    let l = lanes(&u, &cfg, &[]);
    println!("pack-only overhead: {:?} (sum {l})", t.elapsed());
    let all = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];
    let t = Instant::now();
    let s = scalar(&u, &cfg, &all);
    let ts = t.elapsed();
    let t = Instant::now();
    let l = lanes(&u, &cfg, &all);
    let tl = t.elapsed();
    assert_eq!(s, l);
    println!(
        "ALL  scalar {ts:>8.2?}  lane {tl:>8.2?}  speedup {:.2}x",
        ts.as_secs_f64() / tl.as_secs_f64()
    );
}
