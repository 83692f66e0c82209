//! `watch-fib` / `watch-stencil`: the layer-traced in-process replica of
//! `ccmm watch` (default configuration). The runner and the checker are
//! timed in alternating chunks of [`CHUNK`] nodes — the runner's steps are
//! buffered, then committed — so clock reads stay off the per-node path.

use crate::trace::{rss_mib, Metrics, Tracer};
use ccmm::backer::{BackerConfig, StreamRunner};
use ccmm::cilk::RawTrace;
use ccmm::core::last_writer::last_writer_function;
use ccmm::core::model::CheckScratch;
use ccmm::core::sweep::supervisor::Frontier;
use ccmm::core::{Computation, Lc, MemoryModel, Sc, StreamChecker};
use ccmm::dag::NodeId;
use ccmm::watch::{parse_trace_workload, WatchConfig};
use std::time::Instant;

const CHUNK: usize = 4096;

/// The batch cross-check `ccmm watch` runs on sampled prefixes: densify
/// the first `k` nodes, complete the streamed observations with the
/// commit-order last-writer function, and run the exact checkers.
fn batch_prefix_verdicts(trace: &RawTrace, obs: &[Option<NodeId>], k: usize) -> (bool, bool, bool) {
    let mut edges = Vec::new();
    for v in 0..k {
        for &p in trace.dag.predecessors(NodeId::new(v)) {
            edges.push((p.index(), v));
        }
    }
    let c = Computation::from_edges(k, &edges, trace.ops[..k].to_vec());
    let order: Vec<NodeId> = (0..k).map(NodeId::new).collect();
    let mut phi = last_writer_function(&c, &order);
    for (v, &o) in obs.iter().enumerate().take(k) {
        if let Some(l) = trace.ops[v].location() {
            phi.set(l, NodeId::new(v), o);
        }
    }
    let valid = phi.is_valid_for(&c);
    let mut scratch = CheckScratch::new();
    let sc = valid && Sc.contains_with(&c, &phi, &mut scratch);
    let lc = valid && Lc.contains_with(&c, &phi, &mut scratch);
    (valid, sc, lc)
}

/// Runs the traced replica and returns `(metrics, answers JSON)`.
pub fn traced(spec: &str, tr: &mut Tracer) -> Result<(Metrics, String), String> {
    let mut m = Metrics::default();
    let cfg = WatchConfig::new(spec);
    tr.begin("bench.job", 0);
    let trace = tr.span("cilk.harvest", 0, |_| parse_trace_workload(spec))?;
    m.set("watch.rss_after_harvest_mb", rss_mib());
    let total = trace.node_count();
    let sp = tr.span("dag.sp_order", 0, |_| trace.sp_order());
    let mut checker =
        tr.span("core.stream.init", 0, |_| StreamChecker::new(sp, trace.num_locations));
    let mut runner = tr.span("backer.stream.init", 0, |_| {
        let backer = BackerConfig::with_processors(cfg.procs)
            .cache_capacity(cfg.cache_lines)
            .faults(cfg.faults);
        StreamRunner::new(trace.num_locations, &backer, cfg.block)
    });

    let mut obs_buf: Vec<Option<NodeId>> = Vec::with_capacity(cfg.sample_cap.min(total));
    let (mut samples, mut divergences) = (0u64, 0u64);
    let mut buf = Vec::with_capacity(CHUNK);
    tr.begin("watch.stream", 0);
    let a_step = tr.accum("backer.stream.step");
    let a_commit = tr.accum("core.stream.commit");
    let a_sample = tr.accum("watch.sample");
    let mut committed = 0usize;
    loop {
        // The sampled prefix runs node by node so each sample sees the
        // checker exactly at its prefix; the rest runs in chunks.
        let want = if committed < cfg.sample_cap { 1 } else { CHUNK };
        let t0 = Instant::now();
        buf.clear();
        while buf.len() < want {
            match runner.step(&trace.dag, &trace.ops) {
                Some(x) => buf.push(x),
                None => break,
            }
        }
        let t1 = Instant::now();
        for &(u, op, observed) in &buf {
            checker.commit(u, op, observed);
            if u.index() < cfg.sample_cap {
                obs_buf.push(observed);
            }
        }
        let t2 = Instant::now();
        tr.add(a_step, t0, t1);
        tr.add(a_commit, t1, t2);
        if buf.is_empty() {
            break;
        }
        committed += buf.len();
        let k = committed;
        if k <= cfg.sample_cap && k.is_multiple_of(cfg.sample_every) {
            let v = checker.verdicts();
            let batch = batch_prefix_verdicts(&trace, &obs_buf, k);
            samples += 1;
            divergences += u64::from((v.valid, v.sc, v.lc) != batch);
            tr.add(a_sample, t2, Instant::now());
        }
    }
    tr.end("watch.stream");
    let position = runner.position();
    tr.span("watch.frontier", 0, |_| {
        let mut frontier = Frontier::new();
        for i in 0..position {
            frontier.insert(i);
        }
        std::hint::black_box(frontier.len());
    });
    let v = checker.verdicts();
    let stats = runner.stats();
    tr.span("core.stream.drop", 0, |_| drop(checker));
    tr.span("backer.stream.drop", 0, |_| drop(runner));
    tr.span("cilk.drop", 0, |_| drop(trace));
    tr.end("bench.job");

    let selfs = tr.self_seconds();
    let get = |k: &str| selfs.get(k).copied().unwrap_or(0.0);
    m.set("cilk.harvest_s", get("cilk.harvest"));
    m.set("dag.sp_order_s", get("dag.sp_order"));
    m.set("backer.stream.step_s", get("backer.stream.step"));
    m.set("core.stream.commit_s", get("core.stream.commit"));
    m.set("watch.sample_s", get("watch.sample"));
    m.set("watch.reveals_per_s", position as f64 / tr.total_seconds("watch.stream").max(1e-9));
    m.set("backer.fetches", stats.fetches as f64);
    m.set("backer.reconciles", stats.reconciles as f64);
    m.set("backer.flushes", stats.flushes as f64);
    m.set("backer.evictions", stats.evictions as f64);
    let answers = format!(
        "{{\"nodes\":{total},\"streamed\":{position},\"valid\":{},\"sc\":{},\"lc\":{},\
         \"violations\":{},\"samples\":{samples},\"divergences\":{divergences}}}",
        v.valid,
        v.sc,
        v.lc,
        v.validity_violations + v.sc_violations + v.lc_violations
    );
    Ok((m, answers))
}
