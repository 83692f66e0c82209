//! `ccmm` — command-line front end to the computation-centric memory
//! model toolkit.
//!
//! ```text
//! ccmm models <computation-file> <observer-file>   memberships of a pair
//! ccmm check --model <m> <comp> <obs>              one membership, exit code
//! ccmm witness fig2|fig3|fig4                      the paper's figures
//! ccmm litmus [name]                               outcome tables per model
//! ccmm backer --workload fib:8 [--procs P] [--cache N] [--page B] [--runs K]
//! ccmm lattice [--nodes N]                         Figure 1 relation matrix
//! ccmm sweep [--bound N] [--canonical] [--gate]    exhaustive verification
//! ccmm conformance [--nodes N] [--self-test]       fast checkers vs oracles
//! ccmm serve [--addr A] [--fault SPEC]             membership query daemon
//! ccmm query --addr A --models <comp> <obs>        one query with retries
//! ccmm dot <computation-file>                      Graphviz export
//! ```
//!
//! Files use the text format of `ccmm_core::parse`; `-` reads stdin.

use ccmm::core::parse::{parse_computation, parse_observer, render_observer};
use ccmm::core::{Computation, Model};
use std::io::Read;
use std::process::ExitCode;

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).map_err(|e| format!("reading stdin: {e}"))?;
        Ok(s)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn model_by_name(name: &str) -> Result<Model, String> {
    match name.to_ascii_lowercase().as_str() {
        "sc" => Ok(Model::Sc),
        "lc" => Ok(Model::Lc),
        "nn" => Ok(Model::Nn),
        "nw" => Ok(Model::Nw),
        "wn" => Ok(Model::Wn),
        "ww" => Ok(Model::Ww),
        "any" => Ok(Model::Any),
        other => Err(format!("unknown model `{other}` (sc|lc|nn|nw|wn|ww|any)")),
    }
}

fn load_pair(
    cpath: &str,
    opath: &str,
) -> Result<(Computation, ccmm::core::ObserverFunction), String> {
    let c = parse_computation(&read_input(cpath)?).map_err(|e| e.to_string())?;
    let phi = parse_observer(&read_input(opath)?, &c).map_err(|e| e.to_string())?;
    Ok((c, phi))
}

fn cmd_models(args: &[String]) -> Result<(), String> {
    let [cpath, opath] = args else {
        return Err("usage: ccmm models <computation> <observer>".into());
    };
    let (c, phi) = load_pair(cpath, opath)?;
    println!("{c:?}");
    println!("{}", render_observer(&phi).trim_end());
    println!();
    for m in Model::ALL {
        println!("{:<4} {}", m.name(), if m.contains(&c, &phi) { "∈" } else { "∉" });
    }
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<bool, String> {
    let mut model = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--model" {
            let v = it.next().ok_or("--model needs a value")?;
            model = Some(model_by_name(v)?);
        } else {
            rest.push(a.clone());
        }
    }
    let model = model.ok_or("usage: ccmm check --model <m> <computation> <observer>")?;
    let [cpath, opath] = rest.as_slice() else {
        return Err("usage: ccmm check --model <m> <computation> <observer>".into());
    };
    let (c, phi) = load_pair(cpath, opath)?;
    let member = model.contains(&c, &phi);
    println!("{}: {}", model.name(), if member { "member" } else { "NOT a member" });
    Ok(member)
}

fn cmd_witness(args: &[String]) -> Result<(), String> {
    let which = args.first().map(String::as_str).unwrap_or("fig4");
    let w = match which {
        "fig2" => ccmm::core::witness::figure2(),
        "fig3" => ccmm::core::witness::figure3(),
        "fig4" => ccmm::core::witness::figure4_prefix(),
        other => return Err(format!("unknown witness `{other}` (fig2|fig3|fig4)")),
    };
    println!("# nodes: {}", w.names.join(", "));
    print!("{}", ccmm::core::parse::render_computation(&w.computation));
    println!("---");
    print!("{}", render_observer(&w.phi));
    println!("---");
    for m in Model::ALL {
        println!("{:<4} {}", m.name(), if m.contains(&w.computation, &w.phi) { "∈" } else { "∉" });
    }
    Ok(())
}

fn cmd_litmus(args: &[String]) -> Result<(), String> {
    let filter = args.first().map(String::as_str);
    let models = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];
    for t in ccmm::core::litmus::standard_tests() {
        if filter.is_some_and(|f| !t.name.eq_ignore_ascii_case(f)) {
            continue;
        }
        println!("=== {} ===", t.name);
        println!("{}", t.note);
        for m in models {
            let outs = t.outcomes(&m);
            println!("{:<4} {:>3} outcomes", m.name(), outs.len());
        }
        println!();
    }
    Ok(())
}

fn parse_workload(spec: &str) -> Result<Computation, String> {
    let (name, arg) = spec.split_once(':').unwrap_or((spec, ""));
    let k: usize = if arg.is_empty() { 8 } else { arg.parse().map_err(|_| "bad workload size")? };
    Ok(match name {
        "fib" => ccmm::cilk::fib(k as u32).computation,
        "matmul" => ccmm::cilk::matmul(k).computation,
        "stencil" => ccmm::cilk::stencil(k, 4).computation,
        "reduce" => ccmm::cilk::reduce(k).computation,
        "mergesort" => ccmm::cilk::mergesort(k).computation,
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn cmd_backer(args: &[String]) -> Result<(), String> {
    use ccmm::backer::{sim, BackerConfig, Schedule};
    use rand::SeedableRng;
    let mut workload = "fib:8".to_string();
    let mut procs = 4usize;
    let mut cache = 16usize;
    let mut page = 1usize;
    let mut runs = 10usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--workload" => workload = take("--workload")?,
            "--procs" => procs = take("--procs")?.parse().map_err(|_| "bad --procs")?,
            "--cache" => cache = take("--cache")?.parse().map_err(|_| "bad --cache")?,
            "--page" => page = take("--page")?.parse().map_err(|_| "bad --page")?,
            "--runs" => runs = take("--runs")?.parse().map_err(|_| "bad --runs")?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let c = parse_workload(&workload)?;
    let shape = ccmm::dag::metrics::shape(c.dag());
    println!(
        "{workload}: {} nodes, height {}, width {}, {} locations",
        shape.nodes,
        shape.height,
        shape.width,
        c.num_locations()
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xCC);
    let mut report = ccmm::backer::VerifyReport::default();
    let mut stats = ccmm::backer::Stats::default();
    for _ in 0..runs {
        let s = Schedule::work_stealing(&c, procs, &mut rng);
        let cfg = BackerConfig::with_processors(procs).cache_capacity(cache);
        let r = if page > 1 { sim::run_paged(&c, &s, &cfg, page) } else { sim::run(&c, &s, &cfg) };
        report.record(ccmm::backer::verify(&c, &r.observer));
        stats.merge(&r.stats);
    }
    println!(
        "{runs} runs on {procs} procs (cache {cache}, page {page}): \
         valid {}/{}, SC {}, LC {}, NN {}, WW {}",
        report.valid, report.runs, report.sc, report.lc, report.nn, report.ww
    );
    println!(
        "traffic: {} fetches, {} reconciles, {} flushes, hit rate {:.2}",
        stats.fetches,
        stats.reconciles,
        stats.flushes,
        stats.hit_rate()
    );
    if !report.all_lc() {
        return Err("BACKER produced a non-LC execution (bug!)".into());
    }
    Ok(())
}

fn cmd_lattice(args: &[String]) -> Result<(), String> {
    let mut nodes = 3usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--nodes" {
            nodes = it.next().ok_or("--nodes needs a value")?.parse().map_err(|_| "bad --nodes")?;
        }
    }
    if nodes > 4 {
        return Err("--nodes > 4 is too slow for the CLI; use exp_fig1".into());
    }
    let u = ccmm::core::universe::Universe::new(nodes, 1);
    let models = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];
    print!("{:<4}", "");
    for b in models {
        print!("{:>4}", b.name());
    }
    println!();
    for a in models {
        print!("{:<4}", a.name());
        for b in models {
            print!("{:>4}", ccmm::core::relation::compare(&a, &b, &u).relation.to_string());
        }
        println!();
    }
    Ok(())
}

/// Exit codes distinguishing sweep outcomes (see `ccmm --help`):
/// 0 complete, 1 gate/check failure, 2 usage or I/O error, 3 degraded
/// (quarantined panics), 4 partial (deadline hit), 5 `--gate` without a
/// baseline, 70 killed by the fault plan.
mod exit {
    pub const COMPLETE: u8 = 0;
    pub const FAIL: u8 = 1;
    pub const DEGRADED: u8 = 3;
    pub const PARTIAL: u8 = 4;
    pub const NO_BASELINE: u8 = 5;
    /// `ccmm query`: retries exhausted against an overloaded or
    /// draining server.
    pub const OVERLOADED: u8 = 6;
    /// `ccmm query`: no reply at all (connect/read failures on every
    /// attempt).
    pub const TRANSPORT: u8 = 7;
    pub const KILLED: u8 = 70;
}

fn status_name(s: ccmm::core::sweep::supervisor::SweepStatus) -> &'static str {
    use ccmm::core::sweep::supervisor::SweepStatus;
    match s {
        SweepStatus::Complete => "complete",
        SweepStatus::Degraded => "degraded",
        SweepStatus::Partial => "partial",
        SweepStatus::Killed => "killed",
    }
}

fn report_quarantine(phase: &str, quarantined: &[ccmm::core::sweep::supervisor::Quarantined]) {
    for q in quarantined {
        println!(
            "quarantined: {phase} task {} (poset size {}) panicked twice: {}",
            q.task_idx, q.size, q.payload
        );
    }
}

/// Glue between the `--trace`/`--metrics`/`--progress` flags and
/// `ccmm_core::telemetry`: flips the runtime switches, collects one
/// counter snapshot per phase, and writes the output files.
///
/// Counter *values* for the memberships, lattice and fixpoint phases are
/// bit-identical across thread counts; wall times never are (see
/// DESIGN.md §9) — which is why `wall_ms` sits beside, not inside, each
/// phase's `counters` object.
struct TelemetrySink {
    command: &'static str,
    trace: Option<String>,
    metrics: Option<String>,
    phases: Vec<(&'static str, u128, [u64; ccmm::core::telemetry::NUM_COUNTERS])>,
}

impl TelemetrySink {
    /// Arms telemetry to match the flags. Counters and span events left
    /// over from earlier in the process are discarded so the first phase
    /// starts from zero.
    fn new(
        command: &'static str,
        trace: Option<String>,
        metrics: Option<String>,
        progress: bool,
    ) -> Self {
        use ccmm::core::telemetry;
        telemetry::set_enabled(trace.is_some() || metrics.is_some() || progress);
        telemetry::set_events(trace.is_some());
        telemetry::set_progress(progress);
        let _ = telemetry::snapshot_and_reset();
        let _ = telemetry::drain_events();
        TelemetrySink { command, trace, metrics, phases: Vec::new() }
    }

    /// Closes a phase: snapshots (and zeroes) every counter under `name`,
    /// so successive phases report disjoint counts.
    fn end_phase(&mut self, name: &'static str, wall: std::time::Duration) {
        self.phases.push((name, wall.as_millis(), ccmm::core::telemetry::snapshot_and_reset()));
    }

    /// Non-zero counters of the most recently closed phase, in snapshot
    /// order — the `SweepRecord.counters` payload. Empty (so the field is
    /// omitted from bench JSON) when telemetry is off.
    fn last_counters(&self) -> Vec<(String, u64)> {
        use ccmm::core::telemetry::Counter;
        let Some((_, _, snap)) = self.phases.last() else { return Vec::new() };
        Counter::ALL
            .iter()
            .filter(|c| snap[**c as usize] != 0)
            .map(|c| (c.name().to_string(), snap[*c as usize]))
            .collect()
    }

    /// Writes the metrics JSON and trace JSONL files, if requested.
    /// Called on every exit path (complete, partial, killed) so a
    /// truncated run still reports the phases it finished. Both counter
    /// names and span names are static identifiers, so the JSON needs no
    /// string escaping.
    fn write(&self) -> Result<(), String> {
        use ccmm::core::telemetry::{drain_events, Counter};
        use std::fmt::Write as _;
        if let Some(path) = &self.metrics {
            let mut s = format!(
                "{{\"schema\":\"ccmm-metrics-v1\",\"command\":\"{}\",\"phases\":[",
                self.command
            );
            for (i, (name, wall_ms, snap)) in self.phases.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{{\"name\":\"{name}\",\"wall_ms\":{wall_ms},\"counters\":{{");
                let mut first = true;
                for c in Counter::ALL {
                    let v = snap[c as usize];
                    if v == 0 {
                        continue;
                    }
                    if !first {
                        s.push(',');
                    }
                    first = false;
                    let _ = write!(s, "\"{}\":{v}", c.name());
                }
                s.push_str("}}");
            }
            s.push_str("]}\n");
            std::fs::write(path, s).map_err(|e| format!("writing metrics {path}: {e}"))?;
        }
        if let Some(path) = &self.trace {
            let mut s = String::new();
            for ev in drain_events() {
                let _ = writeln!(
                    s,
                    "{{\"span\":\"{}\",\"thread\":{},\"start_us\":{},\"end_us\":{}}}",
                    ev.name, ev.thread, ev.start_us, ev.end_us
                );
            }
            std::fs::write(path, s).map_err(|e| format!("writing trace {path}: {e}"))?;
        }
        Ok(())
    }
}

fn cmd_sweep(args: &[String], bench_json: &str) -> Result<u8, String> {
    use ccmm::core::constructible::lanes::{decode_masks_journal, LaneConstructible};
    use ccmm::core::constructible::BoundedConstructible;
    use ccmm::core::fault::FaultPlan;
    use ccmm::core::sweep::supervisor::{
        check_constructible_aug_lanes_supervised, check_constructible_aug_supervised,
        decode_counts_snapshot, memberships, Lane64, Scalar, Supervisor, SweepStatus,
    };
    use ccmm::core::sweep::SweepConfig;
    use ccmm::core::universe::Universe;
    use ccmm::core::{ckpt, MemoryModel, Nn};
    use ccmm_bench::report::{emit, latest_matching, SweepRecord};
    use std::time::Instant;

    let mut bound = 4usize;
    let mut locs = 1usize;
    let mut canonical = false;
    let mut engine_flag: Option<String> = None;
    let mut gate = false;
    let mut threads: Option<usize> = None;
    let mut deadline_secs: Option<f64> = None;
    let mut fault_spec: Option<String> = None;
    let mut ckpt_path: Option<String> = None;
    let mut ckpt_every = 16usize;
    let mut resume_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut progress = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--bound" => bound = take("--bound")?.parse().map_err(|_| "bad --bound")?,
            "--trace" => trace_path = Some(take("--trace")?),
            "--metrics" => metrics_path = Some(take("--metrics")?),
            "--progress" => progress = true,
            "--locs" => locs = take("--locs")?.parse().map_err(|_| "bad --locs")?,
            "--canonical" => canonical = true,
            "--engine" => engine_flag = Some(take("--engine")?),
            "--gate" => gate = true,
            "--threads" => {
                threads = Some(take("--threads")?.parse().map_err(|_| "bad --threads")?);
            }
            "--deadline-secs" => {
                deadline_secs =
                    Some(take("--deadline-secs")?.parse().map_err(|_| "bad --deadline-secs")?);
            }
            "--fault" => fault_spec = Some(take("--fault")?),
            "--ckpt" => ckpt_path = Some(take("--ckpt")?),
            "--ckpt-every" => {
                ckpt_every = take("--ckpt-every")?.parse().map_err(|_| "bad --ckpt-every")?;
                if ckpt_every == 0 {
                    return Err("--ckpt-every must be at least 1".into());
                }
            }
            "--resume" => resume_path = Some(take("--resume")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let lane = match engine_flag.as_deref() {
        None | Some("scalar") => false,
        Some("lane64") => true,
        Some(other) => return Err(format!("unknown --engine `{other}` (scalar | lane64)")),
    };
    if lane && !canonical {
        return Err("--engine lane64 requires --canonical (lane packs ride the symmetry-reduced \
                    task list)"
            .to_string());
    }
    if bound > 5 && !lane {
        return Err(format!(
            "--bound {bound} is out of reach for the scalar engine, which supports all phases \
             (memberships, lattice, fixpoint, constructibility) only up to --bound 5 \
             (357 → 4824 posets); use --canonical --engine lane64, which runs every phase \
             through --bound 6 and the memberships phase alone beyond"
        ));
    }
    // The lane engine's mask representation keeps the Δ* fixpoint and
    // constructibility phases within budget through bound 6; beyond that
    // only the lane-parallel memberships phase is.
    let memberships_only = bound > 6;
    if ckpt_path.is_some() && resume_path.is_some() {
        return Err(
            "--ckpt starts a fresh journal and --resume continues one; pass only one".to_string()
        );
    }
    let fault = match &fault_spec {
        Some(spec) => FaultPlan::from_spec(spec)?,
        None => FaultPlan::none(),
    };
    let sup = Supervisor::with_fault(fault);
    let mut cfg = match threads {
        Some(t) => SweepConfig::with_threads(t),
        None => SweepConfig::from_env(),
    }
    .canonical(canonical);
    if let Some(secs) = deadline_secs {
        cfg = cfg.deadline(std::time::Duration::from_secs_f64(secs));
    }
    let engine = match (lane, canonical) {
        (true, _) => "lane64",
        (false, true) => "canonical",
        (false, false) => "labelled",
    };
    let u = Universe::new(bound, locs);

    // Gate precondition checked up front: a gated run that has nothing to
    // compare against must not silently record itself as the baseline.
    // Matching is same-engine AND same-thread-count: gating a 4-thread
    // run against a 1-thread baseline would pass on scaling alone.
    let baseline = latest_matching(bench_json, "cli_sweep/memberships", engine, &u, cfg.threads);
    if gate && baseline.is_none() {
        eprintln!("error: no baseline for this config — run without --gate to record one");
        return Ok(exit::NO_BASELINE);
    }

    // Checkpoint journal: `--ckpt` starts one, `--resume` validates an
    // existing journal's fingerprint and continues from its last
    // snapshot. The fingerprint pins the exact sweep configuration so a
    // journal can never be resumed into a different universe; v2
    // snapshots carry the lattice's separation mask beside the counts.
    let fingerprint =
        format!("ccmm-sweep-v2 bound={bound} locs={locs} canonical={canonical} engine={engine}");
    let mut writer: Option<ckpt::CkptWriter> = None;
    let mut resume_state = None;
    if let Some(path) = &ckpt_path {
        writer = Some(
            ckpt::CkptWriter::create(std::path::Path::new(path), &fingerprint)
                .map_err(|e| format!("creating checkpoint {path}: {e}"))?,
        );
    }
    if let Some(path) = &resume_path {
        let loaded = ckpt::Checkpoint::load(std::path::Path::new(path))
            .map_err(|e| format!("loading checkpoint {path}: {e}"))?;
        if loaded.fingerprint != fingerprint {
            return Err(format!(
                "checkpoint fingerprint mismatch: journal is `{}`, this run is `{fingerprint}`",
                loaded.fingerprint
            ));
        }
        resume_state = match loaded.latest() {
            Some(snap) => Some(
                decode_counts_snapshot(snap)
                    .ok_or_else(|| format!("corrupt checkpoint snapshot in {path}"))?,
            ),
            None => None, // journal died before the first snapshot
        };
        writer = Some(
            ckpt::CkptWriter::append_to(std::path::Path::new(path))
                .map_err(|e| format!("reopening checkpoint {path}: {e}"))?,
        );
        if let Some((f, _)) = &resume_state {
            println!("resuming from {path}: {} task(s) already complete", f.len());
        }
    }

    let mut tel = TelemetrySink::new("sweep", trace_path, metrics_path, progress);
    println!(
        "sweep: bound {bound}, {locs} location(s), {} computations, {engine} enumeration, {} thread(s)",
        u.count_computations_closed(),
        cfg.threads
    );
    let models = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];
    let mut records = Vec::new();
    let mut worst = SweepStatus::Complete;

    // Phase 1: weighted membership counts for every model, plus the
    // separation mask phase 2 reads the lattice from. The weighted pair
    // total is the labelled universe's pair count regardless of
    // enumeration mode, so pairs/sec is comparable across engines — the
    // number the perf gate watches. This is the checkpointable phase.
    let t0 = Instant::now();
    let phase_span = ccmm::core::telemetry::span("sweep/memberships");
    let journal = writer.as_mut().map(|w| (w, ckpt_every));
    let out = if lane {
        memberships(Lane64, &models, &u, &cfg, &sup, resume_state, journal)
    } else {
        memberships(Scalar, &models, &u, &cfg, &sup, resume_state, journal)
    };
    drop(phase_span);
    let wall = t0.elapsed();
    tel.end_phase("memberships", wall);
    if let Some(e) = &out.ckpt_error {
        eprintln!("warning: checkpoint journalling failed mid-sweep: {e}");
    }
    report_quarantine("memberships", &out.quarantined);
    if out.status == SweepStatus::Killed {
        let journal = ckpt_path.as_deref().or(resume_path.as_deref()).unwrap_or("<journal>");
        println!(
            "killed by fault plan after {} checkpoint record(s); resume with --resume {journal}",
            writer.as_ref().map_or(0, |w| w.snapshots())
        );
        tel.write()?;
        return Ok(exit::KILLED);
    }
    worst = worst.max(out.status);
    println!(
        "memberships over {} (computation, observer) pairs [{:.2?}] ({}):",
        out.value.pairs,
        wall,
        status_name(out.status)
    );
    for (m, n) in models.iter().zip(&out.value.per_model) {
        println!("  {:<4} {n}", m.name());
    }
    let membership = SweepRecord::new(
        "cli_sweep/memberships",
        engine,
        &u,
        cfg.threads,
        wall,
        out.value.pairs,
        0,
    )
    .with_status(status_name(out.status))
    .with_counters(tel.last_counters());
    let throughput = membership.pairs_per_sec;
    records.push(membership);
    if out.status == SweepStatus::Partial {
        // Deadline hit: report the exact resume frontier and stop — the
        // later phases would blow the budget the caller just set.
        println!(
            "deadline hit: {}/{} task(s) complete; resume frontier: {:?}",
            out.frontier.len(),
            out.total_tasks,
            out.frontier.ranges()
        );
        if let Some(path) = ckpt_path.as_deref().or(resume_path.as_deref()) {
            println!("resume with --resume {path}");
        }
        emit(bench_json, &records).map_err(|e| format!("writing bench json: {e}"))?;
        println!("recorded {} sweep record(s) to {bench_json}", records.len());
        tel.write()?;
        return Ok(exit::PARTIAL);
    }

    if memberships_only {
        println!(
            "bound {bound} runs the memberships phase only; the lattice, fixpoint, and \
             constructibility phases need bound ≤ 6 with --engine lane64 (≤ 5 scalar)"
        );
        tel.write()?;
        emit(bench_json, &records).map_err(|e| format!("writing bench json: {e}"))?;
        println!("recorded {} sweep record(s) to {bench_json}", records.len());
        if gate && worst == SweepStatus::Complete {
            let b = baseline.as_ref().expect("gate precondition checked above");
            println!(
                "gate: {throughput:.0} pairs/sec vs baseline {:.0} (threshold {:.0})",
                b.pairs_per_sec,
                b.pairs_per_sec / 2.0
            );
            if throughput < b.pairs_per_sec / 2.0 {
                eprintln!(
                    "perf gate FAILED: {throughput:.0} pairs/sec is more than 2x below \
                     the committed baseline {:.0}",
                    b.pairs_per_sec
                );
                return Ok(exit::FAIL);
            }
        } else if gate {
            println!(
                "gate: skipped — run was {} (only complete runs are gated)",
                status_name(worst)
            );
        }
        println!("sweep status: {}", status_name(worst));
        return Ok(match worst {
            SweepStatus::Complete => exit::COMPLETE,
            SweepStatus::Degraded => exit::DEGRADED,
            SweepStatus::Partial => exit::PARTIAL,
            SweepStatus::Killed => exit::KILLED,
        });
    }

    // Phase 2: the full pairwise relation lattice (Figure 1 at this
    // bound), read off the separation mask phase 1 folded — no second
    // sweep. It covers exactly the pairs the counts cover, so tasks
    // quarantined in phase 1 degrade it too.
    let t0 = Instant::now();
    let phase_span = ccmm::core::telemetry::span("sweep/lattice");
    let lattice = out.value.lattice(&models);
    let lattice_status =
        if out.quarantined.is_empty() { SweepStatus::Complete } else { SweepStatus::Degraded };
    drop(phase_span);
    let wall = t0.elapsed();
    tel.end_phase("lattice", wall);
    worst = worst.max(lattice_status);
    println!("lattice [{:.2?}] ({}):", wall, status_name(lattice_status));
    print!("{:<6}", "");
    for m in &models {
        print!("{:>4}", m.name());
    }
    println!();
    for row in &lattice {
        print!("  {:<4}", row.name);
        for r in &row.relations {
            print!("{:>4}", r.to_string());
        }
        println!();
    }
    records.push(
        SweepRecord::new("cli_sweep/lattice", engine, &u, cfg.threads, wall, 0, 0)
            .with_status(status_name(lattice_status)),
    );

    // Phase 3: constructibility. The NN Δ* fixpoint (labelled by
    // necessity — survivor sets are keyed by concrete computations), then
    // the one-step augmentation check for every model. The lane engine
    // runs the mask-based fixpoint, which checkpoints to its own journal
    // (`<path>.fixpoint`) beside the memberships journal: the fingerprint
    // is engine-free because the mask bits are identical either way, so a
    // fixpoint journal written under one kernel resumes under the other.
    let t0 = Instant::now();
    let phase_span = ccmm::core::telemetry::span("sweep/fixpoint");
    let fix_engine = if lane { "lane64" } else { "worklist" };
    let (fix_pairs, fix_deleted, fix_passes, fix_status) = if lane {
        let fix_fingerprint = format!("ccmm-fixpoint-v1 bound={bound} locs={locs} model=nn");
        let journal_base = ckpt_path.as_deref().or(resume_path.as_deref());
        let mut fix_writer: Option<ckpt::CkptWriter> = None;
        let mut fix_resume = None;
        let fix_journal = journal_base.map(|base| format!("{base}.fixpoint"));
        if let Some(p) = &fix_journal {
            let path = std::path::Path::new(p);
            if resume_path.is_some() && path.exists() {
                let loaded = ckpt::Checkpoint::load(path)
                    .map_err(|e| format!("loading fixpoint checkpoint {p}: {e}"))?;
                if loaded.fingerprint != fix_fingerprint {
                    return Err(format!(
                        "fixpoint checkpoint fingerprint mismatch: journal is `{}`, this run \
                         is `{fix_fingerprint}`",
                        loaded.fingerprint
                    ));
                }
                fix_resume = Some(
                    decode_masks_journal(&loaded)
                        .ok_or_else(|| format!("corrupt fixpoint checkpoint in {p}"))?,
                );
                fix_writer = Some(
                    ckpt::CkptWriter::append_to(path)
                        .map_err(|e| format!("reopening fixpoint checkpoint {p}: {e}"))?,
                );
                if let Some((f, _)) = &fix_resume {
                    println!("resuming fixpoint from {p}: {} task(s) already complete", f.len());
                }
            } else {
                fix_writer = Some(
                    ckpt::CkptWriter::create(path, &fix_fingerprint)
                        .map_err(|e| format!("creating fixpoint checkpoint {p}: {e}"))?,
                );
            }
        }
        let out = LaneConstructible::compute_supervised(
            &Nn::default(),
            &u,
            &cfg,
            &sup,
            fix_resume,
            fix_writer.as_mut().map(|w| (w, ckpt_every)),
            true,
        );
        drop(phase_span);
        let wall = t0.elapsed();
        tel.end_phase("fixpoint", wall);
        if let Some(e) = &out.ckpt_error {
            eprintln!("warning: fixpoint checkpoint journalling failed mid-sweep: {e}");
        }
        report_quarantine("fixpoint", &out.quarantined);
        if out.status == SweepStatus::Killed {
            let journal = fix_journal.as_deref().unwrap_or("<journal>");
            println!(
                "killed by fault plan after {} fixpoint checkpoint record(s); resume with \
                 --resume {}",
                fix_writer.as_ref().map_or(0, |w| w.snapshots()),
                ckpt_path.as_deref().or(resume_path.as_deref()).unwrap_or(journal)
            );
            tel.write()?;
            return Ok(exit::KILLED);
        }
        if out.status == SweepStatus::Partial {
            println!(
                "deadline hit during fixpoint: {}/{} task(s) complete; resume frontier: {:?}",
                out.frontier.len(),
                out.total_tasks,
                out.frontier.ranges()
            );
            if let Some(path) = ckpt_path.as_deref().or(resume_path.as_deref()) {
                println!("resume with --resume {path}");
            }
            emit(bench_json, &records).map_err(|e| format!("writing bench json: {e}"))?;
            println!("recorded {} sweep record(s) to {bench_json}", records.len());
            tel.write()?;
            return Ok(exit::PARTIAL);
        }
        (out.value.total_pairs(), out.value.deleted, out.value.passes, out.status)
    } else {
        let fix =
            BoundedConstructible::compute_worklist_supervised(&Nn::default(), &u, &cfg, &sup.fault);
        drop(phase_span);
        let wall = t0.elapsed();
        tel.end_phase("fixpoint", wall);
        report_quarantine("fixpoint", &fix.quarantined);
        let fix_status =
            if fix.quarantined.is_empty() { SweepStatus::Complete } else { SweepStatus::Degraded };
        (fix.total_pairs(), fix.deleted, fix.passes, fix_status)
    };
    let wall = t0.elapsed();
    worst = worst.max(fix_status);
    println!(
        "NN* {} fixpoint: {} surviving pairs, {} deleted, {} pass(es) [{:.2?}] ({})",
        fix_engine,
        fix_pairs,
        fix_deleted,
        fix_passes,
        wall,
        status_name(fix_status)
    );
    records.push(
        SweepRecord::new(
            "cli_sweep/nnstar_worklist",
            fix_engine,
            &u,
            cfg.threads,
            wall,
            fix_pairs as u64,
            fix_passes,
        )
        .with_status(status_name(fix_status)),
    );
    let t0 = Instant::now();
    let phase_span = ccmm::core::telemetry::span("sweep/constructibility");
    let mut cons_status = SweepStatus::Complete;
    for m in &models {
        let check = if lane {
            check_constructible_aug_lanes_supervised(m, &u, &cfg, &sup)
        } else {
            check_constructible_aug_supervised(m, &u, &cfg, &sup)
        };
        report_quarantine("constructibility", &check.quarantined);
        cons_status = cons_status.max(check.status);
        worst = worst.max(check.status);
        match check.value {
            None => println!("  {:<4} constructible up to bound {bound}", m.name()),
            Some(w) => println!(
                "  {:<4} NOT constructible: dead end at {} nodes appending {:?}",
                m.name(),
                w.c.node_count(),
                w.op
            ),
        }
    }
    drop(phase_span);
    let wall = t0.elapsed();
    tel.end_phase("constructibility", wall);
    println!("constructibility checks [{wall:.2?}]");
    // The constructibility record's work unit is the fixed bounded-prefix
    // scan size (computations at bound − 1 times models checked), so its
    // pairs/sec is comparable across engines at the same config.
    let cons_work = Universe::new(bound.saturating_sub(1), locs).count_computations_closed() as u64
        * models.len() as u64;
    records.push(
        SweepRecord::new("cli_sweep/constructibility", engine, &u, cfg.threads, wall, cons_work, 0)
            .with_status(status_name(cons_status)),
    );
    tel.write()?;

    // Phase baselines are read before this run's records are emitted —
    // emitting first would make every gated run its own baseline.
    let phase_baselines: Vec<_> =
        [("cli_sweep/nnstar_worklist", fix_engine), ("cli_sweep/constructibility", engine)]
            .into_iter()
            .map(|(experiment, phase_engine)| {
                let b = latest_matching(bench_json, experiment, phase_engine, &u, cfg.threads);
                (experiment, b)
            })
            .collect();
    emit(bench_json, &records).map_err(|e| format!("writing bench json: {e}"))?;
    println!("recorded {} sweep record(s) to {bench_json}", records.len());
    if gate && worst == SweepStatus::Complete {
        // `baseline` was verified Some before the sweep started.
        let b = baseline.expect("gate precondition checked above");
        println!(
            "gate: {throughput:.0} pairs/sec vs baseline {:.0} (threshold {:.0})",
            b.pairs_per_sec,
            b.pairs_per_sec / 2.0
        );
        if throughput < b.pairs_per_sec / 2.0 {
            eprintln!(
                "perf gate FAILED: {throughput:.0} pairs/sec is more than 2x below \
                 the committed baseline {:.0}",
                b.pairs_per_sec
            );
            return Ok(exit::FAIL);
        }
        // The fixpoint and constructibility phases gate against their
        // own same-engine, same-thread-count baselines when one exists
        // (only the memberships baseline is a gate precondition, so the
        // new phases phase in without invalidating older baselines).
        for (experiment, b) in phase_baselines {
            let Some(rec) = records.iter().find(|r| r.experiment == experiment) else {
                continue;
            };
            let Some(b) = b else { continue };
            println!(
                "gate[{experiment}]: {:.0} pairs/sec vs baseline {:.0} (threshold {:.0})",
                rec.pairs_per_sec,
                b.pairs_per_sec,
                b.pairs_per_sec / 2.0
            );
            if rec.pairs_per_sec < b.pairs_per_sec / 2.0 {
                eprintln!(
                    "perf gate FAILED: {experiment} at {:.0} pairs/sec is more than 2x below \
                     the committed baseline {:.0}",
                    rec.pairs_per_sec, b.pairs_per_sec
                );
                return Ok(exit::FAIL);
            }
        }
    } else if gate {
        println!("gate: skipped — run was {} (only complete runs are gated)", status_name(worst));
    }
    println!("sweep status: {}", status_name(worst));
    Ok(match worst {
        SweepStatus::Complete => exit::COMPLETE,
        SweepStatus::Degraded => exit::DEGRADED,
        SweepStatus::Partial => exit::PARTIAL,
        SweepStatus::Killed => exit::KILLED,
    })
}

fn cmd_conformance(args: &[String]) -> Result<bool, String> {
    use ccmm::conformance::{report, run, self_test, HarnessConfig};
    use ccmm::core::sweep::SweepConfig;
    let mut cfg = HarnessConfig::default();
    let mut out: Option<String> = None;
    let mut do_self_test = false;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut progress = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--nodes" => cfg.max_nodes = take("--nodes")?.parse().map_err(|_| "bad --nodes")?,
            "--locs" => {
                cfg.num_locations = take("--locs")?.parse().map_err(|_| "bad --locs")?;
            }
            "--random" => {
                cfg.random_cases = take("--random")?.parse().map_err(|_| "bad --random")?;
            }
            "--seed" => cfg.seed = take("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--no-harvest" => cfg.harvest = false,
            "--threads" => {
                let t: usize = take("--threads")?.parse().map_err(|_| "bad --threads")?;
                cfg.sweep = SweepConfig::with_threads(t);
            }
            "--out" => out = Some(take("--out")?),
            "--self-test" => do_self_test = true,
            "--canonical" => cfg.sweep = cfg.sweep.canonical(true),
            "--trace" => trace_path = Some(take("--trace")?),
            "--metrics" => metrics_path = Some(take("--metrics")?),
            "--progress" => progress = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cfg.max_nodes > 5 {
        return Err("--nodes > 5 is too slow for the CLI (factorial oracles)".into());
    }
    if cfg.max_nodes >= 5 && !cfg.sweep.canonical {
        // The labelled bound-5 sweep is 90 202 computations against
        // factorial oracles; only the symmetry-reduced enumeration keeps
        // it CLI-tolerable. The report below prints the pair/check counts
        // actually run (canonical representatives, not weighted totals).
        cfg.sweep = cfg.sweep.canonical(true);
        println!(
            "note: nodes >= 5 sweeps canonical representatives only \
             (one per isomorphism class; checker-vs-oracle verdicts are \
             isomorphism-invariant)"
        );
    }
    if do_self_test {
        // Prove the pipeline catches a seeded bug before trusting a pass.
        self_test(&cfg).map_err(|e| format!("self-test FAILED: {e}"))?;
        println!("self-test: seeded LC mutation caught and shrunk — harness is live");
    }
    // Armed after the self-test so its checks don't pollute the report.
    let mut tel = TelemetrySink::new("conformance", trace_path, metrics_path, progress);
    let t0 = std::time::Instant::now();
    let r = run(&cfg);
    tel.end_phase("conformance", t0.elapsed());
    // The lane differential rides the same config: contains_lanes must
    // agree with 64× contains_with over the exhaustive sweep plus random
    // partial packings.
    let t1 = std::time::Instant::now();
    let lanes = ccmm::conformance::run_lanes(&cfg);
    tel.end_phase("lane-differential", t1.elapsed());
    // The fixpoint differential pins the lane Δ* engine (survivor masks,
    // both Stage-A kernels) to the scalar worklist, and the lane
    // constructibility search to the scalar scan one bound up.
    let t2 = std::time::Instant::now();
    let fix = ccmm::conformance::run_fixpoint(&cfg);
    tel.end_phase("fixpoint-differential", t2.elapsed());
    // The serve differential drives the same pair sources through the
    // full wire pipeline (frame → parse → cached handler → reply) and
    // compares every verdict line against a direct check.
    let t3 = std::time::Instant::now();
    let srv_cfg = ccmm::conformance::ServeHarnessConfig {
        max_nodes: cfg.max_nodes.min(3),
        num_locations: cfg.num_locations,
        random: cfg.random_cases.min(256),
        seed: cfg.seed,
        ..Default::default()
    };
    let srv = ccmm::conformance::run_serve(&srv_cfg);
    tel.end_phase("serve-differential", t3.elapsed());
    tel.write()?;
    println!("{r}");
    println!(
        "lane differential: {} verdicts over {} lane words, {} mismatch(es)",
        lanes.verdicts,
        lanes.words,
        lanes.mismatches.len()
    );
    for m in lanes.mismatches.iter().take(8) {
        println!("  {m}");
    }
    println!(
        "fixpoint differential: {} survivor pairs, {} constructibility verdicts, {} mismatch(es)",
        fix.pairs,
        fix.verdicts,
        fix.mismatches.len()
    );
    for m in fix.mismatches.iter().take(8) {
        println!("  {m}");
    }
    println!(
        "serve differential: {} pairs, {} verdicts, {} cache rechecks, {} mismatch(es)",
        srv.pairs,
        srv.checks,
        srv.cache_rechecks,
        srv.mismatches.len()
    );
    for m in srv.mismatches.iter().take(8) {
        println!("  [{}] {}", m.source, m.detail);
    }
    for (i, d) in r.disagreements.iter().enumerate() {
        println!();
        print!("{}", report::render_witness(d));
        if let Some(dir) = &out {
            let (litmus, dot) = report::write_witness(std::path::Path::new(dir), i, d)
                .map_err(|e| format!("writing witness: {e}"))?;
            println!("# written to {} and {}", litmus.display(), dot.display());
        }
    }
    Ok(r.ok() && lanes.ok() && fix.ok() && srv.ok())
}

fn cmd_stress(args: &[String]) -> Result<u8, String> {
    use ccmm::core::ckpt;
    use ccmm::core::fault::{FaultPlan, PerturbPlan};
    use ccmm::core::parse::{render_computation, render_observer};
    use ccmm::core::sweep::supervisor::SweepStatus;
    use ccmm::stress::{self, Mutation, StressCkpt, StressConfig};
    use std::time::Instant;

    let mut seed = 0u64;
    let mut iters = 1000usize;
    let mut threads = 4usize;
    let mut perturb_spec: Option<String> = None;
    let mut mutation = Mutation::None;
    let mut deadline_secs: Option<f64> = None;
    let mut fault_spec: Option<String> = None;
    let mut ckpt_path: Option<String> = None;
    let mut ckpt_every = 32usize;
    let mut resume_path: Option<String> = None;
    let mut do_self_test = false;
    let mut metrics_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut progress = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--seed" => seed = take("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--iters" => iters = take("--iters")?.parse().map_err(|_| "bad --iters")?,
            "--threads" => threads = take("--threads")?.parse().map_err(|_| "bad --threads")?,
            "--perturb" => perturb_spec = Some(take("--perturb")?),
            "--mutate" => mutation = Mutation::from_name(&take("--mutate")?)?,
            "--deadline-secs" => {
                deadline_secs =
                    Some(take("--deadline-secs")?.parse().map_err(|_| "bad --deadline-secs")?);
            }
            "--fault" => fault_spec = Some(take("--fault")?),
            "--ckpt" => ckpt_path = Some(take("--ckpt")?),
            "--ckpt-every" => {
                ckpt_every = take("--ckpt-every")?.parse().map_err(|_| "bad --ckpt-every")?;
                if ckpt_every == 0 {
                    return Err("--ckpt-every must be at least 1".into());
                }
            }
            "--resume" => resume_path = Some(take("--resume")?),
            "--self-test" => do_self_test = true,
            "--metrics" => metrics_path = Some(take("--metrics")?),
            "--trace" => trace_path = Some(take("--trace")?),
            "--progress" => progress = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if ckpt_path.is_some() && resume_path.is_some() {
        return Err(
            "--ckpt starts a fresh journal and --resume continues one; pass only one".to_string()
        );
    }

    if do_self_test {
        // Prove the oracle has teeth before trusting a green run: a
        // seeded skip-reconcile mutation must be caught and the same
        // seeds must pass unmutated.
        print!("stress self-test (mutation: skip-reconcile, {threads} thread(s)) ... ");
        match stress::self_test(threads) {
            Ok(()) => println!("caught, and clean executor passes"),
            Err(e) => {
                println!("FAILED");
                eprintln!("{e}");
                return Ok(exit::FAIL);
            }
        }
    }

    let mut cfg = StressConfig::new(seed, iters, threads);
    if let Some(spec) = &perturb_spec {
        cfg.perturb = PerturbPlan::from_spec(spec)?;
    }
    cfg.mutation = mutation;
    if let Some(secs) = deadline_secs {
        cfg.deadline = Some(std::time::Duration::from_secs_f64(secs));
    }
    let fault = match &fault_spec {
        Some(spec) => FaultPlan::from_spec(spec)?,
        None => FaultPlan::none(),
    };

    // Checkpoint journal: same scheme as `ccmm sweep` — the fingerprint
    // pins (seed, iters, threads, perturb shape, mutation) so a journal
    // cannot resume into a different run.
    let fingerprint = cfg.fingerprint();
    let mut writer: Option<ckpt::CkptWriter> = None;
    let mut resume_state = None;
    if let Some(path) = &ckpt_path {
        writer = Some(
            ckpt::CkptWriter::create(std::path::Path::new(path), &fingerprint)
                .map_err(|e| format!("creating checkpoint {path}: {e}"))?,
        );
    }
    if let Some(path) = &resume_path {
        let loaded = ckpt::Checkpoint::load(std::path::Path::new(path))
            .map_err(|e| format!("loading checkpoint {path}: {e}"))?;
        if loaded.fingerprint != fingerprint {
            return Err(format!(
                "checkpoint fingerprint mismatch: journal is `{}`, this run is `{fingerprint}`",
                loaded.fingerprint
            ));
        }
        resume_state = match loaded.latest() {
            Some(snap) => Some(
                stress::decode_snapshot(snap)
                    .ok_or_else(|| format!("corrupt checkpoint snapshot in {path}"))?,
            ),
            None => None,
        };
        writer = Some(
            ckpt::CkptWriter::append_to(std::path::Path::new(path))
                .map_err(|e| format!("reopening checkpoint {path}: {e}"))?,
        );
        if let Some((f, _)) = &resume_state {
            println!("resuming from {path}: {} iteration(s) already complete", f.len());
        }
    }

    let mut tel = TelemetrySink::new("stress", trace_path, metrics_path, progress);
    println!(
        "stress: seed {seed}, {iters} iteration(s), {threads} thread(s), perturb {}, mutation {}",
        cfg.perturb,
        cfg.mutation.name()
    );
    let t0 = Instant::now();
    let phase_span = ccmm::core::telemetry::span("stress/iterations");
    let sink = writer.as_mut().map(|w| StressCkpt { writer: w, every: ckpt_every });
    let report = stress::run_supervised(&cfg, &fault, resume_state, sink);
    drop(phase_span);
    let wall = t0.elapsed();
    tel.end_phase("iterations", wall);
    tel.write()?;

    if let Some(e) = &report.ckpt_error {
        eprintln!("warning: checkpoint journalling failed mid-run: {e}");
    }
    for q in &report.quarantined {
        println!("quarantined: iteration {} panicked twice: {}", q.task_idx, q.payload);
    }
    // Deterministic per (seed, iters, threads): iteration and check
    // counts, and any failure. Timing-dependent (reported, never
    // compared): distinct observers and the SC tallies.
    println!(
        "completed {}/{} iteration(s), {} conformance check(s) [{wall:.2?}] ({})",
        report.frontier.len(),
        report.total,
        report.checks,
        status_name(report.status)
    );
    println!(
        "timing-dependent: {} distinct threaded observer(s); SC membership {}/{}",
        report.distinct_observers, report.sc_member, report.sc_checked
    );

    if let Some(f) = report.failures.first() {
        println!(
            "CONFORMANCE FAILURE at iteration {} (leg: {}, workload: {}, kind: {})",
            f.iteration, f.leg, f.workload, f.kind
        );
        let mutate_flag = match cfg.mutation {
            Mutation::None => String::new(),
            m => format!(" --mutate {}", m.name()),
        };
        println!(
            "failing seed: {} (rerun: ccmm stress --seed {} --iters 1 --threads {threads}{})",
            f.seed, f.seed, mutate_flag
        );
        println!("shrunk trace ({} move(s)):", f.shrink_steps);
        print!("{}", render_computation(&f.c));
        print!("{}", render_observer(&f.phi));
        return Ok(exit::FAIL);
    }
    if report.status == SweepStatus::Killed {
        let journal = ckpt_path.as_deref().or(resume_path.as_deref()).unwrap_or("<journal>");
        println!(
            "killed by fault plan after {} checkpoint record(s); resume with --resume {journal}",
            writer.as_ref().map_or(0, |w| w.snapshots())
        );
        return Ok(exit::KILLED);
    }
    if report.status == SweepStatus::Partial {
        println!(
            "deadline hit: {}/{} iteration(s) complete; resume frontier: {:?}",
            report.frontier.len(),
            report.total,
            report.frontier.ranges()
        );
        if let Some(path) = ckpt_path.as_deref().or(resume_path.as_deref()) {
            println!("resume with --resume {path}");
        }
        return Ok(exit::PARTIAL);
    }
    Ok(match report.status {
        SweepStatus::Complete => exit::COMPLETE,
        SweepStatus::Degraded => exit::DEGRADED,
        SweepStatus::Partial => exit::PARTIAL,
        SweepStatus::Killed => exit::KILLED,
    })
}

fn cmd_watch(args: &[String], bench_json: &str) -> Result<u8, String> {
    use ccmm::backer::FaultInjection;
    use ccmm::core::ckpt;
    use ccmm::core::sweep::supervisor::SweepStatus;
    use ccmm::watch::{self, WatchCkpt, WatchConfig};
    use ccmm_bench::report::{emit, latest_matching_shape, SweepRecord};
    use std::time::Instant;

    let mut workload = "fib:14".to_string();
    let mut procs = 4usize;
    let mut cache_lines = 16usize;
    let mut block = 16usize;
    let mut faults = FaultInjection::NONE;
    let mut deadline_secs: Option<f64> = None;
    let mut sample_every = 8usize;
    let mut sample_cap = 24usize;
    let mut ckpt_path: Option<String> = None;
    let mut ckpt_every = 65_536usize;
    let mut resume_path: Option<String> = None;
    let mut gate = false;
    let mut metrics_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut progress = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--workload" => workload = take("--workload")?,
            "--procs" => procs = take("--procs")?.parse().map_err(|_| "bad --procs")?,
            "--cache" => cache_lines = take("--cache")?.parse().map_err(|_| "bad --cache")?,
            "--block" => block = take("--block")?.parse().map_err(|_| "bad --block")?,
            "--fault" => {
                faults = match take("--fault")?.as_str() {
                    "none" => FaultInjection::NONE,
                    "skip-flush" => FaultInjection { skip_flush: true, skip_reconcile: false },
                    "skip-reconcile" => FaultInjection { skip_flush: false, skip_reconcile: true },
                    other => {
                        return Err(format!(
                            "unknown fault `{other}` (none | skip-flush | skip-reconcile)"
                        ))
                    }
                }
            }
            "--deadline-secs" => {
                deadline_secs =
                    Some(take("--deadline-secs")?.parse().map_err(|_| "bad --deadline-secs")?);
            }
            "--sample-every" => {
                sample_every = take("--sample-every")?.parse().map_err(|_| "bad --sample-every")?;
            }
            "--sample-cap" => {
                sample_cap = take("--sample-cap")?.parse().map_err(|_| "bad --sample-cap")?;
            }
            "--ckpt" => ckpt_path = Some(take("--ckpt")?),
            "--ckpt-every" => {
                ckpt_every = take("--ckpt-every")?.parse().map_err(|_| "bad --ckpt-every")?;
                if ckpt_every == 0 {
                    return Err("--ckpt-every must be at least 1".into());
                }
            }
            "--resume" => resume_path = Some(take("--resume")?),
            "--gate" => gate = true,
            "--metrics" => metrics_path = Some(take("--metrics")?),
            "--trace" => trace_path = Some(take("--trace")?),
            "--progress" => progress = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if procs == 0 {
        return Err("--procs must be at least 1".into());
    }
    if ckpt_path.is_some() && resume_path.is_some() {
        return Err(
            "--ckpt starts a fresh journal and --resume continues one; pass only one".to_string()
        );
    }

    let trace = watch::parse_trace_workload(&workload)?;
    let mut cfg = WatchConfig::new(&workload);
    cfg.procs = procs;
    cfg.cache_lines = cache_lines;
    cfg.block = block;
    cfg.faults = faults;
    cfg.sample_every = sample_every;
    cfg.sample_cap = sample_cap;
    if let Some(secs) = deadline_secs {
        cfg.deadline = Some(std::time::Duration::from_secs_f64(secs));
    }

    // Gate precondition up front, as in `sweep`: a gated run with no
    // baseline must not silently record itself as one.
    let total = trace.node_count();
    let baseline = latest_matching_shape(
        bench_json,
        &format!("watch/{workload}"),
        "stream",
        total as u64,
        trace.num_locations as u64,
        procs as u64,
    );
    if gate && baseline.is_none() {
        eprintln!("error: no baseline for this config — run without --gate to record one");
        return Ok(exit::NO_BASELINE);
    }

    // Checkpoint journal: the fingerprint pins everything that makes the
    // replay-based resume deterministic.
    let fingerprint = cfg.fingerprint();
    let mut writer: Option<ckpt::CkptWriter> = None;
    let mut resume_state = None;
    if let Some(path) = &ckpt_path {
        writer = Some(
            ckpt::CkptWriter::create(std::path::Path::new(path), &fingerprint)
                .map_err(|e| format!("creating checkpoint {path}: {e}"))?,
        );
    }
    if let Some(path) = &resume_path {
        let loaded = ckpt::Checkpoint::load(std::path::Path::new(path))
            .map_err(|e| format!("loading checkpoint {path}: {e}"))?;
        if loaded.fingerprint != fingerprint {
            return Err(format!(
                "checkpoint fingerprint mismatch: journal is `{}`, this run is `{fingerprint}`",
                loaded.fingerprint
            ));
        }
        resume_state = match loaded.latest() {
            Some(snap) => Some(
                watch::decode_snapshot(snap)
                    .ok_or_else(|| format!("corrupt checkpoint snapshot in {path}"))?,
            ),
            None => None,
        };
        writer = Some(
            ckpt::CkptWriter::append_to(std::path::Path::new(path))
                .map_err(|e| format!("reopening checkpoint {path}: {e}"))?,
        );
        if let Some(s) = &resume_state {
            println!("resuming from {path}: {} node(s) already committed", s.position);
        }
    }

    let mut tel = TelemetrySink::new("watch", trace_path, metrics_path, progress);
    println!(
        "watch: {workload} ({total} node(s), {} location(s)), {procs} proc(s), \
         {cache_lines}-line caches, block {block}",
        trace.num_locations
    );
    let t0 = Instant::now();
    let phase_span = ccmm::core::telemetry::span("watch/stream");
    let sink = writer.as_mut().map(|w| WatchCkpt { writer: w, every: ckpt_every });
    let report = watch::run_supervised(&cfg, &trace, resume_state, sink)?;
    drop(phase_span);
    let wall = t0.elapsed();
    tel.end_phase("stream", wall);
    tel.write()?;

    if let Some(e) = &report.ckpt_error {
        eprintln!("warning: checkpoint journalling failed mid-run: {e}");
    }
    for q in &report.quarantined {
        println!(
            "quarantined: conformance sample at prefix {} panicked twice: {}",
            q.task_idx, q.payload
        );
    }
    let v = &report.verdicts;
    println!(
        "streamed {}/{} node(s): valid {} | SC {} | LC {} \
         (violations: {} validity, {} sc, {} lc)",
        report.frontier.len(),
        total,
        v.valid,
        v.sc,
        v.lc,
        v.validity_violations,
        v.sc_violations,
        v.lc_violations
    );
    println!(
        "conformance: {} sampled prefix(es), {} divergence(s){}",
        report.samples,
        report.divergences,
        report.first_divergence.map(|k| format!(" (first at prefix {k})")).unwrap_or_default()
    );
    println!(
        "throughput: {:.0} reveals/sec ({} fresh reveal(s) in {:.2?}); peak RSS {} KiB",
        report.reveals_per_sec, report.fresh_reveals, report.wall, report.peak_rss_kb
    );
    println!(
        "protocol: {} fetch(es), {} reconcile(s), {} flush(es), {} eviction(s)",
        report.stats.fetches, report.stats.reconciles, report.stats.flushes, report.stats.evictions
    );

    // Every run leaves a record (tagged with its status) so complete
    // runs become baselines; only complete runs are gated.
    let record = SweepRecord {
        experiment: format!("watch/{workload}"),
        engine: "stream".to_string(),
        max_nodes: total as u64,
        num_locations: trace.num_locations as u64,
        universe_computations: 0,
        threads: procs as u64,
        wall_ms: report.wall.as_secs_f64() * 1e3,
        pairs_checked: report.fresh_reveals,
        pairs_per_sec: report.reveals_per_sec,
        fixpoint_passes: report.samples,
        status: status_name(report.status).to_string(),
        counters: tel.last_counters(),
    };
    emit(bench_json, &[record]).map_err(|e| format!("writing bench json: {e}"))?;
    println!("bench: appended watch/{workload} [stream] to {bench_json}");

    if report.status == SweepStatus::Partial {
        println!(
            "deadline hit: {}/{total} node(s) committed; resume frontier: {:?}",
            report.frontier.len(),
            report.frontier.ranges()
        );
        if let Some(path) = ckpt_path.as_deref().or(resume_path.as_deref()) {
            println!("resume with --resume {path}");
        }
        return Ok(exit::PARTIAL);
    }
    if !report.passed() && report.status == SweepStatus::Complete {
        println!(
            "verdict check FAILED: valid={} lc={} divergences={}",
            v.valid, v.lc, report.divergences
        );
        return Ok(exit::FAIL);
    }
    if gate && report.status == SweepStatus::Complete {
        let b = baseline.expect("gate precondition checked above");
        println!(
            "gate: {:.0} reveals/sec vs baseline {:.0} (threshold {:.0})",
            report.reveals_per_sec,
            b.pairs_per_sec,
            b.pairs_per_sec / 2.0
        );
        if report.reveals_per_sec < b.pairs_per_sec / 2.0 {
            println!(
                "perf gate FAILED: {:.0} reveals/sec is more than 2x below the baseline",
                report.reveals_per_sec
            );
            return Ok(exit::FAIL);
        }
    } else if gate {
        println!(
            "gate: skipped — run was {} (only complete runs are gated)",
            status_name(report.status)
        );
    }
    Ok(match report.status {
        SweepStatus::Complete => exit::COMPLETE,
        SweepStatus::Degraded => exit::DEGRADED,
        SweepStatus::Partial => exit::PARTIAL,
        SweepStatus::Killed => exit::KILLED,
    })
}

/// Installs `handler` for `SIGTERM` and `SIGINT`. Raw `signal(2)` FFI —
/// the workspace deliberately has no libc dependency, and setting an
/// `AtomicBool` is async-signal-safe.
#[cfg(unix)]
fn install_drain_signals(handler: extern "C" fn(i32)) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, handler as usize);
        signal(SIGINT, handler as usize);
    }
}

#[cfg(not(unix))]
fn install_drain_signals(_handler: extern "C" fn(i32)) {}

/// The drain flag the signal handler flips; the serve loop polls it.
static DRAIN_REQUESTED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_drain_signal(_signum: i32) {
    DRAIN_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// In-process proof that panic quarantine works request-granular: fault
/// request 0 into a handler panic, then show request 1 on the *same
/// connection* is served normally.
fn serve_self_test() -> Result<(), String> {
    use ccmm::client::Connection;
    use ccmm::core::fault::ServeFaultPlan;
    use ccmm::core::serve::{render_request, Reply, Request, Verb};
    use ccmm::serve::{spawn, ServeConfig};

    println!("serve self-test: panic quarantine on request 0, same-connection recovery ...");
    let cfg = ServeConfig {
        fault: ServeFaultPlan::from_spec("panic-at-request=0")
            .expect("self-test fault spec parses"),
        ..ServeConfig::default()
    };
    let handle = spawn(cfg).map_err(|e| format!("binding self-test server: {e}"))?;
    let ping = render_request(&Request { verb: Verb::Ping, deadline_ms: None });
    let mut conn = Connection::connect(&handle.addr.to_string(), 2_000)
        .map_err(|e| format!("self-test connect: {e}"))?;
    let first =
        conn.roundtrip(ping.as_bytes()).map_err(|e| format!("self-test round-trip 1: {e}"))?;
    let Reply::Degraded { message } = first else {
        return Err(format!("expected a degraded reply to the faulted request, got {first:?}"));
    };
    let second =
        conn.roundtrip(ping.as_bytes()).map_err(|e| format!("self-test round-trip 2: {e}"))?;
    if second != (Reply::Ok { body: vec!["pong".to_string()], cached: false }) {
        return Err(format!("expected a normal pong after the quarantined panic, got {second:?}"));
    }
    drop(conn);
    let stats = handle.shutdown();
    if stats.connections_accepted != stats.connections_closed {
        return Err(format!(
            "connection leak: {} accepted, {} closed",
            stats.connections_accepted, stats.connections_closed
        ));
    }
    println!("caught: {message}");
    println!("next request on the same connection served normally; drain leaked nothing");
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<u8, String> {
    use ccmm::core::fault::ServeFaultPlan;
    use ccmm::serve::{spawn, ServeConfig};
    use std::time::Instant;

    let mut cfg = ServeConfig::default();
    let mut metrics_path: Option<String> = None;
    let mut self_test = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--addr" => cfg.addr = take("--addr")?,
            "--max-inflight" => {
                cfg.max_inflight =
                    take("--max-inflight")?.parse().map_err(|_| "bad --max-inflight")?;
            }
            "--retry-after-ms" => {
                cfg.retry_after_ms =
                    take("--retry-after-ms")?.parse().map_err(|_| "bad --retry-after-ms")?;
            }
            "--deadline-ms" => {
                cfg.deadline_ms =
                    Some(take("--deadline-ms")?.parse().map_err(|_| "bad --deadline-ms")?);
            }
            "--cache-capacity" => {
                cfg.cache_capacity =
                    take("--cache-capacity")?.parse().map_err(|_| "bad --cache-capacity")?;
            }
            "--fault" => cfg.fault = ServeFaultPlan::from_spec(&take("--fault")?)?,
            "--metrics" => metrics_path = Some(take("--metrics")?),
            "--self-test" => self_test = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if self_test {
        serve_self_test()?;
        return Ok(exit::COMPLETE);
    }

    let mut tel = TelemetrySink::new("serve", None, metrics_path, false);
    let t0 = Instant::now();
    if !cfg.fault.is_empty() {
        println!("fault plan: {} (seed {})", cfg.fault, cfg.fault.seed());
    }
    let handle = spawn(cfg).map_err(|e| format!("binding listener: {e}"))?;
    // The line tests and scripts parse to find the port — keep it first
    // and keep its shape.
    println!("listening on {}", handle.addr);
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    install_drain_signals(on_drain_signal);
    let stop = handle.stop_flag();
    while !DRAIN_REQUESTED.load(std::sync::atomic::Ordering::SeqCst)
        && !stop.load(std::sync::atomic::Ordering::SeqCst)
    {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    println!("drain requested: finishing in-flight requests ...");
    let stats = handle.shutdown();
    tel.end_phase("serve", t0.elapsed());
    tel.write()?;
    let hit_rate = if stats.cache_hits + stats.cache_misses > 0 {
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses) as f64
    } else {
        0.0
    };
    println!(
        "drained: {} request(s) — {} served, {} shed, {} degraded, {} deadline-expired, \
         {} frame error(s), {} refused draining",
        stats.requests,
        stats.served,
        stats.shed,
        stats.degraded,
        stats.deadline_expired,
        stats.frame_errors,
        stats.refused_draining
    );
    println!(
        "cache: {} hit(s), {} miss(es), {} eviction(s), hit rate {hit_rate:.2}",
        stats.cache_hits, stats.cache_misses, stats.cache_evictions
    );
    println!(
        "connections: {} accepted, {} closed",
        stats.connections_accepted, stats.connections_closed
    );
    if stats.connections_accepted != stats.connections_closed {
        return Err(format!(
            "connection leak after drain: {} accepted vs {} closed",
            stats.connections_accepted, stats.connections_closed
        ));
    }
    Ok(exit::COMPLETE)
}

fn cmd_query(args: &[String]) -> Result<u8, String> {
    use ccmm::client::query_with_retries;
    use ccmm::core::serve::{render_request, verdict_line, Reply, Request, Verb};

    let mut addr: Option<String> = None;
    let mut verb: Option<String> = None;
    let mut model: Option<Model> = None;
    let mut litmus_name: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut timeout_ms = 2_000u64;
    let mut retries = 5u32;
    let mut seed = 0u64;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--addr" => addr = Some(take("--addr")?),
            "--ping" => verb = Some("ping".into()),
            "--models" => verb = Some("models".into()),
            "--model" => {
                verb = Some("check".into());
                model = Some(model_by_name(&take("--model")?)?);
            }
            "--litmus" => {
                verb = Some("litmus".into());
                litmus_name = Some(take("--litmus")?);
            }
            "--deadline-ms" => {
                deadline_ms = Some(take("--deadline-ms")?.parse().map_err(|_| "bad --deadline-ms")?)
            }
            "--timeout-ms" => {
                timeout_ms = take("--timeout-ms")?.parse().map_err(|_| "bad --timeout-ms")?
            }
            "--retries" => retries = take("--retries")?.parse().map_err(|_| "bad --retries")?,
            "--seed" => seed = take("--seed")?.parse().map_err(|_| "bad --seed")?,
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            path => paths.push(path.to_string()),
        }
    }
    let addr = addr.ok_or("usage: ccmm query --addr HOST:PORT (--ping | --model M <comp> <obs> | --models <comp> <obs> | --litmus NAME)")?;
    let request = match verb.as_deref() {
        Some("ping") => Request { verb: Verb::Ping, deadline_ms },
        Some("litmus") => {
            Request { verb: Verb::Litmus { name: litmus_name.unwrap() }, deadline_ms }
        }
        Some(v @ ("check" | "models")) => {
            let [cpath, opath] = paths.as_slice() else {
                return Err(format!("--{v} needs <computation> <observer> files"));
            };
            let (c, phi) = load_pair(cpath, opath)?;
            let verb = if v == "check" {
                Verb::Check { model: model.unwrap(), c, phi }
            } else {
                Verb::Models { c, phi }
            };
            Request { verb, deadline_ms }
        }
        _ => {
            return Err("pick one of --ping, --model M, --models, --litmus NAME".into());
        }
    };
    let payload = render_request(&request);
    let out = query_with_retries(&addr, payload.as_bytes(), timeout_ms, retries, seed);
    if out.attempts > 1 {
        eprintln!(
            "transport: {} attempt(s), {} error(s) along the way",
            out.attempts,
            out.transport_errors.len()
        );
    }
    let Some(reply) = out.reply else {
        let last = out.transport_errors.last().map(|e| e.to_string()).unwrap_or_default();
        eprintln!("no reply after {} attempt(s): {last}", out.attempts);
        return Ok(exit::TRANSPORT);
    };
    match reply {
        Reply::Ok { body, cached } => {
            for line in &body {
                println!("{line}");
            }
            if cached {
                eprintln!("(cached)");
            }
            // `--model` mirrors `ccmm check`: exit 1 on a non-member.
            if let Verb::Check { model, .. } = &request.verb {
                let member = body.first().is_some_and(|l| l == &verdict_line(*model, true));
                return Ok(if member { exit::COMPLETE } else { exit::FAIL });
            }
            Ok(exit::COMPLETE)
        }
        Reply::Error { line, message } => {
            eprintln!("request rejected at line {line}: {message}");
            Err(format!("server rejected the request: line {line}: {message}"))
        }
        Reply::Degraded { message } => {
            eprintln!("degraded: {message}");
            Ok(exit::DEGRADED)
        }
        Reply::Partial { done, total, body } => {
            for line in &body {
                println!("{line}");
            }
            eprintln!("partial: deadline expired after {done}/{total} check(s)");
            Ok(exit::PARTIAL)
        }
        Reply::Overloaded { retry_after_ms } => {
            eprintln!(
                "overloaded after {} attempt(s) (server hints retry-after {retry_after_ms} ms)",
                out.attempts
            );
            Ok(exit::OVERLOADED)
        }
        Reply::ShuttingDown => {
            eprintln!("server is draining; retries exhausted");
            Ok(exit::OVERLOADED)
        }
    }
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let [cpath] = args else {
        return Err("usage: ccmm dot <computation>".into());
    };
    let c = parse_computation(&read_input(cpath)?).map_err(|e| e.to_string())?;
    print!("{}", c.to_dot("computation"));
    Ok(())
}

const USAGE: &str = "\
ccmm — computation-centric memory models (Frigo & Luchangco, SPAA 1998)

USAGE:
  ccmm models <computation> <observer>     memberships of a pair in all models
  ccmm check --model <m> <comp> <obs>      exit 0 iff member (m: sc|lc|nn|nw|wn|ww)
  ccmm witness [fig2|fig3|fig4]            the paper's witness pairs
  ccmm litmus [name]                       litmus outcome counts per model
  ccmm backer [--workload W] [--procs P] [--cache N] [--page B] [--runs K]
  ccmm lattice [--nodes N]                 pairwise model relations (N ≤ 4)
  ccmm sweep [--bound N] [--locs L] [--canonical] [--engine E] [--threads T]
             [--gate] [--deadline-secs S] [--fault SPEC] [--ckpt PATH]
             [--ckpt-every K] [--resume PATH]
             [--trace FILE] [--metrics FILE] [--progress]
                                           exhaustive verification at bound N
                                           (N ≤ 5): memberships, lattice (read
                                           off the memberships pass), NN*
                                           fixpoint, constructibility; appends
                                           timings to BENCH_sweep.json; --gate
                                           fails on >2x throughput regression
                                           vs the same-engine baseline (exit 5
                                           when no baseline exists).
                                           --engine lane64 (with --canonical)
                                           batches 64 observers per u64 word
                                           and runs the Δ* fixpoint on lane
                                           survivor masks; counts and
                                           witnesses stay bit-identical to
                                           scalar, and every phase runs
                                           through bound 6 (memberships phase
                                           only beyond; fixpoint journals to
                                           <ckpt>.fixpoint).
                                           --deadline-secs stops after the
                                           budget (exit 4, resume frontier
                                           printed); --ckpt journals progress
                                           every K tasks; --resume continues a
                                           journal bit-identically; --fault
                                           injects deterministic faults (e.g.
                                           panic-at-task=3, kill-after-ckpt=2;
                                           exit 3 degraded, 70 killed).
                                           --metrics writes per-phase counters
                                           (JSON; counter values bit-identical
                                           across thread counts for the
                                           memberships, lattice and fixpoint
                                           phases),
                                           --trace writes span events (JSONL),
                                           --progress heartbeats on stderr
  ccmm conformance [--nodes N] [--locs L] [--random K] [--seed S] [--threads T]
                   [--canonical] [--no-harvest] [--self-test] [--out DIR]
                   [--trace FILE] [--metrics FILE] [--progress]
                                           fast checkers vs oracles; exit 0 iff
                                           no disagreement (witnesses shrunk);
                                           nodes >= 5 sweeps canonical reps
  ccmm stress [--seed S] [--iters N] [--threads T] [--perturb SPEC]
              [--mutate M] [--self-test] [--deadline-secs S] [--fault SPEC]
              [--ckpt PATH] [--ckpt-every K] [--resume PATH]
              [--trace FILE] [--metrics FILE] [--progress]
                                           schedule-perturbation stress of the
                                           threaded BACKER executor with LC
                                           conformance as the oracle; exit 0
                                           iff every perturbed execution
                                           conforms. Deterministic per
                                           (S, N, T) in its seeds, workloads,
                                           check counts, and failures (failing
                                           seed + shrunk trace printed; exit
                                           1). --perturb tunes the injection
                                           (e.g. yield=1/2,spin=1/8:64,
                                           steal=rotate); --mutate weakens the
                                           protocol (skip-flush |
                                           skip-reconcile) to exercise the
                                           oracle; --self-test proves a seeded
                                           mutation is caught before the run.
                                           Supervision matches sweep:
                                           quarantine (exit 3), deadline +
                                           resume frontier (exit 4), --ckpt/
                                           --resume journals, --fault (exit 70
                                           killed)
  ccmm watch [--workload W] [--procs P] [--cache N] [--block B]
             [--fault F] [--deadline-secs S] [--ckpt PATH] [--ckpt-every K]
             [--resume PATH] [--sample-every K] [--sample-cap N] [--gate]
             [--trace FILE] [--metrics FILE] [--progress]
                                           stream a harvested Cilk trace
                                           (fib:N | matmul:N | stencil:W,T;
                                           depths reach 10^5-10^7 nodes)
                                           through the lean BACKER executor
                                           and check validity + SC/LC on the
                                           fly, race-detector style: one
                                           reveal per node via SP-order and
                                           last-writer indices, no dense
                                           closure. Every K-th commit inside
                                           the first --sample-cap nodes the
                                           prefix is densified and
                                           cross-checked against the exact
                                           batch checkers; any divergence is
                                           exit 1. --fault (skip-flush |
                                           skip-reconcile) weakens the
                                           protocol — the stream then reports
                                           the LC violation (exit 1).
                                           Supervision matches sweep:
                                           deadline → exit 4 + node frontier,
                                           --ckpt/--resume journals with
                                           replay-verified resume, sample
                                           panics quarantined (exit 3).
                                           Appends reveals/sec + counters to
                                           BENCH_sweep.json; --gate fails on
                                           >2x regression vs the same-shape
                                           baseline (exit 5 when none)
  ccmm serve [--addr A] [--max-inflight N] [--retry-after-ms MS]
             [--deadline-ms MS] [--cache-capacity N] [--fault SPEC]
             [--metrics FILE] [--self-test]
                                           membership query daemon over a
                                           framed TCP protocol. Prints
                                           `listening on HOST:PORT` (\":0\"
                                           picks a free port), serves until
                                           SIGTERM/SIGINT, then drains: stops
                                           accepting, finishes in-flight
                                           requests, reports stats, exits 0.
                                           Per-request panics become
                                           `degraded` replies, deadline
                                           expiry `partial`, load shedding
                                           `overloaded` + retry-after hint.
                                           Verdicts are memoized in a sharded
                                           canonical cache (eviction never
                                           changes an answer). --fault injects
                                           deterministic request-level faults
                                           (e.g. panic=1/13,drop=1/17,seed=42;
                                           see also panic-at-request=N).
                                           --self-test proves quarantine +
                                           same-connection recovery in
                                           process, then exits.
  ccmm query --addr HOST:PORT (--ping | --model M <comp> <obs> |
             --models <comp> <obs> | --litmus NAME)
             [--deadline-ms MS] [--timeout-ms MS] [--retries K] [--seed S]
                                           one query against a running serve
                                           daemon, with timeouts and capped
                                           exponential backoff + seeded
                                           jitter on transport failures and
                                           overload. Exit: 0 ok (member for
                                           --model), 1 non-member, 3 degraded
                                           reply, 4 partial reply, 6 retries
                                           exhausted against overload/drain,
                                           7 no reply at all
  ccmm dot <computation>                   Graphviz export

Computation/observer files use the text format of ccmm_core::parse
(`-` = stdin). Workloads: fib:K matmul:K stencil:K reduce:K mergesort:K.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // Exit codes: 0 success/complete, 1 failed check/gate/conformance,
    // 2 usage or I/O error, and for `sweep` additionally 3 degraded,
    // 4 partial (deadline), 5 gate-without-baseline, 70 killed by the
    // fault plan.
    // The timing-record file is read from `CCMM_BENCH_JSON` here, once,
    // and handed to the commands that record or gate on timings.
    let bench_json = ccmm_bench::report::bench_json_path();
    let result: Result<u8, String> = match cmd.as_str() {
        "models" => cmd_models(rest).map(|()| 0),
        "check" => cmd_check(rest).map(|ok| if ok { 0 } else { 1 }),
        "witness" => cmd_witness(rest).map(|()| 0),
        "litmus" => cmd_litmus(rest).map(|()| 0),
        "backer" => cmd_backer(rest).map(|()| 0),
        "lattice" => cmd_lattice(rest).map(|()| 0),
        "sweep" => cmd_sweep(rest, &bench_json),
        "conformance" => cmd_conformance(rest).map(|ok| if ok { 0 } else { 1 }),
        "stress" => cmd_stress(rest),
        "watch" => cmd_watch(rest, &bench_json),
        "serve" => cmd_serve(rest),
        "query" => cmd_query(rest),
        "dot" => cmd_dot(rest).map(|()| 0),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
