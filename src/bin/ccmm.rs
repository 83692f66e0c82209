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
use ccmm::core::relation::LatticeRow;
use ccmm::core::sweep::supervisor::SweepStatus;
use ccmm::core::{Computation, Model};
use ccmm_bench::report::{latest_matching, Shape, SweepRecord};
use std::io::Read;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// The six models of the paper's Figure 1, in its order.
const MODELS: [Model; 6] = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];

/// A subcommand's argument list, read front to back. Every subcommand
/// reads its flags through [`Args::read`], so a missing value, an
/// unparsable one and an unknown flag are the same usage error (exit 2)
/// everywhere.
struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    /// Hands each argument of `args`, in order, to `accept` together with
    /// the reader, from which `accept` takes the argument's value if it
    /// has one. `accept` answers whether it knew the argument; the first
    /// one it did not know is an `unknown flag` error.
    fn read(
        args: &'a [String],
        mut accept: impl FnMut(&'a str, &mut Self) -> Result<bool, String>,
    ) -> Result<(), String> {
        let mut reader = Args { rest: args.iter() };
        while let Some(arg) = reader.rest.next() {
            if !accept(arg, &mut reader)? {
                return Err(format!("unknown flag `{arg}`"));
            }
        }
        Ok(())
    }

    /// The value after `flag`, parsed.
    fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self.rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse().map_err(|_| format!("bad {flag}"))
    }

    /// The value after `flag` as a count of threads, processors or tasks,
    /// which must be at least 1.
    fn count(&mut self, flag: &str) -> Result<usize, String> {
        match self.value(flag)? {
            0 => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        }
    }

    /// The value after `flag` as a wall-clock budget in seconds: a finite,
    /// non-negative number.
    fn seconds(&mut self, flag: &str) -> Result<Duration, String> {
        Duration::try_from_secs_f64(self.value(flag)?).map_err(|e| format!("bad {flag}: {e}"))
    }
}

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
    let name = name.to_ascii_lowercase();
    Model::ALL
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(&name))
        .ok_or_else(|| format!("unknown model `{name}` (sc|lc|nn|nw|wn|ww|any)"))
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
    const USAGE: &str = "usage: ccmm check --model <m> <computation> <observer>";
    let mut model = None;
    let mut files = Vec::new();
    Args::read(args, |arg, args| {
        match arg {
            "--model" => model = Some(model_by_name(&args.value::<String>(arg)?)?),
            file => files.push(file),
        }
        Ok(true)
    })?;
    let model = model.ok_or(USAGE)?;
    let [cpath, opath] = files.as_slice() else {
        return Err(USAGE.into());
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
    for t in ccmm::core::litmus::standard_tests() {
        if filter.is_some_and(|f| !t.name.eq_ignore_ascii_case(f)) {
            continue;
        }
        println!("=== {} ===", t.name);
        println!("{}", t.note);
        for m in MODELS {
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
    Args::read(args, |flag, args| {
        match flag {
            "--workload" => workload = args.value(flag)?,
            "--procs" => procs = args.count(flag)?,
            "--cache" => cache = args.value(flag)?,
            "--page" => page = args.value(flag)?,
            "--runs" => runs = args.value(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
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

/// Prints a Figure-1 relation matrix, one row per model, with every line
/// indented by `indent`.
fn print_lattice(indent: &str, rows: &[LatticeRow]) {
    print!("{indent}{:<4}", "");
    for row in rows {
        print!("{:>4}", row.name);
    }
    println!();
    for row in rows {
        print!("{indent}{:<4}", row.name);
        for r in &row.relations {
            print!("{:>4}", r.to_string());
        }
        println!();
    }
}

/// Figure 1 at `--nodes N`, read off one memberships pass over the
/// labelled universe, as `ccmm sweep` reads its lattice phase.
fn cmd_lattice(args: &[String]) -> Result<(), String> {
    use ccmm::core::sweep::supervisor::{memberships, Scalar, Supervisor};
    use ccmm::core::sweep::SweepConfig;
    let mut nodes = 3usize;
    Args::read(args, |flag, args| {
        match flag {
            "--nodes" => nodes = args.value(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if nodes > 4 {
        return Err("--nodes > 4 is too slow for the CLI; use exp_fig1".into());
    }
    let u = ccmm::core::universe::Universe::new(nodes, 1);
    let cfg = SweepConfig::from_env();
    let counts = memberships(Scalar, &MODELS, &u, &cfg, &Supervisor::none(), None, None).value;
    print_lattice("", &counts.lattice(&MODELS));
    Ok(())
}

/// Exit codes (see `ccmm --help`): 0 complete, 1 gate/check failure,
/// 2 usage or I/O error (every bad flag or flag value), and for the
/// supervised runs 3 degraded (quarantined panics), 4 partial (deadline
/// hit), 5 `--gate` without a baseline, 70 killed by the fault plan.
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

fn status_name(s: SweepStatus) -> &'static str {
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

/// The exit code of a supervised run's final status.
fn exit_code(s: SweepStatus) -> u8 {
    match s {
        SweepStatus::Complete => exit::COMPLETE,
        SweepStatus::Degraded => exit::DEGRADED,
        SweepStatus::Partial => exit::PARTIAL,
        SweepStatus::Killed => exit::KILLED,
    }
}

/// Reports a supervised run that stopped short — killed by its fault
/// plan, or out of deadline — with its resume hint, and returns whether
/// it did. `units` ends the deadline line ("task(s) complete"), `phase`
/// names a phase with a journal of its own, and the hint names
/// `journal`'s path and the records `writer` appended to it.
fn report_stop(
    status: SweepStatus,
    frontier: &ccmm::core::sweep::supervisor::Frontier,
    total: usize,
    units: &str,
    phase: Option<&str>,
    journal: &Option<(String, bool)>,
    writer: &Option<ccmm::core::ckpt::CkptWriter>,
) -> bool {
    let path = journal.as_ref().map(|(path, _)| path.as_str());
    match status {
        SweepStatus::Killed => {
            let records = writer.as_ref().map_or(0, |w| w.snapshots());
            let kind = phase.map(|p| format!("{p} ")).unwrap_or_default();
            println!(
                "killed by fault plan after {records} {kind}checkpoint record(s); resume with \
                 --resume {}",
                path.unwrap_or("<journal>")
            );
        }
        SweepStatus::Partial => {
            let during = phase.map(|p| format!(" during {p}")).unwrap_or_default();
            println!(
                "deadline hit{during}: {}/{total} {units}; resume frontier: {:?}",
                frontier.len(),
                frontier.ranges()
            );
            if let Some(path) = path {
                println!("resume with --resume {path}");
            }
        }
        SweepStatus::Complete | SweepStatus::Degraded => return false,
    }
    true
}

/// `--trace FILE`, `--metrics FILE` and `--progress`: what a run reports
/// about itself beside its output (see [`TelemetrySink`]).
#[derive(Default)]
struct TelemetryFlags {
    trace: Option<String>,
    metrics: Option<String>,
    progress: bool,
}

impl TelemetryFlags {
    /// Takes `flag` if it is one of the three (see [`Args::read`]).
    fn read(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--trace" => self.trace = Some(args.value(flag)?),
            "--metrics" => self.metrics = Some(args.value(flag)?),
            "--progress" => self.progress = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// The flags of a supervised run (`sweep`, `stress` and `watch`): its
/// deadline, its checkpoint journal and cadence, and its telemetry.
struct RunFlags {
    /// `--deadline-secs S`: the run's wall-clock budget.
    deadline: Option<Duration>,
    /// `--ckpt PATH` or `--resume PATH`: the journal the run writes, and
    /// whether it continues that journal rather than starting it.
    journal: Option<(String, bool)>,
    /// `--ckpt-every K`: units of work between journal records.
    ckpt_every: usize,
    telemetry: TelemetryFlags,
}

impl RunFlags {
    /// Reads a supervised command's arguments: `own` takes the command's
    /// own flags as in [`Args::read`], and the run flags are read here.
    /// `ckpt_every` is the command's default cadence.
    fn read<'a>(
        args: &'a [String],
        ckpt_every: usize,
        mut own: impl FnMut(&'a str, &mut Args<'a>) -> Result<bool, String>,
    ) -> Result<Self, String> {
        let mut run =
            RunFlags { deadline: None, journal: None, ckpt_every, telemetry: Default::default() };
        let (mut ckpt, mut resume) = (None, None);
        Args::read(args, |flag, args| {
            if own(flag, args)? {
                return Ok(true);
            }
            match flag {
                "--deadline-secs" => run.deadline = Some(args.seconds(flag)?),
                "--ckpt" => ckpt = Some(args.value(flag)?),
                "--resume" => resume = Some(args.value(flag)?),
                "--ckpt-every" => run.ckpt_every = args.count(flag)?,
                _ => return run.telemetry.read(flag, args),
            }
            Ok(true)
        })?;
        if ckpt.is_some() && resume.is_some() {
            return Err(
                "--ckpt starts a fresh journal and --resume continues one; pass only one".into()
            );
        }
        run.journal = ckpt.map(|path| (path, false)).or(resume.map(|path| (path, true)));
        Ok(run)
    }
}

/// Opens a run's checkpoint journal, if it has one (`journal` is the
/// path and whether to resume it). A fresh journal is created under
/// `fingerprint`; a resumed one is loaded, refused on a fingerprint
/// mismatch, decoded, and reopened for appending. `decode` returns `None`
/// for a corrupt journal and `Some(None)` when no snapshot survived;
/// `label` names the journal in errors.
fn open_journal<T>(
    label: &str,
    journal: &Option<(String, bool)>,
    fingerprint: &str,
    decode: impl FnOnce(&ccmm::core::ckpt::Checkpoint) -> Option<Option<T>>,
) -> Result<(Option<ccmm::core::ckpt::CkptWriter>, Option<T>), String> {
    use ccmm::core::ckpt::{Checkpoint, CkptWriter};
    let Some((path, resuming)) = journal else { return Ok((None, None)) };
    let file = std::path::Path::new(path);
    if !resuming {
        let writer = CkptWriter::create(file, fingerprint)
            .map_err(|e| format!("creating {label} {path}: {e}"))?;
        return Ok((Some(writer), None));
    }
    let loaded = Checkpoint::load(file).map_err(|e| format!("loading {label} {path}: {e}"))?;
    if loaded.fingerprint != fingerprint {
        return Err(format!(
            "{label} fingerprint mismatch: journal is `{}`, this run is `{fingerprint}`",
            loaded.fingerprint
        ));
    }
    let state = decode(&loaded).ok_or_else(|| format!("corrupt {label} snapshot in {path}"))?;
    let writer =
        CkptWriter::append_to(file).map_err(|e| format!("reopening {label} {path}: {e}"))?;
    Ok((Some(writer), state))
}

/// The `decode` of [`open_journal`] for a journal that resumes from its
/// latest snapshot.
fn latest<T>(
    decode: impl Fn(&[u8]) -> Option<T>,
) -> impl FnOnce(&ccmm::core::ckpt::Checkpoint) -> Option<Option<T>> {
    move |loaded| match loaded.latest() {
        Some(snapshot) => decode(snapshot).map(Some),
        None => Some(None), // the journal died before its first snapshot
    }
}

/// A closed phase's non-zero counters, in snapshot order.
type Counters = Vec<(&'static str, u64)>;

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
    /// `(phase, wall_ms, counters)` for every closed phase.
    phases: Vec<(&'static str, u128, Counters)>,
}

impl TelemetrySink {
    /// Arms telemetry to match the flags. Counters and span events left
    /// over from earlier in the process are discarded so the first phase
    /// starts from zero.
    fn new(command: &'static str, flags: TelemetryFlags) -> Self {
        use ccmm::core::telemetry;
        let TelemetryFlags { trace, metrics, progress } = flags;
        telemetry::set_enabled(trace.is_some() || metrics.is_some() || progress);
        telemetry::set_events(trace.is_some());
        telemetry::set_progress(progress);
        let _ = telemetry::snapshot_and_reset();
        let _ = telemetry::drain_events();
        TelemetrySink { command, trace, metrics, phases: Vec::new() }
    }

    /// Closes a phase: snapshots (and zeroes) every counter under `name`,
    /// so successive phases report disjoint counts.
    fn end_phase(&mut self, name: &'static str, wall: Duration) {
        use ccmm::core::telemetry::{snapshot_and_reset, Counter};
        let snap = snapshot_and_reset();
        let counters = Counter::ALL.iter().map(|c| (c.name(), snap[*c as usize]));
        self.phases.push((name, wall.as_millis(), counters.filter(|&(_, v)| v != 0).collect()));
    }

    /// Runs one phase, closes it under `name`, and returns its value and
    /// wall time.
    fn timed<T>(&mut self, name: &'static str, run: impl FnOnce() -> T) -> (T, Duration) {
        let t0 = Instant::now();
        let value = run();
        let wall = t0.elapsed();
        self.end_phase(name, wall);
        (value, wall)
    }

    /// [`Self::timed`] inside the telemetry span `span`, which is
    /// `<command>/<phase>`; the phase takes the name after the slash.
    fn phase<T>(&mut self, span: &'static str, run: impl FnOnce() -> T) -> (T, Duration) {
        let name = span.rsplit_once('/').map_or(span, |(_, name)| name);
        self.timed(name, || {
            let _span = ccmm::core::telemetry::span(span);
            run()
        })
    }

    /// Non-zero counters of the most recently closed phase, in snapshot
    /// order — the `SweepRecord.counters` payload. Empty (so the field is
    /// omitted from bench JSON) when telemetry is off.
    fn last_counters(&self) -> Vec<(String, u64)> {
        let Some((_, _, counters)) = self.phases.last() else { return Vec::new() };
        counters.iter().map(|&(name, v)| (name.to_string(), v)).collect()
    }

    /// Writes the metrics JSON and trace JSONL files, if requested.
    /// Called on every exit path (complete, partial, killed) so a
    /// truncated run still reports the phases it finished. Both counter
    /// names and span names are static identifiers, so the JSON needs no
    /// string escaping.
    fn write(&self) -> Result<(), String> {
        use ccmm::core::telemetry::drain_events;
        use std::fmt::Write as _;
        if let Some(path) = &self.metrics {
            let phases: Vec<String> = self
                .phases
                .iter()
                .map(|(name, wall_ms, counters)| {
                    let counters: Vec<_> =
                        counters.iter().map(|(c, v)| format!("\"{c}\":{v}")).collect();
                    let counters = counters.join(",");
                    format!(
                        "{{\"name\":\"{name}\",\"wall_ms\":{wall_ms},\"counters\":{{{counters}}}}}"
                    )
                })
                .collect();
            let s = format!(
                "{{\"schema\":\"ccmm-metrics-v1\",\"command\":\"{}\",\"phases\":[{}]}}\n",
                self.command,
                phases.join(",")
            );
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

/// The perf gate behind `--gate`. A gated run is compared against the
/// latest complete bench record of its experiment, engine and [`Shape`];
/// the shape includes the thread count, because a 4-thread run gated
/// against a 1-thread baseline would pass on scaling alone. The run fails
/// (exit 1) when its throughput is more than 2× below the baseline's.
struct Gate {
    /// `(experiment, baseline)` for each gated experiment, headline
    /// first; empty when the run is not gated.
    baselines: Vec<(String, SweepRecord)>,
}

impl Gate {
    /// Reads the baselines of a run (gated iff `on`) before it records
    /// anything, so that a gated run never becomes its own baseline.
    /// `experiments` are `(experiment, engine)` pairs. The first is the
    /// headline: a gated run without a baseline for it must record nothing
    /// and exit 5, and gets `None` after the error is printed. The others
    /// are gated only when they have a baseline, so a new phase joins
    /// without invalidating older baselines.
    fn open(
        on: bool,
        bench_json: &str,
        shape: Shape,
        experiments: &[(&str, &str)],
    ) -> Option<Self> {
        if !on {
            return Some(Gate { baselines: Vec::new() });
        }
        let lookup = |&(experiment, engine): &(&str, &str)| {
            latest_matching(bench_json, experiment, engine, shape)
                .map(|b| (experiment.to_string(), b))
        };
        let Some(headline) = lookup(&experiments[0]) else {
            eprintln!("error: no baseline for this config — run without --gate to record one");
            return None;
        };
        let phases = experiments[1..].iter().filter_map(lookup);
        Some(Gate { baselines: std::iter::once(headline).chain(phases).collect() })
    }

    /// Gates a run that ended with `status` and recorded `records`, whose
    /// throughput is counted in `unit`. Only a complete run is compared:
    /// one line per gated experiment, headline first, and `false` at the
    /// first one more than 2× below its baseline.
    fn passes(&self, status: SweepStatus, unit: &str, records: &[SweepRecord]) -> bool {
        if self.baselines.is_empty() {
            return true;
        }
        if status != SweepStatus::Complete {
            println!(
                "gate: skipped — run was {} (only complete runs are gated)",
                status_name(status)
            );
            return true;
        }
        for (i, (experiment, baseline)) in self.baselines.iter().enumerate() {
            let Some(run) = records.iter().find(|r| r.experiment == *experiment) else {
                continue;
            };
            let (rate, base) = (run.pairs_per_sec, baseline.pairs_per_sec);
            let threshold = base / 2.0;
            let (tag, subject) = match i {
                0 => (String::new(), String::new()),
                _ => (format!("[{experiment}]"), format!("{experiment} at ")),
            };
            println!(
                "gate{tag}: {rate:.0} {unit} vs baseline {base:.0} (threshold {threshold:.0})"
            );
            if rate < threshold {
                eprintln!(
                    "perf gate FAILED: {subject}{rate:.0} {unit} is more than 2x below the \
                     committed baseline {base:.0}"
                );
                return false;
            }
        }
        true
    }
}

fn cmd_sweep(args: &[String], bench_json: &str) -> Result<u8, String> {
    use ccmm::core::constructible::lanes::{decode_census_snapshot, LaneConstructible};
    use ccmm::core::fault::FaultPlan;
    use ccmm::core::sweep::supervisor::{
        check_constructible_aug_lanes_supervised, check_constructible_aug_supervised,
        decode_counts_snapshot, memberships, Lane64, Scalar, Supervisor,
    };
    use ccmm::core::sweep::SweepConfig;
    use ccmm::core::universe::Universe;
    use ccmm::core::Nn;
    use ccmm_bench::report::emit;

    let mut bound = 4usize;
    let mut locs = 1usize;
    let mut canonical = false;
    let mut lane = false;
    let mut gate = false;
    let mut threads: Option<usize> = None;
    let mut fault = FaultPlan::none();
    let run = RunFlags::read(args, 16, |flag, args| {
        match flag {
            "--bound" => bound = args.value(flag)?,
            "--locs" => locs = args.value(flag)?,
            "--canonical" => canonical = true,
            "--engine" => {
                lane = match args.value::<String>(flag)?.as_str() {
                    "scalar" => false,
                    "lane64" => true,
                    other => return Err(format!("unknown --engine `{other}` (scalar | lane64)")),
                }
            }
            "--gate" => gate = true,
            "--threads" => threads = Some(args.count(flag)?),
            "--fault" => fault = FaultPlan::from_spec(&args.value::<String>(flag)?)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
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
    // The lane engine keeps the Δ* fixpoint and constructibility phases
    // within budget through bound 6; beyond that only the lane-parallel
    // memberships phase is.
    let memberships_only = bound > 6;
    let sup = Supervisor::with_fault(fault);
    let threads = threads.unwrap_or_else(|| SweepConfig::from_env().threads);
    let cfg = SweepConfig { threads, canonical, deadline: run.deadline };
    let engine = match (lane, canonical) {
        (true, _) => "lane64",
        (false, true) => "canonical",
        (false, false) => "labelled",
    };
    // The scalar engine's fixpoint keeps its historical `worklist` label
    // (and bench key): the fixpoint ends in a worklist cascade.
    let fix_engine = if lane { "lane64" } else { "worklist" };
    let u = Universe::new(bound, locs);

    // Memberships is the headline gate; the fixpoint and constructibility
    // phases are gated against their own baselines when they have one.
    let gated = [
        ("cli_sweep/memberships", engine),
        ("cli_sweep/nnstar_worklist", fix_engine),
        ("cli_sweep/constructibility", engine),
    ];
    let Some(gate) = Gate::open(gate, bench_json, Shape::of(&u, threads), &gated) else {
        return Ok(exit::NO_BASELINE);
    };

    // Checkpoint journal: `--ckpt` starts one, `--resume` validates an
    // existing journal's fingerprint and continues from its last
    // snapshot. The fingerprint pins the exact sweep configuration so a
    // journal can never be resumed into a different universe; v2
    // snapshots carry the lattice's separation mask beside the counts.
    let fingerprint =
        format!("ccmm-sweep-v2 bound={bound} locs={locs} canonical={canonical} engine={engine}");
    let decode = latest(decode_counts_snapshot);
    let (mut writer, resume_state) =
        open_journal("checkpoint", &run.journal, &fingerprint, decode)?;
    if let (Some((path, _)), Some((f, _))) = (&run.journal, &resume_state) {
        println!("resuming from {path}: {} task(s) already complete", f.len());
    }
    let save = |records: &[SweepRecord]| -> Result<(), String> {
        emit(bench_json, records).map_err(|e| format!("writing bench json: {e}"))?;
        println!("recorded {} sweep record(s) to {bench_json}", records.len());
        Ok(())
    };
    // A run killed or out of deadline stops where it is: the later phases
    // would blow the budget the caller just set. A partial run still
    // records the phases it finished.
    let stopped = |status: SweepStatus, records: &[SweepRecord], tel: &TelemetrySink| {
        if status == SweepStatus::Partial {
            save(records)?;
            // A partial run always passes: this only prints the skipped line.
            gate.passes(status, "pairs/sec", records);
        }
        tel.write()?;
        Ok(exit_code(status))
    };
    // The end of every other sweep: record the run, gate it and print its
    // status.
    let finish = |records: &[SweepRecord], worst: SweepStatus| {
        save(records)?;
        if !gate.passes(worst, "pairs/sec", records) {
            return Ok(exit::FAIL);
        }
        println!("sweep status: {}", status_name(worst));
        Ok(exit_code(worst))
    };

    // Each phase's bench record: its wall time and work over the universe.
    let record = |experiment: &str, engine: &str, wall, pairs, passes, status| {
        SweepRecord::new(experiment, engine, &u, threads, wall, pairs, passes)
            .with_status(status_name(status))
    };

    let mut tel = TelemetrySink::new("sweep", run.telemetry);
    println!(
        "sweep: bound {bound}, {locs} location(s), {} computations, {engine} enumeration, {} thread(s)",
        u.count_computations_closed(),
        cfg.threads
    );
    let mut records = Vec::new();
    let mut worst = SweepStatus::Complete;

    // Phase 1: weighted membership counts for every model, plus the
    // separation mask phase 2 reads the lattice from. The weighted pair
    // total is the labelled universe's pair count regardless of
    // enumeration mode, so pairs/sec is comparable across engines — the
    // number the perf gate watches. This is the checkpointable phase.
    let sink = writer.as_mut().map(|w| (w, run.ckpt_every));
    let (out, wall) = tel.phase("sweep/memberships", || {
        if lane {
            memberships(Lane64, &MODELS, &u, &cfg, &sup, resume_state, sink)
        } else {
            memberships(Scalar, &MODELS, &u, &cfg, &sup, resume_state, sink)
        }
    });
    if let Some(e) = &out.ckpt_error {
        eprintln!("warning: checkpoint journalling failed mid-sweep: {e}");
    }
    report_quarantine("memberships", &out.quarantined);
    worst = worst.max(out.status);
    if out.status != SweepStatus::Killed {
        println!(
            "memberships over {} (computation, observer) pairs [{:.2?}] ({}):",
            out.value.pairs,
            wall,
            status_name(out.status)
        );
        for (m, n) in MODELS.iter().zip(&out.value.per_model) {
            println!("  {:<4} {n}", m.name());
        }
        let pairs = out.value.pairs;
        let membership = record("cli_sweep/memberships", engine, wall, pairs, 0, out.status);
        records.push(membership.with_counters(tel.last_counters()));
    }
    let (total, units) = (out.total_tasks, "task(s) complete");
    if report_stop(out.status, &out.frontier, total, units, None, &run.journal, &writer) {
        return stopped(out.status, &records, &tel);
    }

    if memberships_only {
        println!(
            "bound {bound} runs the memberships phase only; the lattice, fixpoint, and \
             constructibility phases need bound ≤ 6 with --engine lane64 (≤ 5 scalar)"
        );
        tel.write()?;
        return finish(&records, worst);
    }

    // Phase 2: the full pairwise relation lattice (Figure 1 at this
    // bound), read off the separation mask phase 1 folded — no second
    // sweep. It covers exactly the pairs the counts cover, so tasks
    // quarantined in phase 1 degrade it too.
    let (lattice, wall) = tel.phase("sweep/lattice", || out.value.lattice(&MODELS));
    let lattice_status = SweepStatus::of(false, false, !out.quarantined.is_empty());
    worst = worst.max(lattice_status);
    println!("lattice [{:.2?}] ({}):", wall, status_name(lattice_status));
    print_lattice("  ", &lattice);
    records.push(record("cli_sweep/lattice", engine, wall, 0, 0, lattice_status));

    // Phase 3: constructibility. The NN Δ* fixpoint (a canonical census
    // of NN's dead ends, then a labelled cascade from them) and the
    // one-step augmentation check for every model. The census journals
    // to `<path>.fixpoint` beside the memberships journal, under an
    // engine-free fingerprint: both kernels journal identical snapshots.
    // v2 journals census snapshots; a v1 survivor-mask journal is refused.
    let nn = Nn::default();
    let fix_fingerprint = format!("ccmm-fixpoint-v2 bound={bound} locs={locs} model=nn");
    let fix_journal = run.journal.as_ref().map(|(base, resuming)| {
        let path = format!("{base}.fixpoint");
        let resuming = *resuming && std::path::Path::new(&path).exists();
        (path, resuming)
    });
    let decode = latest(decode_census_snapshot);
    let (mut fix_writer, fix_resume) =
        open_journal("fixpoint checkpoint", &fix_journal, &fix_fingerprint, decode)?;
    if let (Some((path, _)), Some((f, _))) = (&fix_journal, &fix_resume) {
        println!("resuming fixpoint from {path}: {} task(s) already complete", f.len());
    }
    let sink = fix_writer.as_mut().map(|w| (w, run.ckpt_every));
    let (fix, wall) = tel.phase("sweep/fixpoint", || {
        LaneConstructible::compute_supervised(&nn, &u, &cfg, &sup, fix_resume, sink, lane)
    });
    if let Some(e) = &fix.ckpt_error {
        eprintln!("warning: fixpoint checkpoint journalling failed mid-sweep: {e}");
    }
    report_quarantine("fixpoint", &fix.quarantined);
    let (total, phase) = (fix.total_tasks, Some("fixpoint"));
    if report_stop(fix.status, &fix.frontier, total, units, phase, &run.journal, &fix_writer) {
        return stopped(fix.status, &records, &tel);
    }
    let (pairs, passes, fix_status) =
        (fix.value.total_pairs() as u64, fix.value.passes, fix.status);
    worst = worst.max(fix_status);
    println!(
        "NN* {} fixpoint: {} surviving pairs, {} deleted, {} pass(es) [{:.2?}] ({})",
        fix_engine,
        pairs,
        fix.value.deleted,
        passes,
        wall,
        status_name(fix_status)
    );
    records.push(record("cli_sweep/nnstar_worklist", fix_engine, wall, pairs, passes, fix_status));
    let (cons_status, wall) = tel.phase("sweep/constructibility", || {
        let mut status = SweepStatus::Complete;
        for m in &MODELS {
            let check = if lane {
                check_constructible_aug_lanes_supervised(m, &u, &cfg, &sup)
            } else {
                check_constructible_aug_supervised(m, &u, &cfg, &sup)
            };
            report_quarantine("constructibility", &check.quarantined);
            status = status.max(check.status);
            // A witness is a real dead end whatever the status; "no
            // witness" proves constructibility only when the scan covered
            // every prefix.
            match check.value {
                None if check.status == SweepStatus::Complete => {
                    println!("  {:<4} constructible up to bound {bound}", m.name())
                }
                None => println!(
                    "  {:<4} not decided up to bound {bound}: the check was {}",
                    m.name(),
                    status_name(check.status)
                ),
                Some(w) => println!(
                    "  {:<4} NOT constructible: dead end at {} nodes appending {:?}",
                    m.name(),
                    w.c.node_count(),
                    w.op
                ),
            }
        }
        status
    });
    worst = worst.max(cons_status);
    println!("constructibility checks [{wall:.2?}]");
    // The constructibility record's work unit is the fixed bounded-prefix
    // scan size (computations at bound − 1 times models checked), so its
    // pairs/sec is comparable across engines at the same config.
    let cons_work = Universe::new(bound.saturating_sub(1), locs).count_computations_closed() as u64
        * MODELS.len() as u64;
    records.push(record("cli_sweep/constructibility", engine, wall, cons_work, 0, cons_status));
    tel.write()?;
    finish(&records, worst)
}

fn cmd_conformance(args: &[String]) -> Result<bool, String> {
    use ccmm::conformance::{report, run, self_test, HarnessConfig};
    let mut cfg = HarnessConfig::default();
    let mut out: Option<String> = None;
    let mut do_self_test = false;
    let mut telemetry = TelemetryFlags::default();
    Args::read(args, |flag, args| {
        match flag {
            "--nodes" => cfg.max_nodes = args.value(flag)?,
            "--locs" => cfg.num_locations = args.value(flag)?,
            "--random" => cfg.random_cases = args.value(flag)?,
            "--seed" => cfg.seed = args.value(flag)?,
            "--no-harvest" => cfg.harvest = false,
            "--threads" => cfg.sweep.threads = args.count(flag)?,
            "--out" => out = Some(args.value(flag)?),
            "--self-test" => do_self_test = true,
            "--canonical" => cfg.sweep.canonical = true,
            _ => return telemetry.read(flag, args),
        }
        Ok(true)
    })?;
    if cfg.max_nodes > 5 {
        return Err("--nodes > 5 is too slow for the CLI (factorial oracles)".into());
    }
    if cfg.max_nodes >= 5 && !cfg.sweep.canonical {
        // The labelled bound-5 sweep is 90 202 computations against
        // factorial oracles; only the symmetry-reduced enumeration keeps
        // it CLI-tolerable. The report below prints the pair/check counts
        // actually run (canonical representatives, not weighted totals).
        cfg.sweep.canonical = true;
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
    let mut tel = TelemetrySink::new("conformance", telemetry);
    let (r, _) = tel.timed("conformance", || run(&cfg));
    // The lane differential rides the same config: contains_lanes must
    // agree with 64× contains_with over the exhaustive sweep plus random
    // partial packings.
    let (lanes, _) = tel.timed("lane-differential", || ccmm::conformance::run_lanes(&cfg));
    // The fixpoint differential pins the Δ* engine (every model, both
    // kernels) to the naïve re-scan, and the lane constructibility
    // search to the scalar scan one bound up.
    let (fix, _) = tel.timed("fixpoint-differential", || ccmm::conformance::run_fixpoint(&cfg));
    // The serve differential drives the same pair sources through the
    // full wire pipeline (frame → parse → cached handler → reply) and
    // compares every verdict line against a direct check.
    let srv_cfg = ccmm::conformance::ServeHarnessConfig {
        max_nodes: cfg.max_nodes.min(3),
        num_locations: cfg.num_locations,
        random: cfg.random_cases.min(256),
        seed: cfg.seed,
        ..Default::default()
    };
    let (srv, _) = tel.timed("serve-differential", || ccmm::conformance::run_serve(&srv_cfg));
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
    use ccmm::core::fault::{FaultPlan, PerturbPlan};
    use ccmm::core::parse::render_computation;
    use ccmm::stress::{self, Mutation, StressConfig};

    let mut seed = 0u64;
    let mut iters = 1000usize;
    let mut threads = 4usize;
    let mut perturb: Option<PerturbPlan> = None;
    let mut mutation = Mutation::None;
    let mut fault = FaultPlan::none();
    let mut do_self_test = false;
    let run = RunFlags::read(args, 32, |flag, args| {
        match flag {
            "--seed" => seed = args.value(flag)?,
            "--iters" => iters = args.value(flag)?,
            "--threads" => threads = args.count(flag)?,
            "--perturb" => perturb = Some(PerturbPlan::from_spec(&args.value::<String>(flag)?)?),
            "--mutate" => mutation = Mutation::from_name(&args.value::<String>(flag)?)?,
            "--fault" => fault = FaultPlan::from_spec(&args.value::<String>(flag)?)?,
            "--self-test" => do_self_test = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;

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

    let base = StressConfig::new(seed, iters, threads);
    let perturb = perturb.unwrap_or(base.perturb);
    let cfg = StressConfig { perturb, mutation, deadline: run.deadline, ..base };

    // Checkpoint journal: same scheme as `ccmm sweep` — the fingerprint
    // pins (seed, iters, threads, perturb shape, mutation) so a journal
    // cannot resume into a different run.
    let decode = latest(stress::decode_snapshot);
    let (mut writer, resume_state) =
        open_journal("checkpoint", &run.journal, &cfg.fingerprint(), decode)?;
    if let (Some((path, _)), Some((f, _))) = (&run.journal, &resume_state) {
        println!("resuming from {path}: {} iteration(s) already complete", f.len());
    }

    let mut tel = TelemetrySink::new("stress", run.telemetry);
    println!(
        "stress: seed {seed}, {iters} iteration(s), {threads} thread(s), perturb {}, mutation {}",
        cfg.perturb,
        cfg.mutation.name()
    );
    let sink = writer.as_mut().map(|w| (w, run.ckpt_every));
    let (report, wall) =
        tel.phase("stress/iterations", || stress::run_supervised(&cfg, &fault, resume_state, sink));
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
    let tally = &report.value;
    println!(
        "completed {}/{} iteration(s), {} conformance check(s) [{wall:.2?}] ({})",
        report.frontier.len(),
        report.total_tasks,
        tally.checks,
        status_name(report.status)
    );
    println!(
        "timing-dependent: {} distinct threaded observer(s); SC membership {}/{}",
        tally.distinct_observers.len(),
        tally.sc_member,
        tally.sc_checked
    );

    if let Some(f) = tally.failures.first() {
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
    let (total, units) = (report.total_tasks, "iteration(s) complete");
    report_stop(report.status, &report.frontier, total, units, None, &run.journal, &writer);
    Ok(exit_code(report.status))
}

fn cmd_watch(args: &[String], bench_json: &str) -> Result<u8, String> {
    use ccmm::core::fault::FaultPlan;
    use ccmm::core::sweep::supervisor::Cadence;
    use ccmm::stress::Mutation;
    use ccmm::watch::{self, WatchConfig};
    use ccmm_bench::report::emit;

    let mut cfg = WatchConfig::new("fib:14");
    let mut gate = false;
    let run = RunFlags::read(args, 65_536, |flag, args| {
        match flag {
            "--workload" => cfg.workload = args.value(flag)?,
            "--procs" => cfg.procs = args.count(flag)?,
            "--cache" => cfg.cache_lines = args.value(flag)?,
            "--block" => cfg.block = args.value(flag)?,
            "--fault" => cfg.faults = Mutation::from_name(&args.value::<String>(flag)?)?.faults(),
            "--sample-every" => cfg.sample_every = args.value(flag)?,
            "--sample-cap" => cfg.sample_cap = args.value(flag)?,
            "--gate" => gate = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    cfg.deadline = run.deadline;
    let trace = watch::parse_trace_workload(&cfg.workload)?;

    // Gate precondition up front, as in `sweep`. A watch workload is one
    // trace: its shape is the trace's node and location counts.
    let total = trace.node_count();
    let experiment = format!("watch/{}", cfg.workload);
    let shape = Shape {
        max_nodes: total as u64,
        num_locations: trace.num_locations as u64,
        threads: cfg.procs as u64,
    };
    let Some(gate) = Gate::open(gate, bench_json, shape, &[(&experiment, "stream")]) else {
        return Ok(exit::NO_BASELINE);
    };

    // Checkpoint journal: the fingerprint pins everything that makes the
    // replay-based resume deterministic.
    let decode = latest(watch::decode_snapshot);
    let (mut writer, resume_state) =
        open_journal("checkpoint", &run.journal, &cfg.fingerprint(), decode)?;
    if let (Some((path, _)), Some(snapshot)) = (&run.journal, &resume_state) {
        println!("resuming from {path}: {} node(s) already committed", snapshot.position);
    }

    let mut tel = TelemetrySink::new("watch", run.telemetry);
    println!(
        "watch: {} ({total} node(s), {} location(s)), {} proc(s), {}-line caches, block {}",
        cfg.workload, trace.num_locations, cfg.procs, cfg.cache_lines, cfg.block
    );
    let no_faults = FaultPlan::none();
    let cadence = writer.as_mut().map(|w| Cadence::new(w, run.ckpt_every, &no_faults));
    let (report, _) =
        tel.phase("watch/stream", || watch::run_supervised(&cfg, &trace, resume_state, cadence));
    let report = report?;
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
    let records = [SweepRecord::of_shape(
        &experiment,
        "stream",
        shape,
        report.wall,
        report.fresh_reveals,
        report.samples,
    )
    .with_status(status_name(report.status))
    .with_counters(tel.last_counters())];
    emit(bench_json, &records).map_err(|e| format!("writing bench json: {e}"))?;
    println!("bench: appended {experiment} [stream] to {bench_json}");

    let units = "node(s) committed";
    report_stop(report.status, &report.frontier, total, units, None, &run.journal, &writer);
    if report.status == SweepStatus::Complete && !report.passed() {
        println!(
            "verdict check FAILED: valid={} lc={} divergences={}",
            v.valid, v.lc, report.divergences
        );
        return Ok(exit::FAIL);
    }
    if !gate.passes(report.status, "reveals/sec", &records) {
        return Ok(exit::FAIL);
    }
    Ok(exit_code(report.status))
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

    let mut cfg = ServeConfig::default();
    let mut telemetry = TelemetryFlags::default();
    let mut self_test = false;
    Args::read(args, |flag, args| {
        match flag {
            "--addr" => cfg.addr = args.value(flag)?,
            "--max-inflight" => cfg.max_inflight = args.value(flag)?,
            "--retry-after-ms" => cfg.retry_after_ms = args.value(flag)?,
            "--deadline-ms" => cfg.deadline_ms = Some(args.value(flag)?),
            "--cache-capacity" => cfg.cache_capacity = args.value(flag)?,
            "--fault" => cfg.fault = ServeFaultPlan::from_spec(&args.value::<String>(flag)?)?,
            "--metrics" => telemetry.metrics = Some(args.value(flag)?),
            "--self-test" => self_test = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if self_test {
        serve_self_test()?;
        return Ok(exit::COMPLETE);
    }

    let mut tel = TelemetrySink::new("serve", telemetry);
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
    let mut verb: Option<&str> = None;
    let mut model: Option<Model> = None;
    let mut litmus_name: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut timeout_ms = 2_000u64;
    let mut retries = 5u32;
    let mut seed = 0u64;
    let mut paths = Vec::new();
    Args::read(args, |arg, args| {
        match arg {
            "--addr" => addr = Some(args.value(arg)?),
            "--ping" => verb = Some("ping"),
            "--models" => verb = Some("models"),
            "--model" => {
                verb = Some("check");
                model = Some(model_by_name(&args.value::<String>(arg)?)?);
            }
            "--litmus" => {
                verb = Some("litmus");
                litmus_name = Some(args.value(arg)?);
            }
            "--deadline-ms" => deadline_ms = Some(args.value(arg)?),
            "--timeout-ms" => timeout_ms = args.value(arg)?,
            "--retries" => retries = args.value(arg)?,
            "--seed" => seed = args.value(arg)?,
            flag if flag.starts_with("--") => return Ok(false),
            path => paths.push(path),
        }
        Ok(true)
    })?;
    let addr = addr.ok_or("usage: ccmm query --addr HOST:PORT (--ping | --model M <comp> <obs> | --models <comp> <obs> | --litmus NAME)")?;
    let request = match verb {
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
                                           batches 64 observers per u64 word,
                                           also in the Δ* fixpoint's survivor
                                           masks; counts and witnesses stay
                                           bit-identical to scalar, and every
                                           phase runs through bound 6
                                           (memberships phase only beyond).
                                           --deadline-secs stops after the
                                           budget (exit 4, resume frontier
                                           printed); --ckpt journals progress
                                           every K tasks (the fixpoint to
                                           <ckpt>.fixpoint); --resume continues a
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
                                           Supervision is sweep's engine:
                                           quarantine or a failed journal
                                           append (exit 3), deadline +
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
                                           per-location write lists, no
                                           dense closure. Every K-th commit inside
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
                                           panics quarantined or a failed
                                           journal append (exit 3).
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
    // Exit codes: see `exit`.
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
