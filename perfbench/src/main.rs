//! `ccmm-perfbench`: the compiled half of the ccmm benchmark. `run.py`
//! builds and calls it; it never runs the CLI itself.
//!
//! ```text
//! ccmm-perfbench facts --bound B --locs L
//! ccmm-perfbench stress-checks --seed S --iters N --threads T
//! ccmm-perfbench serve-client --seed S --requests N --conns C [--flip-reference]
//! ccmm-perfbench trace sweep --bound B --locs L --threads T --spans PATH
//! ccmm-perfbench trace watch --spec SPEC --spans PATH
//! ccmm-perfbench trace serve --seed S --requests N --spans PATH
//! ccmm-perfbench trace stress --seed S --iters N --threads T --spans PATH
//! ```
//!
//! Each command prints one JSON object as its last stdout line. A traced
//! run prints `{"metrics": …, "answers": …, "traced_wall_s": …,
//! "unattributed_share": …}`: `bench.job` is the root span of the traced
//! job, `bench.extra` the root of extra traced passes, and the spans are
//! written to `--spans` as JSON lines when the run ends.

mod serve;
mod stress;
mod sweep;
mod trace;
mod watch;

use std::collections::HashMap;
use std::process::ExitCode;

struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag.strip_prefix("--").ok_or(format!("unexpected argument `{flag}`"))?;
            if key == "flip-reference" {
                map.insert(key.to_string(), "1".to_string());
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0.get(key).map(String::as_str).ok_or(format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?.parse().map_err(|_| format!("bad --{key}"))
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let (cmd, rest) = argv.split_first().ok_or("usage: ccmm-perfbench <command> …")?;
    match cmd.as_str() {
        "facts" => {
            let a = Args::parse(rest)?;
            println!("{}", sweep::facts(a.num("bound")?, a.num("locs")?));
        }
        "stress-checks" => {
            let a = Args::parse(rest)?;
            let checks =
                stress::expected_checks(a.num("seed")?, a.num("iters")?, a.num("threads")?);
            println!("{{\"checks\":{checks}}}");
        }
        "serve-client" => {
            let a = Args::parse(rest)?;
            let flip = a.0.contains_key("flip-reference");
            serve::client(a.num("seed")?, a.num("requests")?, a.num("conns")?, flip)?;
        }
        "trace" => {
            let (workload, rest) = rest.split_first().ok_or("trace needs a workload")?;
            let a = Args::parse(rest)?;
            let mut tr = trace::Tracer::new();
            let (metrics, answers) = match workload.as_str() {
                "sweep" => {
                    sweep::traced(a.num("bound")?, a.num("locs")?, a.num("threads")?, &mut tr)
                }
                "watch" => watch::traced(a.str("spec")?, &mut tr)?,
                "serve" => serve::traced(a.num("seed")?, a.num("requests")?, &mut tr),
                "stress" => {
                    stress::traced(a.num("seed")?, a.num("iters")?, a.num("threads")?, &mut tr)
                }
                other => return Err(format!("unknown trace workload `{other}`")),
            };
            tr.write(std::path::Path::new(a.str("spans")?))
                .map_err(|e| format!("writing spans: {e}"))?;
            println!(
                "{{\"metrics\":{},\"answers\":{answers},\"traced_wall_s\":{},\"unattributed_share\":{}}}",
                metrics.to_json(),
                trace::json_number(tr.total_seconds("bench.job")),
                trace::json_number(tr.unattributed_share(&["bench.job", "bench.extra"])),
            );
        }
        other => return Err(format!("unknown command `{other}`")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
