#!/usr/bin/env python3
"""The ccmm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. The script builds the `ccmm` CLI
and the `ccmm-perfbench` helper from source (into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs the workload's fixed job through the
user-facing CLI as many times as fit in `--seconds` (at least once),
checks every output against a known answer, and prints one JSON object as
its last stdout line: `{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
taken from the untraced CLI processes (`wall_s`, `setup_s`, `cpu_s`,
`peak_rss_mb`). With `--trace 1` they are the per-layer ones: the helper
replays the same job in process with spans around each layer's public
functions (see perfbench/src/trace.rs), next to one untraced job whose
wall time is the overhead reference. A layer a workload does not run
reports 0. NOTES.md explains the workloads and records first readings.

The CLI runs in a throwaway directory under `.bench_runs/` with
`CCMM_BENCH_JSON` pointed there and never with `--gate`, so a run leaves
the checkout's tracked files untouched. Each run's provenance record
(commit, nproc, seed, run index, parameters, sample counts) is printed as
a `record` line and appended to `.bench_runs/records.jsonl`.

`--smoke` runs all five workloads, untraced and traced, at tiny sizes,
asserts that every metric in BENCHMARK.json is printed with its unit, and
checks that a flipped reference verdict makes `serve-mix` fail.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
THREADS = 2  # load rule: at most 2 threads and 2 connections per workload
CONNS = 2
PROCESS_TIMEOUT_S = 170
# Set-up samples per run: watch jobs each yield one (harvest + SP order
# take ~1-2 s); the other set-ups take milliseconds, so extra probes that
# stop the process at its first checked work are cheap.
SETUP_SAMPLES = 15
# Traced runs alternate untraced and traced jobs this many times and
# report medians (the host's speed drifts by tens of percent over seconds).
TRACE_PAIRS = 3

# Fixed jobs. `smoke` sizes keep every workload to well under a second.
WORKLOADS = {
    "sweep-b5l2": {"kind": "sweep", "bound": 5, "locs": 2, "smoke": {"bound": 3}},
    "watch-fib": {"kind": "watch", "spec": "fib:28", "smoke": {"spec": "fib:10"}},
    "watch-stencil": {"kind": "watch", "spec": "stencil:1024,1024", "smoke": {"spec": "stencil:16,16"}},
    "serve-mix": {"kind": "serve", "requests": 10000, "smoke": {"requests": 300}},
    "stress": {"kind": "stress", "iters": 5000, "smoke": {"iters": 300}},
}

# Figure 1 of the paper: row model vs column model (SC LC NN NW WN WW).
FIGURE1 = [
    "= ⊊ ⊊ ⊊ ⊊ ⊊",
    "⊋ = ⊊ ⊊ ⊊ ⊊",
    "⊋ ⊋ = ⊊ ⊊ ⊊",
    "⊋ ⊋ ⊋ = ∥ ⊊",
    "⊋ ⊋ ⊋ ∥ = ⊊",
    "⊋ ⊋ ⊋ ⊋ ⊋ =",
]
# Known answers per sweep bound (2 locations). Bound 5 holds the golden
# pair / NN* survivor / deletion counts and Theorem 23's constructibility
# split; bound 3 (smoke) is too small to separate LC, NN and WN.
SWEEP_GOLDEN = {
    5: {
        "pairs": 77147832,
        "survivors": 22356132,
        "deleted": 1406,
        "lattice": FIGURE1,
        "constructible": [True, True, False, False, False, True],
    },
    3: {
        "pairs": 3323,
        "survivors": 2277,
        "deleted": 0,
        "lattice": [
            "= ⊊ ⊊ ⊊ ⊊ ⊊",
            "⊋ = = ⊊ = ⊊",
            "⊋ = = ⊊ = ⊊",
            "⊋ ⊋ ⊋ = ⊋ =",
            "⊋ = = ⊊ = ⊊",
            "⊋ ⊋ ⊋ = ⊋ =",
        ],
        "constructible": [True] * 6,
    },
}
MODELS = ["SC", "LC", "NN", "NW", "WN", "WW"]


class BenchError(Exception):
    """The benchmark could not produce a result (build, setup, timeout)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

LIVE = set()


def stop_all():
    for p in list(LIVE):
        try:
            p.kill()
        except OSError:
            pass
        reap(p)


def reap(p):
    """Waits for `p` and returns its rusage (None if already reaped)."""
    ru = None
    if p.returncode is None:
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    LIVE.discard(p)
    return ru


def spawn(args, cwd, env, stdin=None):
    p = subprocess.Popen(
        args, cwd=cwd, env=env, stdin=stdin, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, bufsize=1,
    )
    LIVE.add(p)
    # Watchdog: no child outlives the per-process budget.
    t = threading.Timer(PROCESS_TIMEOUT_S, lambda: p.poll() is None and p.kill())
    t.daemon = True
    t.start()
    return p


def run_cli(args, cwd, env, stop_at=None):
    """Runs one CLI process, timestamping each stdout line from spawn.
    With `stop_at`, kills the process at the first line containing it
    (a set-up probe). Returns lines, exit code, wall, CPU and peak RSS."""
    t0 = time.monotonic()
    p = spawn(args, cwd, env)
    lines = []
    for line in p.stdout:
        lines.append((time.monotonic() - t0, line.rstrip("\n")))
        if stop_at and stop_at in line:
            p.kill()
            break
    p.stdout.close()
    ru = reap(p)
    wall = time.monotonic() - t0
    return {
        "lines": lines,
        "text": "\n".join(l for _, l in lines),
        "rc": p.returncode,
        "wall": wall,
        "cpu": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss / 1024.0,
    }


def line_time(res, needle):
    for t, line in res["lines"]:
        if needle in line:
            return t
    raise BenchError(f"no `{needle}` line in output:\n{res['text'][-2000:]}")


def helper(bins, *args):
    """Runs the ccmm-perfbench helper and returns its last stdout line as JSON."""
    out = subprocess.run([str(bins["perfbench"]), *map(str, args)], capture_output=True, text=True,
                         timeout=PROCESS_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError(f"ccmm-perfbench {args[0]} failed: {out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Build and provenance
# ---------------------------------------------------------------------------

def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "src" / "bin" / "ccmm.rs").is_file():
        raise BenchError(f"{ROOT} is not a ccmm source checkout (no Cargo.toml / src/bin/ccmm.rs)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "ccmm", "--bin", "ccmm"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return {"ccmm": target / "release" / "ccmm", "perfbench": target / "release" / "ccmm-perfbench"}


def source_digest():
    """SHA-256 over the sources the benchmark builds (stands in for the
    commit SHA in checkouts that are not git repositories)."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for d in ("src", "crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def steal_seconds():
    """Time the hypervisor ran other guests on this VM's CPUs, summed over
    CPUs (the `steal` column of /proc/stat); 0 where not reported."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def commit_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None
    except OSError:
        return None


# ---------------------------------------------------------------------------
# Workloads: untraced jobs with output checks
# ---------------------------------------------------------------------------

def ints(pattern, text, what):
    m = re.search(pattern, text)
    if not m:
        raise BenchError(f"cannot find {what} in output:\n{text[-2000:]}")
    return [int(g) for g in m.groups()]


def check_sweep(text, bound, computations, answers=None):
    """Problems with a sweep's output against its known answers."""
    gold = SWEEP_GOLDEN[bound]
    bad = []
    if answers is None:
        answers = {
            "computations": ints(r"sweep: bound \d+, \d+ location\(s\), (\d+) computations", text, "count")[0],
            "pairs": ints(r"memberships over (\d+) \(computation, observer\) pairs", text, "pairs")[0],
            "survivors": ints(r"fixpoint: (\d+) surviving pairs", text, "survivors")[0],
            "deleted": ints(r"surviving pairs, (\d+) deleted", text, "deletions")[0],
            "lattice": [],
            "constructible": [],
        }
        rows = {}
        for line in text.splitlines():
            tok = line.split()
            if len(tok) == 7 and tok[0] in MODELS:
                rows[tok[0]] = " ".join(tok[1:])
            m = re.match(r"\s+(\w+)\s+(NOT )?constructible", line)
            if m and m.group(1) in MODELS:
                answers["constructible"].append(m.group(2) is None)
        answers["lattice"] = [rows.get(mo, "") for mo in MODELS]
        if "sweep status: complete" not in text:
            bad.append("sweep status is not complete")
    else:
        answers = dict(answers, lattice=[" ".join(r) for r in answers["lattice"]])
    if answers["computations"] != computations:
        bad.append(f"computation count {answers['computations']} != Universe::count_computations_closed {computations}")
    for key in ("pairs", "survivors", "deleted", "lattice", "constructible"):
        if answers[key] != gold[key]:
            bad.append(f"{key}: got {answers[key]}, expected {gold[key]}")
    return bad


def parse_duration(s):
    m = re.fullmatch(r"([\d.]+)(ns|µs|us|ms|s)", s)
    scale = {"ns": 1e-9, "µs": 1e-6, "us": 1e-6, "ms": 1e-3, "s": 1.0}
    return float(m.group(1)) * scale[m.group(2)]


class Run:
    """Accumulates one benchmark run: samples, counts and problems."""

    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def job(self, res):
        self.add("wall_s", res["wall"])
        self.add("cpu_s", res["cpu"])
        self.add("peak_rss_mb", res["rss_mb"])


def repeat_jobs(seconds, job):
    """Runs `job()` at least once, then again while another job of the
    median length so far still fits in `seconds`."""
    start, lengths = time.monotonic(), []
    while True:
        t = time.monotonic()
        job()
        lengths.append(time.monotonic() - t)
        if time.monotonic() - start + statistics.median(lengths) > seconds:
            return len(lengths)


def sweep_workload(p, bins, work, env, seconds, run):
    args = [str(a) for a in (bins["ccmm"], "sweep", "--bound", p["bound"], "--locs", p["locs"],
                             "--canonical", "--engine", "lane64", "--threads", THREADS)]
    facts = helper(bins, "facts", "--bound", p["bound"], "--locs", p["locs"])
    header = "sweep: bound"

    def job():
        res = run_cli(args, work, env)
        run.job(res)
        run.add("setup_s", line_time(res, header))
        run.attempted += facts["tasks"]
        run.failed += res["text"].count("quarantined:")
        if res["rc"] != 0:
            run.problems.append(f"ccmm sweep exited {res['rc']}")
        run.problems += check_sweep(res["text"], p["bound"], facts["computations"])

    jobs = repeat_jobs(seconds, job)
    while len(run.samples["setup_s"]) < SETUP_SAMPLES:
        run.add("setup_s", line_time(run_cli(args, work, env, stop_at=header), header))
    return {"jobs": jobs, "computations": facts["computations"], "tasks": facts["tasks"]}


def watch_workload(p, bins, work, env, seconds, run):
    args = [str(bins["ccmm"]), "watch", "--workload", p["spec"]]

    def job():
        res = run_cli(args, work, env)
        run.job(res)
        text = res["text"]
        streamed = re.search(r"streamed (\d+)/(\d+) node\(s\): valid (\w+) \| SC (\w+) \| LC (\w+) "
                             r"\(violations: (\d+) validity, (\d+) sc, (\d+) lc\)", text)
        conf = re.search(r"conformance: (\d+) sampled prefix\(es\), (\d+) divergence", text)
        window = re.search(r"fresh reveal\(s\) in (\S+)\)", text)
        if not (streamed and conf and window):
            raise BenchError(f"unexpected watch output:\n{text[-2000:]}")
        # Set-up is everything before the streaming window opens:
        # harvest, SP-order build, checker and runner construction.
        run.add("setup_s", line_time(res, "streamed ") - parse_duration(window.group(1)))
        samples, divergences = int(conf.group(1)), int(conf.group(2))
        quarantined = text.count("quarantined:")
        run.attempted += samples + quarantined
        run.failed += divergences + quarantined
        s = streamed.groups()
        if res["rc"] != 0:
            run.problems.append(f"ccmm watch exited {res['rc']}")
        if s[0] != s[1] or s[2:5] != ("true", "true", "true") or s[5:8] != ("0", "0", "0") or divergences:
            run.problems.append(f"watch verdicts not clean: {streamed.group(0)}; {conf.group(0)}")

    return {"jobs": repeat_jobs(seconds, job)}


def stress_workload(p, bins, work, env, seconds, seed, run):
    args = [str(a) for a in (bins["ccmm"], "stress", "--seed", seed, "--threads", THREADS,
                             "--iters", p["iters"])]
    expected = helper(bins, "stress-checks", "--seed", seed, "--iters", p["iters"],
                      "--threads", THREADS)["checks"]
    header = "stress: seed"

    def job():
        res = run_cli(args, work, env)
        run.job(res)
        run.add("setup_s", line_time(res, header))
        text = res["text"]
        done, total, checks = ints(r"completed (\d+)/(\d+) iteration\(s\), (\d+) conformance check", text,
                                   "the completion line")
        run.attempted += total
        run.failed += text.count("quarantined:") + text.count("CONFORMANCE FAILURE")
        if res["rc"] != 0:
            run.problems.append(f"ccmm stress exited {res['rc']}")
        if done != total or checks != expected:
            run.problems.append(f"stress: {done}/{total} iterations, {checks} checks (expected {expected})")

    jobs = repeat_jobs(seconds, job)
    while len(run.samples["setup_s"]) < SETUP_SAMPLES:
        run.add("setup_s", line_time(run_cli(args, work, env, stop_at=header), header))
    return {"jobs": jobs, "expected_checks": expected}


def ping(addr):
    """One framed `ping` round trip over a fresh connection."""
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as s:
        payload = b"ccmm-req-v1 ping\n"
        s.sendall(struct.pack("<I", len(payload)) + payload)
        buf = b""
        while len(buf) < 4 or len(buf) < 4 + struct.unpack("<I", buf[:4])[0]:
            chunk = s.recv(65536)
            if not chunk:
                raise BenchError("server closed the connection during ping")
            buf += chunk
    reply = buf[4:].decode()
    if not reply.startswith("ccmm-rep-v1 ok") or "pong" not in reply:
        raise BenchError(f"bad ping reply: {reply!r}")


def start_daemon(bins, work, env):
    """Spawns `ccmm serve` (default config) and returns (process, address,
    seconds from spawn to the first reply)."""
    t0 = time.monotonic()
    d = spawn([str(bins["ccmm"]), "serve"], work, env)
    line = d.stdout.readline()
    m = re.match(r"listening on (\S+)", line)
    if not m:
        raise BenchError(f"serve did not report its address: {line!r}")
    ping(m.group(1))
    return d, m.group(1), time.monotonic() - t0


def serve_job(p, bins, work, env, seed, flip=False):
    """One fixed serve job: the client builds the stream and references
    first; then the daemon is spawned, answers one ping (set-up), and
    serves the stream closed-loop over CONNS connections. Returns the
    client summary plus daemon wall/CPU/RSS."""
    args = [bins["perfbench"], "serve-client", "--seed", seed, "--requests", p["requests"],
            "--conns", CONNS] + (["--flip-reference"] if flip else [])
    client = spawn([str(a) for a in args], work, env, stdin=subprocess.PIPE)
    try:
        if client.stdout.readline().strip() != "ready":
            raise BenchError("serve client did not get ready")
        t0 = time.monotonic()
        daemon, addr, setup = start_daemon(bins, work, env)
        client.stdin.write(addr + "\n")
        client.stdin.flush()
        if client.stdout.readline().strip() != "done":
            raise BenchError("serve client did not finish")
        wall = time.monotonic() - t0
        summary = json.loads(client.stdout.readline())
        daemon.send_signal(signal.SIGTERM)
        drained = daemon.stdout.read()
        ru = reap(daemon)
    finally:
        stop_all()
    served = re.search(r"drained: (\d+) request\(s\) — (\d+) served", drained)
    return dict(summary, wall=wall, setup=setup, cpu=ru.ru_utime + ru.ru_stime,
                rss_mb=ru.ru_maxrss / 1024.0, daemon_rc=daemon.returncode,
                daemon_served=int(served.group(2)) if served else -1)


def check_serve(s, requests):
    bad = []
    if s["wrong"]:
        bad.append(f"serve: {s['wrong']} repl(ies) differ from the reference verdicts")
    if s["attempted"] != requests:
        bad.append(f"serve: client sent {s['attempted']} of {requests} requests")
    if s["daemon_rc"] != 0:
        bad.append(f"serve daemon exited {s['daemon_rc']}")
    if s["daemon_served"] != requests + 1 - s["failed"]:
        bad.append(f"serve daemon served {s['daemon_served']}, expected {requests + 1 - s['failed']}")
    return bad


def serve_workload(p, bins, work, env, seconds, seed, run):
    jobs = []

    def job():
        s = serve_job(p, bins, work, env, seed)
        jobs.append(s)
        run.add("wall_s", s["wall"])
        run.add("cpu_s", s["cpu"])
        run.add("peak_rss_mb", s["rss_mb"])
        run.add("setup_s", s["setup"])
        run.attempted += s["attempted"]
        run.failed += s["failed"]
        run.problems += check_serve(s, p["requests"])

    repeat_jobs(seconds, job)
    while len(run.samples["setup_s"]) < SETUP_SAMPLES:
        try:
            _, _, setup = start_daemon(bins, work, env)
        finally:
            stop_all()
        run.add("setup_s", setup)
    return {"jobs": len(jobs), "requests": p["requests"], "latency_samples": [j["samples"] for j in jobs]}


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------

def trace_pair(p, bins, work, env, seed, run):
    """One untraced job (the overhead reference) and the helper's traced
    replay of the same job. Returns (metrics, untraced wall, provenance)."""
    kind = p["kind"]
    spans = work / "spans.jsonl"
    scratch = Run()
    if kind == "sweep":
        facts = sweep_workload(p, bins, work, env, 0, scratch)
        t = helper(bins, "trace", "sweep", "--bound", p["bound"], "--locs", p["locs"],
                   "--threads", THREADS, "--spans", spans)
        a = t["answers"]
        run.problems += check_sweep("", p["bound"], facts["computations"], a)
        if (a["breakdown_pairs"], a["breakdown_per_model"]) != (a["pairs"], a["per_model"]):
            run.problems.append("sweep breakdown pass disagrees with the memberships phase")
        run.attempted += a["tasks"]
        run.failed += a["quarantined"]
    elif kind == "watch":
        watch_workload(p, bins, work, env, 0, scratch)
        t = helper(bins, "trace", "watch", "--spec", p["spec"], "--spans", spans)
        a = t["answers"]
        if (a["streamed"], a["valid"], a["sc"], a["lc"], a["violations"], a["divergences"]) != \
                (a["nodes"], True, True, True, 0, 0):
            run.problems.append(f"traced watch verdicts not clean: {a}")
        run.attempted += a["samples"]
        run.failed += a["divergences"]
    elif kind == "stress":
        info = stress_workload(p, bins, work, env, 0, seed, scratch)
        t = helper(bins, "trace", "stress", "--seed", seed, "--iters", p["iters"], "--threads", THREADS,
                   "--spans", spans)
        a = t["answers"]
        if a["failures"] or a["checks"] != info["expected_checks"]:
            run.problems.append(f"traced stress: {a} (expected {info['expected_checks']} checks)")
        run.attempted += a["iterations"]
        run.failed += a["failures"]
    else:
        s = serve_job(p, bins, work, env, seed)
        scratch.problems += check_serve(s, p["requests"])
        t = helper(bins, "trace", "serve", "--seed", seed, "--requests", p["requests"], "--spans", spans)
        a = t["answers"]
        if a["wrong"] or a["untraced_wrong"]:
            run.problems.append(f"serve replay disagrees with the references: {a}")
        run.attempted += a["requests"]
        run.failed += s["failed"]
        t["metrics"].update({
            "serve.req_per_s": s["req_per_s"],
            "serve.p50_us": s["p50_us"],
            "serve.p99_us": s["p99_us"],
            # Median round trip minus median in-process handler time.
            "serve.transport_us": s["p50_us"] - a["handler_p50_us"],
        })
        a = dict(a, client=s)
        # The replay has no sockets, so its overhead reference is the
        # same replay through the server's Handler, untraced.
        scratch.samples["wall_s"] = [a["untraced_s"]]
    run.problems += scratch.problems
    untraced = scratch.samples["wall_s"][0]
    metrics = dict(t["metrics"], unattributed_share=t["unattributed_share"],
                   trace_overhead_share=t["traced_wall_s"] / untraced - 1.0)
    return metrics, dict(a, traced_wall_s=t["traced_wall_s"], untraced_wall_s=untraced)


def traced(p, bins, work, env, seed, run):
    """Per-layer metrics: the median over alternating (untraced, traced)
    pairs — one pair for the 20-second sweep, TRACE_PAIRS otherwise."""
    pairs = [trace_pair(p, bins, work, env, seed, run)
             for _ in range(1 if p["kind"] == "sweep" else TRACE_PAIRS)]
    metrics = {k: statistics.median(m[k] for m, _ in pairs) for k in pairs[0][0]}
    return metrics, {"pairs": [e for _, e in pairs]}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(name, seed, seconds, trace, bins, smoke=False):
    """Runs one workload and returns (result object, provenance record)."""
    e2e_units, layer_units = load_spec()
    p = dict(WORKLOADS[name])
    if smoke:
        p.update(p["smoke"])
    work = ROOT / ".bench_runs" / f"work-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    env = dict(os.environ, CCMM_BENCH_JSON=str(work / "BENCH_sweep.json"))
    run = Run()
    steal0 = steal_seconds()
    try:
        if trace:
            values, info = traced(p, bins, work, env, seed, run)
            units = layer_units
        else:
            kind = p["kind"]
            if kind == "sweep":
                info = sweep_workload(p, bins, work, env, seconds, run)
            elif kind == "watch":
                info = watch_workload(p, bins, work, env, seconds, run)
            elif kind == "stress":
                info = stress_workload(p, bins, work, env, seconds, seed, run)
            else:
                info = serve_workload(p, bins, work, env, seconds, seed, run)
            values = {k: statistics.median(v) for k, v in run.samples.items()}
            units = e2e_units
    finally:
        stop_all()
        shutil.rmtree(work, ignore_errors=True)
    missing = [k for k in units if k not in values and not trace]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in units.items()}
    result = {
        "correct": not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "params": {k: v for k, v in p.items() if k != "smoke"},
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "commit": commit_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "connections": CONNS,
        "samples": {k: len(v) for k, v in run.samples.items()} if not trace else None,
        "sample_values": run.samples if not trace else None,
        "info": info,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "host_steal_s": round(steal_seconds() - steal0, 2),
        "problems": run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
    }
    return result, record


def save_record(record):
    log_path = ROOT / ".bench_runs" / "records.jsonl"
    log_path.parent.mkdir(exist_ok=True)
    index = sum(1 for _ in log_path.open()) if log_path.exists() else 0
    record["run_index"] = index
    with log_path.open("a") as f:
        f.write(json.dumps(record) + "\n")


def smoke(bins):
    e2e_units, layer_units = load_spec()
    failures = []
    for name in WORKLOADS:
        for trace in (0, 1):
            t = time.monotonic()
            result, record = run_workload(name, 7, 1, trace, bins, smoke=True)
            units = layer_units if trace else e2e_units
            if not result["correct"]:
                failures.append(f"{name} trace={trace}: {record['problems']}")
            if set(result["metrics"]) != set(units):
                failures.append(f"{name} trace={trace}: metric names differ from BENCHMARK.json")
            for k, u in units.items():
                m = result["metrics"].get(k)
                if not m or m["unit"] != u or not isinstance(m["value"], float):
                    failures.append(f"{name} trace={trace}: metric {k} missing or without unit {u}")
            log(f"smoke: {name} trace={trace} ok={result['correct']} in {time.monotonic() - t:.1f}s")
    # Negative check: a flipped reference verdict must fail serve-mix.
    p = dict(WORKLOADS["serve-mix"], **WORKLOADS["serve-mix"]["smoke"])
    work = ROOT / ".bench_runs" / f"work-{os.getpid()}-flip"
    work.mkdir(parents=True, exist_ok=True)
    try:
        s = serve_job(p, bins, work, dict(os.environ, CCMM_BENCH_JSON=str(work / "b.json")), 7, flip=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not check_serve(s, p["requests"]):
        failures.append("serve-mix with a flipped reference verdict was not flagged")
    else:
        log("smoke: flipped reference verdict flagged as wrong")
    for f in failures:
        log(f"SMOKE FAILURE: {f}")
    return not failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if not a.smoke and not a.workload:
        ap.error("--workload is required (or --smoke)")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        bins = build()
        if a.smoke:
            return 0 if smoke(bins) else 1
        result, record = run_workload(a.workload, a.seed, a.seconds, a.trace, bins)
        save_record(record)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 2
    finally:
        stop_all()
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
