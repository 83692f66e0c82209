#!/usr/bin/env bash
# Local CI: the tier-1 gate plus formatting and lint checks.
#
#   ./ci.sh        # everything
#   ./ci.sh fast   # skip the release build (debug tests + fmt + clippy)
set -euo pipefail
cd "$(dirname "$0")"

fast=${1:-}

if [[ "$fast" != "fast" ]]; then
    echo "== tier-1 gate: release build =="
    cargo build --release
fi

echo "== tier-1 gate: tests =="
cargo test -q

echo "== workspace tests (vendored crates excluded) =="
cargo test -q --workspace --exclude criterion --exclude crossbeam --exclude parking_lot \
    --exclude proptest --exclude rand --exclude serde --exclude serde_json

echo "== rustfmt =="
cargo fmt --check

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== conformance smoke: fast checkers vs oracles =="
# Seeded-mutation self-test first (proves the harness can catch a bug),
# then the bounded sweep + 200 random cases + harvested executions.
# Exits nonzero with the shrunk witness printed inline on any
# disagreement. Budget: well under 60s (about 1s in debug).
if [[ "$fast" != "fast" ]]; then
    ./target/release/ccmm conformance --self-test
else
    cargo run -q --bin ccmm -- conformance --self-test
fi

if [[ "$fast" != "fast" ]]; then
    echo "== perf smoke: bound-4 canonical sweep vs committed baseline =="
    # Appends a fresh record to BENCH_sweep.json and fails if membership
    # throughput fell more than 2x below the latest committed record of
    # the same shape. Skipped in fast mode: debug-build timings are noise.
    ./target/release/ccmm sweep --bound 4 --canonical --gate
fi

echo "== robustness smoke: panic quarantine + kill/resume round trip =="
# Timings from these faulted runs are meaningless: point CCMM_BENCH_JSON
# at a scratch file so they never pollute the committed baseline.
if [[ "$fast" != "fast" ]]; then
    ccmm() { ./target/release/ccmm "$@"; }
    ccmm_bin=./target/release/ccmm
else
    ccmm() { cargo run -q --bin ccmm -- "$@"; }
    # The serve smoke TERMs the daemon by pid, so it needs the real
    # binary, not a shell function (killing the wrapper subshell would
    # orphan the daemon instead of draining it).
    cargo build -q --bin ccmm
    ccmm_bin=./target/debug/ccmm
fi
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
export CCMM_BENCH_JSON="$scratch/bench.json"

# 1. Injected persistent panic: the sweep must complete degraded (exit 3)
#    with the quarantined task reported and all phases still run.
rc=0
ccmm sweep --bound 3 --canonical --threads 2 --fault panic-at-task=1 \
    > "$scratch/degraded.out" 2>/dev/null || rc=$?
[[ "$rc" == 3 ]] || { echo "expected degraded exit 3, got $rc"; exit 1; }
grep -q "quarantined: memberships task 1" "$scratch/degraded.out"
grep -q "sweep status: degraded" "$scratch/degraded.out"

# 2. Kill after two checkpoint records (exit 70), then --resume: the
#    membership counts and the lattice read from the journalled
#    separation mask must be bit-identical to an uninterrupted run.
ccmm sweep --bound 4 --canonical --threads 2 > "$scratch/clean.out" 2>/dev/null
rc=0
ccmm sweep --bound 4 --canonical --threads 2 --ckpt "$scratch/sweep.ckpt" \
    --ckpt-every 1 --fault kill-after-ckpt=2 > "$scratch/killed.out" 2>/dev/null || rc=$?
[[ "$rc" == 70 ]] || { echo "expected killed exit 70, got $rc"; exit 1; }
ccmm sweep --bound 4 --canonical --threads 2 --resume "$scratch/sweep.ckpt" \
    > "$scratch/resumed.out" 2>/dev/null
counts() { grep -A6 "^memberships over" "$1" | tail -6; }
lattice() { grep -A7 "^lattice \[" "$1" | sed 's/ \[[^]]*\]//'; }
diff <(counts "$scratch/clean.out") <(counts "$scratch/resumed.out") \
    || { echo "resumed counts differ from the uninterrupted run"; exit 1; }
diff <(lattice "$scratch/clean.out") <(lattice "$scratch/resumed.out") \
    || { echo "resumed lattice differs from the uninterrupted run"; exit 1; }

echo "== figure 1 parity: ccmm lattice vs the sweep's lattice phase =="
# The two commands that print Figure 1 must agree cell for cell. Both
# read the matrix off one memberships pass; only the row indent differs,
# so whitespace is normalised before the comparison.
cells() { sed -E 's/^ +//; s/ +/ /g'; }
ccmm lattice --nodes 4 | cells > "$scratch/lattice-cmd.cells"
ccmm sweep --bound 4 > "$scratch/sweep-b4.out" 2>/dev/null
grep -A7 "^lattice \[" "$scratch/sweep-b4.out" | tail -7 | cells > "$scratch/lattice-sweep.cells"
[[ $(wc -l < "$scratch/lattice-cmd.cells") == 7 ]] \
    || { echo "ccmm lattice did not print a 6x6 table"; exit 1; }
diff "$scratch/lattice-cmd.cells" "$scratch/lattice-sweep.cells" \
    || { echo "ccmm lattice and ccmm sweep print different Figure-1 cells"; exit 1; }

echo "== lane engine smoke: scalar parity, thread determinism, kill/resume =="
# The lane64 engine must produce bit-identical membership counts to the
# scalar canonical engine at bound 5, at 1, 2, and 4 threads — and a
# lane run killed mid-flight must resume to the same counts and lattice.
# Debug-build bound-5 sweeps are slow, so fast mode drops to bound 4
# (same paths).
lane_bound=5
[[ "$fast" == "fast" ]] && lane_bound=4
ccmm sweep --bound "$lane_bound" --canonical --threads 1 \
    > "$scratch/lane-scalar.out" 2>/dev/null
for t in 1 2 4; do
    ccmm sweep --bound "$lane_bound" --canonical --engine lane64 --threads "$t" \
        > "$scratch/lane-$t.out" 2>/dev/null
    diff <(counts "$scratch/lane-scalar.out") <(counts "$scratch/lane-$t.out") \
        || { echo "lane64 counts diverge from scalar at $t threads"; exit 1; }
done
rc=0
ccmm sweep --bound "$lane_bound" --canonical --engine lane64 --threads 2 \
    --ckpt "$scratch/lane.ckpt" --ckpt-every 1 --fault kill-after-ckpt=2 \
    > /dev/null 2>&1 || rc=$?
[[ "$rc" == 70 ]] || { echo "expected lane64 killed exit 70, got $rc"; exit 1; }
ccmm sweep --bound "$lane_bound" --canonical --engine lane64 --threads 2 \
    --resume "$scratch/lane.ckpt" > "$scratch/lane-resumed.out" 2>/dev/null
diff <(counts "$scratch/lane-scalar.out") <(counts "$scratch/lane-resumed.out") \
    || { echo "resumed lane64 counts differ from the scalar run"; exit 1; }
diff <(lattice "$scratch/lane-scalar.out") <(lattice "$scratch/lane-resumed.out") \
    || { echo "resumed lane64 lattice differs from the scalar run"; exit 1; }

echo "== lane fixpoint smoke: bound-4 kill in both phases, resume bit-identical =="
# The lane Δ* fixpoint journals its dead-end census (counts, seeds and
# quarantined checks) to <ckpt>.fixpoint. Memberships and the census both
# run over the 25-task canonical bound-4 universe, so --ckpt-every 16
# writes exactly one record per phase: run 1 is killed by the
# memberships record; run 2 resumes, finishes memberships without a new
# record (9 tasks < 16), and is killed by the census journal's first
# record; run 3 resumes the census and must complete with survivor
# counts bit-identical to both an uninterrupted lane run and the default
# (scalar-kernel) engine.
fixline() { sed -n 's/.*fixpoint: \(.*\) \[.*/\1/p' "$1"; }
ccmm sweep --bound 4 --canonical --threads 2 --engine lane64 \
    > "$scratch/fix-clean.out" 2>/dev/null
rc=0
ccmm sweep --bound 4 --canonical --threads 2 --engine lane64 \
    --ckpt "$scratch/fix.ckpt" --ckpt-every 16 --fault kill-after-ckpt=1 \
    > /dev/null 2>&1 || rc=$?
[[ "$rc" == 70 ]] || { echo "expected memberships-phase kill exit 70, got $rc"; exit 1; }
rc=0
ccmm sweep --bound 4 --canonical --threads 2 --engine lane64 \
    --resume "$scratch/fix.ckpt" --ckpt-every 16 --fault kill-after-ckpt=1 \
    > "$scratch/fix-killed.out" 2>/dev/null || rc=$?
[[ "$rc" == 70 ]] || { echo "expected fixpoint-phase kill exit 70, got $rc"; exit 1; }
grep -q "fixpoint checkpoint record" "$scratch/fix-killed.out" \
    || { echo "second kill did not land in the fixpoint phase"; exit 1; }
ccmm sweep --bound 4 --canonical --threads 2 --engine lane64 \
    --resume "$scratch/fix.ckpt" > "$scratch/fix-resumed.out" 2>/dev/null
diff <(fixline "$scratch/fix-clean.out") <(fixline "$scratch/fix-resumed.out") \
    || { echo "resumed lane fixpoint differs from the uninterrupted run"; exit 1; }
diff <(fixline "$scratch/clean.out") <(fixline "$scratch/fix-resumed.out") \
    || { echo "lane fixpoint differs from the scalar-kernel engine"; exit 1; }

echo "== default-engine fixpoint smoke: bound-4 kill in both phases, resume bit-identical =="
# The default engine runs the same census through the scalar kernel and
# journals it to <ckpt>.fixpoint too. The same cadence lands
# the first kill in memberships and the second in the fixpoint; the
# final resume must reproduce the uninterrupted run's membership counts
# and fixpoint line.
rc=0
ccmm sweep --bound 4 --canonical --threads 2 \
    --ckpt "$scratch/sfix.ckpt" --ckpt-every 16 --fault kill-after-ckpt=1 \
    > /dev/null 2>&1 || rc=$?
[[ "$rc" == 70 ]] || { echo "expected memberships-phase kill exit 70, got $rc"; exit 1; }
rc=0
ccmm sweep --bound 4 --canonical --threads 2 \
    --resume "$scratch/sfix.ckpt" --ckpt-every 16 --fault kill-after-ckpt=1 \
    > "$scratch/sfix-killed.out" 2>/dev/null || rc=$?
[[ "$rc" == 70 ]] || { echo "expected fixpoint-phase kill exit 70, got $rc"; exit 1; }
grep -q "fixpoint checkpoint record" "$scratch/sfix-killed.out" \
    || { echo "second kill did not land in the fixpoint phase"; exit 1; }
ccmm sweep --bound 4 --canonical --threads 2 \
    --resume "$scratch/sfix.ckpt" > "$scratch/sfix-resumed.out" 2>/dev/null
grep -q "resuming fixpoint from" "$scratch/sfix-resumed.out" \
    || { echo "the default engine did not resume its fixpoint journal"; exit 1; }
diff <(counts "$scratch/clean.out") <(counts "$scratch/sfix-resumed.out") \
    || { echo "resumed default-engine counts differ from the uninterrupted run"; exit 1; }
diff <(fixline "$scratch/clean.out") <(fixline "$scratch/sfix-resumed.out") \
    || { echo "resumed default-engine fixpoint differs from the uninterrupted run"; exit 1; }

if [[ "$fast" != "fast" ]]; then
    echo "== fixpoint pins: bound-5 two-location and bound-6 NN* survivors =="
    # The census reads NN's dead ends off the canonical quotient and the
    # cascade expands them to labelled pairs; these are the labelled
    # engine's survivor, deletion and pass counts at both shapes.
    # Release-only: debug bound-6 sweeps are slow.
    for shape in "5 2 22356132 1406" "6 1 45261070 17584"; do
        read -r b l survivors deleted <<< "$shape"
        ccmm sweep --bound "$b" --locs "$l" --canonical --engine lane64 --threads 2 \
            > "$scratch/pin-$b.out" 2>/dev/null
        [[ "$(fixline "$scratch/pin-$b.out")" == \
            "$survivors surviving pairs, $deleted deleted, 1 pass(es)" ]] \
            || { echo "bound-$b fixpoint drifted: $(fixline "$scratch/pin-$b.out")"; exit 1; }
    done
fi

echo "== stress smoke: perturbed-executor conformance, self-test, kill/resume, journal failure =="
# The self-test proves the oracle has teeth (a seeded skip-reconcile
# mutation must be caught and shrunk, and the same seeds must pass
# unmutated); then a fixed-seed 200-iteration perturbed run at 4 threads
# must hold LC conformance end to end. Both are deterministic per
# (seed, iters, threads), so a failure here is replayable verbatim.
ccmm stress --self-test --seed 1 --iters 1 --threads 4 > "$scratch/stress-self.out" \
    || { cat "$scratch/stress-self.out"; echo "stress self-test failed"; exit 1; }
grep -q "caught, and clean executor passes" "$scratch/stress-self.out"
ccmm stress --seed 20260808 --iters 200 --threads 4 > "$scratch/stress.out" \
    || { cat "$scratch/stress.out"; echo "stress smoke failed"; exit 1; }
grep -q "completed 200/200" "$scratch/stress.out"
# Journalling: a run killed after two records (exit 70) must resume to
# the uninterrupted run's completed/checks line, and a failed journal
# append must degrade the run (exit 3) while still checking everything.
completed() { grep "^completed " "$1" | sed 's/ \[[^]]*\]//'; }
rc=0
ccmm stress --seed 20260808 --iters 200 --threads 4 --ckpt "$scratch/stress.ckpt" \
    --ckpt-every 1 --fault kill-after-ckpt=2 > /dev/null 2>&1 || rc=$?
[[ "$rc" == 70 ]] || { echo "expected stress killed exit 70, got $rc"; exit 1; }
ccmm stress --seed 20260808 --iters 200 --threads 4 --resume "$scratch/stress.ckpt" \
    > "$scratch/stress-resumed.out" 2>/dev/null \
    || { echo "stress resume failed"; exit 1; }
diff <(completed "$scratch/stress.out") <(completed "$scratch/stress-resumed.out") \
    || { echo "resumed stress run differs from the uninterrupted run"; exit 1; }
rc=0
ccmm stress --seed 20260808 --iters 200 --threads 4 --ckpt "$scratch/stress-io.ckpt" \
    --ckpt-every 1 --fault io-error-at-record=1 > "$scratch/stress-io.out" \
    2> "$scratch/stress-io.err" || rc=$?
[[ "$rc" == 3 ]] || { echo "expected stress journal-failure exit 3, got $rc"; exit 1; }
grep -q "checkpoint journalling failed" "$scratch/stress-io.err"
diff <(completed "$scratch/stress.out" | sed 's/ (complete)//') \
    <(completed "$scratch/stress-io.out" | sed 's/ (degraded)//') \
    || { echo "a journal failure changed the stress check count"; exit 1; }

echo "== telemetry smoke: counters deterministic across thread counts =="
# --metrics counter values for the memberships, lattice and fixpoint
# phases must be bit-identical at 1, 2, and 4 threads (DESIGN.md §9); the
# lattice is read off the memberships pass, so its counters are all zero.
# The constructibility phase early-exits and is coverage-dependent, so it
# is excluded. The trace file must be valid JSONL.
for t in 1 2 4; do
    ccmm sweep --bound 4 --canonical --threads "$t" \
        --metrics "$scratch/metrics-$t.json" --trace "$scratch/trace-$t.jsonl" \
        > /dev/null 2>&1
    jq -e . "$scratch/metrics-$t.json" > /dev/null \
        || { echo "metrics-$t.json is not valid JSON"; exit 1; }
    jq -es . "$scratch/trace-$t.jsonl" > /dev/null \
        || { echo "trace-$t.jsonl is not valid JSONL"; exit 1; }
    jq -S '[.phases[] | select(.name == "memberships" or .name == "lattice"
                                  or .name == "fixpoint")
            | {name, counters}]' "$scratch/metrics-$t.json" > "$scratch/det-$t.json"
done
pairs=$(jq '.phases[0].counters.pairs_checked' "$scratch/metrics-1.json")
[[ "$pairs" -gt 0 ]] || { echo "pairs_checked is zero — counters not recording"; exit 1; }
for t in 2 4; do
    diff "$scratch/det-1.json" "$scratch/det-$t.json" \
        || { echo "deterministic-phase counters drifted at $t threads"; exit 1; }
done

# Same pin for the lane64 engine: the fixpoint phase's lane counters
# (lane_fixpoint_words, lane_deletions_masked, lane_survivor_pop) are in
# the deterministic class and must not drift with the thread count.
for t in 1 2 4; do
    ccmm sweep --bound 4 --canonical --engine lane64 --threads "$t" \
        --metrics "$scratch/lane-metrics-$t.json" > /dev/null 2>&1
    jq -S '[.phases[] | select(.name == "memberships" or .name == "lattice"
                                  or .name == "fixpoint")
            | {name, counters}]' "$scratch/lane-metrics-$t.json" > "$scratch/lane-det-$t.json"
done
pop=$(jq '[.phases[] | select(.name == "fixpoint")
           | .counters.lane_survivor_pop] | first' "$scratch/lane-metrics-1.json")
[[ "$pop" -gt 0 ]] || { echo "lane_survivor_pop is zero — lane fixpoint counters not recording"; exit 1; }
for t in 2 4; do
    diff "$scratch/lane-det-1.json" "$scratch/lane-det-$t.json" \
        || { echo "lane fixpoint counters drifted at $t threads"; exit 1; }
done
# The lattice is read off the memberships pass, so the lattice phase
# makes no membership checks at all: every counter is zero (omitted).
for f in "$scratch/metrics-1.json" "$scratch/lane-metrics-1.json"; do
    jq -e '[.phases[] | select(.name == "lattice")] | .[0].counters == {}' "$f" > /dev/null \
        || { echo "the lattice phase made membership checks ($f)"; exit 1; }
done
echo "== watch smoke: streaming LC check, deadline kill + replay resume, gate =="
# A fib:16 trace streams clean through the lean BACKER executor with the
# on-the-fly checker (exit 0, zero streaming-vs-batch divergences); a
# skip-reconcile run must detect the LC violation (exit 1, batch still
# agreeing on every sampled prefix); a zero-deadline run exits 4 with a
# node frontier and its journal resumes to verdicts bit-identical to the
# uninterrupted run; and a repeat clean run gates its reveal throughput
# against the record the first one left in the scratch bench file.
ccmm watch --workload fib:16 > "$scratch/watch-clean.out" \
    || { cat "$scratch/watch-clean.out"; echo "watch clean run failed"; exit 1; }
grep -q "valid true | SC true | LC true" "$scratch/watch-clean.out"
grep -q " 0 divergence(s)" "$scratch/watch-clean.out"
rc=0
ccmm watch --workload fib:12 --fault skip-reconcile --sample-every 2 \
    > "$scratch/watch-fault.out" 2>/dev/null || rc=$?
[[ "$rc" == 1 ]] || { echo "expected faulted watch exit 1, got $rc"; exit 1; }
grep -q "LC false" "$scratch/watch-fault.out"
grep -q " 0 divergence(s)" "$scratch/watch-fault.out"
rc=0
ccmm watch --workload fib:16 --deadline-secs 0 --ckpt "$scratch/watch.ckpt" \
    > "$scratch/watch-part.out" 2>/dev/null || rc=$?
[[ "$rc" == 4 ]] || { echo "expected watch deadline exit 4, got $rc"; exit 1; }
grep -q "resume frontier: \[(0, " "$scratch/watch-part.out"
ccmm watch --workload fib:16 --resume "$scratch/watch.ckpt" \
    > "$scratch/watch-resumed.out" 2>/dev/null \
    || { echo "watch resume failed"; exit 1; }
verdicts() { grep -E "^(streamed|conformance:)" "$1"; }
diff <(verdicts "$scratch/watch-clean.out") <(verdicts "$scratch/watch-resumed.out") \
    || { echo "resumed watch verdicts differ from the uninterrupted run"; exit 1; }
ccmm watch --workload fib:16 --gate > "$scratch/watch-gate.out" \
    || { cat "$scratch/watch-gate.out"; echo "watch gate failed"; exit 1; }
grep -q "^gate: " "$scratch/watch-gate.out"
unset CCMM_BENCH_JSON

echo "== serve smoke: faulted daemon, concurrent queries, graceful drain =="
# 1. Self-test: an injected handler panic on request 0 must come back as
#    a structured degraded reply, and the *same connection* must serve
#    the next request normally.
ccmm serve --self-test > "$scratch/serve-self.out"
grep -q "caught: " "$scratch/serve-self.out"
grep -q "same connection served normally" "$scratch/serve-self.out"

# 2. Daemon under the chaos-soak fault plan: ~1 in 5 requests is
#    panicked, dropped, truncated, or delayed. Clients retry transport
#    faults; verdicts must still match every corpus expectation.
"$ccmm_bin" serve --addr 127.0.0.1:0 --metrics "$scratch/serve-metrics.json" \
    --fault "panic=1/13,drop=1/17,truncate=1/19,delay=1/29:1,seed=42" \
    > "$scratch/serve.out" 2>/dev/null &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "^listening on " "$scratch/serve.out" 2>/dev/null && break
    sleep 0.1
done
addr=$(sed -n 's/^listening on //p' "$scratch/serve.out")
[[ -n "$addr" ]] || { echo "serve never reported its address"; exit 1; }

# Fan the whole corpus out concurrently (one client per entry, plus a
# ping client), then check each served verdict table against the
# expectations the corpus file pins. A degraded reply (injected panic)
# exits 3; the client never retries a verdict-bearing reply itself, so
# the smoke re-asks — correctness says a re-ask can only ever produce
# the one true verdict table, and ten panics in a row is ~13^-10.
query_pids=()
for f in corpus/*.litmus; do
    stem="$scratch/$(basename "$f" .litmus)"
    awk '/^---$/{s++; next} s==0' "$f" > "$stem.comp"
    awk '/^---$/{s++; next} s==1' "$f" > "$stem.obs"
    (
        for _ in $(seq 1 10); do
            ccmm query --addr "$addr" --retries 10 --models "$stem.comp" "$stem.obs" \
                > "$stem.served" 2>/dev/null && exit 0
            [[ $? == 3 ]] || exit 1  # only a degraded reply is re-asked
        done
        exit 1
    ) &
    query_pids+=($!)
done
ccmm query --addr "$addr" --ping --retries 10 > "$scratch/ping.out" 2>/dev/null &
query_pids+=($!)
for pid in "${query_pids[@]}"; do
    wait "$pid" || { echo "a serve-smoke client failed"; exit 1; }
done
grep -qx "pong" "$scratch/ping.out"
for f in corpus/*.litmus; do
    stem="$scratch/$(basename "$f" .litmus)"
    awk '/^---$/{s++; next} s==2 && NF && $0 !~ /^#/' "$f" > "$stem.want"
    while read -r want; do
        grep -qxF "$want" "$stem.served" \
            || { echo "$f: served verdicts missing \"$want\""; \
                 cat "$stem.served"; exit 1; }
    done < "$stem.want"
done

# 3. SIGTERM → graceful drain: exit 0, stats printed, no leaked
#    connections (a leak makes the daemon itself exit nonzero).
kill -TERM "$serve_pid"
rc=0; wait "$serve_pid" || rc=$?
[[ "$rc" == 0 ]] || { echo "serve drain exited $rc"; cat "$scratch/serve.out"; exit 1; }
grep -q "drain requested" "$scratch/serve.out"
grep -q "drained: " "$scratch/serve.out"
grep -q "connections: " "$scratch/serve.out"
jq -e '.schema == "ccmm-metrics-v1"' "$scratch/serve-metrics.json" > /dev/null \
    || { echo "serve metrics lost the v1 schema tag"; exit 1; }
served=$(jq '[.phases[] | select(.name == "serve")
              | .counters.serve_requests] | first' "$scratch/serve-metrics.json")
[[ "$served" -gt 0 ]] || { echo "serve_requests counter is zero"; exit 1; }

echo "CI OK"
