#!/usr/bin/env bash
# Offline CI gate: formatting, lints, docs, tier-1 build + tests.
#
# The workspace has no registry dependencies (see DESIGN.md "Dependencies"),
# so everything here must pass with the network unplugged.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

# A deleted or renamed item must not leave a dangling doc link behind.
echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q (root package)"
cargo test -q

echo "==> workspace tests"
cargo test -q --workspace

# The DDRT decoder does arithmetic on sizes read from its input, and
# release builds wrap where debug builds panic: run its tests in both.
echo "==> trace decoder tests in release mode"
cargo test -q --release -p ddrace-trace

# The aggregate (and its interrupt-then-resume reconstruction) must be
# byte-identical at any worker count; pin both ends of the range in CI,
# not just whatever parallelism the local machine happens to have.
echo "==> harness determinism + resume at DDRACE_WORKERS=1"
DDRACE_WORKERS=1 cargo test -q -p ddrace-harness --test determinism --test resume

echo "==> harness determinism + resume at DDRACE_WORKERS=8"
DDRACE_WORKERS=8 cargo test -q -p ddrace-harness --test determinism --test resume

# The same guarantee for the offline trace pipeline: a killed-then-resumed
# `ddrace ingest` reconstructs the aggregate byte-for-byte at both ends of
# the worker-count range.
echo "==> trace pipeline (golden bytes + ingest resume) at DDRACE_WORKERS=1"
DDRACE_WORKERS=1 cargo test -q --test trace_pipeline

echo "==> trace pipeline (golden bytes + ingest resume) at DDRACE_WORKERS=8"
DDRACE_WORKERS=8 cargo test -q --test trace_pipeline

# Smoke the variant axis end to end: the ported A3 binary sweeps cache
# geometry as campaign variants, checkpointing to a scratch event stream.
echo "==> variant-sweep smoke (ported A3 at test scale)"
A3_SMOKE_DIR=$(mktemp -d)
DDRACE_SCALE=test DDRACE_RESULTS_DIR="$A3_SMOKE_DIR" \
    DDRACE_EVENTS="$A3_SMOKE_DIR/events.jsonl" \
    cargo run --release -q -p ddrace-bench --bin exp_a3_cache_sweep
rm -rf "$A3_SMOKE_DIR"

# Every experiment binary end to end at test scale, through exp_all
# (exit 0 only if all of them succeed). exp_a6_prefetch is the only
# product path that runs the next-line prefetcher.
echo "==> experiment binaries (exp_all at test scale)"
cargo build --release -q -p ddrace-bench
EXP_SMOKE_DIR=$(mktemp -d)
DDRACE_SCALE=test DDRACE_RESULTS_DIR="$EXP_SMOKE_DIR" ./target/release/exp_all > /dev/null
rm -rf "$EXP_SMOKE_DIR"

# The runnable examples, end to end: clippy only builds them.
# native_monitor is the walkthrough of `Monitor` (it asserts the bug is
# caught and the fix is clean); tuning_lab sweeps the demand
# controller's cooldown.
echo "==> examples (release)"
for example in quickstart race_hunt benchmark_tour tuning_lab native_monitor; do
    cargo run --release -q --example "$example" > /dev/null
done

# Conformance fuzz smoke: a fixed-seed battery of generated specs through
# the differential/metamorphic oracles. The generator's archetype wheel
# includes the memory-model shapes (Channel, TaskPool, Publication plus
# relaxed/acq-rel/condvar ops in Mixed), so this battery also smokes the
# relaxed-soundness and relaxed-upgrade oracles. Gates on three things:
# zero violations, byte-identical aggregate + sorted event stream across
# a rerun, and byte-identical aggregate across 1 vs 8 workers (the sorted
# streams differ only in the campaign_started worker count, so the
# cross-worker comparison uses the aggregate). Then a kill-then-resume
# through the binary: half the 8-worker event stream (cut mid-line, as a
# kill would leave it) resumes at 1 worker to the same aggregate.
echo "==> conformance fuzz smoke (seed 1, 200 specs, workers 1 and 8, resume)"
FUZZ_SMOKE_DIR=$(mktemp -d)
./target/release/ddrace fuzz --seed 1 --count 200 --workers 8 --quiet \
    --events "$FUZZ_SMOKE_DIR/ev8a.jsonl" --out "$FUZZ_SMOKE_DIR/agg8a.json" \
    --repro-dir "$FUZZ_SMOKE_DIR"
./target/release/ddrace fuzz --seed 1 --count 200 --workers 8 --quiet \
    --events "$FUZZ_SMOKE_DIR/ev8b.jsonl" --out "$FUZZ_SMOKE_DIR/agg8b.json" \
    --repro-dir "$FUZZ_SMOKE_DIR"
./target/release/ddrace fuzz --seed 1 --count 200 --workers 1 --quiet \
    --out "$FUZZ_SMOKE_DIR/agg1.json" --repro-dir "$FUZZ_SMOKE_DIR"
diff "$FUZZ_SMOKE_DIR/agg8a.json" "$FUZZ_SMOKE_DIR/agg8b.json"
sort "$FUZZ_SMOKE_DIR/ev8a.jsonl" > "$FUZZ_SMOKE_DIR/ev8a.sorted"
sort "$FUZZ_SMOKE_DIR/ev8b.jsonl" > "$FUZZ_SMOKE_DIR/ev8b.sorted"
diff "$FUZZ_SMOKE_DIR/ev8a.sorted" "$FUZZ_SMOKE_DIR/ev8b.sorted"
diff "$FUZZ_SMOKE_DIR/agg8a.json" "$FUZZ_SMOKE_DIR/agg1.json"
FUZZ_EVENTS_BYTES=$(wc -c < "$FUZZ_SMOKE_DIR/ev8a.jsonl")
head -c $((FUZZ_EVENTS_BYTES / 2)) "$FUZZ_SMOKE_DIR/ev8a.jsonl" \
    > "$FUZZ_SMOKE_DIR/partial.jsonl"
grep -q '"job_finished"' "$FUZZ_SMOKE_DIR/partial.jsonl"
./target/release/ddrace fuzz --seed 1 --count 200 --workers 1 --quiet \
    --resume "$FUZZ_SMOKE_DIR/partial.jsonl" \
    --out "$FUZZ_SMOKE_DIR/agg-resumed.json" --repro-dir "$FUZZ_SMOKE_DIR"
diff "$FUZZ_SMOKE_DIR/agg8a.json" "$FUZZ_SMOKE_DIR/agg-resumed.json"
rm -rf "$FUZZ_SMOKE_DIR"

# Sync-archetype campaign smoke: the memory-model suite (condvar/ring
# channels, CAS task pool, double-checked init) through continuous +
# demand-HITM on the campaign harness. Gates on the determinism contract
# extending to the new opcodes: the aggregate must be byte-identical at
# 1 vs 8 host workers, and after a kill-then-resume through the binary
# (half the 1-worker event stream, resumed at 8 workers).
echo "==> sync-archetype campaign (continuous+demand-hitm, workers 1 vs 8, resume)"
SYNC_SMOKE_DIR=$(mktemp -d)
./target/release/ddrace campaign --suite sync --scale test --seed 7 \
    --modes continuous,demand-hitm --workers 1 --quiet \
    --events "$SYNC_SMOKE_DIR/ev1.jsonl" --out "$SYNC_SMOKE_DIR/agg1.json"
./target/release/ddrace campaign --suite sync --scale test --seed 7 \
    --modes continuous,demand-hitm --workers 8 --quiet \
    --out "$SYNC_SMOKE_DIR/agg8.json"
diff "$SYNC_SMOKE_DIR/agg1.json" "$SYNC_SMOKE_DIR/agg8.json"
SYNC_EVENTS_BYTES=$(wc -c < "$SYNC_SMOKE_DIR/ev1.jsonl")
head -c $((SYNC_EVENTS_BYTES / 2)) "$SYNC_SMOKE_DIR/ev1.jsonl" \
    > "$SYNC_SMOKE_DIR/partial.jsonl"
grep -q '"job_finished"' "$SYNC_SMOKE_DIR/partial.jsonl"
./target/release/ddrace campaign --suite sync --scale test --seed 7 \
    --modes continuous,demand-hitm --workers 8 --quiet \
    --resume "$SYNC_SMOKE_DIR/partial.jsonl" --out "$SYNC_SMOKE_DIR/agg-resumed.json"
diff "$SYNC_SMOKE_DIR/agg1.json" "$SYNC_SMOKE_DIR/agg-resumed.json"
rm -rf "$SYNC_SMOKE_DIR"

# Ingest smoke: record a tiny binary corpus from two workloads, replay it
# offline through both HB detectors at 1 and 8 workers, and require the
# aggregates byte-identical — detection as an offline service must not
# depend on pool parallelism.
echo "==> ingest smoke (2 workloads, fasttrack+djit, workers 1 vs 8)"
INGEST_SMOKE_DIR=$(mktemp -d)
./target/release/ddrace record --bench unprotected_counter --scale test \
    --out "$INGEST_SMOKE_DIR/counter.ddrt" > /dev/null
./target/release/ddrace record --bench sparse_race --scale test \
    --out "$INGEST_SMOKE_DIR/sparse.ddrt" > /dev/null
./target/release/ddrace ingest \
    --traces "$INGEST_SMOKE_DIR/counter.ddrt,$INGEST_SMOKE_DIR/sparse.ddrt" \
    --detectors fasttrack,djit --workers 1 --quiet \
    --out "$INGEST_SMOKE_DIR/agg1.json"
./target/release/ddrace ingest \
    --traces "$INGEST_SMOKE_DIR/counter.ddrt,$INGEST_SMOKE_DIR/sparse.ddrt" \
    --detectors fasttrack,djit --workers 8 --quiet \
    --out "$INGEST_SMOKE_DIR/agg8.json"
diff "$INGEST_SMOKE_DIR/agg1.json" "$INGEST_SMOKE_DIR/agg8.json"
rm -rf "$INGEST_SMOKE_DIR"

# The sharded native monitor must stay byte-equivalent to the serialized
# FastTrack oracle (reports, order, occurrences, stats, trace bytes) at
# real thread counts spanning the shard count.
echo "==> native shard equivalence at DDRACE_NATIVE_THREADS=1"
DDRACE_NATIVE_THREADS=1 cargo test -q -p ddrace-native --test shard_equivalence
echo "==> native shard equivalence at DDRACE_NATIVE_THREADS=8"
DDRACE_NATIVE_THREADS=8 cargo test -q -p ddrace-native --test shard_equivalence
echo "==> native shard equivalence at DDRACE_NATIVE_THREADS=64"
DDRACE_NATIVE_THREADS=64 cargo test -q -p ddrace-native --test shard_equivalence

# The recorder must never *silently* drop a record: decoded + dropped ==
# issued, including when finish_recording races live writers.
echo "==> native recorder stress at DDRACE_NATIVE_THREADS=1"
DDRACE_NATIVE_THREADS=1 cargo test -q -p ddrace-native --test recorder_stress
echo "==> native recorder stress at DDRACE_NATIVE_THREADS=8"
DDRACE_NATIVE_THREADS=8 cargo test -q -p ddrace-native --test recorder_stress
echo "==> native recorder stress at DDRACE_NATIVE_THREADS=64"
DDRACE_NATIVE_THREADS=64 cargo test -q -p ddrace-native --test recorder_stress

# Both native suites again, optimized: release builds inline the hooks
# and run the threads faster against each other, so a hook racing the
# shutdown drain gets more chances to show. The drain walks every
# registry segment; 64 threads span seven. The crate's unit tests (the
# sealed recorder, post-finish accounting) run here with inlined hooks too,
# and so does the demand toggle: its 1-shard monitor's guarded writes,
# alternating between two threads, lock their own slot under the shard
# lock while the toggle's thread sums the shards.
echo "==> native unit tests, recorder stress, shard equivalence + pmu toggle in release at DDRACE_NATIVE_THREADS=64"
DDRACE_NATIVE_THREADS=64 cargo test -q --release -p ddrace-native \
    --lib --test recorder_stress --test shard_equivalence --test pmu_toggle

# Parallel offline replay must be byte-identical to serial replay — same
# reports, same order, same stats, same aggregate — at both ends of the
# pool-parallelism range.
echo "==> parallel replay equivalence at DDRACE_WORKERS=1"
DDRACE_WORKERS=1 cargo test -q -p ddrace-harness --test parallel_replay
DDRACE_WORKERS=1 cargo test -q -p ddrace-conform --test parallel_replay
echo "==> parallel replay equivalence at DDRACE_WORKERS=8"
DDRACE_WORKERS=8 cargo test -q -p ddrace-harness --test parallel_replay
DDRACE_WORKERS=8 cargo test -q -p ddrace-conform --test parallel_replay

# End-to-end: `ddrace ingest` must produce the same aggregate whether the
# replay fan-out runs 1 worker or 8. The only config-dependent counter is
# ingest.replay_workers itself; normalize it before diffing (the pattern
# has no leading quote so it also matches the namespaced
# "ingest.replay_workers" key).
echo "==> ingest replay-workers smoke (1 vs 8 workers)"
REPLAY_SMOKE_DIR=$(mktemp -d)
./target/release/ddrace record --bench unprotected_counter --scale test \
    --out "$REPLAY_SMOKE_DIR/counter.ddrt" > /dev/null
./target/release/ddrace ingest \
    --traces "$REPLAY_SMOKE_DIR/counter.ddrt" \
    --detectors fasttrack --quiet --replay-workers 1 \
    --out "$REPLAY_SMOKE_DIR/par1.json"
./target/release/ddrace ingest \
    --traces "$REPLAY_SMOKE_DIR/counter.ddrt" \
    --detectors fasttrack --quiet --replay-workers 8 \
    --out "$REPLAY_SMOKE_DIR/par8.json"
sed 's/replay_workers": [0-9]*/replay_workers": N/' \
    "$REPLAY_SMOKE_DIR/par1.json" > "$REPLAY_SMOKE_DIR/par1.norm"
sed 's/replay_workers": [0-9]*/replay_workers": N/' \
    "$REPLAY_SMOKE_DIR/par8.json" > "$REPLAY_SMOKE_DIR/par8.norm"
diff "$REPLAY_SMOKE_DIR/par1.norm" "$REPLAY_SMOKE_DIR/par8.norm"
rm -rf "$REPLAY_SMOKE_DIR"

# The end-to-end benchmark is a package of its own (not a workspace
# member). Its self-test runs one small round of every pipeline through
# the correctness gate, and is the only check that it still compiles
# against the workspace APIs it names.
echo "==> bench_e2e self-test"
cargo test -q --release --manifest-path bench_e2e/Cargo.toml

# Real-hardware backend feature gate. CI boxes may not grant
# perf_event_open (perf_event_paranoid, containers), so this stage gates
# on three things that hold everywhere: the feature builds warning-free,
# its tests pass (they accept a structured refusal where hardware is
# unavailable), and `native-probe` degrades to the simulator with a
# machine-readable reason instead of failing. Runs LAST: the feature
# rebuild must not invalidate ./target/release/ddrace for earlier stages.
echo "==> linux-pmu feature: clippy + tests"
cargo clippy -p ddrace-pmu -p ddrace-native --all-targets \
    --features linux-pmu -- -D warnings
cargo test -q -p ddrace-pmu -p ddrace-native --features linux-pmu

echo "==> linux-pmu feature: native-probe forced fallback is structured"
cargo build --release --features linux-pmu
PROBE_SMOKE_DIR=$(mktemp -d)
DDRACE_PMU_DISABLE=1 ./target/release/ddrace native-probe --json \
    > "$PROBE_SMOKE_DIR/probe.json"
grep -q '"backend":"sim"' "$PROBE_SMOKE_DIR/probe.json"
grep -q '"fallback_reason":"disabled by DDRACE_PMU_DISABLE=1"' \
    "$PROBE_SMOKE_DIR/probe.json"
# Unforced probe must also succeed — either hardware works or the ladder
# lands on the simulator with a reason; both exit 0.
./target/release/ddrace native-probe > /dev/null

# Golden safety: compiling the hardware backend in must not perturb one
# byte of the simulator-path aggregates. Same fuzz battery as above, run
# from the feature-enabled binary, diffed against a default-build rerun.
echo "==> linux-pmu feature: simulator aggregates byte-identical"
./target/release/ddrace fuzz --seed 1 --count 200 --workers 8 --quiet \
    --out "$PROBE_SMOKE_DIR/agg-pmu.json" --repro-dir "$PROBE_SMOKE_DIR"
cargo build --release
./target/release/ddrace fuzz --seed 1 --count 200 --workers 8 --quiet \
    --out "$PROBE_SMOKE_DIR/agg-default.json" --repro-dir "$PROBE_SMOKE_DIR"
diff "$PROBE_SMOKE_DIR/agg-pmu.json" "$PROBE_SMOKE_DIR/agg-default.json"
rm -rf "$PROBE_SMOKE_DIR"

echo "CI green."
