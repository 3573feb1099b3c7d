#!/usr/bin/env bash
# Full offline CI gate: format, lint, rustdoc, build, test (unpinned and
# pinned to one core), a determinism soak, Miri smoke, bench smokes.
#
# Artefact convention: every BENCH_PR*.json (PR1 executor speedup, PR2
# sustained throughput — historical, its experiment is gone and
# perfbench's dense-field measures sustained throughput — PR3 chaos
# overhead + recovery, PR4 telemetry overhead + trace validation, PR5
# sanitizer gate + clean pass + corpus, PR6 SIMD backend speedup +
# pixel-error gate — historical, the backend and its experiment are
# retired — PR7 frame-loop p99 + bit-identity (first written for
# a pipelined scheduler, since retired; the one frame loop writes it now),
# PR8 server loadgen overload gates, PR9 observability-plane overhead +
# flight-recorder + utilization gates, PR10 static-analyzer consistency
# gate + perf-defect corpus) is written to results/ — the single tracked
# location. Only the *current* PR's artefact (BENCH_PR10.json) is
# additionally copied to the repo root for the PR gate, at the end of
# this script.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The root manifest's default-members already cover every crate;
# --workspace says so explicitly.
echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test -q --workspace"
cargo test -q --workspace

# Tier-1 (the root package's integration tests and, through the root
# manifest's default-members, every crate's unit tests) pinned to one
# core: with available_parallelism() == 1 every device built without an
# explicit worker count runs one worker, and devices that ask for more
# share one core between their pool lanes. The
# executors have no single-worker path of their own any more, but the
# one-image-per-launch claims must hold here too. Skipped where taskset is
# unavailable.
echo "== cargo test -q pinned to one core (taskset -c 0)"
if command -v taskset >/dev/null 2>&1; then
  taskset -c 0 cargo test -q
else
  echo "taskset: not installed — skipped"
fi

# Determinism soak: the bit-identity suites rerun unpinned, so a result
# that depends on thread scheduling fails CI here instead of in 1 run in
# k. Each rerun is time-boxed so a wedged run fails loudly, not hangs.
# The server suite's chaos matrix has two tenants sharing one fault plan;
# the telemetry suite pins the setup span tree and the device utilization
# signature; the chaos, telemetry and analyze suites run at 1, 2, the
# host's cores and 15 workers (tests/common), the analyze suite comparing
# its reports across those counts; cross_simulator
# compares the parallel and sequential images bit for bit.
echo "== determinism soak: sanitizer + exec_modes + pipeline + chaos + server + telemetry + analyze + cross_simulator suites, 10 unpinned reruns"
for i in $(seq 1 10); do
  echo "-- soak run $i/10"
  timeout 300 cargo test -q --test sanitizer --test exec_modes --test pipeline --test chaos \
    --test server --test telemetry --test analyze --test cross_simulator
done

# The benchmark's own self-test: every workload once at a tiny size,
# untraced and traced, with its correctness checks (dense-field against
# ExecMode::Reference, the split-burst digest, the replay digest against
# starsimd's) and a deliberately corrupted run that must be caught.
echo "== perfbench --self-test"
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- --self-test

# The analyzer contract: the sanitizer suite must hold verbatim with the
# pre-launch advisor enabled (setup-only analysis; frames untouched).
echo "== sanitizer suite under STARSIM_ANALYZE=1"
STARSIM_ANALYZE=1 cargo test -q --test sanitizer

# Miri smoke over the std-only leaf crates (rng, psf, starfield): UB
# checking on the pure-math core. Gated on a working miri component so the
# gate stays green on toolchains without it, and time-boxed so an
# interpreter-speed run can't wedge CI (timeout exit 124 = soft skip).
echo "== cargo miri test smoke (rng, psf, starfield)"
if cargo miri --version >/dev/null 2>&1; then
  MIRI_RC=0
  MIRIFLAGS="-Zmiri-disable-isolation" \
    timeout 900 cargo miri test -q -p starsim-rng -p starsim-psf -p starfield \
    || MIRI_RC=$?
  if [ "$MIRI_RC" -eq 124 ]; then
    echo "miri: timed out after 900s — soft skip"
  elif [ "$MIRI_RC" -ne 0 ]; then
    echo "miri: FAILED (exit $MIRI_RC)"
    exit "$MIRI_RC"
  fi
else
  echo "miri: component not installed — skipped"
fi

# Every bench smoke is time-boxed: a wedged run (e.g. a rare scheduler
# race under fault injection) should fail the gate loudly, not hang it.
BENCH="timeout 600 target/release/starsim-bench"

echo "== executor bench smoke"
$BENCH --experiment executor --quick --out results

echo "== BENCH_PR1.json"
cat results/BENCH_PR1.json

# Historical artefact: the experiment that wrote it has been removed.
echo "== BENCH_PR2.json"
cat results/BENCH_PR2.json

echo "== chaos bench smoke (seeded fault injection + recovery)"
$BENCH --chaos --seed 7 --quick --out results

echo "== BENCH_PR3.json"
cat results/BENCH_PR3.json
grep -q '"bit_identical": true' results/BENCH_PR3.json
grep -q '"exhausted": 0' results/BENCH_PR3.json

echo "== telemetry bench smoke (overhead gate + Perfetto trace export)"
$BENCH --trace results/trace.json --quick --out results

echo "== BENCH_PR4.json"
cat results/BENCH_PR4.json
grep -q '"trace_valid": true' results/BENCH_PR4.json
grep -q '"stages_ok": true' results/BENCH_PR4.json
grep -q '"gate_ok": true' results/BENCH_PR4.json

echo "== sanitizer bench smoke (disabled-overhead gate + clean pass + corpus)"
$BENCH --sanitize --quick --out results

echo "== BENCH_PR5.json"
cat results/BENCH_PR5.json
grep -q '"findings": 0' results/BENCH_PR5.json
grep -q '"corpus_flagged": true' results/BENCH_PR5.json
grep -q '"gate_ok": true' results/BENCH_PR5.json

# Historical artefact: the SIMD backend and its experiment are retired.
echo "== BENCH_PR6.json"
cat results/BENCH_PR6.json

echo "== frame-loop bench (p99 gate + bit-identity sweep)"
$BENCH --pipeline --quick --out results

echo "== BENCH_PR7.json"
cat results/BENCH_PR7.json
grep -q '"bit_identical": true' results/BENCH_PR7.json
grep -q '"p99_ok": true' results/BENCH_PR7.json
grep -q '"gate_ok": true' results/BENCH_PR7.json

# starsimd smoke: boots a server on an ephemeral port, runs a render
# round-trip, forces an admission reject (retry-after hint), drains, and
# exits non-zero on any misbehaviour.
echo "== starsimd server smoke (--self-test)"
timeout 120 target/release/starsimd --self-test

echo "== server loadgen bench (admission + deadline + shedding gates)"
$BENCH --server --quick --out results

echo "== BENCH_PR8.json"
cat results/BENCH_PR8.json
grep -q '"reject_rate"' results/BENCH_PR8.json
grep -q '"deadline_miss_rate"' results/BENCH_PR8.json
grep -q '"retry_after_honored": true' results/BENCH_PR8.json
grep -q '"resume_identical": true' results/BENCH_PR8.json
grep -q '"gate_ok": true' results/BENCH_PR8.json

# starsimd observability smoke: scrape parses, SLOs ok, seeded fault
# dumps a parseable flight-recorder post-mortem.
echo "== starsimd observability smoke (--obs-smoke)"
timeout 120 target/release/starsimd --obs-smoke

echo "== observability plane bench (overhead + flight-recorder + utilization gates)"
$BENCH --obsplane --quick --out results

echo "== BENCH_PR9.json"
cat results/BENCH_PR9.json
grep -q '"overhead_pct"' results/BENCH_PR9.json
grep -q '"exposition_ok": true' results/BENCH_PR9.json
grep -q '"wire_scrape_ok": true' results/BENCH_PR9.json
grep -q '"slo_ok": true' results/BENCH_PR9.json
grep -q '"flight_dump_ok": true' results/BENCH_PR9.json
grep -q '"trace_ok": true' results/BENCH_PR9.json
grep -q '"chain_ok": true' results/BENCH_PR9.json
grep -q '"util_signature_match": true' results/BENCH_PR9.json
grep -q '"gate_ok": true' results/BENCH_PR9.json

echo "== static-analyzer bench (static-vs-dynamic consistency + corpus + advisor gates)"
$BENCH --analyze --quick --out results

echo "== BENCH_PR10.json"
cat results/BENCH_PR10.json
grep -q '"production_ok": true' results/BENCH_PR10.json
grep -q '"determinism_ok": true' results/BENCH_PR10.json
grep -q '"corpus_flagged": true' results/BENCH_PR10.json
grep -q '"advisor_runs": 1' results/BENCH_PR10.json
grep -q '"gate_ok": true' results/BENCH_PR10.json

# Root copy: current PR's artefact only (see the convention at the top).
cp results/BENCH_PR10.json .
