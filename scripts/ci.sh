#!/usr/bin/env bash
# Full offline CI gate: format, lint, rustdoc, build, test (unpinned and
# pinned to one core), a determinism soak, Miri smoke, the starsimd
# smokes and a drift check of the committed study CSVs.
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

# starsimd smoke: boots a server on an ephemeral port, runs a render
# round-trip, forces an admission reject (retry-after hint), drains, and
# exits non-zero on any misbehaviour.
echo "== starsimd server smoke (--self-test)"
timeout 120 target/release/starsimd --self-test

# starsimd observability smoke: scrape parses, SLOs ok, seeded fault
# dumps a parseable flight-recorder post-mortem.
echo "== starsimd observability smoke (--obs-smoke)"
timeout 120 target/release/starsimd --obs-smoke

# Drift check: the studies whose every column is modeled or counted must
# rewrite their committed CSVs byte for byte, so a change that moves their
# numbers also updates results/ (and the EXPERIMENTS.md prose quoting
# them). The figures and tables stay out: fig9 and fig13 carry a measured
# wall-clock column.
echo "== study drift check (ablation contention devices streams session multigpu lutbuild)"
DRIFT_DIR="$(mktemp -d)"
for study in ablation contention devices streams session multigpu lutbuild; do
  timeout 600 target/release/starsim-bench --experiment "$study" --out "$DRIFT_DIR" > /dev/null
  diff -u "results/$study.csv" "$DRIFT_DIR/$study.csv"
done
rm -rf "$DRIFT_DIR"
