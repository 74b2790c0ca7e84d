#!/usr/bin/env bash
# Tier-1 verification, twice: a normal build, then an ASan+UBSan build.
# Both passes configure, build, and run the full ctest suite. Gas
# invisibility (observers, dormant fault points, honest quorum, unit price,
# static tiers vs their baselines) is the `identity` ctest in both passes;
# the stages below cover what only the CLI and the bench artifacts show.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

run_pass() {
  local build_dir="$1"; shift
  echo "=== ${build_dir}: configure ($*) ==="
  cmake -B "${build_dir}" -S . "$@"
  echo "=== ${build_dir}: build ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ${build_dir}: ctest ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

# Any compiler warning fails the default pass.
run_pass build -DCMAKE_CXX_FLAGS="-Werror"

# UB is fatal: any sanitizer report fails the run instead of scrolling past.
run_pass build-asan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"

BENCH_ARGS=(--policy adaptive-k2 --workload ycsb:B --records 256 --ops 512)
./build/tools/grubctl "${BENCH_ARGS[@]}" > "${WORK}/gas_default.txt"

# Price-schedule identity: the unit (constant 1.0x) schedule must be
# byte-identical to running with no schedule at all — the chain skips the
# surcharge branch entirely, and the report prints no price: line. Text AND
# JSON documents are compared whole.
echo "=== gas identity: --price constant vs no schedule ==="
./build/tools/grubctl "${BENCH_ARGS[@]}" --price constant \
  > "${WORK}/gas_price_const.txt"
diff "${WORK}/gas_default.txt" "${WORK}/gas_price_const.txt"
./build/tools/grubctl "${BENCH_ARGS[@]}" --json > "${WORK}/gas_default.json"
./build/tools/grubctl "${BENCH_ARGS[@]}" --price constant --json \
  > "${WORK}/gas_price_const.json"
cmp "${WORK}/gas_default.json" "${WORK}/gas_price_const.json"

# Trace determinism: trace content carries no wall clock — block-height
# timestamps and a monotone sequence counter only — so two identical runs
# (same seed, schedule, workload) must export byte-identical traces in both
# formats, even while faults fire.
echo "=== trace determinism: identical runs diff clean ==="
TRACE_ARGS=("${BENCH_ARGS[@]}" --faults 'sp.deliver.drop@2,chain.reorg%6')
./build/tools/grubctl "${TRACE_ARGS[@]}" --trace-out "${WORK}/trace_a.json" > /dev/null
./build/tools/grubctl "${TRACE_ARGS[@]}" --trace-out "${WORK}/trace_b.json" > /dev/null
diff "${WORK}/trace_a.json" "${WORK}/trace_b.json"
./build/tools/grubctl "${TRACE_ARGS[@]}" --trace-out "${WORK}/trace_a.jsonl" > /dev/null
./build/tools/grubctl "${TRACE_ARGS[@]}" --trace-out "${WORK}/trace_b.jsonl" > /dev/null
diff "${WORK}/trace_a.jsonl" "${WORK}/trace_b.jsonl"

# Watch determinism: block-height clocks only, so two same-seed runs stream
# byte-identical snapshot lines.
echo "=== watch determinism: identical runs cmp clean ==="
./build/tools/grubctl "${BENCH_ARGS[@]}" --watch 8 \
  | grep '^{"block":' > "${WORK}/watch_a.jsonl"
./build/tools/grubctl "${BENCH_ARGS[@]}" --watch 8 \
  | grep '^{"block":' > "${WORK}/watch_b.jsonl"
cmp "${WORK}/watch_a.jsonl" "${WORK}/watch_b.jsonl"

# Quick-bench gate: the pinned --quick configuration of every registered
# bench, without wall-clock fields, compared Gas-EXACTLY against the
# checked-in baseline. The run itself exits non-zero when any report carries
# the failure flag, which holds each bench to its own assertions: among them
# scale_shards' 4-shard Merkle forest (root-update Gas flat across the
# keyspace sweep, no superlinear growth under sustained load) and tiers'
# crossovers (at least one grid cell where the log or calldata tier beats
# contract storage on total Gas, and at least one where it loses). The
# simulator is deterministic, so any delta is a real cost change — if it is
# intentional, refresh the baseline (see EXPERIMENTS.md, "Refreshing the
# quick baselines"):
#   ./build/bench/grub-bench --all --quick --no-timing \
#       --combined quick --out-dir bench/baselines
# and commit the rewritten bench/baselines/BENCH_quick.json with the change
# that moved the numbers.
echo "=== quick-bench: run pinned subset ==="
rm -rf "${WORK}/quick_bench" && mkdir -p "${WORK}/quick_bench"
./build/bench/grub-bench --all --quick --no-timing \
  --combined quick --out-dir "${WORK}/quick_bench" > "${WORK}/quick_bench/run.log"
echo "=== quick-bench: byte-identical across repeated runs ==="
mkdir -p "${WORK}/quick_bench2"
./build/bench/grub-bench --all --quick --no-timing \
  --combined quick --out-dir "${WORK}/quick_bench2" > /dev/null
cmp "${WORK}/quick_bench/BENCH_quick.json" "${WORK}/quick_bench2/BENCH_quick.json"
echo "=== quick-bench: Gas-exact compare vs bench/baselines ==="
if ! ./build/bench/grub-bench --compare bench/baselines/BENCH_quick.json \
    "${WORK}/quick_bench/BENCH_quick.json"; then
  echo "quick-bench gate FAILED: Gas moved vs bench/baselines/BENCH_quick.json."
  echo "If the change is intentional, refresh the baseline:"
  echo "  ./build/bench/grub-bench --all --quick --no-timing --combined quick --out-dir bench/baselines"
  echo "and commit it together with the change that moved the numbers."
  exit 1
fi
# Negative control: the comparator must actually catch a Gas delta — a gate
# that cannot fail is no gate.
echo "=== quick-bench: tampered baseline must fail the compare ==="
sed 's/"gas_total":\([0-9]*\)/"gas_total":9\1/' \
  "${WORK}/quick_bench/BENCH_quick.json" > "${WORK}/quick_bench/tampered.json"
if ./build/bench/grub-bench --compare bench/baselines/BENCH_quick.json \
    "${WORK}/quick_bench/tampered.json" > /dev/null; then
  echo "quick-bench self-check FAILED: comparator accepted a tampered report"
  exit 1
fi

# Leaderboard gate: the policy x scenario matrix at the pinned quick scale.
# The bench itself asserts the adaptive strict win (a price-tracking policy
# must beat every static-K policy on the reprice scenario) and exits non-zero
# otherwise; on top of that the artifact must be byte-identical across
# repeated runs and Gas-exact against the checked-in baseline. Refresh with:
#   ./build/bench/grub-bench --only leaderboard --quick --no-timing \
#       --out-dir bench/baselines
echo "=== leaderboard gate: quick matrix + adaptive strict win ==="
rm -rf "${WORK}/leaderboard" "${WORK}/leaderboard2"
./build/bench/grub-bench --only leaderboard --quick --no-timing \
  --out-dir "${WORK}/leaderboard" > "${WORK}/leaderboard_run.log"
echo "=== leaderboard gate: byte-identical across repeated runs ==="
./build/bench/grub-bench --only leaderboard --quick --no-timing \
  --out-dir "${WORK}/leaderboard2" > /dev/null
cmp "${WORK}/leaderboard/BENCH_leaderboard.json" \
  "${WORK}/leaderboard2/BENCH_leaderboard.json"
echo "=== leaderboard gate: Gas-exact compare vs bench/baselines ==="
if ! ./build/bench/grub-bench --compare bench/baselines/BENCH_leaderboard.json \
    "${WORK}/leaderboard/BENCH_leaderboard.json"; then
  echo "leaderboard gate FAILED: Gas moved vs bench/baselines/BENCH_leaderboard.json."
  echo "If the change is intentional, refresh the baseline:"
  echo "  ./build/bench/grub-bench --only leaderboard --quick --no-timing --out-dir bench/baselines"
  echo "and commit it together with the change that moved the numbers."
  exit 1
fi

# Frozen paper anchor: bench/baselines/BENCH_quick_pretier.json is the
# quick baseline frozen BEFORE the multi-tier subsystem landed, and it is
# the one baseline that is never refreshed. Every legacy configuration —
# shards=1 (the single-tree layout) and a binary --policy run (which never
# builds a tier suffix; the empty suffix appends zero bytes) — must stay
# bit-identical to it. It contains every report of the older pre-shard
# baseline with equal numbers, so this one gate covers both refactors. The
# comparator walks the baseline's benches, so reports added since are not
# a mismatch. One audited exception: the reports whose transactions crossed
# the 1000-word Ctx(X) calldata bound (fig9/fig13a/fig14 and fig12's 1 KiB
# series) were REMOVED when the bound became a hard assert — their frozen
# numbers came from the linear tx formula evaluated outside its validity
# domain, so they were never correct to begin with. Everything that fit the
# bound is still pinned bit-exactly.
echo "=== anchor gate: legacy Gas-identity vs the frozen pre-tier anchor ==="
if ! ./build/bench/grub-bench --compare bench/baselines/BENCH_quick_pretier.json \
    "${WORK}/quick_bench/BENCH_quick.json"; then
  echo "anchor gate FAILED: a legacy configuration no longer matches the frozen"
  echo "pre-tier anchor — a refactor leaked into legacy Gas."
  exit 1
fi

# Benchmark smoke: a Release build of perfbench in this script's temporary
# directory, then one second of every BENCHMARK.json workload and one traced
# ycsb-b run. A run exits 0 only when the benchmark's reference oracle, its
# self-check and its replay agreement all pass, so a change whose outputs
# turn incorrect fails here before any timing is compared.
echo "=== perfbench smoke: every workload for 1 s, plus a traced ycsb-b ==="
run_perfbench() {
  local log="${WORK}/perfbench_$1_trace$2.log"
  if ! CARGO_TARGET_DIR="${WORK}/bench_target" python3 perfbench/run.py \
      --workload "$1" --seed 1 --seconds 1 --trace "$2" > "${log}" 2>&1; then
    tail -n 20 "${log}"
    echo "perfbench smoke FAILED: --workload $1 --trace $2"
    exit 1
  fi
  echo "$1 --trace $2: $(tail -n 1 "${log}" | cut -c1-120)..."
}
for workload in $(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  run_perfbench "${workload}" 0
done
run_perfbench ycsb-b 1

echo "=== all passes green ==="
