#!/usr/bin/env bash
# Tier-1 verification, twice: a normal build, then an ASan+UBSan build.
# Both passes configure, build, and run the full ctest suite.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_pass() {
  local build_dir="$1"; shift
  echo "=== ${build_dir}: configure ($*) ==="
  cmake -B "${build_dir}" -S . "$@"
  echo "=== ${build_dir}: build ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ${build_dir}: ctest ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

run_pass build

run_pass build-asan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"

# Fault matrix: the injection suites (tests/fault/, label `fault`) again in
# isolation under the sanitizers — fault paths exercise recovery code that
# rarely runs elsewhere, exactly where lifetime bugs hide.
echo "=== build-asan: fault matrix (ctest -L fault) ==="
ctest --test-dir build-asan -L fault --output-on-failure -j "${JOBS}"

# Adversary matrix: the Byzantine-SP suites (label `adversary`) under the
# sanitizers — forged proofs, quorum failover, and parole walk rejection
# paths full of partially-consumed batches, exactly where lifetime bugs hide.
echo "=== build-asan: adversary matrix (ctest -L adversary) ==="
ctest --test-dir build-asan -L adversary --output-on-failure -j "${JOBS}"

# Gas identity: a GRUB_FAULTS=OFF build must produce bit-identical bench
# output to the default build when no schedule is active — the fail-point
# instrumentation itself must never perturb the paper's cost numbers.
run_pass build-nofaults -DGRUB_FAULTS=OFF
echo "=== gas identity: GRUB_FAULTS=OFF vs default build ==="
BENCH_ARGS=(--policy adaptive-k2 --workload ycsb:B --records 256 --ops 512)
./build/tools/grubctl "${BENCH_ARGS[@]}" > /tmp/grub_gas_default.txt
./build-nofaults/tools/grubctl "${BENCH_ARGS[@]}" > /tmp/grub_gas_nofaults.txt
diff /tmp/grub_gas_default.txt /tmp/grub_gas_nofaults.txt
# A dormant schedule must be just as invisible in the faults-enabled build.
./build/tools/grubctl "${BENCH_ARGS[@]}" --faults 'sp.deliver.drop@100000000' \
  | grep -v -e '^faults:' -e '^injected:' -e '^recovery:' \
  > /tmp/grub_gas_dormant.txt
diff /tmp/grub_gas_default.txt /tmp/grub_gas_dormant.txt

# Price-schedule identity: the unit (constant 1.0x) schedule must be
# byte-identical to running with no schedule at all — the chain skips the
# surcharge branch entirely, and the report prints no price: line. Text AND
# JSON documents are compared whole.
echo "=== gas identity: --price constant vs no schedule ==="
./build/tools/grubctl "${BENCH_ARGS[@]}" --price constant \
  > /tmp/grub_gas_price_const.txt
diff /tmp/grub_gas_default.txt /tmp/grub_gas_price_const.txt
./build/tools/grubctl "${BENCH_ARGS[@]}" --json > /tmp/grub_gas_default.json
./build/tools/grubctl "${BENCH_ARGS[@]}" --price constant --json \
  > /tmp/grub_gas_price_const.json
cmp /tmp/grub_gas_default.json /tmp/grub_gas_price_const.json

# Quorum identity: an honest multi-SP deployment must not move a single Gas
# number relative to the classic single-SP feed, in the default AND the
# GRUB_FAULTS=OFF build — standby replicas cost nothing until a failover
# promotes one. Only the quorum summary lines are new; strip them and diff.
echo "=== gas identity: honest 2-replica quorum vs single SP ==="
./build/tools/grubctl "${BENCH_ARGS[@]}" --sps 2 \
  | grep -v -e '^quorum:' -e '^  sp[0-9]' > /tmp/grub_gas_quorum.txt
diff /tmp/grub_gas_default.txt /tmp/grub_gas_quorum.txt
./build-nofaults/tools/grubctl "${BENCH_ARGS[@]}" --sps 2 \
  | grep -v -e '^quorum:' -e '^  sp[0-9]' > /tmp/grub_gas_quorum_nofaults.txt
diff /tmp/grub_gas_default.txt /tmp/grub_gas_quorum_nofaults.txt

# Trace determinism: trace content carries no wall clock — block-height
# timestamps and a monotone sequence counter only — so two identical runs
# (same seed, schedule, workload) must export byte-identical traces in both
# formats, even while faults fire.
echo "=== trace determinism: identical runs diff clean ==="
TRACE_ARGS=("${BENCH_ARGS[@]}" --faults 'sp.deliver.drop@2,chain.reorg%6')
./build/tools/grubctl "${TRACE_ARGS[@]}" --trace-out /tmp/grub_trace_a.json > /dev/null
./build/tools/grubctl "${TRACE_ARGS[@]}" --trace-out /tmp/grub_trace_b.json > /dev/null
diff /tmp/grub_trace_a.json /tmp/grub_trace_b.json
./build/tools/grubctl "${TRACE_ARGS[@]}" --trace-out /tmp/grub_trace_a.jsonl > /dev/null
./build/tools/grubctl "${TRACE_ARGS[@]}" --trace-out /tmp/grub_trace_b.jsonl > /dev/null
diff /tmp/grub_trace_a.jsonl /tmp/grub_trace_b.jsonl

# Gas identity: turning tracing on must not move a single Gas number — trace
# ids never ride in calldata or event data.
echo "=== gas identity: tracing on vs off ==="
./build/tools/grubctl "${BENCH_ARGS[@]}" --trace-out /tmp/grub_trace_gas.jsonl \
  | grep -v '^trace:' > /tmp/grub_gas_traced.txt
diff /tmp/grub_gas_default.txt /tmp/grub_gas_traced.txt

# GRUB_TELEMETRY=OFF: every instrumentation site compiled out. The telemetry
# test binaries intentionally fail in this mode (they test the
# instrumentation), so build the CLI only and hold it to the same Gas output
# as the instrumented build.
echo "=== build-notelem: configure + grubctl only ==="
cmake -B build-notelem -S . -DGRUB_TELEMETRY=OFF
cmake --build build-notelem -j "${JOBS}" --target grubctl
echo "=== gas identity: GRUB_TELEMETRY=OFF vs default build ==="
./build-notelem/tools/grubctl "${BENCH_ARGS[@]}" > /tmp/grub_gas_notelem.txt
diff /tmp/grub_gas_default.txt /tmp/grub_gas_notelem.txt

# Workload observatory Gas identity: the monitor only observes, so running
# with it live (--workload table + --watch snapshots) must not move a single
# Gas number — enabled, and compiled out. The observatory table is the LAST
# text section (header "=== workload observatory ===") and every watch line
# starts {"block":, so both strip cleanly.
echo "=== gas identity: workload monitor on vs off vs compiled out ==="
./build/tools/grubctl "${BENCH_ARGS[@]}" --workload --watch 8 \
  | grep -v '^{"block":' \
  | sed '/^=== workload observatory/,$d' > /tmp/grub_gas_workload.txt
diff /tmp/grub_gas_default.txt /tmp/grub_gas_workload.txt
./build-notelem/tools/grubctl "${BENCH_ARGS[@]}" --workload --watch 8 \
  | grep -v '^{"block":' \
  | sed '/^=== workload observatory/,$d' > /tmp/grub_gas_workload_notelem.txt
diff /tmp/grub_gas_default.txt /tmp/grub_gas_workload_notelem.txt

# Watch determinism: block-height clocks only, so two same-seed runs stream
# byte-identical snapshot lines.
echo "=== watch determinism: identical runs cmp clean ==="
./build/tools/grubctl "${BENCH_ARGS[@]}" --watch 8 \
  | grep '^{"block":' > /tmp/grub_watch_a.jsonl
./build/tools/grubctl "${BENCH_ARGS[@]}" --watch 8 \
  | grep '^{"block":' > /tmp/grub_watch_b.jsonl
cmp /tmp/grub_watch_a.jsonl /tmp/grub_watch_b.jsonl

# Quick-bench gate: the pinned --quick configuration of every registered
# bench, without wall-clock fields, compared Gas-EXACTLY against the
# checked-in baseline. The simulator is deterministic, so any delta is a
# real cost change — if it is intentional, refresh the baseline (see
# EXPERIMENTS.md, "Refreshing the quick baselines"):
#   ./build/bench/grub-bench --all --quick --no-timing \
#       --combined quick --out-dir bench/baselines
# and commit the rewritten bench/baselines/BENCH_quick.json with the change
# that moved the numbers.
echo "=== quick-bench: run pinned subset ==="
rm -rf /tmp/grub_quick_bench && mkdir -p /tmp/grub_quick_bench
./build/bench/grub-bench --all --quick --no-timing \
  --combined quick --out-dir /tmp/grub_quick_bench > /tmp/grub_quick_bench/run.log
echo "=== quick-bench: byte-identical across repeated runs ==="
mkdir -p /tmp/grub_quick_bench2
./build/bench/grub-bench --all --quick --no-timing \
  --combined quick --out-dir /tmp/grub_quick_bench2 > /dev/null
cmp /tmp/grub_quick_bench/BENCH_quick.json /tmp/grub_quick_bench2/BENCH_quick.json
echo "=== quick-bench: Gas-exact compare vs bench/baselines ==="
if ! ./build/bench/grub-bench --compare bench/baselines/BENCH_quick.json \
    /tmp/grub_quick_bench/BENCH_quick.json; then
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
  /tmp/grub_quick_bench/BENCH_quick.json > /tmp/grub_quick_bench/tampered.json
if ./build/bench/grub-bench --compare bench/baselines/BENCH_quick.json \
    /tmp/grub_quick_bench/tampered.json > /dev/null; then
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
rm -rf /tmp/grub_leaderboard /tmp/grub_leaderboard2
./build/bench/grub-bench --only leaderboard --quick --no-timing \
  --out-dir /tmp/grub_leaderboard > /tmp/grub_leaderboard_run.log
echo "=== leaderboard gate: byte-identical across repeated runs ==="
./build/bench/grub-bench --only leaderboard --quick --no-timing \
  --out-dir /tmp/grub_leaderboard2 > /dev/null
cmp /tmp/grub_leaderboard/BENCH_leaderboard.json \
  /tmp/grub_leaderboard2/BENCH_leaderboard.json
echo "=== leaderboard gate: Gas-exact compare vs bench/baselines ==="
if ! ./build/bench/grub-bench --compare bench/baselines/BENCH_leaderboard.json \
    /tmp/grub_leaderboard/BENCH_leaderboard.json; then
  echo "leaderboard gate FAILED: Gas moved vs bench/baselines/BENCH_leaderboard.json."
  echo "If the change is intentional, refresh the baseline:"
  echo "  ./build/bench/grub-bench --only leaderboard --quick --no-timing --out-dir bench/baselines"
  echo "and commit it together with the change that moved the numbers."
  exit 1
fi

# Shard gate: the 4-shard Merkle-forest quick bench must hold its own
# scaling assertions (root-update Gas flat across the keyspace sweep, no
# superlinear growth under sustained load) — StandaloneMain exits non-zero
# when the report carries the failure flag. Its Gas numbers are also pinned:
# scale_shards is part of BENCH_quick.json, so the quick-bench gate above
# already compares them exactly. shards=1 Gas-identity is the frozen-anchor
# gate below.
echo "=== shard gate: bench_scale_shards --quick (4-shard forest) ==="
./build/bench/bench_scale_shards --quick --no-timing > /tmp/grub_shard_quick.log

# Tier gates. (1) The tier-sweep quick bench must hold its own crossover
# assertions — at least one grid cell where the log or calldata tier beats
# contract storage on total Gas, and at least one where it loses —
# StandaloneMain exits non-zero when the report carries the failure flag.
# Its Gas numbers are part of BENCH_quick.json, so the quick-bench gate
# above already compares them exactly.
echo "=== tier gate: bench_tiers --quick (storage/log/calldata crossovers) ==="
./build/bench/bench_tiers --quick --no-timing > /tmp/grub_tier_quick.log

# (2) Frozen paper anchor: bench/baselines/BENCH_quick_pretier.json is the
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
echo "=== tier gate: legacy Gas-identity vs the frozen pre-tier anchor ==="
if ! ./build/bench/grub-bench --compare bench/baselines/BENCH_quick_pretier.json \
    /tmp/grub_quick_bench/BENCH_quick.json; then
  echo "tier gate FAILED: a legacy configuration no longer matches the frozen"
  echo "pre-tier anchor — a refactor leaked into legacy Gas."
  exit 1
fi

# (3) Storage-tier identity: pinning every key to the storage tier is the
# two-tier special case of always-replicate, and the off-chain tier is
# always-NR — so `--tier storage` must reproduce `--policy bl2` (and
# `--tier offchain` must reproduce `--policy bl1`) Gas-for-Gas. Only the
# policy name and the placement summary lines differ; strip them and diff.
echo "=== gas identity: --tier storage vs --policy bl2 (and offchain vs bl1) ==="
TIER_ID_ARGS=(--workload ycsb:B --records 256 --ops 512)
./build/tools/grubctl "${TIER_ID_ARGS[@]}" --policy bl2 \
  | grep -v -e '^policy:' > /tmp/grub_gas_bl2.txt
./build/tools/grubctl "${TIER_ID_ARGS[@]}" --tier storage \
  | grep -v -e '^policy:' -e '^placement:' > /tmp/grub_gas_tier_storage.txt
diff /tmp/grub_gas_bl2.txt /tmp/grub_gas_tier_storage.txt
./build/tools/grubctl "${TIER_ID_ARGS[@]}" --policy bl1 \
  | grep -v -e '^policy:' > /tmp/grub_gas_bl1.txt
./build/tools/grubctl "${TIER_ID_ARGS[@]}" --tier offchain \
  | grep -v -e '^policy:' -e '^placement:' > /tmp/grub_gas_tier_offchain.txt
diff /tmp/grub_gas_bl1.txt /tmp/grub_gas_tier_offchain.txt

echo "=== all passes green ==="
