// Golden-file pins for the machine-readable export schemas:
//   * EpochSeries CSV        (column set + order)
//   * EpochSeries JSON-lines (field set + order)
//   * BenchReport JSON       (the BENCH_*.json shape, schema_version 1)
//
// A diff here means a consumer-visible schema change: either revert it, or
// bump kBenchReportSchemaVersion / update the goldens DELIBERATELY by
// rerunning with GRUB_UPDATE_GOLDEN=1 in the environment:
//
//   GRUB_UPDATE_GOLDEN=1 ./build/tests/schema_golden_test
//
// and reviewing the rewritten files under tests/telemetry/golden/.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "grub/system.h"
#include "lab/leaderboard.h"
#include "lab/scenario.h"
#include "telemetry/epoch_series.h"
#include "tier/placement.h"
#include "telemetry/report.h"
#include "telemetry/workload_monitor.h"
#include "workload/trace.h"

#ifndef GRUB_GOLDEN_DIR
#error "GRUB_GOLDEN_DIR must point at tests/telemetry/golden"
#endif

namespace grub::telemetry {
namespace {

std::string GoldenPath(const char* file) {
  return std::string(GRUB_GOLDEN_DIR) + "/" + file;
}

void CheckAgainstGolden(const char* file, const std::string& actual) {
  const std::string path = GoldenPath(file);
  if (std::getenv("GRUB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot rewrite " << path;
    out << actual;
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << path
                            << " (generate with GRUB_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "serialized schema drifted from " << path
      << " — bump kBenchReportSchemaVersion or refresh the golden "
         "deliberately (GRUB_UPDATE_GOLDEN=1), and expect to refresh "
         "bench/baselines/ too";
}

/// Deterministic two-epoch series touching the robustness columns.
EpochSeries MakeSeries() {
  GasMatrix gas;
  EpochSeries series;
  gas.Add(GasComponent::kTxBase, GasCause::kGGetSync, 21000);
  gas.Add(GasComponent::kSload, GasCause::kGGetSync, 200);
  series.Close(32, gas, RobustnessTotals{});
  gas.Add(GasComponent::kCalldata, GasCause::kDeliver, 1088);
  // A rejected deliver's verification work books under proof-reject.
  gas.Add(GasComponent::kHash, GasCause::kProofReject, 60);
  RobustnessTotals robustness;
  robustness.fault_fires = 2;
  robustness.retries = 1;
  robustness.degraded = 1;
  robustness.deliver_rejections = 1;
  robustness.sp_failovers = 1;
  series.Close(8, gas, robustness);
  return series;
}

/// Same two epochs, but with the workload monitor live: heat columns join
/// the schema. The heatless goldens above double as the proof that
/// monitor-off output is unchanged.
EpochSeries MakeHeatSeries() {
  EpochSeries series = MakeSeries();
  GasMatrix gas;
  gas.Add(GasComponent::kSload, GasCause::kGGetSync, 400);
  series.ResetBaseline(GasMatrix{});
  series.Close(16, gas, RobustnessTotals{}, /*touched_shards=*/1,
               /*shard_heat=*/{1.5, 0.25});
  return series;
}

/// Deterministic monitor feed for the grubctl --json "workload.observatory"
/// section and the --watch line schema.
WorkloadMonitor MakeMonitor() {
  WorkloadMonitor::Options options;
  options.shard_count = 2;
  options.shard_of = [](const Bytes& key) {
    return static_cast<uint32_t>(key.empty() ? 0 : key[0] % 2);
  };
  options.sketch_capacity = 8;
  options.rate_window_blocks = 4;
  WorkloadMonitor monitor(options);
  for (uint64_t b = 1; b <= 8; ++b) {
    monitor.OnRead(Bytes{static_cast<uint8_t>(b % 3)}, b);
    if (b % 4 == 0) monitor.OnWrite(Bytes{0}, b);
  }
  monitor.OnFlip(true);
  monitor.OnOracleFlip();
  monitor.OnDeliver(2, 4);
  monitor.OnChainRead(/*replica_hit=*/true);
  monitor.OnChainRead(/*replica_hit=*/false);
  monitor.OnEpochClose(/*ops=*/10, /*gas=*/1000, /*block=*/8);
  return monitor;
}

TEST(SchemaGolden, EpochSeriesCsv) {
  std::ostringstream out;
  MakeSeries().WriteCsv(out);
  CheckAgainstGolden("epoch_series.csv", out.str());
}

TEST(SchemaGolden, EpochSeriesJsonLines) {
  std::ostringstream out;
  MakeSeries().WriteJsonLines(out);
  CheckAgainstGolden("epoch_series.jsonl", out.str());
}

TEST(SchemaGolden, EpochSeriesHeatColumnsCsv) {
  std::ostringstream out;
  MakeHeatSeries().WriteCsv(out);
  CheckAgainstGolden("epoch_series_heat.csv", out.str());
}

TEST(SchemaGolden, EpochSeriesHeatColumnsJsonLines) {
  std::ostringstream out;
  MakeHeatSeries().WriteJsonLines(out);
  CheckAgainstGolden("epoch_series_heat.jsonl", out.str());
}

TEST(SchemaGolden, WorkloadObservatoryJson) {
  // The pinned "observatory" object grubctl embeds under --json "workload".
  CheckAgainstGolden("workload.json", MakeMonitor().ToJson(8).ToString());
}

TEST(SchemaGolden, WorkloadWatchLine) {
  // One --watch JSONL snapshot; the {"block": prefix is the filter contract.
  CheckAgainstGolden("workload_watch.jsonl",
                     MakeMonitor().SnapshotJsonLine(8) + "\n");
}

TEST(SchemaGolden, BenchReportJson) {
  BenchReportFile file;
  BenchReport report;
  report.name = "golden_bench";
  report.title = "schema pin";
  report.SetConfig("workload", "fixed-ratio");
  report.SetConfig("ops", uint64_t{128});
  auto& series = report.AddSeries("GRuB");
  GasMatrix m;
  m.cells[0][1] = 21000;  // tx-base/gGet-sync
  m.cells[4][2] = 600;    // sload/deliver
  series.Add("ratio=4", 4).Ops(128, 888840).Paper(6900).Matrix(m);
  series.Add("ratio=8", 8).Ops(64, 0);
  auto& timed = report.AddSeries("throughput");
  timed.Add("GRuB", 0).Ops(128, 888840).OpsPerSec(1234.5);
  report.notes.push_back("Expected (paper): a note.");
  file.reports.push_back(report);

  // A second report pins the multi-report container shape (the quick gate's
  // combined BENCH_quick.json).
  BenchReport failed;
  failed.name = "golden_failed";
  failed.title = "failure flag pin";
  failed.failed = true;
  file.reports.push_back(failed);

  std::ostringstream out;
  file.WriteJson(out);
  CheckAgainstGolden("bench_report.json", out.str());
}

TEST(SchemaGolden, QuorumJson) {
  // The SpQuorum summary grubctl embeds verbatim under --json "quorum".
  // Honest replicas only: the golden pins the summary's shape, not an
  // attack's counters.
  core::SystemOptions options;
  options.sp_replicas = 2;
  core::GrubSystem system(options, core::MakeBL1());
  system.Preload({{workload::MakeKey(0), Bytes(32, 0x01)},
                  {workload::MakeKey(1), Bytes(32, 0x02)}});
  system.ReadNow(workload::MakeKey(0));
  system.ReadNow(workload::MakeKey(1));
  CheckAgainstGolden("quorum.json", system.Quorum().ToJson());
}

TEST(SchemaGolden, ScenarioPlanJson) {
  // The "scenario" section grubctl embeds under --json for --scenario runs:
  // scenario identity + the probe-calibrated plan facts. A tiny spike plan
  // keeps the probe cheap while pinning a non-unit schedule string.
  lab::ScenarioScale scale;
  scale.records = 16;
  scale.ops = 64;
  const lab::Scenario* spike = lab::FindScenario("spike");
  ASSERT_NE(spike, nullptr);
  const lab::ScenarioPlan plan = lab::PlanScenario(*spike, scale);
  CheckAgainstGolden("scenario.json", lab::ScenarioPlanJson(plan).ToString());
}

TEST(SchemaGolden, LeaderboardJson) {
  // The BENCH_leaderboard.json / grubctl --leaderboard --json document body,
  // shrunk to one scenario x two policies so the pin is about shape. Gas
  // numbers are deterministic; a legitimate cost change refreshes this
  // golden alongside bench/baselines/.
  lab::LeaderboardOptions options;
  options.scale.records = 16;
  options.scale.ops = 64;
  options.scenarios = {"spike"};
  options.policies = {"bl1", "windowed-k"};
  const lab::Leaderboard board = lab::RunLeaderboard(options);
  CheckAgainstGolden("leaderboard.json", lab::LeaderboardJson(board).ToString());
}

TEST(SchemaGolden, PlacementJson) {
  // The placement summary grubctl embeds verbatim under --json "placement":
  // per-tier key census plus the log-tier pin/deliver activity counters.
  // A log-tier write/read pair exercises every counter deterministically.
  core::GrubSystem system(
      core::SystemOptions{},
      std::make_unique<tier::StaticTierPolicy>(tier::StorageTier::kLog));
  system.Preload({{workload::MakeKey(0), Bytes(32, 0x01)},
                  {workload::MakeKey(1), Bytes(32, 0x02)}});
  system.Write(workload::MakeKey(0), Bytes(32, 0x03));
  system.EndEpoch();
  system.ReadNow(workload::MakeKey(0));
  CheckAgainstGolden("placement.json", system.PlacementJson());
}

}  // namespace
}  // namespace grub::telemetry
