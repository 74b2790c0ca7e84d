// WorkloadMonitor: hook accounting, per-key K estimates that follow sketch
// admission/eviction, deterministic exports, and the sampled hot-path
// probes. None of this touches simulation state — the monitor only observes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/profile.h"
#include "telemetry/workload_monitor.h"

namespace grub::telemetry {
namespace {

Bytes K(uint8_t b) { return Bytes{b}; }

WorkloadMonitor::Options TwoShardOptions(size_t sketch_capacity = 64) {
  WorkloadMonitor::Options options;
  options.shard_count = 2;
  options.shard_of = [](const Bytes& key) {
    return static_cast<uint32_t>(key.empty() ? 0 : key[0] % 2);
  };
  options.sketch_capacity = sketch_capacity;
  options.rate_window_blocks = 4;
  return options;
}

TEST(WorkloadMonitor, HooksAccumulatePerShardAndPerKey) {
  WorkloadMonitor monitor(TwoShardOptions());
  monitor.OnRead(K(0), 1);   // shard 0
  monitor.OnRead(K(0), 2);
  monitor.OnWrite(K(0), 3);
  monitor.OnRead(K(1), 4);   // shard 1

  EXPECT_EQ(monitor.TotalReads(), 3u);
  EXPECT_EQ(monitor.TotalWrites(), 1u);
  EXPECT_DOUBLE_EQ(monitor.GlobalKEstimate(), 3.0);

  const WorkloadMonitor::KeyStats* stats = monitor.StatsOf(K(0));
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->reads, 2u);
  EXPECT_EQ(stats->writes, 1u);
  EXPECT_DOUBLE_EQ(stats->KEstimate(), 2.0);
  // No write yet for key 1: K estimate pins to 0, not a division by zero.
  ASSERT_NE(monitor.StatsOf(K(1)), nullptr);
  EXPECT_DOUBLE_EQ(monitor.StatsOf(K(1))->KEstimate(), 0.0);

  // Both shards saw traffic; heat vector always spans the shard map.
  const auto heat = monitor.ShardHeat(4);
  ASSERT_EQ(heat.size(), 2u);
  EXPECT_GT(heat[0], 0.0);
  EXPECT_GT(heat[1], 0.0);
}

TEST(WorkloadMonitor, OutOfRangeShardClampsToLast) {
  WorkloadMonitor::Options options;
  options.shard_count = 2;
  options.shard_of = [](const Bytes&) { return 99u; };
  WorkloadMonitor monitor(options);
  monitor.OnRead(K(7), 1);
  const auto heat = monitor.ShardHeat(1);
  ASSERT_EQ(heat.size(), 2u);
  EXPECT_DOUBLE_EQ(heat[0], 0.0);
  EXPECT_GT(heat[1], 0.0);
}

TEST(WorkloadMonitor, KeyStatsFollowSketchEviction) {
  WorkloadMonitor monitor(TwoShardOptions(/*sketch_capacity=*/2));
  monitor.OnRead(K(1), 1);
  monitor.OnRead(K(1), 1);
  monitor.OnRead(K(2), 1);
  // Key 3 displaces the sketch minimum (key 2); its side stats go with it.
  monitor.OnRead(K(3), 2);
  EXPECT_EQ(monitor.StatsOf(K(2)), nullptr);
  ASSERT_NE(monitor.StatsOf(K(3)), nullptr);
  // Side stats are exact for the newcomer (1 read), even though the sketch
  // estimate inherited the victim's floor.
  EXPECT_EQ(monitor.StatsOf(K(3))->reads, 1u);
  ASSERT_FALSE(monitor.HotKeys(1).empty());
  EXPECT_EQ(monitor.HotKeys(1)[0].key, K(1));
}

TEST(WorkloadMonitor, FlipRegretSaturatesAtZero) {
  WorkloadMonitor monitor(TwoShardOptions());
  monitor.OnOracleFlip();
  monitor.OnOracleFlip();
  monitor.OnFlip(true);
  EXPECT_EQ(monitor.ActualFlips(), 1u);
  EXPECT_EQ(monitor.OracleFlips(), 2u);
  EXPECT_EQ(monitor.FlipRegret(), 0u);  // fewer flips than the oracle: no regret
  monitor.OnFlip(false);
  monitor.OnFlip(true);
  EXPECT_EQ(monitor.FlipRegret(), 1u);
}

TEST(WorkloadMonitor, ChainAndDeliverAndDriftCounters) {
  WorkloadMonitor monitor(TwoShardOptions());
  monitor.OnChainRead(/*replica_hit=*/true);
  monitor.OnChainRead(/*replica_hit=*/false);
  monitor.OnChainRead(/*replica_hit=*/true);
  monitor.OnDeliver(5, 2);
  monitor.OnDeliver(0, 3);  // empty deliver: counted nowhere
  monitor.OnEpochClose(/*ops=*/10, /*gas=*/1000, /*block=*/4);
  monitor.OnEpochClose(/*ops=*/0, /*gas=*/0, /*block=*/5);  // no ops: no sample

  EXPECT_EQ(monitor.ReplicaHits(), 2u);
  EXPECT_EQ(monitor.ReplicaMisses(), 1u);
  EXPECT_EQ(monitor.DeliveredEntries(), 5u);
  EXPECT_EQ(monitor.GasDrift().Samples(), 1u);
  EXPECT_DOUBLE_EQ(monitor.GasDrift().Ewma(), 100.0);
}

std::string DriveAndSnapshot() {
  WorkloadMonitor monitor(TwoShardOptions());
  for (uint64_t b = 1; b <= 8; ++b) {
    monitor.OnRead(K(static_cast<uint8_t>(b % 3)), b);
    if (b % 4 == 0) monitor.OnWrite(K(0), b);
  }
  monitor.OnFlip(true);
  monitor.OnEpochClose(8, 800, 8);
  return monitor.SnapshotJsonLine(8);
}

TEST(WorkloadMonitor, SnapshotLineIsDeterministicAndPrefixed) {
  const std::string line = DriveAndSnapshot();
  // The {"block": prefix is load-bearing: ci.sh and the docs filter --watch
  // lines out of mixed stdout by it.
  EXPECT_EQ(line.rfind("{\"block\":", 0), 0u);
  // Identical streams serialize byte-identically (the --watch contract).
  EXPECT_EQ(line, DriveAndSnapshot());
}

TEST(WorkloadMonitor, ToJsonIsDeterministic) {
  auto build = [] {
    WorkloadMonitor monitor(TwoShardOptions());
    monitor.OnRead(K(1), 1);
    monitor.OnWrite(K(2), 2);
    monitor.OnChainRead(true);
    return monitor.ToJson(4).ToString();
  };
  const std::string doc = build();
  EXPECT_EQ(doc, build());
  EXPECT_NE(doc.find("\"hot_keys\""), std::string::npos);
  EXPECT_NE(doc.find("\"flip_regret\""), std::string::npos);
}

TEST(ProfileRegistry, SampledProbesCountEveryHit) {
  ProfileRegistry::Reset();
  ProfileRegistry::Enable(true);
  constexpr int kHits = 20;
  volatile uint64_t sink = 0;
  for (int i = 0; i < kHits; ++i) {
    GRUB_PROBE(ProbeSite::kCodecDecode);
    // Enough work that a sampled hit reads a nonzero clock delta.
    for (int j = 0; j < 2000; ++j) sink = sink + static_cast<uint64_t>(j);
  }
  ProfileRegistry::Enable(false);

  const auto snapshot = ProfileRegistry::Snapshot();
  const auto& probe = snapshot[static_cast<size_t>(ProbeSite::kCodecDecode)];
  EXPECT_STREQ(probe.name, "codec.decode");
  // Every hit is counted even though only 1-in-kSampleEvery reads the clock.
  EXPECT_EQ(probe.count, static_cast<uint64_t>(kHits));
  // The first hit is always sampled, so an exercised site reports time.
  EXPECT_GT(probe.total_ns, 0u);
  EXPECT_GT(probe.max_ns, 0u);
  // total_ns is the sampled time scaled back up by count/samples, so it can
  // never be below a single sampled hit's max.
  EXPECT_GE(probe.total_ns, probe.max_ns);

  // Unexercised sites still appear, at zero.
  const auto& idle = snapshot[static_cast<size_t>(ProbeSite::kMerkleRebuild)];
  EXPECT_EQ(idle.count, 0u);
  EXPECT_EQ(idle.total_ns, 0u);
}

TEST(ProfileRegistry, DisabledProbesCostNoCounts) {
  ProfileRegistry::Reset();
  ProfileRegistry::Enable(false);
  { GRUB_PROBE(ProbeSite::kMerkleUpdate); }
  const auto snapshot = ProfileRegistry::Snapshot();
  EXPECT_EQ(snapshot[static_cast<size_t>(ProbeSite::kMerkleUpdate)].count, 0u);
}

TEST(ProfileRegistry, ResetClearsEverything) {
  ProfileRegistry::Reset();
  ProfileRegistry::Enable(true);
  { GRUB_PROBE(ProbeSite::kCodecEncode); }
  ProfileRegistry::Enable(false);
  const auto before = ProfileRegistry::Snapshot();
  ASSERT_GT(before[static_cast<size_t>(ProbeSite::kCodecEncode)].count, 0u);
  ProfileRegistry::Reset();
  const auto after = ProfileRegistry::Snapshot();
  const auto& probe = after[static_cast<size_t>(ProbeSite::kCodecEncode)];
  EXPECT_EQ(probe.count, 0u);
  EXPECT_EQ(probe.total_ns, 0u);
  EXPECT_EQ(probe.max_ns, 0u);
}

}  // namespace
}  // namespace grub::telemetry
