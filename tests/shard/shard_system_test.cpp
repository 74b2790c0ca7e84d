// End-to-end sharded deployments: a GrubSystem on a 4-shard forest serves
// the same reads/scans as the single-tree system, epoch updates report
// touched shards, and feeds added to one GrubSystem stay isolated, are
// attributed the shared chain's Gas exactly, and cost what they cost alone.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "grub/system.h"
#include "workload/trace.h"
#include "workload/ycsb.h"

namespace grub::core {
namespace {

using workload::MakeKey;
using workload::Operation;
using workload::Trace;

constexpr uint64_t kKeys = 64;

SystemOptions ShardedOptions(size_t shards) {
  SystemOptions options;
  options.ops_per_tx = 8;
  options.enable_telemetry = true;
  options.shards = shards;
  if (shards > 1) {
    options.shard_boundaries = IndexedKeyBoundaries(kKeys, shards);
  }
  return options;
}

std::vector<std::pair<Bytes, Bytes>> PreloadRecords(const char* tag) {
  std::vector<std::pair<Bytes, Bytes>> records;
  for (uint64_t i = 0; i < kKeys; ++i) {
    records.emplace_back(MakeKey(i), ToBytes(std::string(tag) + "-" +
                                             std::to_string(i)));
  }
  return records;
}

Trace MixedTrace() {
  Trace trace;
  for (uint64_t i = 0; i < kKeys; i += 3) {
    trace.push_back(Operation::Read(MakeKey(i)));
  }
  for (uint64_t i = 1; i < kKeys; i += 8) {
    trace.push_back(Operation::Write(MakeKey(i), ToBytes("w" +
                                                         std::to_string(i))));
  }
  // Scans crossing every shard boundary of the 4-way split.
  trace.push_back(Operation::Scan(MakeKey(12), 10));
  trace.push_back(Operation::Scan(MakeKey(40), 12));
  for (uint64_t i = 1; i < kKeys; i += 8) {
    trace.push_back(Operation::Read(MakeKey(i)));  // read back the writes
  }
  return trace;
}

TEST(ShardedSystem, DeliversSameValuesAsSingleTree) {
  GrubSystem single(ShardedOptions(1), MakeBL1());
  GrubSystem sharded(ShardedOptions(4), MakeBL1());
  ASSERT_EQ(sharded.Shards().Count(), 4u);
  single.Preload(PreloadRecords("v"));
  sharded.Preload(PreloadRecords("v"));

  const Trace trace = MixedTrace();
  single.Drive(trace);
  sharded.Drive(trace);

  // Every delivered (key, value) pair matches: the forest changes how proofs
  // are scoped and how updates land, never what the DU observes.
  EXPECT_EQ(sharded.Consumer().received(), single.Consumer().received());
  EXPECT_EQ(sharded.Consumer().values_received(),
            single.Consumer().values_received());
  EXPECT_GT(sharded.Consumer().values_received(), 0u);
}

TEST(ShardedSystem, EpochsReportTouchedShards) {
  GrubSystem system(ShardedOptions(4), MakeBL1());
  system.Preload(PreloadRecords("v"));

  // One write into shard 0 only.
  Trace narrow = {Operation::Write(MakeKey(2), ToBytes("x"))};
  auto epochs = system.Drive(narrow);
  ASSERT_FALSE(epochs.empty());
  EXPECT_EQ(epochs.back().touched_shards, 1u);

  // Writes into all four shards.
  Trace wide;
  for (uint64_t i = 0; i < kKeys; i += kKeys / 4) {
    wide.push_back(Operation::Write(MakeKey(i + 1), ToBytes("y")));
  }
  epochs = system.Drive(wide);
  ASSERT_FALSE(epochs.empty());
  EXPECT_EQ(epochs.back().touched_shards, 4u);
}

TEST(ShardedSystem, PerShardUpdateGasCoversInvolvedShardsOnly) {
  GrubSystem system(ShardedOptions(4), MakeBL1());
  system.Preload(PreloadRecords("v"));
  Trace narrow = {Operation::Write(MakeKey(2), ToBytes("x")),
                  Operation::Write(MakeKey(5), ToBytes("y"))};
  system.Drive(narrow);
  const auto& per_shard = system.Do().PerShardUpdateGas();
  ASSERT_EQ(per_shard.size(), 4u);
  EXPECT_GT(per_shard[0], 0u);  // both writes land in shard 0
  EXPECT_EQ(per_shard[1], 0u);
  EXPECT_EQ(per_shard[2], 0u);
  EXPECT_EQ(per_shard[3], 0u);

  // A digest-only epoch involves no shard of a sharded deployment...
  const std::vector<uint64_t> before = per_shard;
  ASSERT_TRUE(system.Do().EndEpoch().ok());
  EXPECT_EQ(system.Do().PerShardUpdateGas(), before);

  // ...while a one-shard deployment's shard is involved in every epoch.
  GrubSystem single(ShardedOptions(1), MakeBL1());
  single.Preload(PreloadRecords("v"));
  const chain::Receipt receipt = single.Do().EndEpoch();
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(single.Do().PerShardUpdateGas(),
            std::vector<uint64_t>{receipt.gas_used});
}

TEST(MultiFeed, FeedsAreIsolatedOnOneChain) {
  SystemOptions oracle;
  oracle.ops_per_tx = 8;
  FeedOptions kv;
  kv.shards = 4;
  kv.shard_boundaries = IndexedKeyBoundaries(kKeys, 4);
  kv.ops_per_tx = 8;
  GrubSystem system(oracle, MakeBL1());
  const size_t f0 = 0;
  const size_t f1 = system.AddFeed(kv, MakeBL1());
  ASSERT_EQ(system.FeedAt(f0).Shards().Count(), 1u);
  ASSERT_EQ(system.FeedAt(f1).Shards().Count(), 4u);
  ASSERT_NE(system.FeedAt(f0).ManagerAddress(),
            system.FeedAt(f1).ManagerAddress());

  // Same key NAMES, different per-feed values: any cross-feed leakage shows
  // up as the wrong value in a consumer's received() log.
  system.Preload(f0, PreloadRecords("oracle"));
  system.Preload(f1, PreloadRecords("kv"));

  Trace reads;
  for (uint64_t i = 0; i < kKeys; i += 4) {
    reads.push_back(Operation::Read(MakeKey(i)));
  }
  system.DriveAll({reads, reads});

  auto expect_feed_values = [&](size_t feed, const std::string& tag) {
    const auto& received = system.FeedAt(feed).Consumer().received();
    ASSERT_EQ(received.size(), reads.size());
    std::map<Bytes, Bytes> by_key(received.begin(), received.end());
    for (const auto& op : reads) {
      auto it = by_key.find(op.key);
      ASSERT_NE(it, by_key.end());
      const std::string value(it->second.begin(), it->second.end());
      EXPECT_EQ(value.rfind(tag + "-", 0), 0u) << "feed got " << value;
    }
  };
  expect_feed_values(f0, "oracle");
  expect_feed_values(f1, "kv");
}

TEST(MultiFeed, GasAttributionIsExactAndExhaustive) {
  SystemOptions a;
  a.ops_per_tx = 4;
  FeedOptions b;
  b.shards = 2;
  b.shard_boundaries = IndexedKeyBoundaries(kKeys, 2);
  b.ops_per_tx = 4;
  GrubSystem system(a, MakeBL1());
  system.AddFeed(b, MakeBL1());
  system.Preload(0, PreloadRecords("a"));
  system.Preload(1, PreloadRecords("b"));

  Trace mixed;
  for (uint64_t i = 0; i < 16; ++i) {
    mixed.push_back(Operation::Read(MakeKey(i * 3)));
    mixed.push_back(Operation::Write(MakeKey(i * 2 + 1), ToBytes("w")));
  }
  const auto epochs = system.DriveAll({mixed, mixed});

  ASSERT_EQ(epochs.size(), 2u);
  uint64_t attributed = 0;
  for (size_t f = 0; f < epochs.size(); ++f) {
    size_t ops = 0;
    for (const auto& e : epochs[f]) ops += e.ops;
    EXPECT_GT(system.FeedGas(f), 0u) << "feed " << f;
    EXPECT_GT(ops, 0u) << "feed " << f;
    EXPECT_GT(epochs[f].size(), 0u) << "feed " << f;
    attributed += system.FeedGas(f);
  }
  // Every metered unit of Gas lands in exactly one feed's total: the two
  // per-feed sums reconstruct the shared chain's ledger exactly.
  EXPECT_EQ(attributed, system.Chain().TotalGasUsed());
  // The sharded feed's update Gas is metered per shard.
  const auto& per_shard = system.FeedAt(1).Do().PerShardUpdateGas();
  EXPECT_EQ(per_shard.size(), 2u);
  EXPECT_GT(per_shard[0] + per_shard[1], 0u);
}

// The one driver, differentially: three YCSB feeds interleaved by DriveAll
// on one chain must each cost exactly what the same trace and preload cost
// as a one-feed Drive, and deliver exactly the same values. At 1 KiB a
// group's deliver batch splits at the Ctx(X) bound, so a flush that stops
// polling after the first batch shows up as a Gas mismatch.
using DriverCase = std::tuple<size_t /*shards*/, size_t /*record bytes*/,
                              std::string /*policy*/>;

class OneDriver : public ::testing::TestWithParam<DriverCase> {};

std::unique_ptr<ReplicationPolicy> PolicyFor(const std::string& name) {
  if (name == "bl1") return MakeBL1();
  return std::make_unique<MemorylessPolicy>(2);  // "memoryless2"
}

TEST_P(OneDriver, DriveAllFeedsMatchStandaloneDrive) {
  const auto& [shards, record_bytes, policy] = GetParam();
  constexpr uint64_t kRecords = 256;
  constexpr size_t kOps = 512;
  SystemOptions options;
  options.shards = shards;
  options.shard_boundaries = IndexedKeyBoundaries(kRecords, shards);
  const std::vector<char> phases = {'B', 'A', 'B'};

  std::vector<Trace> traces;
  std::vector<std::vector<std::pair<Bytes, Bytes>>> preloads;
  for (size_t f = 0; f < phases.size(); ++f) {
    workload::YcsbGenerator gen(workload::YcsbConfig::ByName(phases[f]),
                                kRecords, record_bytes, /*seed=*/f + 1);
    traces.emplace_back();
    gen.Generate(kOps, traces.back());
    auto& preload = preloads.emplace_back();
    for (uint64_t i = 0; i < kRecords; ++i) {
      preload.emplace_back(MakeKey(i), Bytes(record_bytes, uint8_t(0x11 + f)));
    }
  }

  GrubSystem shared(options, PolicyFor(policy));
  for (size_t f = 1; f < phases.size(); ++f) {
    shared.AddFeed(options, PolicyFor(policy));
  }
  for (size_t f = 0; f < phases.size(); ++f) shared.Preload(f, preloads[f]);
  shared.DriveAll(traces);

  uint64_t attributed = 0;
  for (size_t f = 0; f < phases.size(); ++f) {
    GrubSystem alone(options, PolicyFor(policy));
    alone.Preload(preloads[f]);
    alone.Drive(traces[f]);
    ASSERT_EQ(alone.FeedGas(0), alone.TotalGas());
    EXPECT_EQ(shared.FeedGas(f), alone.TotalGas()) << "feed " << f;
    // Compared whole, not printed: a mismatch would dump every record.
    EXPECT_TRUE(shared.FeedAt(f).Consumer().received() ==
                alone.Consumer().received())
        << "feed " << f << " delivered different values";
    EXPECT_EQ(shared.FeedAt(f).Do().Root(), alone.Do().Root()) << "feed " << f;
    attributed += shared.FeedGas(f);
  }
  EXPECT_EQ(attributed, shared.TotalGas());
}

INSTANTIATE_TEST_SUITE_P(
    ShardsRecordsPolicies, OneDriver,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4}),
                       ::testing::Values(size_t{32}, size_t{1024}),
                       ::testing::Values(std::string("bl1"),
                                         std::string("memoryless2"))),
    [](const ::testing::TestParamInfo<DriverCase>& info) {
      return std::to_string(std::get<0>(info.param)) + "shards_" +
             std::to_string(std::get<1>(info.param)) + "B_" +
             std::get<2>(info.param);
    });

}  // namespace
}  // namespace grub::core
