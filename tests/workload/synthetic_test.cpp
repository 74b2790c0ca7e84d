// Trace synthesizers: fixed-ratio exactness, calibration of the
// ethPriceOracle (Table 1) and BtcRelay (Table 6) distributions, and the
// Fig. 6 benchmark phase structure.
#include <gtest/gtest.h>

#include "workload/synthetic.h"

namespace grub::workload {
namespace {

TEST(FixedRatio, WriteOnly) {
  auto trace = FixedRatioTrace(0, 100, 32);
  auto stats = ComputeStats(trace);
  EXPECT_EQ(stats.writes, 100u);
  EXPECT_EQ(stats.reads, 0u);
}

TEST(FixedRatio, IntegerRatios) {
  for (double ratio : {1.0, 4.0, 16.0}) {
    auto trace = FixedRatioTrace(ratio, 1000, 32);
    auto stats = ComputeStats(trace);
    EXPECT_NEAR(stats.ReadWriteRatio(), ratio, ratio * 0.05) << ratio;
  }
}

TEST(FixedRatio, FractionalRatiosMultiplyWrites) {
  auto trace = FixedRatioTrace(0.125, 900, 32);
  auto stats = ComputeStats(trace);
  // 8 writes then 1 read, repeated.
  EXPECT_NEAR(stats.ReadWriteRatio(), 0.125, 0.01);
}

TEST(FixedRatio, SingleKeyThroughout) {
  auto trace = FixedRatioTrace(4, 200, 32, /*key_index=*/5);
  for (const auto& op : trace) {
    EXPECT_EQ(op.key, MakeKey(5));
  }
}

TEST(FixedRatio, WritesCarryRequestedValueSize) {
  auto trace = FixedRatioTrace(1, 100, 256);
  for (const auto& op : trace) {
    if (op.type == OpType::kWrite) {
      EXPECT_EQ(op.value.size(), 256u);
    }
  }
}

TEST(PriceOracle, MatchesTable1Distribution) {
  PriceOracleOptions options;
  options.write_count = 50000;  // large sample to beat sampling noise
  auto stats = ComputeStats(PriceOracleTrace(options));
  ASSERT_EQ(stats.writes, 50000u);
  auto pct = [&](size_t n) {
    if (n >= stats.reads_after_write.size()) return 0.0;
    return 100.0 * static_cast<double>(stats.reads_after_write[n]) /
           static_cast<double>(stats.writes);
  };
  EXPECT_NEAR(pct(0), 70.4, 1.5);
  EXPECT_NEAR(pct(1), 16.0, 1.0);
  EXPECT_NEAR(pct(2), 6.46, 0.7);
  EXPECT_NEAR(pct(3), 2.91, 0.5);
  // The long tail exists (bursts up to 20 reads).
  EXPECT_GT(stats.reads_after_write.size(), 10u);
}

TEST(PriceOracle, SingleKeyAndOneWordValues) {
  auto trace = PriceOracleTrace({});
  for (const auto& op : trace) {
    EXPECT_EQ(op.key, MakeKey(0));
    if (op.type == OpType::kWrite) {
      EXPECT_EQ(op.value.size(), 32u);
    }
  }
}

TEST(BtcRelay, AppendOnlyWrites) {
  auto trace = BtcRelayTrace({});
  Bytes last_write_key;
  for (const auto& op : trace) {
    if (op.type != OpType::kWrite) continue;
    if (!last_write_key.empty()) {
      EXPECT_GT(Compare(op.key, last_write_key), 0);  // strictly ascending
    }
    last_write_key = op.key;
    EXPECT_EQ(op.value.size(), 80u);  // block headers
  }
}

TEST(BtcRelay, MatchesTable6Distribution) {
  BtcRelayOptions options;
  options.write_count = 50000;
  options.read_lag_writes = 0;  // align reads with their writes for stats
  auto stats = ComputeStats(BtcRelayTrace(options));
  auto pct = [&](size_t n) {
    if (n >= stats.reads_after_write.size()) return 0.0;
    return 100.0 * static_cast<double>(stats.reads_after_write[n]) /
           static_cast<double>(stats.writes);
  };
  EXPECT_NEAR(pct(0), 93.7, 1.0);
  EXPECT_NEAR(pct(1), 5.30, 0.7);
  EXPECT_NEAR(pct(2), 0.77, 0.3);
}

TEST(BtcRelay, ReadsLagTheirWrites) {
  BtcRelayOptions options;
  options.write_count = 2000;
  options.read_lag_writes = 24;
  auto trace = BtcRelayTrace(options);
  // Every read refers to an already-written key.
  std::set<Bytes> written;
  for (const auto& op : trace) {
    if (op.type == OpType::kWrite) {
      written.insert(op.key);
    } else {
      EXPECT_EQ(written.count(op.key), 1u);
    }
  }
}

TEST(BtcRelayBenchmark, PhasesHaveContrastingReadIntensity) {
  BtcRelayBenchmarkOptions options;
  options.write_count = 2000;
  auto trace = BtcRelayBenchmarkTrace(options);
  // Split the trace at the halfway write.
  size_t writes_seen = 0, split = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].type == OpType::kWrite && ++writes_seen == 1000) {
      split = i;
      break;
    }
  }
  Trace first(trace.begin(), trace.begin() + static_cast<long>(split));
  Trace second(trace.begin() + static_cast<long>(split), trace.end());
  auto s1 = ComputeStats(first);
  auto s2 = ComputeStats(second);
  EXPECT_LT(s1.ReadWriteRatio(), 0.3);   // write-intensive relay phase
  EXPECT_GT(s2.ReadWriteRatio(), 3.0);   // read-intensive mint phase
}

TEST(TraceStats, CountsRunsOfReads) {
  Trace trace;
  trace.push_back(Operation::Write(MakeKey(0), Bytes(8, 1)));
  trace.push_back(Operation::Read(MakeKey(0)));
  trace.push_back(Operation::Read(MakeKey(0)));
  trace.push_back(Operation::Write(MakeKey(0), Bytes(8, 2)));
  trace.push_back(Operation::Write(MakeKey(0), Bytes(8, 3)));
  trace.push_back(Operation::Read(MakeKey(0)));
  auto stats = ComputeStats(trace);
  EXPECT_EQ(stats.writes, 3u);
  EXPECT_EQ(stats.reads, 3u);
  ASSERT_GE(stats.reads_after_write.size(), 3u);
  EXPECT_EQ(stats.reads_after_write[0], 1u);  // the middle write
  EXPECT_EQ(stats.reads_after_write[1], 1u);  // the last write
  EXPECT_EQ(stats.reads_after_write[2], 1u);  // the first write
}

}  // namespace
}  // namespace grub::workload
