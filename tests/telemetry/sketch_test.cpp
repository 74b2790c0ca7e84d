// The workload observatory's estimators: SpaceSaving heavy-hitter bounds,
// block-windowed decayed rates, EWMA drift detection, and the shared
// nearest-rank percentile. Everything asserted here is a determinism or
// accuracy guarantee some export (hot-key tables, heat columns, drift
// counters) relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/key_map.h"
#include "telemetry/percentile.h"
#include "telemetry/sketch.h"

namespace grub::telemetry {
namespace {

Bytes K(uint8_t b) { return Bytes{b}; }

TEST(SpaceSavingSketch, ExactUnderCapacity) {
  SpaceSavingSketch sketch(4);
  for (int i = 0; i < 5; ++i) sketch.Touch(K(1));
  for (int i = 0; i < 3; ++i) sketch.Touch(K(2));
  sketch.Touch(K(3));

  EXPECT_EQ(sketch.TrackedCount(), 3u);
  EXPECT_EQ(sketch.TotalWeight(), 9u);
  // No evictions yet, so every estimate is exact with zero error.
  EXPECT_EQ(sketch.Estimate(K(1)), 5u);
  EXPECT_EQ(sketch.Estimate(K(2)), 3u);
  EXPECT_EQ(sketch.Estimate(K(3)), 1u);
  EXPECT_EQ(sketch.ErrorOf(K(1)), 0u);
  EXPECT_EQ(sketch.Estimate(K(9)), 0u);  // untracked
}

TEST(SpaceSavingSketch, EvictionReturnsVictimAndNewcomerInheritsFloor) {
  SpaceSavingSketch sketch(2);
  sketch.Touch(K(1));
  sketch.Touch(K(1));
  sketch.Touch(K(2));  // counts: 1->2, 2->1

  const auto evicted = sketch.Touch(K(3));  // displaces the minimum (key 2)
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, K(2));
  EXPECT_FALSE(sketch.Contains(K(2)));
  // The newcomer inherits the victim's count as base and error bound.
  EXPECT_EQ(sketch.Estimate(K(3)), 2u);
  EXPECT_EQ(sketch.ErrorOf(K(3)), 1u);

  // Touching an already-tracked key never evicts.
  EXPECT_FALSE(sketch.Touch(K(1)).has_value());
}

TEST(SpaceSavingSketch, BoundsHoldAgainstGroundTruthUnderEviction) {
  // Deterministic skewed stream over a key space 4x the capacity: key k
  // appears roughly 64/(k+1) times, so evictions churn the tail constantly.
  SpaceSavingSketch sketch(8);
  KeyMap<uint64_t> truth;
  for (uint8_t k = 0; k < 32; ++k) {
    const int reps = 64 / (k + 1);
    for (int r = 0; r < reps; ++r) {
      sketch.Touch(K(k));
      truth[K(k)] += 1;
    }
  }
  EXPECT_EQ(sketch.TrackedCount(), 8u);
  for (const HotKey& hot : sketch.TopK(8)) {
    ASSERT_NE(truth.Find(hot.key), nullptr);
    const uint64_t actual = *truth.Find(hot.key);
    // The SpaceSaving invariant, against ground truth (not just internal
    // consistency): estimate >= true >= estimate - error.
    EXPECT_GE(hot.count, actual);
    EXPECT_LE(hot.count - hot.error, actual);
  }
}

TEST(SpaceSavingSketch, HeavyHitterIsAlwaysTracked) {
  // Any key with true count > TotalWeight()/capacity must survive. Key 0
  // gets half the stream; the rest is spread over 30 distinct keys.
  SpaceSavingSketch sketch(4);
  for (int i = 0; i < 30; ++i) {
    sketch.Touch(K(0));
    sketch.Touch(K(static_cast<uint8_t>(1 + i)));
  }
  ASSERT_GT(30u, sketch.TotalWeight() / sketch.Capacity());
  EXPECT_TRUE(sketch.Contains(K(0)));
  EXPECT_GE(sketch.Estimate(K(0)), 30u);
}

TEST(SpaceSavingSketch, TopKOrdersByCountThenKeyBytes) {
  SpaceSavingSketch sketch(8);
  sketch.Touch(K(5));
  sketch.Touch(K(5));
  sketch.Touch(K(2));  // ties with key 7 at count 1
  sketch.Touch(K(7));

  const auto top = sketch.TopK(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, K(5));
  EXPECT_EQ(top[1].key, K(2));  // tie broken by ascending key bytes
  EXPECT_EQ(top[2].key, K(7));

  // k larger than the tracked set returns everything, smaller truncates.
  EXPECT_EQ(sketch.TopK(100).size(), 3u);
  EXPECT_EQ(sketch.TopK(1).size(), 1u);
}

TEST(SpaceSavingSketch, ZeroCapacityCountsWeightOnly) {
  SpaceSavingSketch sketch(0);
  EXPECT_FALSE(sketch.Touch(K(1)).has_value());
  EXPECT_EQ(sketch.TotalWeight(), 1u);
  EXPECT_EQ(sketch.TrackedCount(), 0u);
}

TEST(BlockRateEstimator, PartialWindowBlendsAtElapsedWeight) {
  BlockRateEstimator rate(/*window_blocks=*/8, /*alpha=*/0.5);
  // 4 events in blocks 0..3 of the first window: the partial estimate is
  // 4 events / 4 elapsed blocks, blended against a zero history.
  for (uint64_t b = 0; b < 4; ++b) rate.Record(b);
  EXPECT_DOUBLE_EQ(rate.RateAt(3), 0.5 * 0.0 + 0.5 * (4.0 / 4.0));
}

TEST(BlockRateEstimator, RateAtIsPure) {
  BlockRateEstimator rate(8, 0.5);
  rate.Record(0);
  const double first = rate.RateAt(40);
  EXPECT_DOUBLE_EQ(rate.RateAt(40), first);  // repeated query: same answer
  // Querying far ahead never advanced state: a query back inside the
  // recorded window still sees the undecayed blend.
  EXPECT_GT(rate.RateAt(0), first);
}

TEST(BlockRateEstimator, WindowRollFoldsIntoEwmaAndGapsDecay) {
  BlockRateEstimator rate(8, 0.5);
  for (uint64_t b = 0; b < 8; ++b) rate.Record(b);  // window 0: 1 event/block
  // Recording in window 1 folds window 0 into the EWMA.
  rate.Record(8);
  // Rolled history: 0.5 * (8/8) + 0.5 * 0 = 0.5. One empty gap window would
  // halve it again; query in window 3 sees window 1 folded then one decay.
  const double after_w1 = 0.5 * (1.0 / 8.0) + 0.5 * 0.5;
  EXPECT_DOUBLE_EQ(rate.RateAt(24), after_w1 * 0.5);
  // And a long-idle query decays toward zero.
  EXPECT_LT(rate.RateAt(800), 1e-6);
}

TEST(BlockRateEstimator, ZeroWindowIsClampedToOne) {
  BlockRateEstimator rate(0, 0.5);
  EXPECT_EQ(rate.WindowBlocks(), 1u);
  rate.Record(0);
  rate.Record(1);  // rolls window 0 (1 event / 1 block)
  EXPECT_GT(rate.RateAt(1), 0.0);
}

TEST(EwmaDriftDetector, WarmupSeedsWithoutFlagging) {
  EwmaDriftDetector drift(0.25, 25.0, /*warmup=*/3);
  // Wildly varying seed samples must not flag.
  EXPECT_FALSE(drift.Update(100));
  EXPECT_FALSE(drift.Update(1));
  EXPECT_FALSE(drift.Update(1000));
  EXPECT_EQ(drift.DriftCount(), 0u);
  // Warmup is a running mean.
  EXPECT_DOUBLE_EQ(drift.Ewma(), (100.0 + 1.0 + 1000.0) / 3.0);
}

TEST(EwmaDriftDetector, FlagsDeviationWithDirection) {
  EwmaDriftDetector drift(0.25, 25.0, /*warmup=*/2);
  drift.Update(100);
  drift.Update(100);  // warmup done, ewma = 100
  EXPECT_FALSE(drift.Update(110));  // +10% < 25% threshold
  EXPECT_TRUE(drift.Update(200));   // far above
  EXPECT_EQ(drift.DriftCount(), 1u);
  EXPECT_EQ(drift.LastDriftDirection(), 1);
  EXPECT_TRUE(drift.Update(10));  // far below the (raised) ewma
  EXPECT_EQ(drift.DriftCount(), 2u);
  EXPECT_EQ(drift.LastDriftDirection(), -1);
  EXPECT_EQ(drift.LastDriftSample(), drift.Samples() - 1);
}

TEST(Percentile, NearestRankSharedDefinition) {
  // The one definition trace_analyze, the benches, and the monitor share.
  std::vector<uint64_t> s{40, 10, 20, 30};  // unsorted on purpose
  EXPECT_EQ(PercentileNearestRank(s, 0), 10u);
  EXPECT_EQ(PercentileNearestRank(s, 25), 10u);
  EXPECT_EQ(PercentileNearestRank(s, 50), 20u);
  EXPECT_EQ(PercentileNearestRank(s, 75), 30u);
  EXPECT_EQ(PercentileNearestRank(s, 76), 40u);
  EXPECT_EQ(PercentileNearestRank(s, 100), 40u);
  EXPECT_EQ(PercentileNearestRank({}, 50), 0u);
  EXPECT_DOUBLE_EQ(PercentileNearestRankD({1.5, 0.5}, 50), 0.5);
  EXPECT_DOUBLE_EQ(PercentileNearestRankD({}, 90), 0.0);
}

}  // namespace
}  // namespace grub::telemetry
