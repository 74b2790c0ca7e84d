// MetricsRegistry: instrument identity, histogram bucketing, and the
// thread-safety contract (concurrent increments lose nothing).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "telemetry/metrics.h"

namespace grub::telemetry {
namespace {

TEST(Histogram, BucketBoundariesAreInclusiveUpper) {
  // Bucket i counts bounds[i-1] < v <= bounds[i]; past the last bound is the
  // overflow bucket.
  Histogram h({1.0, 2.0, 4.0});
  h.Record(0.5);  // bucket 0
  h.Record(1.0);  // bucket 0 (== upper bound)
  h.Record(1.5);  // bucket 1
  h.Record(2.0);  // bucket 1
  h.Record(4.0);  // bucket 2
  h.Record(4.5);  // overflow
  h.Record(100);  // overflow

  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 2u);
  EXPECT_EQ(h.Count(), 7u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.5 + 100);
  EXPECT_DOUBLE_EQ(h.Mean(), h.Sum() / 7.0);
}

TEST(Histogram, BoundsAreSortedAndDeduplicated) {
  Histogram h({4.0, 1.0, 2.0, 2.0});
  ASSERT_EQ(h.UpperBounds(), (std::vector<double>{1.0, 2.0, 4.0}));
  h.Record(3.0);
  EXPECT_EQ(h.BucketCount(2), 1u);
}

TEST(Histogram, EmptyHistogramHasZeroMean) {
  Histogram h({1.0});
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(MetricsRegistry, LabelSetIdentityIsOrderInsensitive) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x", {{"a", "1"}, {"b", "2"}});
  Counter& b = registry.GetCounter("x", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);

  Counter& c = registry.GetCounter("x", {{"a", "1"}, {"b", "3"}});
  EXPECT_NE(&a, &c);
  Counter& d = registry.GetCounter("y", {{"a", "1"}, {"b", "2"}});
  EXPECT_NE(&a, &d);

  EXPECT_EQ(MetricsRegistry::IdentityKey("x", {{"a", "1"}, {"b", "2"}}),
            MetricsRegistry::IdentityKey("x", {{"b", "2"}, {"a", "1"}}));
}

TEST(MetricsRegistry, ReturnedReferencesAreStable) {
  MetricsRegistry registry;
  Counter& first = registry.GetCounter("stable");
  // Registering many more instruments must not move the first.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler", {{"i", std::to_string(i)}});
  }
  EXPECT_EQ(&first, &registry.GetCounter("stable"));
  first.Increment(3);
  EXPECT_EQ(registry.GetCounter("stable").Value(), 3u);
}

TEST(MetricsRegistry, ConcurrentCounterIncrementsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Re-resolve the instrument inside the thread: registration itself
      // must also be safe under contention.
      Counter& counter = registry.GetCounter("hammered");
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(registry.GetCounter("hammered").Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, ConcurrentHistogramRecordsLoseNothing) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("lat", {}, {1.0, 2.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(0.5);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.BucketCount(0), h.Count());
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 * static_cast<double>(h.Count()));
}

TEST(MetricsRegistry, HistogramIdentityIsSharedAcrossRegistrations) {
  MetricsRegistry registry;
  Histogram& a = registry.GetHistogram("lat", {{"op", "get"}}, {1.0, 2.0});
  Histogram& b = registry.GetHistogram("lat", {{"op", "get"}}, {1.0, 2.0});
  EXPECT_EQ(&a, &b);
  a.Record(0.5);
  EXPECT_EQ(b.Count(), 1u);

  // Different labels or name: a distinct instrument, bounds need not match.
  Histogram& c = registry.GetHistogram("lat", {{"op", "put"}}, {4.0});
  EXPECT_NE(&a, &c);
}

TEST(MetricsRegistry, HistogramReregistrationNormalizesBounds) {
  MetricsRegistry registry;
  Histogram& a = registry.GetHistogram("lat", {}, {1.0, 2.0, 4.0});
  // Unsorted/duplicated bounds normalize to the same bucket set — this is
  // the SAME registration, not a conflict.
  Histogram& b = registry.GetHistogram("lat", {}, {4.0, 1.0, 2.0, 2.0});
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistryDeathTest, HistogramBoundsMismatchIsAHardError) {
  // Silently handing back the first registration's buckets would let the
  // second call site record into bounds it never asked for; the registry
  // aborts instead.
  MetricsRegistry registry;
  registry.GetHistogram("lat", {}, {1.0, 2.0});
  EXPECT_DEATH(registry.GetHistogram("lat", {}, {1.0, 8.0}),
               "re-registered with different bucket bounds");
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.GetGauge("replicas");
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
}

TEST(MetricsRegistry, SnapshotCoversEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("c", {{"k", "v"}}).Increment(5);
  registry.GetGauge("g").Set(-2);
  registry.GetHistogram("h", {}, {1.0}).Record(0.5);

  auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  bool saw_counter = false, saw_gauge = false, saw_histogram = false;
  for (const auto& s : snapshot) {
    if (s.kind == InstrumentSnapshot::Kind::kCounter) {
      saw_counter = true;
      EXPECT_EQ(s.name, "c");
      EXPECT_EQ(s.labels, (Labels{{"k", "v"}}));
      EXPECT_EQ(s.counter_value, 5u);
    } else if (s.kind == InstrumentSnapshot::Kind::kGauge) {
      saw_gauge = true;
      EXPECT_EQ(s.gauge_value, -2);
    } else {
      saw_histogram = true;
      EXPECT_EQ(s.histogram_count, 1u);
      ASSERT_EQ(s.histogram_buckets.size(), 2u);
      EXPECT_EQ(s.histogram_buckets[0], 1u);
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_histogram);
}

}  // namespace
}  // namespace grub::telemetry
