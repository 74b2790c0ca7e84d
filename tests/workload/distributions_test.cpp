// Key-choice distributions: zipfian rank ordering, scrambled spreading,
// latest-skew.
#include <gtest/gtest.h>

#include <map>

#include "workload/distributions.h"

namespace grub::workload {
namespace {

TEST(Zipfian, StaysInRange) {
  Rng rng(1);
  ZipfianGenerator zipf(100);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(rng), 100u);
  }
}

TEST(Zipfian, LowerRanksAreMorePopular) {
  Rng rng(2);
  ZipfianGenerator zipf(1000);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 200000; ++i) counts[zipf.Next(rng)] += 1;
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[100]);
  EXPECT_GT(counts[0] + counts[1] + counts[2], counts[500] * 10);
}

TEST(Zipfian, RejectsEmptyItemSpace) {
  EXPECT_THROW(ZipfianGenerator(0), std::invalid_argument);
}

TEST(Zipfian, GrowingItemCountKeepsWorking) {
  Rng rng(3);
  ZipfianGenerator zipf(10);
  zipf.SetItemCount(100);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf.Next(rng), 100u);
  }
}

TEST(Zipfian, GrownStepByStepDrawsLikeOneBuiltAtTheCount) {
  // Growth extends the zeta sum term by term in index order, which must
  // reproduce a from-scratch build exactly (YCSB-D's latest generator grows
  // by one item per insert). Checked at every 50th of 750 growth steps, and
  // after a shrink, which recomputes the sum.
  ZipfianGenerator grown(1000);
  for (uint64_t n = 1001; n <= 1750; ++n) {
    grown.SetItemCount(n);
    if (n % 50 != 0) continue;
    ZipfianGenerator fresh(n);
    Rng a(n);
    Rng b(n);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(grown.Next(a), fresh.Next(b)) << "count " << n << " draw " << i;
    }
  }
  grown.SetItemCount(1200);
  ZipfianGenerator fresh(1200);
  Rng a(5);
  Rng b(5);
  for (int i = 0; i < 2000; ++i) ASSERT_EQ(grown.Next(a), fresh.Next(b));
}

TEST(ScrambledZipfian, SpreadsHotKeysAcrossSpace) {
  Rng rng(4);
  ScrambledZipfianGenerator zipf(10000);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) counts[zipf.Next(rng)] += 1;
  // The hottest item should NOT be item 0 specifically (it's hashed away);
  // find the mode and confirm it's somewhere in the middle of the space.
  uint64_t mode = 0;
  int best = 0;
  for (const auto& [item, count] : counts) {
    if (count > best) {
      best = count;
      mode = item;
    }
  }
  EXPECT_GT(best, 100);  // skew survives the scrambling
  EXPECT_NE(mode, 0u);   // but the identity of the hot key is hashed
}

TEST(ScrambledZipfian, StaysInRange) {
  Rng rng(5);
  ScrambledZipfianGenerator zipf(77);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(rng), 77u);
  }
}

TEST(Latest, FavorsRecentItems) {
  Rng rng(6);
  LatestGenerator latest(1000);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) counts[latest.Next(rng, 1000)] += 1;
  // The newest item (999) must dominate the oldest decile.
  int newest_decile = 0, oldest_decile = 0;
  for (const auto& [item, count] : counts) {
    if (item >= 900) newest_decile += count;
    if (item < 100) oldest_decile += count;
  }
  EXPECT_GT(newest_decile, oldest_decile * 3);
}

}  // namespace
}  // namespace grub::workload
