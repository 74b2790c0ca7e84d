// ADS_DO: the verified batch-update protocol (w1) and root bookkeeping.
#include <gtest/gtest.h>

#include "ads/do.h"
#include "ads/verify.h"
#include "random_batches.h"
#include "workload/trace.h"

namespace grub::ads {
namespace {

using workload::MakeKey;

TEST(AdsDo, RootMatchesSpAfterVerifiedPuts) {
  AdsSp sp;
  AdsDo ads_do(ToBytes("k"));
  for (uint64_t i = 0; i < 20; ++i) {
    FeedRecord record{MakeKey(i), ToBytes("v" + std::to_string(i)),
                      ReplState::kNR};
    ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {record}).ok()) << i;
    ASSERT_EQ(ads_do.Root(), sp.Root()) << i;
  }
  EXPECT_EQ(ads_do.RecordCount(), 20u);
}

TEST(AdsDo, VerifiedOverwriteKeepsRootsAligned) {
  AdsSp sp;
  AdsDo ads_do(ToBytes("k"));
  const FeedRecord before{MakeKey(1), ToBytes("old"), ReplState::kNR};
  const FeedRecord after{MakeKey(1), ToBytes("new"), ReplState::kR};
  ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {before}).ok());
  ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {after}).ok());
  EXPECT_EQ(ads_do.Root(), sp.Root());
  EXPECT_EQ(ads_do.RecordCount(), 1u);
  EXPECT_EQ(sp.Peek(MakeKey(1))->value, ToBytes("new"));
  EXPECT_EQ(sp.Peek(MakeKey(1))->state, ReplState::kR);
}

TEST(AdsDo, OutOfOrderVerifiedInsertsWork) {
  AdsSp sp;
  AdsDo ads_do(ToBytes("k"));
  for (uint64_t i : {9, 2, 7, 0, 5, 3, 8, 1, 6, 4}) {
    FeedRecord record{MakeKey(i), ToBytes("v"), ReplState::kNR};
    ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {record}).ok()) << i;
    ASSERT_EQ(ads_do.Root(), sp.Root()) << i;
  }
  // Every record provable against the shared root.
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(VerifyQuery(ads_do.Root(), *sp.Get(MakeKey(i)))) << i;
  }
}

TEST(AdsDo, VerifiedDeleteRealignsRoots) {
  AdsSp sp;
  AdsDo ads_do(ToBytes("k"));
  std::vector<FeedRecord> records;
  for (uint64_t i = 0; i < 6; ++i) {
    records.push_back({MakeKey(i), ToBytes("v"), ReplState::kNR});
  }
  ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, records).ok());
  ASSERT_TRUE(ads_do.VerifiedDelete(sp, MakeKey(3)).ok());
  EXPECT_EQ(ads_do.Root(), sp.Root());
  EXPECT_EQ(ads_do.RecordCount(), 5u);
  EXPECT_FALSE(sp.Get(MakeKey(3)).ok());
}

TEST(AdsDo, DeleteOfUnknownKeyIsNotFound) {
  AdsSp sp;
  AdsDo ads_do(ToBytes("k"));
  EXPECT_EQ(ads_do.VerifiedDelete(sp, MakeKey(1)).code(),
            StatusCode::kNotFound);
}

TEST(AdsDo, SignedRootsCarryEpochFreshness) {
  AdsSp sp;
  AdsDo ads_do(ToBytes("signing-key"));
  ads_do.BulkLoad(sp, {{MakeKey(1), ToBytes("v"), ReplState::kNR}});
  Signature epoch5 = ads_do.SignRoot(5);
  MacVerifier verifier(ads_do.VerificationKey());
  EXPECT_TRUE(verifier.Verify(ads_do.Root(), epoch5, 5));
  EXPECT_FALSE(verifier.Verify(ads_do.Root(), epoch5, 6));  // stale epoch
}

TEST(AdsDo, MixedVerifiedAndBootstrapLoadsAgree) {
  // Bulk bootstrap then verified updates: the mirror stays consistent.
  AdsSp sp;
  AdsDo ads_do(ToBytes("k"));
  std::vector<FeedRecord> seed;
  for (uint64_t i = 0; i < 50; ++i) {
    seed.push_back({MakeKey(i), ToBytes("seed"), ReplState::kNR});
  }
  ads_do.BulkLoad(sp, seed);
  ASSERT_EQ(ads_do.Root(), sp.Root());
  for (uint64_t i = 0; i < 50; i += 7) {
    const FeedRecord fresh{MakeKey(i), ToBytes("fresh"), ReplState::kR};
    ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, {fresh}).ok());
  }
  EXPECT_EQ(ads_do.Root(), sp.Root());
}

TEST(AdsDo, RandomBatchesMatchFromScratchTree) {
  // Differential, seeded: after every batch (updates, repeated keys,
  // inserts at the front/middle/end) or delete, both incremental trees
  // must equal a from-scratch tree. Comparing DO and SP roots alone could
  // not catch a bug both sides share. The SP's key index must return each
  // model key at its rank and miss every other key around and between
  // them.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    BatchGen gen(seed);
    AdsSp sp;
    AdsDo ads_do(ToBytes("k"));
    Model model;
    ads_do.BulkLoad(sp, gen.Seed(model));
    for (int step = 0; step < 60; ++step) {
      if (!model.empty() && gen.rng.NextBool(0.2)) {
        const uint64_t id = gen.Existing(model);
        ASSERT_TRUE(ads_do.VerifiedDelete(sp, MakeKey(id)).ok());
        model.erase(id);
      } else {
        ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, gen.Next(model)).ok());
      }
      const MerkleTree expected = FromScratch(model);
      ASSERT_EQ(ads_do.Root(), expected.Root())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(sp.Root(), expected.Root());
      ASSERT_EQ(sp.Capacity(), expected.Capacity());
      ASSERT_EQ(ads_do.RecordCount(), model.size());
      // The SP's record array still matches its tree, record for record.
      auto scan = sp.Scan(Bytes{}, Bytes{});
      ASSERT_TRUE(scan.ok());
      ASSERT_EQ(scan->records.size(), model.size());
      ASSERT_TRUE(VerifyScan(expected.Root(), Bytes{}, Bytes{}, *scan));
      ASSERT_NO_FATAL_FAILURE(
          ExpectLookupsMatchRanks(sp, model, gen.front - 2, gen.end + 2))
          << "seed " << seed << " step " << step;
    }
  }
}

}  // namespace
}  // namespace grub::ads
