// Merkle forest: rollup identities, routed operations, touched-shard
// tracking, batch protocol divergence detection, incremental trees against
// from-scratch trees, cross-shard scans.
#include <gtest/gtest.h>

#include "../ads/random_batches.h"
#include "ads/verify.h"
#include "shard/forest.h"
#include "workload/trace.h"

namespace grub::shard {
namespace {

using workload::MakeKey;

ads::FeedRecord Rec(uint64_t i, const char* value,
                    ads::ReplState state = ads::ReplState::kNR) {
  return ads::FeedRecord{MakeKey(i), ToBytes(value), state};
}

ShardMap FourWay(uint64_t keys = 100) {
  return ShardMap({MakeKey(keys / 4), MakeKey(keys / 2), MakeKey(3 * keys / 4)});
}

// One record as a one-record batch to its shard.
Status Put(ShardedAdsDo& ads_do, ShardedAdsSp& sp,
           const ads::FeedRecord& record) {
  return ads_do.VerifiedBatchPut(sp, sp.Map().ShardOf(record.key), {record});
}

// --- rollup ---

TEST(RootOfRoots, SingleShardIsIdentity) {
  // The load-bearing identity: one shard adds NO hashing, so a single-shard
  // forest commits to exactly the legacy single-tree root.
  Hash256 root;
  root.bytes.fill(0x5a);
  EXPECT_EQ(ComputeRootOfRoots({root}), root);
}

TEST(RootOfRoots, MeteredAgreesWithUnmetered) {
  std::vector<Hash256> roots(5);
  for (size_t i = 0; i < roots.size(); ++i) roots[i].bytes.fill(uint8_t(i + 1));
  size_t hashes = 0, bytes = 0;
  const Hash256 metered = ComputeRootOfRootsMetered(roots, [&](size_t b) {
    hashes++;
    bytes += b;
  });
  EXPECT_EQ(metered, ComputeRootOfRoots(roots));
  // 5 leaves pad to 8: 4 + 2 + 1 inner nodes, 65 bytes each.
  EXPECT_EQ(hashes, 7u);
  EXPECT_EQ(bytes, 7u * 65u);
}

TEST(RootOfRoots, SensitiveToEveryLeafAndToOrder) {
  std::vector<Hash256> roots(4);
  for (size_t i = 0; i < roots.size(); ++i) roots[i].bytes.fill(uint8_t(i + 1));
  const Hash256 base = ComputeRootOfRoots(roots);
  for (size_t i = 0; i < roots.size(); ++i) {
    std::vector<Hash256> mutated = roots;
    mutated[i].bytes.fill(0xee);
    EXPECT_NE(ComputeRootOfRoots(mutated), base) << "leaf " << i;
  }
  std::vector<Hash256> swapped = roots;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(ComputeRootOfRoots(swapped), base);
}

TEST(RootOfRoots, RollupPathVerifiesForestQuery) {
  ShardedAdsSp sp(FourWay());
  ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
  for (uint64_t i = 0; i < 100; i += 10) {
    ASSERT_TRUE(Put(ads_do, sp, Rec(i, "v")).ok());
  }
  std::vector<Hash256> roots;
  for (size_t s = 0; s < sp.ShardCount(); ++s) roots.push_back(sp.ShardRoot(s));
  const uint32_t shard = sp.Map().ShardOf(MakeKey(60));
  auto proof = sp.Get(MakeKey(60));
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(VerifyForestQuery(sp.RootOfRoots(), sp.ShardCount(), shard,
                                roots[shard], RollupPath(roots, shard),
                                *proof));
  // Wrong shard root: composite verification fails.
  Hash256 forged = roots[shard];
  forged.bytes[0] ^= 1;
  EXPECT_FALSE(VerifyForestQuery(sp.RootOfRoots(), sp.ShardCount(), shard,
                                 forged, RollupPath(roots, shard), *proof));
}

// --- forest vs single tree ---

TEST(Forest, SingleShardForestEqualsPlainTree) {
  ShardedAdsSp forest{ShardMap()};
  ads::AdsSp plain;
  ShardedAdsDo ads_do{ShardMap(), ToBytes("key")};
  for (uint64_t i : {7, 2, 9, 4}) {
    ASSERT_TRUE(Put(ads_do, forest, Rec(i, "v")).ok());
    ASSERT_TRUE(plain.ApplyPut(Rec(i, "v")).ok());
  }
  EXPECT_EQ(forest.RootOfRoots(), plain.Root());
  EXPECT_EQ(forest.ShardRoot(0), plain.Root());
  EXPECT_EQ(ads_do.RootOfRoots(), plain.Root());
}

TEST(Forest, RoutedOperationsLandInMappedShard) {
  ShardedAdsSp sp(FourWay());
  ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
  for (uint64_t i = 0; i < 100; i += 5) {
    ASSERT_TRUE(Put(ads_do, sp, Rec(i, "v")).ok());
  }
  EXPECT_EQ(sp.RecordCount(), 20u);
  EXPECT_EQ(ads_do.RecordCount(), 20u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(sp.Shard(s).RecordCount(), 5u) << "shard " << s;
    EXPECT_EQ(sp.ShardRoot(s), ads_do.ShardRoot(s)) << "shard " << s;
  }
  // Point proofs verify against the owning shard's root.
  auto proof = sp.Get(MakeKey(55));
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(ads::VerifyQuery(
      sp.ShardRoot(sp.Map().ShardOf(MakeKey(55))), *proof));
  // Absence routes too.
  auto absent = sp.ProveAbsent(MakeKey(56));
  ASSERT_TRUE(absent.ok());
  EXPECT_TRUE(ads::VerifyAbsence(sp.ShardRoot(sp.Map().ShardOf(MakeKey(56))),
                                 MakeKey(56), *absent));
}

TEST(Forest, TouchedShardsTracksAndClears) {
  ShardedAdsSp sp(FourWay());
  ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
  ASSERT_TRUE(Put(ads_do, sp, Rec(10, "v")).ok());   // shard 0
  ASSERT_TRUE(Put(ads_do, sp, Rec(80, "v")).ok());   // shard 3
  ASSERT_TRUE(Put(ads_do, sp, Rec(12, "v2")).ok());  // shard 0 again
  EXPECT_EQ(ads_do.TakeTouchedShards(), (std::vector<uint32_t>{0, 3}));
  EXPECT_TRUE(ads_do.TakeTouchedShards().empty());  // cleared
  ASSERT_TRUE(Put(ads_do, sp, Rec(30, "v")).ok());   // shard 1
  EXPECT_EQ(ads_do.TakeTouchedShards(), (std::vector<uint32_t>{1}));
}

TEST(Forest, BatchPutMatchesPerRecordPuts) {
  // One batch must land on the same tree as the same records sent one at a
  // time, in arrival order.
  ShardedAdsSp batch_sp(FourWay());
  ShardedAdsDo batch_do(FourWay(), ToBytes("key"));
  ShardedAdsSp seq_sp(FourWay());
  ShardedAdsDo seq_do(FourWay(), ToBytes("key"));
  std::vector<ads::FeedRecord> batch = {Rec(30, "a"), Rec(27, "b"),
                                        Rec(30, "c"), Rec(49, "d")};
  const uint32_t s = batch_sp.Map().ShardOf(MakeKey(30));
  ASSERT_TRUE(batch_do.VerifiedBatchPut(batch_sp, s, batch).ok());
  for (const auto& r : batch) ASSERT_TRUE(Put(seq_do, seq_sp, r).ok());
  EXPECT_EQ(batch_sp.RootOfRoots(), seq_sp.RootOfRoots());
  EXPECT_EQ(batch_do.RootOfRoots(), seq_do.RootOfRoots());
  // Last write per key won.
  auto rec = batch_sp.Peek(MakeKey(30));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->value, ToBytes("c"));
}

TEST(Forest, BatchPutDetectsSpDivergence) {
  ShardedAdsSp sp(FourWay());
  ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
  ASSERT_TRUE(Put(ads_do, sp, Rec(30, "honest")).ok());
  sp.Shard(1).ForkForTesting(MakeKey(30), ToBytes("forged"));
  // The next batch's root comparison catches the fork.
  EXPECT_FALSE(
      ads_do.VerifiedBatchPut(sp, 1, {Rec(31, "v")}).ok());
}

TEST(Forest, BatchOverwritingAForkIsDetected) {
  // The SP forks the very record the next batch overwrites. After the batch
  // its tree would match the DO's again, so only the root check before the
  // batch sees the fork.
  ShardedAdsSp sp(FourWay());
  ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
  ASSERT_TRUE(Put(ads_do, sp, Rec(30, "honest")).ok());
  ASSERT_TRUE(Put(ads_do, sp, Rec(31, "honest")).ok());
  sp.Shard(1).ForkForTesting(MakeKey(30), ToBytes("forged"));
  EXPECT_EQ(ads_do.VerifiedBatchPut(sp, 1, {Rec(30, "next")}).code(),
            StatusCode::kIntegrityViolation);
}

TEST(Forest, BatchReinsertingAnOmissionIsDetected) {
  // The SP drops a record the next batch writes back: re-inserting it
  // would heal the SP's tree, so again only the pre-batch check sees it.
  ShardedAdsSp sp(FourWay());
  ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
  ASSERT_TRUE(Put(ads_do, sp, Rec(30, "honest")).ok());
  ASSERT_TRUE(Put(ads_do, sp, Rec(31, "honest")).ok());
  sp.Shard(1).OmitForTesting(MakeKey(30));
  EXPECT_EQ(ads_do.VerifiedBatchPut(sp, 1, {Rec(30, "next")}).code(),
            StatusCode::kIntegrityViolation);
}

TEST(Forest, BulkLoadEqualsIncrementalLoad) {
  ShardedAdsSp bulk_sp(FourWay());
  ShardedAdsDo bulk_do(FourWay(), ToBytes("key"));
  ShardedAdsSp seq_sp(FourWay());
  ShardedAdsDo seq_do(FourWay(), ToBytes("key"));
  std::vector<ads::FeedRecord> records;
  for (uint64_t i = 0; i < 100; i += 3) records.push_back(Rec(i, "v"));
  bulk_do.BulkLoad(bulk_sp, records);
  for (const auto& r : records) ASSERT_TRUE(Put(seq_do, seq_sp, r).ok());
  EXPECT_EQ(bulk_sp.RootOfRoots(), seq_sp.RootOfRoots());
  EXPECT_EQ(bulk_do.RootOfRoots(), seq_do.RootOfRoots());
  // Bulk load touches every shard that received records.
  EXPECT_EQ(bulk_do.TakeTouchedShards(),
            (std::vector<uint32_t>{0, 1, 2, 3}));
}

// --- incremental trees vs from-scratch trees ---

class ForestDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(ForestDifferential, RandomBatchesMatchFromScratchTrees) {
  // Differential, seeded: epochs of random batches (updates, repeated keys,
  // inserts at the front/middle/end) split by shard as DoClient sends them,
  // plus deletes. After each, every shard's DO root, SP root and capacity
  // must equal a from-scratch tree over that shard's records, and each
  // shard SP's key index must return every key of the shard at its rank in
  // the shard and miss every other key. The 4-way map starts with two empty
  // shards that fill from the front and end inserts.
  const ShardMap map =
      GetParam() == 1
          ? ShardMap()
          : ShardMap({MakeKey(380), MakeKey(480), MakeKey(600)});
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ads::BatchGen gen(seed);
    ShardedAdsSp sp(map);
    ShardedAdsDo ads_do(map, ToBytes("key"));
    ads::Model model;
    ads_do.BulkLoad(sp, gen.Seed(model));
    for (int step = 0; step < 60; ++step) {
      if (!model.empty() && gen.rng.NextBool(0.2)) {
        const uint64_t id = gen.Existing(model);
        ASSERT_TRUE(ads_do.VerifiedDelete(sp, MakeKey(id)).ok());
        model.erase(id);
      } else {
        std::vector<std::vector<ads::FeedRecord>> by_shard(map.Count());
        for (auto& record : gen.Next(model)) {
          by_shard[map.ShardOf(record.key)].push_back(std::move(record));
        }
        for (uint32_t s = 0; s < map.Count(); ++s) {
          if (by_shard[s].empty()) continue;
          ASSERT_TRUE(ads_do.VerifiedBatchPut(sp, s, by_shard[s]).ok());
        }
      }
      std::vector<ads::Model> shard_models(map.Count());
      for (const auto& [id, record] : model) {
        shard_models[map.ShardOf(record.key)][id] = record;
      }
      std::vector<Hash256> roots;
      for (size_t s = 0; s < map.Count(); ++s) {
        const MerkleTree expected = ads::FromScratch(shard_models[s]);
        ASSERT_EQ(ads_do.ShardRoot(s), expected.Root())
            << "seed " << seed << " step " << step << " shard " << s;
        ASSERT_EQ(sp.ShardRoot(s), expected.Root());
        ASSERT_EQ(sp.Shard(s).Capacity(), expected.Capacity());
        ASSERT_NO_FATAL_FAILURE(ads::ExpectLookupsMatchRanks(
            sp.Shard(s), shard_models[s], gen.front - 2, gen.end + 2))
            << "seed " << seed << " step " << step << " shard " << s;
        roots.push_back(expected.Root());
      }
      ASSERT_EQ(ads_do.RootOfRoots(), ComputeRootOfRoots(roots));
      ASSERT_EQ(sp.RootOfRoots(), ComputeRootOfRoots(roots));
      ASSERT_EQ(sp.RecordCount(), model.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ForestDifferential, ::testing::Values(1, 4));

// --- cross-shard scans ---

TEST(ForestScan, SingleShardScanIsOnePart) {
  ShardedAdsSp sp{ShardMap()};
  ShardedAdsDo ads_do{ShardMap(), ToBytes("key")};
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(Put(ads_do, sp, Rec(i, "v")).ok());
  }
  auto parts = sp.ScanSharded(MakeKey(2), MakeKey(7));
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 1u);
  EXPECT_EQ((*parts)[0].shard, 0u);
  EXPECT_EQ((*parts)[0].proof.records.size(), 5u);
  EXPECT_TRUE(ads::VerifyScan(sp.ShardRoot(0), MakeKey(2), MakeKey(7),
                              (*parts)[0].proof));
}

TEST(ForestScan, CrossShardScanSplitsAtBoundaries) {
  ShardedAdsSp sp(FourWay());
  ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(Put(ads_do, sp, Rec(i, "v")).ok());
  }
  // [20, 80) covers shards 0..3: each part scoped to its shard, each proof
  // complete against that shard's root, records totaling the full range.
  auto parts = sp.ScanSharded(MakeKey(20), MakeKey(80));
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 4u);
  size_t total = 0;
  uint64_t expect_next = 20;
  for (const auto& part : *parts) {
    EXPECT_TRUE(ads::VerifyScan(sp.ShardRoot(part.shard), part.start, part.end,
                                part.proof))
        << "shard " << part.shard;
    for (const auto& rec : part.proof.records) {
      EXPECT_EQ(rec.key, MakeKey(expect_next++));
    }
    total += part.proof.records.size();
  }
  EXPECT_EQ(total, 60u);
  EXPECT_EQ(expect_next, 80u);
  // Adjacent parts tile the range exactly: part[i].end == part[i+1].start.
  for (size_t i = 0; i + 1 < parts->size(); ++i) {
    EXPECT_EQ((*parts)[i].end, (*parts)[i + 1].start);
  }
  EXPECT_EQ((*parts)[0].start, MakeKey(20));
  EXPECT_EQ((*parts)[3].end, MakeKey(80));
}

TEST(ForestScan, EmptySubrangePartsProveEmptiness) {
  ShardedAdsSp sp(FourWay());
  ShardedAdsDo ads_do(FourWay(), ToBytes("key"));
  // Records only in shards 0 and 3; the middle shards are empty.
  for (uint64_t i : {5, 90}) {
    ASSERT_TRUE(Put(ads_do, sp, Rec(i, "v")).ok());
  }
  auto parts = sp.ScanSharded(MakeKey(0), Bytes{});  // unbounded
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 4u);
  for (const auto& part : *parts) {
    EXPECT_TRUE(ads::VerifyScan(sp.ShardRoot(part.shard), part.start, part.end,
                                part.proof))
        << "shard " << part.shard;
  }
  EXPECT_EQ((*parts)[1].proof.records.size(), 0u);
  EXPECT_EQ((*parts)[2].proof.records.size(), 0u);
  EXPECT_TRUE((*parts)[3].end.empty());  // last part stays unbounded
}

}  // namespace
}  // namespace grub::shard
