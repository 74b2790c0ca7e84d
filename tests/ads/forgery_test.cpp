// Negative-path proof verification: every Byzantine forgery class must map
// onto a TYPED ProofReject verdict (not just a bare `false`), because the
// quorum coordinator's blacklist decisions and the contract's status strings
// both cite the class. One test per class from the threat model table in
// DESIGN.md.
#include <gtest/gtest.h>

#include "ads/do.h"
#include "ads/sp.h"
#include "ads/verify.h"
#include "workload/trace.h"

namespace grub::ads {
namespace {

using workload::MakeKey;

struct Fixture {
  Fixture() : ads_do(ToBytes("do-key")) {
    std::vector<FeedRecord> records;
    for (uint64_t i = 0; i < 8; ++i) {
      records.push_back({MakeKey(i), ToBytes("value" + std::to_string(i)),
                         ReplState::kNR});
    }
    ads_do.BulkLoad(sp, records);
    honest_root = ads_do.Root();
  }

  QueryProof Proof(uint64_t i) {
    auto proof = sp.Get(MakeKey(i));
    EXPECT_TRUE(proof.ok());
    return *proof;
  }

  AdsSp sp;
  AdsDo ads_do;
  Hash256 honest_root;
};

TEST(Forgery, BitFlippedSiblingIsRootMismatch) {
  Fixture f;
  QueryProof proof = f.Proof(3);
  ASSERT_FALSE(proof.path.siblings.empty());
  proof.path.siblings[0].bytes[7] ^= 0x01;
  EXPECT_EQ(CheckQuery(f.honest_root, proof), ProofReject::kRootMismatch);
}

TEST(Forgery, BitFlippedValueIsRootMismatch) {
  Fixture f;
  QueryProof proof = f.Proof(3);
  proof.record.value[0] ^= 0xFF;
  EXPECT_EQ(CheckQuery(f.honest_root, proof), ProofReject::kRootMismatch);
}

TEST(Forgery, WrongLeafIndexInsideCapacityIsRootMismatch) {
  Fixture f;
  QueryProof proof = f.Proof(3);
  proof.index = (proof.index + 1) % proof.capacity;
  EXPECT_EQ(CheckQuery(f.honest_root, proof), ProofReject::kRootMismatch);
}

TEST(Forgery, LeafIndexBeyondCapacityIsTyped) {
  Fixture f;
  QueryProof proof = f.Proof(3);
  proof.index = proof.capacity + 5;
  EXPECT_EQ(CheckQuery(f.honest_root, proof), ProofReject::kIndexOutOfRange);
}

TEST(Forgery, TruncatedPathIsMalformedNotHashed) {
  Fixture f;
  QueryProof proof = f.Proof(3);
  ASSERT_FALSE(proof.path.siblings.empty());
  proof.path.siblings.pop_back();
  // Structural rejection happens BEFORE any hash is charged: a malformed
  // path must never bill the caller for root recomputation.
  size_t hashes = 0;
  auto count = [&hashes](size_t) { hashes += 1; };
  EXPECT_EQ(CheckQuery(f.honest_root, proof, count),
            ProofReject::kMalformedPath);
  EXPECT_EQ(hashes, 0u);
}

TEST(Forgery, PaddedPathIsMalformed) {
  Fixture f;
  QueryProof proof = f.Proof(3);
  proof.path.siblings.push_back(Hash256{});
  EXPECT_EQ(CheckQuery(f.honest_root, proof), ProofReject::kMalformedPath);
}

TEST(Forgery, NonPowerOfTwoCapacityIsMalformed) {
  Fixture f;
  QueryProof proof = f.Proof(3);
  proof.capacity = 7;
  EXPECT_EQ(CheckQuery(f.honest_root, proof), ProofReject::kMalformedPath);
}

TEST(Forgery, StaleRootReplayIsRootMismatch) {
  Fixture f;
  QueryProof stale = f.Proof(2);
  FeedRecord fresh{MakeKey(2), ToBytes("fresh"), ReplState::kNR};
  ASSERT_TRUE(f.ads_do.VerifiedBatchPut(f.sp, {fresh}).ok());
  // The pre-update proof was honestly produced; against the advanced root
  // it is exactly a stale-root replay.
  EXPECT_EQ(CheckQuery(f.ads_do.Root(), stale), ProofReject::kRootMismatch);
}

TEST(Forgery, CrossShardSpliceIsRootMismatch) {
  // A proof lifted from ANOTHER shard's tree (same key, different root) —
  // the splice an adversarial SP would attempt against a forest deployment.
  Fixture shard_a;
  AdsSp other_sp;
  AdsDo other_do(ToBytes("other-do"));
  std::vector<FeedRecord> records;
  for (uint64_t i = 0; i < 8; ++i) {
    records.push_back({MakeKey(i), ToBytes("other" + std::to_string(i)),
                       ReplState::kNR});
  }
  other_do.BulkLoad(other_sp, records);
  auto spliced = other_sp.Get(MakeKey(3));
  ASSERT_TRUE(spliced.ok());
  EXPECT_EQ(CheckQuery(other_do.Root(), *spliced), ProofReject::kNone);
  EXPECT_EQ(CheckQuery(shard_a.honest_root, *spliced),
            ProofReject::kRootMismatch);
}

TEST(Forgery, EquivocatingSelfConsistentForkIsRootMismatch) {
  Fixture f;
  // The equivocation attack: a 1-leaf tree over the forged record verifies
  // against ITSELF — only the committed-root comparison catches it.
  QueryProof forged;
  forged.record = FeedRecord{MakeKey(3), ToBytes("FORKED"), ReplState::kNR};
  forged.index = 0;
  forged.capacity = 1;
  const Hash256 fork_root =
      MerkleTree::HashLeafData(forged.record.Serialize());
  EXPECT_EQ(CheckQuery(fork_root, forged), ProofReject::kNone);
  EXPECT_EQ(CheckQuery(f.honest_root, forged), ProofReject::kRootMismatch);
}

TEST(Forgery, AbsenceCarryingTheKeyIsKeyPresent) {
  Fixture f;
  auto absence = f.sp.ProveAbsent(MakeKey(100));
  ASSERT_TRUE(absence.ok());
  ASSERT_EQ(CheckAbsence(f.honest_root, MakeKey(100), *absence),
            ProofReject::kNone);
  // Claim the proof shows absence of a key its own window contains.
  ASSERT_FALSE(absence->boundary.empty());
  EXPECT_EQ(CheckAbsence(f.honest_root, absence->boundary.front().key,
                         *absence),
            ProofReject::kKeyPresent);
}

TEST(Forgery, AbsenceWindowElsewhereIsWindowPlacement) {
  Fixture f;
  auto absence = f.sp.ProveAbsent(MakeKey(100));
  ASSERT_TRUE(absence.ok());
  // A valid tail window does not prove absence of a key before it.
  EXPECT_EQ(CheckAbsence(f.honest_root, MakeKey(3), *absence),
            ProofReject::kWindowPlacement);
}

TEST(Forgery, ScanRecordOutsideRangeIsRangeStraddle) {
  Fixture f;
  // Honest window for [2,6) re-labelled as a scan of [3,6): record 2 now
  // straddles the lower bound.
  auto scan = f.sp.Scan(MakeKey(2), MakeKey(6));
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(CheckScan(f.honest_root, MakeKey(3), MakeKey(6), *scan),
            ProofReject::kRangeStraddle);
}

TEST(Forgery, ScanHidingTailIsOmission) {
  Fixture f;
  // Honest proof for [2,6) served against a [2,7) query: the window still
  // hashes to the root, but the record for key 6 — in range for the wider
  // query — poses as the out-of-range right neighbour. Only the
  // completeness rule catches the hidden tail.
  auto scan = f.sp.Scan(MakeKey(2), MakeKey(6));
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(scan->right_neighbor.has_value());
  EXPECT_EQ(CheckScan(f.honest_root, MakeKey(2), MakeKey(7), *scan),
            ProofReject::kOmission);
}

TEST(Forgery, ScanShuffledWindowIsRootMismatch) {
  Fixture f;
  auto scan = f.sp.Scan(MakeKey(2), MakeKey(6));
  ASSERT_TRUE(scan.ok());
  ASSERT_GE(scan->records.size(), 2u);
  // Swapping whole records breaks the window's recomputed root before the
  // ordering rule even runs (the honest tree IS ordered).
  ScanProof doctored = *scan;
  std::swap(doctored.records[0], doctored.records[1]);
  EXPECT_EQ(CheckScan(f.honest_root, MakeKey(2), MakeKey(6), doctored),
            ProofReject::kRootMismatch);
}

TEST(Forgery, ScanOverMisorderedForkIsOrdering) {
  // An equivocating SP commits a tree whose leaves are NOT key-sorted and
  // serves a structurally-valid window from it: the root matches (it is the
  // adversary's own root) and only the ordering rule catches the lie.
  FeedRecord a{MakeKey(2), ToBytes("a"), ReplState::kNR};
  FeedRecord b{MakeKey(3), ToBytes("b"), ReplState::kNR};
  MerkleTree fork({MerkleTree::HashLeafData(b.Serialize()),
                   MerkleTree::HashLeafData(a.Serialize())});
  ScanProof proof;
  proof.records = {b, a};  // window order = leaf order = mis-sorted
  proof.lo = 0;
  proof.capacity = fork.Capacity();
  proof.range = fork.ProveRange(0, 2);
  EXPECT_EQ(CheckScan(fork.Root(), MakeKey(2), MakeKey(4), proof),
            ProofReject::kOrdering);
}

TEST(Forgery, RejectStatusCitesTheClass) {
  Status s = RejectStatus(ProofReject::kRootMismatch, "deliver: query");
  EXPECT_EQ(s.code(), StatusCode::kIntegrityViolation);
  EXPECT_NE(s.ToString().find("root-mismatch"), std::string::npos);
  EXPECT_TRUE(RejectStatus(ProofReject::kNone, "deliver: query").ok());
}

TEST(Forgery, EveryClassHasAStableSlug) {
  for (int i = 0; i <= static_cast<int>(ProofReject::kOmission); ++i) {
    EXPECT_STRNE(Name(static_cast<ProofReject>(i)), "?");
  }
}

}  // namespace
}  // namespace grub::ads
