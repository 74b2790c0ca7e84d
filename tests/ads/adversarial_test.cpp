// Adversarial SP behaviour (§2.2's trust model): forge, fork, omit, and
// replay must all be caught by verification against the honest root.
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

  AdsSp sp;
  AdsDo ads_do;
  Hash256 honest_root;
};

TEST(Adversarial, ForgedValueFailsAuditPath) {
  Fixture f;
  // SP tampers the stored value but cannot recompute a matching tree
  // without changing the root.
  f.sp.TamperValueForTesting(MakeKey(3), ToBytes("FORGED"));
  auto proof = f.sp.Get(MakeKey(3));
  ASSERT_TRUE(proof.ok());
  EXPECT_EQ(proof->record.value, ToBytes("FORGED"));
  EXPECT_FALSE(VerifyQuery(f.honest_root, *proof));
}

TEST(Adversarial, ForkedTreeFailsAgainstPinnedRoot) {
  Fixture f;
  // SP rebuilds a consistent tree over forged data (a fork). Its own proofs
  // self-verify, but the on-chain root pins the honest version.
  f.sp.ForkForTesting(MakeKey(3), ToBytes("FORGED"));
  auto proof = f.sp.Get(MakeKey(3));
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(VerifyQuery(f.sp.Root(), *proof));      // internally consistent
  EXPECT_FALSE(VerifyQuery(f.honest_root, *proof));   // but not the truth
}

TEST(Adversarial, OmissionCannotProveAbsenceOfLiveRecord) {
  Fixture f;
  // SP drops a record and tries to claim it never existed.
  f.sp.OmitForTesting(MakeKey(3));
  auto absence = f.sp.ProveAbsent(MakeKey(3));
  ASSERT_TRUE(absence.ok());
  EXPECT_TRUE(VerifyAbsence(f.sp.Root(), MakeKey(3), *absence));
  EXPECT_FALSE(VerifyAbsence(f.honest_root, MakeKey(3), *absence));
}

TEST(Adversarial, ReplayedStaleProofFailsAfterUpdate) {
  Fixture f;
  auto stale = f.sp.Get(MakeKey(2));
  ASSERT_TRUE(stale.ok());
  // The DO publishes an update; the old proof replays against the new root.
  FeedRecord fresh{MakeKey(2), ToBytes("fresh"), ReplState::kNR};
  ASSERT_TRUE(f.ads_do.VerifiedBatchPut(f.sp, {fresh}).ok());
  EXPECT_FALSE(VerifyQuery(f.ads_do.Root(), *stale));
}

TEST(Adversarial, ScanOmittingMiddleRecordFails) {
  Fixture f;
  auto scan = f.sp.Scan(MakeKey(2), MakeKey(6));
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 4u);
  // Drop one matching record from the response.
  auto doctored = *scan;
  doctored.records.erase(doctored.records.begin() + 1);
  EXPECT_FALSE(VerifyScan(f.honest_root, MakeKey(2), MakeKey(6), doctored));
}

TEST(Adversarial, ScanInjectingForeignRecordFails) {
  Fixture f;
  auto scan = f.sp.Scan(MakeKey(2), MakeKey(6));
  ASSERT_TRUE(scan.ok());
  auto doctored = *scan;
  doctored.records.insert(doctored.records.begin() + 1,
                          FeedRecord{MakeKey(3), ToBytes("EVIL"),
                                     ReplState::kNR});
  EXPECT_FALSE(VerifyScan(f.honest_root, MakeKey(2), MakeKey(6), doctored));
}

TEST(Adversarial, ScanHidingTailViaFakeNeighborFails) {
  Fixture f;
  auto scan = f.sp.Scan(MakeKey(2), MakeKey(6));
  ASSERT_TRUE(scan.ok());
  // Claim the range ends earlier by promoting an in-range record to the
  // "right neighbour" position.
  auto doctored = *scan;
  ASSERT_TRUE(doctored.right_neighbor.has_value());
  doctored.right_neighbor = doctored.records.back();
  doctored.records.pop_back();
  EXPECT_FALSE(VerifyScan(f.honest_root, MakeKey(2), MakeKey(6), doctored));
}

TEST(Adversarial, AbsenceWithNonAdjacentBoundaryFails) {
  Fixture f;
  // Honest absence proof for a key between records 3 and 4.
  f.sp.OmitForTesting(MakeKey(3));  // make key 3 absent in SP's fork
  auto absence = f.sp.ProveAbsent(MakeKey(3));
  ASSERT_TRUE(absence.ok());
  // Against the honest root the window [2,4] isn't adjacent (3 exists).
  EXPECT_FALSE(VerifyAbsence(f.honest_root, MakeKey(3), *absence));
}

TEST(Adversarial, AbsenceForExistingKeyViaForeignWindowFails) {
  Fixture f;
  // Take a VALID absence proof for key 100 (beyond the tail) and claim it
  // proves absence of the existing key 3.
  auto absence = f.sp.ProveAbsent(MakeKey(100));
  ASSERT_TRUE(absence.ok());
  ASSERT_TRUE(VerifyAbsence(f.honest_root, MakeKey(100), *absence));
  EXPECT_FALSE(VerifyAbsence(f.honest_root, MakeKey(3), *absence));
}

TEST(Adversarial, DoDetectsDivergenceDuringVerifiedPut) {
  Fixture f;
  f.sp.ForkForTesting(MakeKey(1), ToBytes("FORGED"));
  // The DO's verified update protocol (w1) must refuse to proceed, even
  // though the batch overwrites the forked record: the root check before
  // the batch sees the fork.
  FeedRecord update{MakeKey(1), ToBytes("legit"), ReplState::kNR};
  Status s = f.ads_do.VerifiedBatchPut(f.sp, {update});
  EXPECT_EQ(s.code(), StatusCode::kIntegrityViolation);
}

TEST(Adversarial, DoDetectsOmissionDuringVerifiedPut) {
  Fixture f;
  f.sp.OmitForTesting(MakeKey(1));
  // Re-inserting the omitted record would heal the SP's tree; the root
  // check before the batch catches the omission first.
  FeedRecord update{MakeKey(1), ToBytes("legit"), ReplState::kNR};
  Status s = f.ads_do.VerifiedBatchPut(f.sp, {update});
  EXPECT_EQ(s.code(), StatusCode::kIntegrityViolation);
}

TEST(Adversarial, RecordStateBitCannotBeFlippedInTransit) {
  Fixture f;
  auto proof = f.sp.Get(MakeKey(4));
  ASSERT_TRUE(proof.ok());
  // Flipping the authenticated NR bit to R breaks the leaf hash.
  auto doctored = *proof;
  doctored.record.state = ReplState::kR;
  EXPECT_FALSE(VerifyQuery(f.honest_root, doctored));
}

}  // namespace
}  // namespace grub::ads
