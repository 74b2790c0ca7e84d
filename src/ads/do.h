// ADS_DO: the trusted data owner's side of the ADS protocol (step w1).
//
// The DO tracks the authoritative Merkle root in a mirror tree of leaf
// hashes (not values), so it never needs the SP's sibling data. Every update
// is a batch: the DO checks the SP still holds its root, applies the batch
// to its mirror, has the SP apply the same batch, and checks the roots agree
// again. Both sides absorb a batch with one incremental MerkleTree::Update
// (ads/batch.h), so a batch of k writes to an n-record tree costs
// O(k log n) hashes, plus O(n - i) when it inserts at index i. A key ->
// leaf-index KeyMap beside the sorted keys finds an overwritten or deleted
// key in one probe.
//
// The DO also signs each epoch's root (sequence = epoch number) so stale or
// forked roots replayed by the SP are rejected downstream.
#pragma once

#include "ads/record.h"
#include "ads/sp.h"
#include "common/key_map.h"
#include "common/status.h"
#include "crypto/merkle.h"
#include "crypto/signer.h"

namespace grub::ads {

class AdsDo {
 public:
  explicit AdsDo(Bytes signing_key) : signer_(std::move(signing_key)) {}

  /// Batch update: applies `records` (arrival order, last write per key
  /// wins) to the local mirror and the SP. The SP's root must equal ours
  /// before the batch (an SP fork or omission is caught even when the batch
  /// overwrites it) and after it (the SP applied exactly this batch).
  /// Returns kIntegrityViolation otherwise.
  Status VerifiedBatchPut(AdsSp& sp, const std::vector<FeedRecord>& records);

  /// Verified delete (tombstoning a key out of the tree): the SP must first
  /// prove the record our root commits to.
  Status VerifiedDelete(AdsSp& sp, ByteSpan key);

  /// Bootstrap load of a dataset without the root checks: into an empty
  /// tree it is one O(n) build on each side.
  void BulkLoad(AdsSp& sp, const std::vector<FeedRecord>& records);

  Hash256 Root() const { return mirror_.Root(); }
  size_t RecordCount() const { return keys_.size(); }
  /// The keys the mirror commits to, sorted (leaf order).
  const std::vector<Bytes>& Keys() const { return keys_; }

  /// Signs the current root for the given epoch.
  Signature SignRoot(uint64_t epoch) const {
    return signer_.Sign(Root(), epoch);
  }
  const Bytes& VerificationKey() const { return signer_.VerificationKey(); }

 private:
  void ApplyBatchLocal(const std::vector<FeedRecord>& records);

  MacSigner signer_;
  MerkleTree mirror_;        // leaf hashes only
  std::vector<Bytes> keys_;  // sorted keys, parallel to mirror leaves
  KeyMap<uint32_t> index_;   // key -> index into keys_
};

}  // namespace grub::ads
