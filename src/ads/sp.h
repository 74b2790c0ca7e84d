// ADS_SP: the untrusted storage provider's side of the ADS protocol.
//
// Holds the authoritative off-chain copy of the feed: a key-sorted record
// array mirrored into (a) a Merkle tree for proofs and (b) an embedded
// KVStore (the LevelDB stand-in) for persistence. Serves point queries,
// absence proofs, and range scans with completeness proofs (§3.3, B.2.2).
// Updates arrive as batches and land in the tree with one incremental
// MerkleTree::Update (ads/batch.h): records the batch does not touch are
// never re-serialized or re-hashed.
//
// The SP is the adversary in the trust model; *ForTesting mutators simulate
// forge/omit/fork attacks so tests can confirm verification catches them.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "ads/proofs.h"
#include "ads/record.h"
#include "common/status.h"
#include "crypto/merkle.h"
#include "fault/injector.h"
#include "kvstore/db.h"
#include "tier/tier.h"

namespace grub::ads {

class AdsSp {
 public:
  /// `db_path` empty = in-memory backing store. With a path, the SP
  /// persists every record through the embedded KVStore and REBUILDS its
  /// in-memory authenticated state (record array + Merkle tree) from it on
  /// construction — an SP process restart keeps serving the same root.
  explicit AdsSp(const std::string& db_path = "");

  /// Applies a DO-sent update batch (arrival order, last write per key
  /// wins): inserts new keys, overwrites existing ones (value and/or
  /// replication state), and persists every record. Returns the new root,
  /// which equals a tree built from scratch over the final records.
  Result<Hash256> ApplyPutBatch(std::span<const FeedRecord> records);

  /// A one-record batch.
  Result<Hash256> ApplyPut(const FeedRecord& record) {
    return ApplyPutBatch({&record, 1});
  }

  /// Bootstrap load: ApplyPutBatch without the root hand-back (preload
  /// path). Into an empty store it is one O(n) tree build.
  void BulkLoad(std::span<const FeedRecord> records) {
    (void)ApplyPutBatch(records);
  }

  /// Removes a key entirely (rare; the feeds overwrite rather than delete).
  Status ApplyDelete(ByteSpan key);

  Hash256 Root() const { return tree_.Root(); }
  size_t RecordCount() const { return records_.size(); }
  size_t Capacity() const { return tree_.Capacity(); }

  /// Point query with membership proof, or kNotFound.
  Result<QueryProof> Get(ByteSpan key) const;

  /// Proof that `key` has no record.
  Result<AbsenceProof> ProveAbsent(ByteSpan key) const;

  /// All records with start <= key < end (end empty = unbounded), with a
  /// completeness proof.
  Result<ScanProof> Scan(ByteSpan start, ByteSpan end) const;

  /// Audit path for the record at `index` (used by the DO update protocol).
  Result<QueryProof> GetByIndex(size_t index) const;

  /// Unproven read of a record (DO-side bootstrap / tests).
  Result<FeedRecord> Peek(ByteSpan key) const;

  /// Forwards timing instruments to the embedded KVStore (no-op when the SP
  /// runs without a backing store). Null detaches.
  void SetMetrics(telemetry::MetricsRegistry* registry) {
    if (db_ != nullptr) db_->SetMetrics(registry);
  }

  /// Forwards the fault injector to the embedded KVStore's WAL/flush fault
  /// points (no-op when the SP runs without a backing store). Null detaches.
  void SetFaultInjector(fault::FaultInjector* faults) {
    if (db_ != nullptr) db_->SetFaultInjector(faults);
  }

  /// Advisory placement pushed by the DO's control plane between root
  /// publications (§3.3, Listing 2: deliver's `replicate` flag is an
  /// SP-supplied instruction, trusted only for Gas, never for integrity).
  /// Generalized to storage tiers; the authenticated record only carries
  /// the binary projection (kR iff kStorage), which syncs at the next
  /// update — the tier itself is authenticated by the on-chain digest pin.
  void SetAdvisoryTier(ByteSpan key, tier::StorageTier t);
  /// Effective placement instruction for deliver: the advisory tier if one
  /// is pending, else the record's authenticated state projected to a tier.
  tier::StorageTier EffectiveTier(ByteSpan key) const;

  // --- adversarial mutators for security tests ---
  /// Forges the stored value without touching the tree (proofs will not
  /// verify — forge detection). Batches never re-hash untouched records,
  /// so only a read of the key's proof catches it (DESIGN.md §6.1).
  void TamperValueForTesting(ByteSpan key, ByteSpan forged_value);
  /// Updates the tree over forged data (fork attack — on-chain root pins
  /// the honest version, so delivered proofs fail against it).
  void ForkForTesting(ByteSpan key, ByteSpan forged_value);
  /// Drops a record and its leaf (omission attack).
  void OmitForTesting(ByteSpan key);

 private:
  size_t LowerBound(ByteSpan key) const;
  void PersistRecord(const FeedRecord& record);

  std::vector<FeedRecord> records_;  // key-sorted, indices = leaf indices
  MerkleTree tree_;
  std::unique_ptr<kv::KVStore> db_;
  /// Hashed: consulted once per DO-observed read and per served request.
  std::unordered_map<Bytes, tier::StorageTier, BytesHash, BytesEqual>
      advisory_;
};

}  // namespace grub::ads
