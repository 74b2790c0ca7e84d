// Merkle forest ADS: one Merkle tree per key-range shard, rolled up into a
// root-of-roots.
//
// Layout. A ShardMap partitions the keyspace; each shard holds its own
// sorted record array + Merkle tree (one AdsDo/AdsSp pair per shard). The
// forest commitment is the root-of-roots: a Merkle tree whose leaves are the
// shard roots in shard order (padded to a power of two with empty leaves,
// exactly like the record trees). With one shard the root-of-roots IS the
// shard root — no extra hashing, so the single-shard configuration is
// bit-identical to the legacy single-tree deployment.
//
// Proof scoping. Queries, absence proofs and scans are served per shard,
// against that shard's root. On chain the storage manager keeps every shard
// root plus the root-of-roots; a deliver proof verifies against the stored
// shard root (one sload), and an epoch update proves the new root-of-roots
// by recomputing the rollup over the stored shard roots — O(shard count)
// work, independent of the keyspace size. VerifyForestQuery composes the
// off-chain form: shard-root inclusion in the rollup + record inclusion in
// the shard tree.
//
// Batch protocol. Every shard count runs the same protocol: an epoch's
// writes reach each shard as one gPut batch (AdsDo::VerifiedBatchPut). The
// DO checks that the SP's shard root equals its own before the batch, so a
// fork or omission is caught even when the batch overwrites it. It then
// applies the batch to its mirror, has the SP apply the same batch, and
// checks that the roots agree again. Both sides update their trees
// incrementally, so an epoch's ADS work is O(writes × log shard size). Root
// equality cannot see a stored record altered without a tree update: no
// batch re-hashes an untouched record, so that forgery surfaces when a
// read's proof fails on chain (DESIGN.md §6.1).
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "ads/do.h"
#include "ads/sp.h"
#include "common/status.h"
#include "crypto/signer.h"
#include "shard/shard_map.h"

namespace grub::shard {

/// Rollup of shard roots: the shard root itself for one shard, else the
/// Merkle root over the shard roots as leaves (power-of-two padding with
/// empty leaves, inner nodes via MerkleTree::HashNode).
Hash256 ComputeRootOfRoots(const std::vector<Hash256>& shard_roots);

/// As above, invoking `hash_cost(bytes_hashed)` once per inner node computed
/// (65 bytes each: 0x01 prefix + two hashes) — the contract's metered form.
Hash256 ComputeRootOfRootsMetered(
    const std::vector<Hash256>& shard_roots,
    const std::function<void(size_t)>& hash_cost);

/// One shard's slice of a cross-shard scan: the subrange [start, end) that
/// falls inside `shard`, with that shard's completeness proof.
struct ShardScanPart {
  uint32_t shard = 0;
  Bytes start;
  Bytes end;  // exclusive; empty = unbounded (last part only)
  ads::ScanProof proof;
};

/// The SP side of the forest: one AdsSp per shard, point operations routed
/// by the ShardMap, scans split into per-shard parts. With one shard every
/// call delegates to the single AdsSp untouched.
class ShardedAdsSp {
 public:
  /// `db_path` empty = in-memory. With a path and multiple shards, shard i
  /// persists under "<db_path>.shard<i>" (shard 0 of a single-shard map
  /// keeps the bare path — legacy recovery layout).
  ShardedAdsSp(ShardMap map, const std::string& db_path = "");

  const ShardMap& Map() const { return map_; }
  size_t ShardCount() const { return shards_.size(); }
  ads::AdsSp& Shard(size_t s) { return *shards_[s]; }
  const ads::AdsSp& Shard(size_t s) const { return *shards_[s]; }

  // Routed single-key operations (see AdsSp for semantics).
  Result<ads::QueryProof> Get(ByteSpan key) const;
  Result<ads::AbsenceProof> ProveAbsent(ByteSpan key) const;
  Result<ads::FeedRecord> Peek(ByteSpan key) const;
  void SetAdvisoryTier(ByteSpan key, tier::StorageTier t);
  tier::StorageTier EffectiveTier(ByteSpan key) const;

  /// Splits [start, end) at shard boundaries; one part per covered shard,
  /// each with its own completeness proof. A single-shard map returns
  /// exactly one part (the legacy scan). Empty-subrange parts are kept —
  /// their proofs assert completeness of the empty answer.
  Result<std::vector<ShardScanPart>> ScanSharded(ByteSpan start,
                                                 ByteSpan end) const;

  Hash256 ShardRoot(size_t s) const { return shards_[s]->Root(); }
  Hash256 RootOfRoots() const;
  size_t RecordCount() const;

  void SetMetrics(telemetry::MetricsRegistry* registry);
  void SetFaultInjector(fault::FaultInjector* faults);

 private:
  ShardMap map_;  // owned copy: callers may pass temporaries
  std::vector<std::unique_ptr<ads::AdsSp>> shards_;
};

/// The DO side of the forest: one AdsDo mirror per shard plus the signer for
/// the root-of-roots. Tracks which shards' trees changed since the last
/// TakeTouchedShards() — the per-epoch "touched shards" the update path and
/// the telemetry column report.
class ShardedAdsDo {
 public:
  ShardedAdsDo(ShardMap map, Bytes signing_key);

  const ShardMap& Map() const { return map_; }

  /// Per-shard batch: applies `records` (arrival order, last write per key
  /// wins) to shard `s` on both sides with one incremental tree update
  /// each, comparing the shard roots before and after (AdsDo::
  /// VerifiedBatchPut). Records must all map to shard `s`.
  Status VerifiedBatchPut(ShardedAdsSp& sp, uint32_t s,
                          const std::vector<ads::FeedRecord>& records);

  /// Verified delete, routed to the key's shard (AdsDo::VerifiedDelete).
  Status VerifiedDelete(ShardedAdsSp& sp, ByteSpan key);

  /// Bootstrap load: partitions records by shard and bulk-loads each side
  /// (no root checks; into empty shards one O(n) build per shard).
  void BulkLoad(ShardedAdsSp& sp, const std::vector<ads::FeedRecord>& records);

  Hash256 ShardRoot(size_t s) const { return dos_[s].Root(); }
  Hash256 RootOfRoots() const;
  size_t RecordCount() const;
  /// Shard `s`'s keys, sorted (AdsDo::Keys).
  const std::vector<Bytes>& ShardKeys(size_t s) const {
    return dos_[s].Keys();
  }

  /// Signs the root-of-roots for `epoch` (the forest's epoch digest).
  Signature SignRoot(uint64_t epoch) const {
    return signer_.Sign(RootOfRoots(), epoch);
  }

  /// Shards whose trees changed since the last call (sorted); clears the set.
  std::vector<uint32_t> TakeTouchedShards();

 private:
  ShardMap map_;  // owned copy: callers may pass temporaries
  MacSigner signer_;
  std::vector<ads::AdsDo> dos_;
  std::set<uint32_t> touched_;
};

/// Off-chain composite verification: `shard_root` is leaf `shard` of the
/// rollup committed by `root_of_roots` (over `shard_count` shards), and
/// `proof` verifies against `shard_root`. The on-chain verifier gets the
/// shard root from storage instead of a rollup path; this form is for
/// DU-side/audit checks that only hold the signed root-of-roots.
bool VerifyForestQuery(const Hash256& root_of_roots, size_t shard_count,
                       uint32_t shard, const Hash256& shard_root,
                       const std::vector<Hash256>& rollup_path,
                       const ads::QueryProof& proof);

/// The rollup inclusion path for shard `s` (siblings bottom-up), computed
/// from all shard roots. Empty for a single-shard forest.
std::vector<Hash256> RollupPath(const std::vector<Hash256>& shard_roots,
                                uint32_t s);

}  // namespace grub::shard
