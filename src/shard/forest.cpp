#include "shard/forest.h"

#include <algorithm>
#include <bit>

#include "ads/verify.h"
#include "crypto/merkle.h"

namespace grub::shard {

namespace {

size_t RollupCapacity(size_t shard_count) {
  return shard_count <= 1 ? 1 : std::bit_ceil(shard_count);
}

// One inner node hashes 0x01 || left || right = 65 bytes.
constexpr size_t kNodeBytes = 65;

}  // namespace

Hash256 ComputeRootOfRoots(const std::vector<Hash256>& shard_roots) {
  return ComputeRootOfRootsMetered(shard_roots, nullptr);
}

Hash256 ComputeRootOfRootsMetered(
    const std::vector<Hash256>& shard_roots,
    const std::function<void(size_t)>& hash_cost) {
  if (shard_roots.size() == 1) return shard_roots[0];
  std::vector<Hash256> level = shard_roots;
  level.resize(RollupCapacity(shard_roots.size()), Hash256{});
  while (level.size() > 1) {
    std::vector<Hash256> above(level.size() / 2);
    for (size_t i = 0; i < above.size(); ++i) {
      above[i] = MerkleTree::HashNode(level[2 * i], level[2 * i + 1]);
      if (hash_cost) hash_cost(kNodeBytes);
    }
    level = std::move(above);
  }
  return level[0];
}

std::vector<Hash256> RollupPath(const std::vector<Hash256>& shard_roots,
                                uint32_t s) {
  if (shard_roots.size() <= 1) return {};
  MerkleTree rollup(shard_roots);
  return rollup.ProveLeaf(s).siblings;
}

bool VerifyForestQuery(const Hash256& root_of_roots, size_t shard_count,
                       uint32_t shard, const Hash256& shard_root,
                       const std::vector<Hash256>& rollup_path,
                       const ads::QueryProof& proof) {
  if (shard >= shard_count) return false;
  if (shard_count == 1) {
    if (!rollup_path.empty() || shard_root != root_of_roots) return false;
  } else {
    MerkleProof path{rollup_path};
    if (!MerkleTree::VerifyLeaf(root_of_roots, shard_root, shard,
                                RollupCapacity(shard_count), path)) {
      return false;
    }
  }
  return ads::VerifyQuery(shard_root, proof);
}

// --- ShardedAdsSp ---

ShardedAdsSp::ShardedAdsSp(ShardMap map, const std::string& db_path)
    : map_(std::move(map)) {
  shards_.reserve(map_.Count());
  for (size_t s = 0; s < map_.Count(); ++s) {
    std::string path = db_path;
    if (!path.empty() && map_.Count() > 1) {
      path += ".shard" + std::to_string(s);
    }
    shards_.push_back(std::make_unique<ads::AdsSp>(path));
  }
}

Result<ads::QueryProof> ShardedAdsSp::Get(ByteSpan key) const {
  return shards_[map_.ShardOf(key)]->Get(key);
}

Result<ads::AbsenceProof> ShardedAdsSp::ProveAbsent(ByteSpan key) const {
  // Shards partition the keyspace by range: absent from its shard's tree
  // means absent from the feed.
  return shards_[map_.ShardOf(key)]->ProveAbsent(key);
}

Result<ads::FeedRecord> ShardedAdsSp::Peek(ByteSpan key) const {
  return shards_[map_.ShardOf(key)]->Peek(key);
}

void ShardedAdsSp::SetAdvisoryTier(ByteSpan key, tier::StorageTier t) {
  shards_[map_.ShardOf(key)]->SetAdvisoryTier(key, t);
}

tier::StorageTier ShardedAdsSp::EffectiveTier(ByteSpan key) const {
  return shards_[map_.ShardOf(key)]->EffectiveTier(key);
}

Result<std::vector<ShardScanPart>> ShardedAdsSp::ScanSharded(
    ByteSpan start, ByteSpan end) const {
  if (!end.empty() && Compare(start, end) > 0) {
    return Status::InvalidArgument("ScanSharded: start > end");
  }
  std::vector<ShardScanPart> parts;
  const uint32_t first = map_.ShardOf(start);
  const uint32_t last_shard = static_cast<uint32_t>(map_.Count()) - 1;
  for (uint32_t s = first; s <= last_shard; ++s) {
    ShardScanPart part;
    part.shard = s;
    part.start = s == first ? Bytes(start.begin(), start.end())
                            : map_.LowerBoundOf(s);
    const Bytes shard_end = map_.UpperBoundOf(s);  // empty = unbounded
    const bool range_ends_here =
        !end.empty() && (shard_end.empty() || Compare(end, shard_end) <= 0);
    part.end = range_ends_here ? Bytes(end.begin(), end.end()) : shard_end;
    // Skip empty subranges (a bounded scan ending exactly at a shard
    // boundary), but always emit at least one part so the completeness of an
    // empty answer is still proven.
    const bool empty_subrange =
        !part.end.empty() && Compare(part.start, part.end) == 0;
    if (!empty_subrange || parts.empty()) {
      auto proof = shards_[s]->Scan(part.start, part.end);
      if (!proof.ok()) return proof.status();
      part.proof = std::move(proof).value();
      parts.push_back(std::move(part));
    }
    if (range_ends_here) break;
  }
  return parts;
}

Hash256 ShardedAdsSp::RootOfRoots() const {
  std::vector<Hash256> roots;
  roots.reserve(shards_.size());
  for (const auto& shard : shards_) roots.push_back(shard->Root());
  return ComputeRootOfRoots(roots);
}

size_t ShardedAdsSp::RecordCount() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->RecordCount();
  return n;
}

void ShardedAdsSp::SetFaultInjector(fault::FaultInjector* faults) {
  for (auto& shard : shards_) shard->SetFaultInjector(faults);
}

// --- ShardedAdsDo ---

ShardedAdsDo::ShardedAdsDo(ShardMap map, Bytes signing_key)
    : map_(std::move(map)), signer_(signing_key) {
  dos_.reserve(map_.Count());
  for (size_t s = 0; s < map_.Count(); ++s) dos_.emplace_back(signing_key);
}

Status ShardedAdsDo::VerifiedBatchPut(
    ShardedAdsSp& sp, uint32_t s,
    const std::vector<ads::FeedRecord>& records) {
  if (records.empty()) return Status::Ok();
  for (const auto& record : records) {
    if (map_.ShardOf(record.key) != s) {
      return Status::InvalidArgument(
          "VerifiedBatchPut: record outside its shard");
    }
  }
  Status status = dos_[s].VerifiedBatchPut(sp.Shard(s), records);
  if (status.ok()) touched_.insert(s);
  return status;
}

Status ShardedAdsDo::VerifiedDelete(ShardedAdsSp& sp, ByteSpan key) {
  const uint32_t s = map_.ShardOf(key);
  Status status = dos_[s].VerifiedDelete(sp.Shard(s), key);
  if (status.ok()) touched_.insert(s);
  return status;
}

void ShardedAdsDo::BulkLoad(ShardedAdsSp& sp,
                            const std::vector<ads::FeedRecord>& records) {
  std::vector<std::vector<ads::FeedRecord>> by_shard(map_.Count());
  for (const auto& record : records) {
    by_shard[map_.ShardOf(record.key)].push_back(record);
  }
  for (size_t s = 0; s < by_shard.size(); ++s) {
    if (by_shard[s].empty()) continue;
    dos_[s].BulkLoad(sp.Shard(s), by_shard[s]);
    touched_.insert(static_cast<uint32_t>(s));
  }
}

Hash256 ShardedAdsDo::RootOfRoots() const {
  std::vector<Hash256> roots;
  roots.reserve(dos_.size());
  for (const auto& d : dos_) roots.push_back(d.Root());
  return ComputeRootOfRoots(roots);
}

size_t ShardedAdsDo::RecordCount() const {
  size_t n = 0;
  for (const auto& d : dos_) n += d.RecordCount();
  return n;
}

std::vector<uint32_t> ShardedAdsDo::TakeTouchedShards() {
  std::vector<uint32_t> out(touched_.begin(), touched_.end());
  touched_.clear();
  return out;
}

}  // namespace grub::shard
