#include "ads/sp.h"

#include <algorithm>

#include "ads/batch.h"

namespace grub::ads {

namespace {

const Bytes& KeyOfRecord(const FeedRecord& r) { return r.key; }

}  // namespace

AdsSp::AdsSp(const std::string& db_path) {
  if (db_path.empty()) return;  // no backing store: nothing to recover
  auto db = kv::KVStore::Open(kv::Options{}, db_path);
  if (!db.ok()) {
    throw std::runtime_error("AdsSp: cannot open backing store: " +
                             db.status().ToString());
  }
  db_ = std::move(db).value();

  // Crash recovery: the KVStore holds canonical record encodings keyed by
  // record key (already in key order); rebuild the array and the tree.
  auto it = db_->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    auto record = FeedRecord::Deserialize(it->value());
    if (!record.ok()) {
      throw std::runtime_error("AdsSp: corrupt persisted record: " +
                               record.status().ToString());
    }
    records_.push_back(std::move(record).value());
  }
  if (records_.empty()) return;
  IndexTail(records_, index_, 0, KeyOfRecord);
  std::vector<Hash256> leaves;
  leaves.reserve(records_.size());
  for (const auto& r : records_) leaves.push_back(r.LeafHash());
  tree_.Rebuild(std::move(leaves));
}

size_t AdsSp::LowerBound(ByteSpan key) const {
  auto it = std::lower_bound(
      records_.begin(), records_.end(), key,
      [](const FeedRecord& r, ByteSpan k) { return Compare(r.key, k) < 0; });
  return static_cast<size_t>(it - records_.begin());
}

void AdsSp::PersistRecord(const FeedRecord& record) {
  // The KVStore persists the canonical encoding keyed by the record key.
  if (db_ != nullptr) (void)db_->Put(record.key, record.Serialize());
}

Result<Hash256> AdsSp::ApplyPutBatch(std::span<const FeedRecord> records) {
  if (records.empty()) return tree_.Root();
  MergeBatch(records_, index_, tree_, LastWritePerKey(records), KeyOfRecord,
             [](const FeedRecord& r) { return r; });
  for (const auto& r : records) PersistRecord(r);
  return tree_.Root();
}

Status AdsSp::ApplyDelete(ByteSpan key) {
  const size_t pos = IndexOf(key);
  if (pos == records_.size()) {
    return Status::NotFound("ApplyDelete: no such key");
  }
  EraseAt(records_, index_, tree_, pos, KeyOfRecord);
  if (db_ != nullptr) (void)db_->Delete(key);
  return Status::Ok();
}

Result<QueryProof> AdsSp::Get(ByteSpan key) const {
  const size_t pos = IndexOf(key);
  if (pos == records_.size()) return Status::NotFound("Get: no such key");
  return GetByIndex(pos);
}

Result<QueryProof> AdsSp::GetByIndex(size_t index) const {
  if (index >= records_.size()) {
    return Status::InvalidArgument("GetByIndex: out of range");
  }
  QueryProof proof;
  proof.record = records_[index];
  proof.index = index;
  proof.capacity = tree_.Capacity();
  proof.path = tree_.ProveLeaf(index);
  return proof;
}

Result<AbsenceProof> AdsSp::ProveAbsent(ByteSpan key) const {
  const size_t pos = LowerBound(key);
  if (pos < records_.size() && Compare(records_[pos].key, key) == 0) {
    return Status::FailedPrecondition("ProveAbsent: key exists");
  }

  AbsenceProof proof;
  proof.capacity = tree_.Capacity();

  if (records_.empty()) {
    // Prove leaf 0 is the empty marker; contiguity implies an empty store.
    proof.empty_tail = true;
    proof.lo = 0;
    proof.range = tree_.ProveRange(0, 1);
    return proof;
  }

  // Window: predecessor (if any) .. successor (or empty padding leaf).
  const size_t window_lo = (pos == 0) ? 0 : pos - 1;
  size_t window_len = 0;
  if (pos > 0) {
    proof.boundary.push_back(records_[pos - 1]);
    window_len += 1;
  }
  if (pos < records_.size()) {
    proof.boundary.push_back(records_[pos]);
    window_len += 1;
  } else {
    // Absent beyond the last record: include the padding leaf after it when
    // the tree has one; a full tree proves tail-absence by window position.
    if (records_.size() < tree_.Capacity()) {
      proof.empty_tail = true;
      window_len += 1;
    }
  }
  proof.lo = window_lo;
  proof.range = tree_.ProveRange(window_lo, window_len);
  return proof;
}

Result<ScanProof> AdsSp::Scan(ByteSpan start, ByteSpan end) const {
  if (!end.empty() && Compare(start, end) > 0) {
    return Status::InvalidArgument("Scan: start > end");
  }
  const size_t first = LowerBound(start);
  size_t last = records_.size();  // one past the final match
  if (!end.empty()) last = LowerBound(end);

  ScanProof proof;
  proof.capacity = tree_.Capacity();
  proof.records.assign(records_.begin() + static_cast<long>(first),
                       records_.begin() + static_cast<long>(last));

  size_t window_lo = first;
  size_t window_hi = last;  // exclusive
  if (first > 0) {
    proof.left_neighbor = records_[first - 1];
    window_lo = first - 1;
  }
  if (last < records_.size()) {
    proof.right_neighbor = records_[last];
    window_hi = last + 1;
  } else if (records_.size() < tree_.Capacity()) {
    proof.empty_tail = true;
    window_hi = records_.size() + 1;
  }
  proof.lo = window_lo;
  proof.range = tree_.ProveRange(window_lo, window_hi - window_lo);
  return proof;
}

Result<FeedRecord> AdsSp::Peek(ByteSpan key) const {
  const size_t pos = IndexOf(key);
  if (pos == records_.size()) return Status::NotFound("Peek: no such key");
  return records_[pos];
}

void AdsSp::SetAdvisoryTier(ByteSpan key, tier::StorageTier t) {
  advisory_[key] = t;
}

tier::StorageTier AdsSp::EffectiveTier(ByteSpan key) const {
  if (const tier::StorageTier* t = advisory_.Find(key)) return *t;
  const size_t pos = IndexOf(key);
  if (pos == records_.size()) return tier::StorageTier::kOffchain;
  return tier::FromReplState(records_[pos].state);
}

void AdsSp::TamperValueForTesting(ByteSpan key, ByteSpan forged_value) {
  const size_t pos = IndexOf(key);
  if (pos == records_.size()) return;
  records_[pos].value.assign(forged_value.begin(), forged_value.end());
  // Tree deliberately NOT updated: the forged record will fail audit paths.
}

void AdsSp::ForkForTesting(ByteSpan key, ByteSpan forged_value) {
  const size_t pos = IndexOf(key);
  if (pos == records_.size()) return;
  records_[pos].value.assign(forged_value.begin(), forged_value.end());
  tree_.SetLeaf(pos, records_[pos].LeafHash());  // consistent forged tree
}

void AdsSp::OmitForTesting(ByteSpan key) {
  (void)ApplyDelete(key);
}

}  // namespace grub::ads
