#include "ads/do.h"

#include <algorithm>

#include "ads/batch.h"
#include "ads/verify.h"

namespace grub::ads {

size_t AdsDo::LowerBound(ByteSpan key) const {
  auto it = std::lower_bound(
      keys_.begin(), keys_.end(), key,
      [](const Bytes& a, ByteSpan b) { return Compare(a, b) < 0; });
  return static_cast<size_t>(it - keys_.begin());
}

void AdsDo::ApplyBatchLocal(const std::vector<FeedRecord>& records) {
  MergeBatch(
      keys_, mirror_, LastWritePerKey(records),
      [](const Bytes& key) -> const Bytes& { return key; },
      [](const FeedRecord& record) { return record.key; });
}

Status AdsDo::VerifiedBatchPut(AdsSp& sp,
                               const std::vector<FeedRecord>& records) {
  if (records.empty()) return Status::Ok();
  if (sp.Root() != Root()) {
    return Status::IntegrityViolation("SP root diverged before batch update");
  }
  ApplyBatchLocal(records);
  auto sp_root = sp.ApplyPutBatch(records);
  if (!sp_root.ok()) return sp_root.status();
  if (*sp_root != Root()) {
    return Status::IntegrityViolation("SP root diverged after batch update");
  }
  return Status::Ok();
}

void AdsDo::BulkLoad(AdsSp& sp, const std::vector<FeedRecord>& records) {
  if (records.empty()) return;
  ApplyBatchLocal(records);
  sp.BulkLoad(records);
}

Status AdsDo::VerifiedDelete(AdsSp& sp, ByteSpan key) {
  const size_t pos = LowerBound(key);
  if (pos >= keys_.size() || Compare(keys_[pos], key) != 0) {
    return Status::NotFound("VerifiedDelete: unknown key");
  }
  auto proof = sp.Get(key);
  if (!proof.ok() || proof->index != pos || !VerifyQuery(Root(), *proof)) {
    return Status::IntegrityViolation("SP proof failed before delete");
  }

  EraseAt(keys_, mirror_, pos);
  Status s = sp.ApplyDelete(key);
  if (!s.ok()) return s;
  if (sp.Root() != Root()) {
    return Status::IntegrityViolation("SP root diverged after delete");
  }
  return Status::Ok();
}

}  // namespace grub::ads
