#include "ads/do.h"

#include "ads/batch.h"
#include "ads/verify.h"

namespace grub::ads {

namespace {

const Bytes& KeyOf(const Bytes& key) { return key; }

}  // namespace

void AdsDo::ApplyBatchLocal(const std::vector<FeedRecord>& records) {
  MergeBatch(keys_, index_, mirror_, LastWritePerKey(records), KeyOf,
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
  const uint32_t* at = index_.Find(key);
  if (at == nullptr) return Status::NotFound("VerifiedDelete: unknown key");
  const size_t pos = *at;
  auto proof = sp.Get(key);
  if (!proof.ok() || proof->index != pos || !VerifyQuery(Root(), *proof)) {
    return Status::IntegrityViolation("SP proof failed before delete");
  }

  EraseAt(keys_, index_, mirror_, pos, KeyOf);
  Status s = sp.ApplyDelete(key);
  if (!s.ok()) return s;
  if (sp.Root() != Root()) {
    return Status::IntegrityViolation("SP root diverged after delete");
  }
  return Status::Ok();
}

}  // namespace grub::ads
