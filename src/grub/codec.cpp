#include "grub/codec.h"

#include "telemetry/profile.h"

namespace grub::core {

namespace {

// Each size below mirrors the encoder of the same shape, field by field: a
// u64 is 8 bytes, a blob 8 + its length, a hash list 8 + 32 per hash.

uint64_t HashListBytes(const std::vector<Hash256>& hashes) {
  return 8 + 32 * hashes.size();
}

uint64_t QueryProofBytes(const ads::QueryProof& proof) {
  return EncodedRecordBytes(proof.record) + 8 + 8 +
         HashListBytes(proof.path.siblings);
}

uint64_t AbsenceProofBytes(const ads::AbsenceProof& proof) {
  uint64_t bytes = 8;
  for (const auto& record : proof.boundary) bytes += EncodedRecordBytes(record);
  return bytes + 8 + 8 + 8 + HashListBytes(proof.range.complement);
}

uint64_t ScanProofBytes(const ads::ScanProof& proof) {
  uint64_t bytes = 8;
  for (const auto& record : proof.records) bytes += EncodedRecordBytes(record);
  bytes += 8;
  if (proof.left_neighbor) bytes += EncodedRecordBytes(*proof.left_neighbor);
  bytes += 8;
  if (proof.right_neighbor) bytes += EncodedRecordBytes(*proof.right_neighbor);
  return bytes + 8 + 8 + 8 + HashListBytes(proof.range.complement);
}

}  // namespace

void EncodeRecord(chain::AbiWriter& w, const ads::FeedRecord& record) {
  w.BlobWith(record.SerializedBytes(),
             [&record](Bytes& out) { record.SerializeTo(out); });
}

void EncodeQueryProof(chain::AbiWriter& w, const ads::QueryProof& proof) {
  EncodeRecord(w, proof.record);
  w.U64(proof.index);
  w.U64(proof.capacity);
  w.HashList(proof.path.siblings);
}

Result<ads::QueryProof> DecodeQueryProof(chain::AbiReader& r) {
  ads::QueryProof proof;
  auto record = ads::FeedRecord::Deserialize(r.BlobView());
  if (!record.ok()) return record.status();
  proof.record = std::move(record).value();
  proof.index = r.U64();
  proof.capacity = r.U64();
  proof.path.siblings = r.HashList();
  return proof;
}

void EncodeAbsenceProof(chain::AbiWriter& w, const ads::AbsenceProof& proof) {
  w.U64(proof.boundary.size());
  for (const auto& record : proof.boundary) EncodeRecord(w, record);
  w.U64(proof.empty_tail ? 1 : 0);
  w.U64(proof.lo);
  w.U64(proof.capacity);
  w.HashList(proof.range.complement);
}

Result<ads::AbsenceProof> DecodeAbsenceProof(chain::AbiReader& r) {
  ads::AbsenceProof proof;
  const uint64_t n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    auto record = ads::FeedRecord::Deserialize(r.BlobView());
    if (!record.ok()) return record.status();
    proof.boundary.push_back(std::move(record).value());
  }
  proof.empty_tail = r.U64() != 0;
  proof.lo = r.U64();
  proof.capacity = r.U64();
  proof.range.complement = r.HashList();
  return proof;
}

void EncodeScanProof(chain::AbiWriter& w, const ads::ScanProof& proof) {
  w.U64(proof.records.size());
  for (const auto& record : proof.records) EncodeRecord(w, record);
  w.U64(proof.left_neighbor ? 1 : 0);
  if (proof.left_neighbor) EncodeRecord(w, *proof.left_neighbor);
  w.U64(proof.right_neighbor ? 1 : 0);
  if (proof.right_neighbor) EncodeRecord(w, *proof.right_neighbor);
  w.U64(proof.empty_tail ? 1 : 0);
  w.U64(proof.lo);
  w.U64(proof.capacity);
  w.HashList(proof.range.complement);
}

Result<ads::ScanProof> DecodeScanProof(chain::AbiReader& r) {
  ads::ScanProof proof;
  const uint64_t n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    auto record = ads::FeedRecord::Deserialize(r.BlobView());
    if (!record.ok()) return record.status();
    proof.records.push_back(std::move(record).value());
  }
  if (r.U64() != 0) {
    auto record = ads::FeedRecord::Deserialize(r.BlobView());
    if (!record.ok()) return record.status();
    proof.left_neighbor = std::move(record).value();
  }
  if (r.U64() != 0) {
    auto record = ads::FeedRecord::Deserialize(r.BlobView());
    if (!record.ok()) return record.status();
    proof.right_neighbor = std::move(record).value();
  }
  proof.empty_tail = r.U64() != 0;
  proof.lo = r.U64();
  proof.capacity = r.U64();
  proof.range.complement = r.HashList();
  return proof;
}

void EncodeDeliverEntry(chain::AbiWriter& w, const DeliverEntry& entry) {
  GRUB_PROBE(telemetry::ProbeSite::kCodecEncode);
  w.U64(static_cast<uint64_t>(entry.kind));
  w.Blob(entry.key);
  switch (entry.kind) {
    case DeliverEntry::Kind::kQuery:
      EncodeQueryProof(w, entry.query);
      break;
    case DeliverEntry::Kind::kAbsence:
      EncodeAbsenceProof(w, entry.absence);
      break;
    case DeliverEntry::Kind::kScan:
      w.Blob(entry.end_key);
      EncodeScanProof(w, entry.scan);
      break;
    case DeliverEntry::Kind::kDigest:
      w.Blob(entry.value);
      break;
  }
  w.U64(entry.callback_contract);
  w.Blob(BytesOf(entry.callback_function));
  w.U64(entry.repeats);
  w.U64(entry.replicate_hint ? 1 : 0);
}

Result<DeliverEntry> DecodeDeliverEntry(chain::AbiReader& r) {
  GRUB_PROBE(telemetry::ProbeSite::kCodecDecode);
  DeliverEntry entry;
  const uint64_t kind = r.U64();
  if (kind > 3) return Status::InvalidArgument("DeliverEntry: bad kind");
  entry.kind = static_cast<DeliverEntry::Kind>(kind);
  entry.key = r.Blob();
  switch (entry.kind) {
    case DeliverEntry::Kind::kQuery: {
      auto q = DecodeQueryProof(r);
      if (!q.ok()) return q.status();
      entry.query = std::move(q).value();
      break;
    }
    case DeliverEntry::Kind::kAbsence: {
      auto a = DecodeAbsenceProof(r);
      if (!a.ok()) return a.status();
      entry.absence = std::move(a).value();
      break;
    }
    case DeliverEntry::Kind::kScan: {
      entry.end_key = r.Blob();
      auto scan = DecodeScanProof(r);
      if (!scan.ok()) return scan.status();
      entry.scan = std::move(scan).value();
      break;
    }
    case DeliverEntry::Kind::kDigest:
      entry.value = r.Blob();
      break;
  }
  entry.callback_contract = r.U64();
  entry.callback_function = AsChars(r.BlobView());
  entry.repeats = r.U64();
  entry.replicate_hint = r.U64() != 0;
  return entry;
}

uint64_t DeliverEntryBytes(const DeliverEntry& entry) {
  uint64_t bytes = 8 + 8 + entry.key.size();  // kind, key
  switch (entry.kind) {
    case DeliverEntry::Kind::kQuery:
      bytes += QueryProofBytes(entry.query);
      break;
    case DeliverEntry::Kind::kAbsence:
      bytes += AbsenceProofBytes(entry.absence);
      break;
    case DeliverEntry::Kind::kScan:
      bytes += 8 + entry.end_key.size() + ScanProofBytes(entry.scan);
      break;
    case DeliverEntry::Kind::kDigest:
      bytes += 8 + entry.value.size();
      break;
  }
  // callback contract, callback name, repeats, replicate hint
  return bytes + 8 + 8 + entry.callback_function.size() + 8 + 8;
}

uint64_t EncodedRecordBytes(const ads::FeedRecord& record) {
  // AbiWriter::Blob = u64 length + payload; the record payload is
  // u8 state + u32 key length + key + u32 value length + value.
  return 8 + 1 + 4 + record.key.size() + 4 + record.value.size();
}

}  // namespace grub::core
