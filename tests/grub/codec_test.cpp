// Wire codecs: deliver entries and proofs round-trip exactly, and the
// declared calldata sizes match reality (Gas fidelity depends on it).
#include <gtest/gtest.h>

#include "ads/sp.h"
#include "grub/codec.h"
#include "grub/storage_manager.h"
#include "workload/trace.h"

namespace grub::core {
namespace {

using workload::MakeKey;

ads::QueryProof SampleQueryProof() {
  ads::AdsSp sp;
  for (uint64_t i = 0; i < 9; ++i) {
    (void)sp.ApplyPut(
        ads::FeedRecord{MakeKey(i), Bytes(40, static_cast<uint8_t>(i)),
                        i % 2 ? ads::ReplState::kR : ads::ReplState::kNR});
  }
  return sp.Get(MakeKey(4)).value();
}

ads::AbsenceProof SampleAbsenceProof() {
  ads::AdsSp sp;
  for (uint64_t i = 0; i < 5; ++i) {
    (void)sp.ApplyPut(
        ads::FeedRecord{MakeKey(i * 2), ToBytes("v"), ads::ReplState::kNR});
  }
  return sp.ProveAbsent(MakeKey(5)).value();
}

TEST(Codec, QueryProofRoundTrip) {
  auto proof = SampleQueryProof();
  chain::AbiWriter w;
  EncodeQueryProof(w, proof);
  Bytes encoded = w.Take();
  chain::AbiReader r(encoded);
  auto decoded = DecodeQueryProof(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->record, proof.record);
  EXPECT_EQ(decoded->index, proof.index);
  EXPECT_EQ(decoded->capacity, proof.capacity);
  EXPECT_EQ(decoded->path, proof.path);
}

TEST(Codec, AbsenceProofRoundTrip) {
  auto proof = SampleAbsenceProof();
  chain::AbiWriter w;
  EncodeAbsenceProof(w, proof);
  Bytes encoded = w.Take();
  chain::AbiReader r(encoded);
  auto decoded = DecodeAbsenceProof(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->boundary, proof.boundary);
  EXPECT_EQ(decoded->empty_tail, proof.empty_tail);
  EXPECT_EQ(decoded->lo, proof.lo);
  EXPECT_EQ(decoded->capacity, proof.capacity);
  EXPECT_EQ(decoded->range, proof.range);
}

TEST(Codec, DeliverEntryPresentRoundTrip) {
  DeliverEntry entry;
  entry.kind = DeliverEntry::Kind::kQuery;
  entry.query = SampleQueryProof();
  entry.key = entry.query.record.key;
  entry.callback_contract = 42;
  entry.callback_function = "onData";
  entry.repeats = 3;
  entry.replicate_hint = true;

  chain::AbiWriter w;
  EncodeDeliverEntry(w, entry);
  Bytes encoded = w.Take();
  chain::AbiReader r(encoded);
  auto decoded = DecodeDeliverEntry(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->present());
  EXPECT_EQ(decoded->key, entry.key);
  EXPECT_EQ(decoded->query.record, entry.query.record);
  EXPECT_EQ(decoded->callback_contract, 42u);
  EXPECT_EQ(decoded->callback_function, "onData");
  EXPECT_EQ(decoded->repeats, 3u);
  EXPECT_TRUE(decoded->replicate_hint);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Codec, DeliverEntryAbsentRoundTrip) {
  DeliverEntry entry;
  entry.kind = DeliverEntry::Kind::kAbsence;
  entry.absence = SampleAbsenceProof();
  entry.key = MakeKey(5);
  entry.callback_contract = 7;
  entry.callback_function = "onMiss";

  chain::AbiWriter w;
  EncodeDeliverEntry(w, entry);
  Bytes encoded = w.Take();
  chain::AbiReader r(encoded);
  auto decoded = DecodeDeliverEntry(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->present());
  EXPECT_EQ(decoded->key, MakeKey(5));
  EXPECT_EQ(decoded->absence.boundary, entry.absence.boundary);
}

TEST(Codec, BatchedDeliverDecodesSequentially) {
  DeliverEntry a;
  a.kind = DeliverEntry::Kind::kQuery;
  a.query = SampleQueryProof();
  a.key = a.query.record.key;
  DeliverEntry b;
  b.kind = DeliverEntry::Kind::kAbsence;
  b.absence = SampleAbsenceProof();
  b.key = MakeKey(5);

  Bytes calldata = StorageManagerContract::EncodeDeliver({a, b});
  chain::AbiReader r(calldata);
  EXPECT_EQ(r.U64(), 2u);
  auto first = DecodeDeliverEntry(r);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->present());
  auto second = DecodeDeliverEntry(r);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->present());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Codec, TruncatedDeliverEntryFailsCleanly) {
  DeliverEntry entry;
  entry.kind = DeliverEntry::Kind::kQuery;
  entry.query = SampleQueryProof();
  entry.key = entry.query.record.key;
  chain::AbiWriter w;
  EncodeDeliverEntry(w, entry);
  Bytes encoded = w.Take();
  encoded.resize(encoded.size() / 2);
  chain::AbiReader r(encoded);
  EXPECT_THROW((void)DecodeDeliverEntry(r), std::out_of_range);
}

TEST(Codec, UpdateCalldataIsCompact) {
  // The digest-only update (the common case for NR batches) stays small:
  // the cost model rewards exactly this.
  Bytes calldata = StorageManagerContract::EncodeUpdate(
      /*shard_count=*/1, Hash256::FromU64(1), 9, {}, {}, {});
  EXPECT_LE(calldata.size(), 64u);  // digest + epoch + two zero counts
}

TEST(Codec, DeliverEntryDigestRoundTrip) {
  DeliverEntry entry;
  entry.kind = DeliverEntry::Kind::kDigest;
  entry.key = MakeKey(3);
  entry.value = Bytes(100, 0xab);
  entry.callback_contract = 9;
  entry.callback_function = "onData";
  entry.repeats = 2;

  chain::AbiWriter w;
  EncodeDeliverEntry(w, entry);
  Bytes encoded = w.Take();
  chain::AbiReader r(encoded);
  auto decoded = DecodeDeliverEntry(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, DeliverEntry::Kind::kDigest);
  EXPECT_FALSE(decoded->present());
  EXPECT_EQ(decoded->key, entry.key);
  EXPECT_EQ(decoded->value, entry.value);
  EXPECT_EQ(decoded->callback_contract, 9u);
  EXPECT_EQ(decoded->callback_function, "onData");
  EXPECT_EQ(decoded->repeats, 2u);
  EXPECT_TRUE(r.AtEnd());
}

// ---- the update layout and its size functions ----

TEST(Codec, EncodedRecordBytesMatchesBlobEncoding) {
  for (size_t value_bytes : {size_t{0}, size_t{1}, size_t{32}, size_t{257}}) {
    ads::FeedRecord record{MakeKey(7), Bytes(value_bytes, 0x5a),
                           ads::ReplState::kR};
    chain::AbiWriter w;
    w.Blob(record.Serialize());
    const Bytes blob = w.Take();
    EXPECT_EQ(blob.size(), EncodedRecordBytes(record))
        << "value_bytes = " << value_bytes;
    // EncodeRecord serializes in place, byte for byte the same blob.
    chain::AbiWriter in_place;
    EncodeRecord(in_place, record);
    EXPECT_EQ(in_place.Take(), blob) << "value_bytes = " << value_bytes;
  }
}

// DeliverEntryBytes against the encoder for every entry kind and proof
// shape: query proofs, absence proofs with 0, 1 and 2 boundary records
// (with and without the padding tail), scans with and without each
// neighbour, and digest entries; EncodeDeliver's batch is their sum plus
// the count word.
TEST(Codec, DeliverEntryBytesMatchesEncodingForEveryKind) {
  ads::AdsSp sp;
  for (uint64_t i = 1; i <= 9; ++i) {
    (void)sp.ApplyPut(ads::FeedRecord{MakeKey(i * 2), Bytes(i * 7, 0x42),
                                      ads::ReplState::kNR});
  }
  const ads::AdsSp empty;
  std::vector<DeliverEntry> entries;
  const auto add = [&entries](DeliverEntry entry, ByteSpan key,
                              const char* callback) {
    entry.key.assign(key.begin(), key.end());
    entry.callback_contract = 77;
    entry.callback_function = callback;
    entry.repeats = entries.size() + 1;
    entry.replicate_hint = entries.size() % 2 == 1;
    entries.push_back(std::move(entry));
  };

  for (uint64_t i : {1, 5, 9}) {
    DeliverEntry entry;
    entry.kind = DeliverEntry::Kind::kQuery;
    entry.query = sp.Get(MakeKey(i * 2)).value();
    add(entry, MakeKey(i * 2), "onData");
  }
  // Absences: below the first key (one boundary), between two keys (two),
  // past the last (one, plus the padding tail) and in an empty store (none).
  std::vector<size_t> boundary_sizes;
  for (const Bytes& key : {MakeKey(0), MakeKey(7), MakeKey(99)}) {
    DeliverEntry entry;
    entry.kind = DeliverEntry::Kind::kAbsence;
    entry.absence = sp.ProveAbsent(key).value();
    boundary_sizes.push_back(entry.absence.boundary.size());
    add(entry, key, "cb");
  }
  {
    DeliverEntry entry;
    entry.kind = DeliverEntry::Kind::kAbsence;
    entry.absence = empty.ProveAbsent(MakeKey(3)).value();
    boundary_sizes.push_back(entry.absence.boundary.size());
    add(entry, MakeKey(3), "");
  }
  EXPECT_EQ(boundary_sizes, (std::vector<size_t>{1, 2, 1, 0}));
  // Scans: interior (both neighbours), from the start (right only), to the
  // end (left only) and the whole store (neither).
  std::vector<std::pair<bool, bool>> neighbours;
  for (const auto& [start, end] :
       std::vector<std::pair<Bytes, Bytes>>{{MakeKey(5), MakeKey(11)},
                                            {MakeKey(0), MakeKey(9)},
                                            {MakeKey(7), Bytes{}},
                                            {MakeKey(0), Bytes{}}}) {
    DeliverEntry entry;
    entry.kind = DeliverEntry::Kind::kScan;
    entry.scan = sp.Scan(start, end).value();
    entry.end_key = end;
    neighbours.emplace_back(entry.scan.left_neighbor.has_value(),
                            entry.scan.right_neighbor.has_value());
    add(entry, start, "onRange");
  }
  EXPECT_EQ(neighbours, (std::vector<std::pair<bool, bool>>{
                            {true, true}, {false, true}, {true, false},
                            {false, false}}));
  for (size_t value_bytes : {size_t{0}, size_t{33}}) {
    DeliverEntry entry;
    entry.kind = DeliverEntry::Kind::kDigest;
    entry.value = Bytes(value_bytes, 0x17);
    add(entry, MakeKey(4), "onData");
  }

  uint64_t batch = 8;
  for (const DeliverEntry& entry : entries) {
    chain::AbiWriter w;
    EncodeDeliverEntry(w, entry);
    EXPECT_EQ(DeliverEntryBytes(entry), w.Take().size())
        << "kind " << static_cast<int>(entry.kind) << ", key "
        << ToHex(entry.key);
    batch += DeliverEntryBytes(entry);
  }
  EXPECT_EQ(StorageManagerContract::EncodeDeliver(entries).size(), batch);
}

struct UpdateParts {
  std::vector<std::pair<uint64_t, Hash256>> roots;
  std::vector<ads::FeedRecord> replicated;
  std::vector<Bytes> evictions;
  TierSuffix tiered;
};

UpdateParts FullUpdate() {
  UpdateParts parts;
  parts.roots = {{0, Hash256::FromU64(7)}, {3, Hash256::FromU64(8)}};
  parts.replicated = {{MakeKey(1), Bytes(33, 0x01), ads::ReplState::kR},
                      {MakeKey(2), Bytes(3, 0x02), ads::ReplState::kR}};
  parts.evictions = {MakeKey(4), ToBytes("longer-key-here")};
  parts.tiered.entries.push_back(
      {tier::StorageTier::kLog,
       ads::FeedRecord{MakeKey(5), Bytes(80, 0x33), ads::ReplState::kNR}});
  parts.tiered.entries.push_back(
      {tier::StorageTier::kCalldata,
       ads::FeedRecord{MakeKey(2), Bytes(5, 0x22), ads::ReplState::kNR}});
  parts.tiered.unpins = {MakeKey(6)};
  return parts;
}

// Every subset of FullUpdate()'s parts: with and without shard roots,
// replication traffic and a tier suffix.
std::vector<UpdateParts> UpdateVariants() {
  const UpdateParts full = FullUpdate();
  std::vector<UpdateParts> variants;
  for (int mask = 0; mask < 8; ++mask) {
    UpdateParts parts;
    if (mask & 1) parts.roots = full.roots;
    if (mask & 2) {
      parts.replicated = full.replicated;
      parts.evictions = full.evictions;
    }
    if (mask & 4) parts.tiered = full.tiered;
    variants.push_back(parts);
  }
  return variants;
}

Bytes Encode(size_t shard_count, const UpdateParts& parts) {
  return StorageManagerContract::EncodeUpdate(
      shard_count, Hash256::FromU64(2), 4, parts.roots, parts.replicated,
      parts.evictions, parts.tiered);
}

using Contract = StorageManagerContract;

// The size functions' share of an update's calldata beyond UpdateBaseBytes.
uint64_t ReplicationBytes(const UpdateParts& parts) {
  uint64_t bytes = 0;
  for (const auto& record : parts.replicated) {
    bytes += EncodedRecordBytes(record);
  }
  for (const auto& key : parts.evictions) {
    bytes += Contract::UpdateKeyBytes(key);
  }
  return bytes;
}

uint64_t TierBytes(const TierSuffix& tiered) {
  if (tiered.empty()) return 0;
  uint64_t bytes = Contract::kUpdateTierCountBytes;
  for (const auto& entry : tiered.entries) {
    bytes += Contract::UpdateTierEntryBytes(entry);
  }
  for (const auto& key : tiered.unpins) bytes += Contract::UpdateKeyBytes(key);
  return bytes;
}

TEST(Codec, UpdateCalldataBytesMatchesBothEncoders) {
  // Both layouts EncodeUpdate writes: the single tree (one shard) and the
  // forest (four shards), for every subset of the update's parts.
  for (size_t shard_count : {size_t{1}, size_t{4}}) {
    for (const UpdateParts& parts : UpdateVariants()) {
      EXPECT_EQ(Encode(shard_count, parts).size(),
                Contract::UpdateBaseBytes(shard_count, parts.roots.size()) +
                    ReplicationBytes(parts) + TierBytes(parts.tiered))
          << "shards " << shard_count << " roots " << parts.roots.size()
          << " replicated " << parts.replicated.size() << " tiered "
          << !parts.tiered.empty();
    }
  }
}

TEST(Codec, ReplicationSuffixBytesMatchesEncoding) {
  const UpdateParts full = FullUpdate();
  UpdateParts bare = full;
  bare.replicated.clear();
  bare.evictions.clear();
  for (size_t shard_count : {size_t{1}, size_t{4}}) {
    // Replicated records and evictions grow the update by exactly their
    // sizes; their two counts are part of UpdateBaseBytes.
    EXPECT_EQ(Encode(shard_count, full).size() -
                  Encode(shard_count, bare).size(),
              ReplicationBytes(full))
        << "shards " << shard_count;
    EXPECT_EQ(Encode(shard_count, UpdateParts{}).size(),
              Contract::UpdateBaseBytes(shard_count, 0))
        << "shards " << shard_count;
  }
}

TEST(Codec, TierSuffixBytesMatchesEncodingAndEmptyAppendsNothing) {
  const UpdateParts full = FullUpdate();
  UpdateParts untiered = full;
  untiered.tiered = TierSuffix{};
  for (size_t shard_count : {size_t{1}, size_t{4}}) {
    EXPECT_EQ(Encode(shard_count, full).size() -
                  Encode(shard_count, untiered).size(),
              TierBytes(full.tiered))
        << "shards " << shard_count;
    // The empty suffix is the byte-identity guarantee: passing it writes
    // the same calldata as leaving the tier argument out.
    EXPECT_EQ(Encode(shard_count, untiered),
              Contract::EncodeUpdate(shard_count, Hash256::FromU64(2), 4,
                                     untiered.roots, untiered.replicated,
                                     untiered.evictions))
        << "shards " << shard_count;
  }
  EXPECT_EQ(TierBytes(TierSuffix{}), 0u);
}

TEST(Codec, UpdateWritesShardRootsOnlyAboveOneShard) {
  // The single-tree layout, written out field by field: digest, epoch, the
  // replication suffix, and the tier suffix only when it has entries.
  const auto legacy = [](const UpdateParts& parts, bool with_roots) {
    chain::AbiWriter w;
    w.Hash(Hash256::FromU64(2));
    w.U64(4);
    if (with_roots) {
      w.U64(parts.roots.size());
      for (const auto& [shard, root] : parts.roots) {
        w.U64(shard);
        w.Hash(root);
      }
    }
    w.U64(parts.replicated.size());
    for (const auto& record : parts.replicated) w.Blob(record.Serialize());
    w.U64(parts.evictions.size());
    for (const auto& key : parts.evictions) w.Blob(key);
    if (!parts.tiered.empty()) {
      w.U64(parts.tiered.entries.size());
      for (const auto& entry : parts.tiered.entries) {
        w.U64(static_cast<uint64_t>(entry.tier));
        w.Blob(entry.record.Serialize());
      }
      w.U64(parts.tiered.unpins.size());
      for (const auto& key : parts.tiered.unpins) w.Blob(key);
    }
    return w.Take();
  };
  for (const UpdateParts& parts : UpdateVariants()) {
    // One shard: the digest is the tree's root, so roots are never written.
    EXPECT_EQ(Encode(1, parts), legacy(parts, /*with_roots=*/false));
    // Four shards: the root section (possibly empty) follows the epoch.
    EXPECT_EQ(Encode(4, parts), legacy(parts, /*with_roots=*/true));
  }
  // The digest-only single-tree update: digest, epoch, two zero counts.
  EXPECT_EQ(Encode(1, UpdateParts{}).size(), 32u + 8 + 8 + 8);
}

}  // namespace
}  // namespace grub::core
