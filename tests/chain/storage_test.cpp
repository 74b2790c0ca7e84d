// Contract storage metering: the insert/update/read distinction and the
// multi-word blob layout.
#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>
#include <vector>

#include "chain/storage.h"
#include "common/rng.h"
#include "crypto/sha256.h"

namespace grub::chain {
namespace {

struct Fixture {
  GasSchedule gas;
  ContractStorage backing;
  GasMeter meter{gas};
  MeteredStorage storage{backing, meter};
};

TEST(MeteredStorage, InsertThenUpdateCharges) {
  Fixture f;
  const Word key = Word::FromU64(1);
  f.storage.SStore(key, Word::FromU64(10));  // zero -> nonzero: insert
  EXPECT_EQ(f.meter.Breakdown().storage_insert, 20000u);
  f.storage.SStore(key, Word::FromU64(20));  // nonzero -> nonzero: update
  EXPECT_EQ(f.meter.Breakdown().storage_update, 5000u);
  f.storage.SStore(key, Word{});  // nonzero -> zero: update (no refunds)
  EXPECT_EQ(f.meter.Breakdown().storage_update, 10000u);
  // Slot is zero again: the next write is an insert.
  f.storage.SStore(key, Word::FromU64(30));
  EXPECT_EQ(f.meter.Breakdown().storage_insert, 40000u);
}

TEST(MeteredStorage, ZeroToZeroChargesUpdate) {
  Fixture f;
  f.storage.SStore(Word::FromU64(2), Word{});
  EXPECT_EQ(f.meter.Breakdown().storage_update, 5000u);
  EXPECT_EQ(f.meter.Breakdown().storage_insert, 0u);
}

TEST(MeteredStorage, ReadsCharge200PerWord) {
  Fixture f;
  (void)f.storage.SLoad(Word::FromU64(3));
  (void)f.storage.SLoad(Word::FromU64(4));
  EXPECT_EQ(f.meter.Breakdown().storage_read, 400u);
}

TEST(MeteredStorage, BlobRoundTrip) {
  Fixture f;
  Bytes data(100);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  const Word base = Word::FromU64(77);
  f.storage.SStoreBytes(base, data, 0);
  EXPECT_EQ(f.storage.SLoadBytes(base, data.size()), data);
  // 100 bytes = 4 words, all fresh inserts.
  EXPECT_EQ(f.meter.Breakdown().storage_insert, 4 * 20000u);
}

TEST(MeteredStorage, ShrinkingBlobZeroesSurplusSlots) {
  Fixture f;
  const Word base = Word::FromU64(88);
  f.storage.SStoreBytes(base, Bytes(100, 0xAA), 0);   // 4 words
  f.storage.SStoreBytes(base, Bytes(10, 0xBB), 100);  // 1 word + 3 zeroed
  // Surplus slots must read back as zero.
  EXPECT_TRUE(f.backing.Load(MeteredStorage::SlotKey(base, 1)).IsZero());
  EXPECT_TRUE(f.backing.Load(MeteredStorage::SlotKey(base, 3)).IsZero());
  Bytes got = f.storage.SLoadBytes(base, 10);
  EXPECT_EQ(got, Bytes(10, 0xBB));
}

TEST(MeteredStorage, SlotKeysAreDistinctPerIndex) {
  const Word base = Word::FromU64(5);
  EXPECT_NE(MeteredStorage::SlotKey(base, 0), MeteredStorage::SlotKey(base, 1));
  EXPECT_NE(MeteredStorage::SlotKey(base, 1), MeteredStorage::SlotKey(base, 2));
  // Index 0 is the base itself.
  EXPECT_EQ(MeteredStorage::SlotKey(base, 0), base);
}

TEST(ContractStorage, ZeroStoresErase) {
  ContractStorage backing;
  backing.Store(Word::FromU64(1), Word::FromU64(5));
  EXPECT_EQ(backing.SlotCount(), 1u);
  backing.Store(Word::FromU64(1), Word{});
  EXPECT_EQ(backing.SlotCount(), 0u);
  EXPECT_TRUE(backing.Load(Word::FromU64(1)).IsZero());
}

// The flat table against a node-map reference: seeded Store, zero-Store
// (erase) and Load over digest keys and over SlotKey(base, w) runs (a
// digest plus a small offset, the keys that share a first quadword), with a
// copy taken mid-sequence that must keep matching the reference's copy
// while the original moves on. Erasing shifts later probe-run members back,
// so every key ever used is checked after every batch of operations.
TEST(ContractStorage, MatchesUnorderedMapReference) {
  Rng rng(2604);
  std::vector<Word> keys;
  for (uint64_t i = 0; i < 64; ++i) {
    const Word base = Sha256::Digest(U64ToBytes(i));
    keys.push_back(base);
    for (uint64_t w = 1; w < 12; ++w) {
      keys.push_back(MeteredStorage::SlotKey(base, w));
    }
  }
  for (uint64_t i = 0; i < 32; ++i) keys.push_back(Word::FromU64(i));

  ContractStorage table;
  std::unordered_map<Word, Word> reference;
  const auto check = [&keys](const ContractStorage& t,
                             const std::unordered_map<Word, Word>& ref,
                             const char* what, int op) {
    ASSERT_EQ(t.SlotCount(), ref.size()) << what << " after op " << op;
    for (const Word& key : keys) {
      auto it = ref.find(key);
      const Word want = it == ref.end() ? Word{} : it->second;
      ASSERT_EQ(t.Load(key), want) << what << " after op " << op;
    }
  };

  std::optional<ContractStorage> table_copy;
  std::unordered_map<Word, Word> reference_copy;
  constexpr int kOps = 20000;
  for (int op = 0; op < kOps; ++op) {
    const Word& key = keys[rng.NextBounded(keys.size())];
    switch (rng.NextBounded(4)) {
      case 0: {  // erase by storing zero
        table.Store(key, Word{});
        reference.erase(key);
        break;
      }
      case 1: {  // load
        auto it = reference.find(key);
        ASSERT_EQ(table.Load(key), it == reference.end() ? Word{} : it->second);
        break;
      }
      default: {  // insert or overwrite a nonzero value
        const Word value = Word::FromU64(rng.NextBounded(1000) + 1);
        table.Store(key, value);
        reference[key] = value;
        break;
      }
    }
    if (op == kOps / 2) {
      table_copy = table;
      reference_copy = reference;
    }
    if (op % 500 == 0) check(table, reference, "table", op);
  }
  check(table, reference, "table", kOps);
  ASSERT_TRUE(table_copy.has_value());
  check(*table_copy, reference_copy, "mid-sequence copy", kOps);

  // Draining every key leaves an empty table that still answers zero.
  for (const Word& key : keys) table.Store(key, Word{});
  EXPECT_EQ(table.SlotCount(), 0u);
  for (const Word& key : keys) EXPECT_TRUE(table.Load(key).IsZero());
}

}  // namespace
}  // namespace grub::chain
