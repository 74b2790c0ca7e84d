// Storage-manager contract (Listing 2): authorization, replica lifecycle,
// proof verification on-chain, and the BL3 trace-counter charging. The
// contract only accepts a point delivery that answers a pending gGet miss,
// so each deliver below follows a GGetTx of its key; the reverting cases
// issue the miss too, so the proof check, not the request ledger, is what
// rejects them.
#include <gtest/gtest.h>

#include "ads/sp.h"
#include "chain/blockchain.h"
#include "grub/consumer.h"
#include "grub/storage_manager.h"
#include "workload/trace.h"

namespace grub::core {
namespace {

using workload::MakeKey;

constexpr chain::Address kDo = 11;
constexpr chain::Address kSp = 12;
constexpr chain::Address kRando = 13;

struct Fixture {
  explicit Fixture(StorageManagerContract::Config config = {}) {
    config.do_address = kDo;
    manager = chain.Deploy(std::make_unique<StorageManagerContract>(config));
    auto consumer_ptr = std::make_unique<ConsumerContract>(manager);
    consumer = consumer_ptr.get();
    consumer_address = chain.Deploy(std::move(consumer_ptr));

    for (uint64_t i = 0; i < 8; ++i) {
      (void)sp.ApplyPut(ads::FeedRecord{MakeKey(i), Bytes(32, uint8_t(i + 1)),
                                        ads::ReplState::kNR});
    }
    PublishRoot();
  }

  chain::Receipt PublishRoot(std::vector<ads::FeedRecord> updates = {},
                             std::vector<Bytes> evictions = {},
                             chain::Address sender = kDo) {
    chain::Transaction tx;
    tx.from = sender;
    tx.to = manager;
    tx.function = StorageManagerContract::kUpdateFn;
    tx.calldata = StorageManagerContract::EncodeUpdate(
        /*shard_count=*/1, sp.Root(), epoch++, {}, updates, evictions);
    return chain.SubmitAndMine(std::move(tx));
  }

  chain::Receipt GGetTx(const Bytes& key) {
    consumer->QueueRead(key);
    chain::Transaction tx;
    tx.from = kRando;
    tx.to = consumer_address;
    tx.function = ConsumerContract::kRunFn;
    tx.calldata = ConsumerContract::EncodeRun(1);
    return chain.SubmitAndMine(std::move(tx));
  }

  chain::Receipt Deliver(std::vector<DeliverEntry> entries) {
    chain::Transaction tx;
    tx.from = kSp;
    tx.to = manager;
    tx.function = StorageManagerContract::kDeliverFn;
    tx.calldata = StorageManagerContract::EncodeDeliver(entries);
    return chain.SubmitAndMine(std::move(tx));
  }

  DeliverEntry EntryFor(const Bytes& key, bool replicate) {
    DeliverEntry entry;
    entry.kind = DeliverEntry::Kind::kQuery;
    entry.query = sp.Get(key).value();
    entry.key = key;
    entry.callback_contract = consumer_address;
    entry.callback_function = ConsumerContract::kOnDataFn;
    entry.replicate_hint = replicate;
    return entry;
  }

  chain::Blockchain chain;
  ads::AdsSp sp;
  chain::Address manager = 0;
  chain::Address consumer_address = 0;
  ConsumerContract* consumer = nullptr;
  uint64_t epoch = 0;
};

TEST(StorageManager, UpdateRejectsNonDoSender) {
  Fixture f;
  auto receipt = f.PublishRoot({}, {}, kRando);
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status.code(), StatusCode::kFailedPrecondition);
}

TEST(StorageManager, MissEmitsRequestEvent) {
  Fixture f;
  auto receipt = f.GGetTx(MakeKey(1));
  ASSERT_TRUE(receipt.ok());
  ASSERT_EQ(receipt.events.size(), 1u);
  EXPECT_EQ(receipt.events[0].name, StorageManagerContract::kRequestEvent);
  EXPECT_EQ(f.consumer->values_received(), 0u);  // nothing served yet
}

TEST(StorageManager, DeliverWithValidProofServesCallback) {
  Fixture f;
  f.GGetTx(MakeKey(1));
  auto receipt = f.Deliver({f.EntryFor(MakeKey(1), false)});
  ASSERT_TRUE(receipt.ok()) << receipt.status.ToString();
  EXPECT_EQ(f.consumer->values_received(), 1u);
  EXPECT_EQ(f.consumer->received()[0].second, Bytes(32, 2));
}

// SP calldata is attacker input. A deliver whose first entry inflates a
// length or count field fails in the reader's bounds check (a blob length
// near 2^64 must not wrap past it, and a sibling count must not size a
// 2 TiB reserve), and it leaves the pending-request ledger as it was, so
// the honest answer still lands, once.
TEST(StorageManager, InflatedDeliverFieldsFailWithTheLedgerUnchanged) {
  Fixture f;
  const Bytes key = MakeKey(1);
  ASSERT_TRUE(f.GGetTx(key).ok());
  const Word slot = StorageManagerContract::PendingSlot(
      key, f.consumer_address, ConsumerContract::kOnDataFn);
  const auto pending = [&f, &slot] {
    return f.chain.StorageOf(f.manager).Load(slot).ToU64();
  };
  ASSERT_EQ(pending(), 1u);

  const DeliverEntry honest = f.EntryFor(key, false);
  const Bytes calldata = StorageManagerContract::EncodeDeliver({honest});
  // Offsets of the first entry's fields: count, kind, key blob, then the
  // query proof (record blob, index, capacity, siblings), then the
  // callback contract and the callback name blob.
  const size_t key_len_at = 8 + 8;
  const size_t record_len_at = key_len_at + 8 + key.size();
  const size_t siblings_at =
      record_len_at + 8 + honest.query.record.SerializedBytes() + 8 + 8;
  const size_t callback_len_at =
      siblings_at + 8 + 32 * honest.query.path.siblings.size() + 8;
  struct Inflated {
    const char* field;
    size_t offset;
    uint64_t value;
  };
  for (const Inflated& c :
       {Inflated{"key length", key_len_at, UINT64_MAX - 7},
        Inflated{"record length", record_len_at, UINT64_MAX - 7},
        Inflated{"sibling count", siblings_at, uint64_t{1} << 36},
        Inflated{"callback name length", callback_len_at, UINT64_MAX - 7}}) {
    Bytes bad = calldata;
    for (size_t b = 0; b < 8; ++b) {
      bad[c.offset + b] = static_cast<uint8_t>(c.value >> (8 * b));
    }
    chain::Transaction tx;
    tx.from = kSp;
    tx.to = f.manager;
    tx.function = StorageManagerContract::kDeliverFn;
    tx.calldata = std::move(bad);
    const auto receipt = f.chain.SubmitAndMine(std::move(tx));
    EXPECT_FALSE(receipt.ok()) << c.field;
    EXPECT_NE(receipt.status.message().find("AbiReader"), std::string::npos)
        << c.field << ": " << receipt.status.ToString();
    EXPECT_EQ(pending(), 1u) << c.field;
    EXPECT_EQ(f.consumer->values_received(), 0u) << c.field;
  }

  ASSERT_TRUE(f.Deliver({honest}).ok());
  EXPECT_EQ(f.consumer->values_received(), 1u);
  EXPECT_EQ(pending(), 0u);
  EXPECT_FALSE(f.Deliver({honest}).ok());  // answered: a replay reverts
}

// `repeats` sets how many times a verified entry's callbacks run, so it is
// bounded before anything runs. Point entries: by the requests still
// pending for the identity, compared so that an inflated count cannot wrap
// the running claim back to zero (the wrapped entry below carries a bad
// proof, so only the ledger check can name the rejection).
TEST(StorageManager, InflatedRepeatsCannotWrapTheLedgerClaim) {
  Fixture f;
  const Bytes key = MakeKey(1);
  ASSERT_TRUE(f.GGetTx(key).ok());
  ASSERT_TRUE(f.GGetTx(key).ok());
  DeliverEntry first = f.EntryFor(key, false);
  first.repeats = 2;
  DeliverEntry wrapping = f.EntryFor(key, false);
  wrapping.repeats = UINT64_MAX - 1;  // 2 + (2^64 - 2) wraps to 0
  wrapping.query.record.value = Bytes(32, 0xEE);
  const auto receipt = f.Deliver({first, wrapping});
  ASSERT_FALSE(receipt.ok());
  EXPECT_NE(receipt.status.message().find("replayed or unsolicited"),
            std::string::npos)
      << receipt.status.ToString();
  // The claims were never written back: both requests are still pending.
  EXPECT_EQ(f.chain.StorageOf(f.manager)
                .Load(StorageManagerContract::PendingSlot(
                    key, f.consumer_address, ConsumerContract::kOnDataFn))
                .ToU64(),
            2u);
}

// Scan entries have no ledger and the daemon never merges them, so each
// answers exactly one request: an inflated count is rejected before its
// callbacks would run once per record per repeat.
TEST(StorageManager, ScanEntryAnswersExactlyOneRequest) {
  Fixture f;
  DeliverEntry scan;
  scan.kind = DeliverEntry::Kind::kScan;
  scan.key = MakeKey(2);
  scan.end_key = MakeKey(5);
  scan.scan = f.sp.Scan(scan.key, scan.end_key).value();
  scan.callback_contract = f.consumer_address;
  scan.callback_function = ConsumerContract::kOnDataFn;
  for (uint64_t repeats : {0, 2, 1000}) {
    scan.repeats = repeats;
    const auto receipt = f.Deliver({scan});
    EXPECT_FALSE(receipt.ok()) << repeats;
    EXPECT_EQ(f.consumer->values_received(), 0u) << repeats;
  }
  scan.repeats = 1;
  ASSERT_TRUE(f.Deliver({scan}).ok());
  EXPECT_EQ(f.consumer->values_received(), 3u);  // keys 2, 3 and 4
}

TEST(StorageManager, DeliverWithForgedValueReverts) {
  Fixture f;
  f.GGetTx(MakeKey(1));
  auto entry = f.EntryFor(MakeKey(1), false);
  entry.query.record.value = Bytes(32, 0xEE);
  auto receipt = f.Deliver({entry});
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status.code(), StatusCode::kIntegrityViolation);
  EXPECT_EQ(f.consumer->values_received(), 0u);
}

TEST(StorageManager, DeliverAgainstStaleRootReverts) {
  Fixture f;
  f.GGetTx(MakeKey(1));
  auto stale_entry = f.EntryFor(MakeKey(1), false);
  // Root moves on after the proof was built.
  (void)f.sp.ApplyPut(
      ads::FeedRecord{MakeKey(1), Bytes(32, 0x99), ads::ReplState::kNR});
  f.PublishRoot();
  EXPECT_FALSE(f.Deliver({stale_entry}).ok());
}

TEST(StorageManager, DeliverKeyMismatchReverts) {
  Fixture f;
  f.GGetTx(MakeKey(2));
  auto entry = f.EntryFor(MakeKey(1), false);
  entry.key = MakeKey(2);  // claims to answer a different request
  EXPECT_FALSE(f.Deliver({entry}).ok());
}

TEST(StorageManager, ReplicateHintMaterializesReplica) {
  Fixture f;
  f.GGetTx(MakeKey(3));
  ASSERT_TRUE(f.Deliver({f.EntryFor(MakeKey(3), true)}).ok());
  // Subsequent reads hit the replica: no request event.
  auto receipt = f.GGetTx(MakeKey(3));
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt.events.empty());
  EXPECT_EQ(f.consumer->values_received(), 2u);  // deliver cb + hit cb
}

TEST(StorageManager, RedundantReplicaDeliveryIsCheap) {
  Fixture f;
  f.GGetTx(MakeKey(3));
  f.GGetTx(MakeKey(3));  // two misses pending: one per delivery
  ASSERT_TRUE(f.Deliver({f.EntryFor(MakeKey(3), true)}).ok());
  auto second = f.Deliver({f.EntryFor(MakeKey(3), true)});
  ASSERT_TRUE(second.ok());
  // Same value already stored: only reads, no storage writes.
  EXPECT_EQ(second.breakdown.storage_insert, 0u);
  EXPECT_EQ(second.breakdown.storage_update, 0u);
}

TEST(StorageManager, UpdateRefreshesReplicaValue) {
  Fixture f;
  f.GGetTx(MakeKey(3));
  ASSERT_TRUE(f.Deliver({f.EntryFor(MakeKey(3), true)}).ok());
  ads::FeedRecord fresh{MakeKey(3), Bytes(32, 0x77), ads::ReplState::kR};
  (void)f.sp.ApplyPut(fresh);
  ASSERT_TRUE(f.PublishRoot({fresh}, {}).ok());
  f.GGetTx(MakeKey(3));
  ASSERT_GE(f.consumer->values_received(), 2u);
  EXPECT_EQ(f.consumer->received().back().second, Bytes(32, 0x77));
}

TEST(StorageManager, EvictionInvalidatesReplicaCheaply) {
  Fixture f;
  f.GGetTx(MakeKey(3));
  ASSERT_TRUE(f.Deliver({f.EntryFor(MakeKey(3), true)}).ok());
  auto receipt = f.PublishRoot({}, {MakeKey(3)});
  ASSERT_TRUE(receipt.ok());
  // Reusable storage: eviction only zeroes the length slot.
  EXPECT_EQ(receipt.breakdown.storage_update,
            5000u /*root*/ + 5000u /*len slot*/);
  // The key misses again.
  auto read = f.GGetTx(MakeKey(3));
  EXPECT_EQ(read.events.size(), 1u);
}

TEST(StorageManager, EvictingAbsentReplicaIsANoOp) {
  Fixture f;
  auto receipt = f.PublishRoot({}, {MakeKey(5)});
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt.breakdown.storage_update, 5000u);  // just the root
}

TEST(StorageManager, ReplicaHitCostTracksTable2) {
  Fixture f;
  f.GGetTx(MakeKey(3));
  ASSERT_TRUE(f.Deliver({f.EntryFor(MakeKey(3), true)}).ok());
  auto receipt = f.GGetTx(MakeKey(3));
  ASSERT_TRUE(receipt.ok());
  // len slot + 1 value word = 2 sloads.
  EXPECT_EQ(receipt.breakdown.storage_read, 400u);
  EXPECT_EQ(receipt.breakdown.storage_insert, 0u);
}

TEST(StorageManager, Bl3ReadTraceChargesCounterMaintenance) {
  StorageManagerContract::Config bl3;
  bl3.trace_reads_on_chain = true;
  Fixture f(bl3);
  auto receipt = f.GGetTx(MakeKey(1));
  ASSERT_TRUE(receipt.ok());
  // First counter bump is a fresh insert (plus its read).
  EXPECT_EQ(receipt.breakdown.storage_insert, 20000u);
  auto second = f.GGetTx(MakeKey(1));
  EXPECT_EQ(second.breakdown.storage_update, 5000u);
}

TEST(StorageManager, UnknownFunctionRejected) {
  Fixture f;
  chain::Transaction tx;
  tx.from = kRando;
  tx.to = f.manager;
  tx.function = "selfdestruct";
  auto receipt = f.chain.SubmitAndMine(std::move(tx));
  EXPECT_FALSE(receipt.ok());
}

TEST(StorageManager, AbsenceDeliveryInvokesMissCallback) {
  Fixture f;
  f.GGetTx(MakeKey(77));
  DeliverEntry entry;
  entry.kind = DeliverEntry::Kind::kAbsence;
  entry.key = MakeKey(77);
  entry.absence = f.sp.ProveAbsent(MakeKey(77)).value();
  entry.callback_contract = f.consumer_address;
  entry.callback_function = ConsumerContract::kOnDataFn;
  ASSERT_TRUE(f.Deliver({entry}).ok());
  EXPECT_EQ(f.consumer->misses_received(), 1u);
}

TEST(StorageManager, ForgedAbsenceOfLiveKeyReverts) {
  Fixture f;
  f.GGetTx(MakeKey(3));
  DeliverEntry entry;
  entry.kind = DeliverEntry::Kind::kAbsence;
  entry.key = MakeKey(3);  // exists!
  entry.absence = f.sp.ProveAbsent(MakeKey(77)).value();
  entry.callback_contract = f.consumer_address;
  entry.callback_function = ConsumerContract::kOnDataFn;
  EXPECT_FALSE(f.Deliver({entry}).ok());
}

}  // namespace
}  // namespace grub::core
