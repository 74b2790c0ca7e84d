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
