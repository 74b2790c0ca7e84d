// Multi-tier placement end to end: log-tier writes pin digests and emit
// `grub_data`, reads come back as digest-verified delivers (receipt replay,
// no Merkle path), forged values are rejected on chain, and both chunkers
// (DO epoch updates, SP deliver batches) split oversized calldata below the
// Ctx(X) validity boundary.
#include <gtest/gtest.h>

#include "chain/gas.h"
#include "crypto/sha256.h"
#include "grub/consumer.h"
#include "grub/sp_daemon.h"
#include "grub/storage_manager.h"
#include "grub/system.h"
#include "tier/placement.h"
#include "workload/trace.h"

namespace grub::core {
namespace {

using workload::MakeKey;

std::unique_ptr<ReplicationPolicy> StaticTier(tier::StorageTier t) {
  return std::make_unique<tier::StaticTierPolicy>(t);
}

TEST(TierE2E, LogTierWriteThenReadRoundTrips) {
  GrubSystem system(SystemOptions{}, StaticTier(tier::StorageTier::kLog));
  system.Preload({{MakeKey(0), Bytes(32, 0xAB)}});

  system.Write(MakeKey(0), Bytes(32, 0xCD));
  system.EndEpoch();
  system.ReadNow(MakeKey(0));

  ASSERT_EQ(system.Consumer().values_received(), 1u);
  EXPECT_EQ(system.Consumer().received()[0].second, Bytes(32, 0xCD));
  // Served from the receipt replay, not a Merkle proof or a replica.
  EXPECT_EQ(system.Daemon().digest_entries_served(), 1u);
  EXPECT_TRUE(system.Do().OnChainReplicas().empty());
  EXPECT_EQ(system.Do().log_pins(), 1u);
  // The write charged the LOG event (the tier's whole point).
  EXPECT_GT(system.TotalBreakdown().log, 0u);
}

TEST(TierE2E, FreshDaemonServesLogTierFromReceiptReplay) {
  GrubSystem system(SystemOptions{}, StaticTier(tier::StorageTier::kLog));
  system.Preload({{MakeKey(0), Bytes(32, 0xAB)}});
  system.Write(MakeKey(0), Bytes(32, 0xEE));
  system.EndEpoch();

  // An SP restart: a brand-new daemon has no in-memory value map and must
  // reconstruct every live log-tier value from `grub_data` receipts.
  SpDaemon fresh(system.Chain(), system.ShardedSp(), system.ManagerAddress(),
                 GrubSystem::kSpAccount);
  system.Consumer().QueueRead(MakeKey(0));
  chain::Transaction tx;
  tx.from = GrubSystem::kUserAccount;
  tx.to = system.ConsumerAddress();
  tx.function = ConsumerContract::kRunFn;
  tx.calldata = ConsumerContract::EncodeRun(0);
  system.Chain().SubmitAndMine(std::move(tx));

  EXPECT_EQ(fresh.PollAndServe(), 1u);
  EXPECT_EQ(fresh.digest_entries_served(), 1u);
  ASSERT_EQ(system.Consumer().values_received(), 1u);
  EXPECT_EQ(system.Consumer().received()[0].second, Bytes(32, 0xEE));
}

// Handcrafted contract fixture for the rejection paths (mirrors
// storage_manager_test): a raw chain, manager, and consumer — no daemon.
struct ContractFixture {
  static constexpr chain::Address kDo = 11;
  static constexpr chain::Address kSp = 12;
  static constexpr chain::Address kUser = 13;

  ContractFixture() {
    StorageManagerContract::Config config;
    config.do_address = kDo;
    manager = chain.Deploy(std::make_unique<StorageManagerContract>(config));
    auto consumer_ptr = std::make_unique<ConsumerContract>(manager);
    consumer = consumer_ptr.get();
    consumer_address = chain.Deploy(std::move(consumer_ptr));
  }

  chain::Receipt Update(const TierSuffix& tiered) {
    chain::Transaction tx;
    tx.from = kDo;
    tx.to = manager;
    tx.function = StorageManagerContract::kUpdateFn;
    tx.calldata = StorageManagerContract::EncodeUpdate(
        /*shard_count=*/1, Hash256::FromU64(1), epoch++, {}, {}, {}, tiered);
    return chain.SubmitAndMine(std::move(tx));
  }

  /// A gGet miss on `key`: the pending request a delivery must answer.
  chain::Receipt GGetTx(const Bytes& key) {
    consumer->QueueRead(key);
    chain::Transaction tx;
    tx.from = kUser;
    tx.to = consumer_address;
    tx.function = ConsumerContract::kRunFn;
    tx.calldata = ConsumerContract::EncodeRun(1);
    return chain.SubmitAndMine(std::move(tx));
  }

  chain::Receipt DeliverDigest(const Bytes& key, const Bytes& value) {
    DeliverEntry entry;
    entry.kind = DeliverEntry::Kind::kDigest;
    entry.key = key;
    entry.value = value;
    entry.callback_contract = consumer_address;
    entry.callback_function = ConsumerContract::kOnDataFn;
    chain::Transaction tx;
    tx.from = kSp;
    tx.to = manager;
    tx.function = StorageManagerContract::kDeliverFn;
    tx.calldata = StorageManagerContract::EncodeDeliver({entry});
    return chain.SubmitAndMine(std::move(tx));
  }

  chain::Blockchain chain;
  chain::Address manager = 0;
  chain::Address consumer_address = 0;
  ConsumerContract* consumer = nullptr;
  uint64_t epoch = 0;
};

TEST(TierE2E, DigestMismatchIsRejectedOnChain) {
  ContractFixture f;
  const Bytes key = MakeKey(0);
  const Bytes value(40, 0x77);
  TierSuffix pin;
  pin.entries.push_back(
      {tier::StorageTier::kLog, ads::FeedRecord{key, value, ads::ReplState::kNR}});
  ASSERT_TRUE(f.Update(pin).ok());
  ASSERT_EQ(f.GGetTx(key).events.size(), 1u);  // the miss a delivery answers

  // A forged value hashes to the wrong digest: the deliver reverts and no
  // callback fires. The genuine value then verifies against the same pin.
  Bytes forged = value;
  forged[0] ^= 0xFF;
  auto rejected = f.DeliverDigest(key, forged);
  EXPECT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status.message().find("digest"), std::string::npos);
  EXPECT_EQ(f.consumer->values_received(), 0u);

  EXPECT_TRUE(f.DeliverDigest(key, value).ok());
  EXPECT_EQ(f.consumer->values_received(), 1u);
}

TEST(TierE2E, UnpinnedKeyRejectsDigestDelivers) {
  ContractFixture f;
  const Bytes key = MakeKey(3);
  const Bytes value(16, 0x55);
  TierSuffix pin;
  pin.entries.push_back(
      {tier::StorageTier::kLog, ads::FeedRecord{key, value, ads::ReplState::kNR}});
  ASSERT_TRUE(f.Update(pin).ok());
  f.GGetTx(key);
  ASSERT_TRUE(f.DeliverDigest(key, value).ok());

  // The key leaves the log tier: the unpin zeroes the digest slot, so even
  // the previously-valid value, answering a fresh miss, can no longer be
  // delivered by digest.
  TierSuffix unpin;
  unpin.unpins = {key};
  auto receipt = f.Update(unpin);
  ASSERT_TRUE(receipt.ok());
  bool saw_unpin_event = false;
  for (const auto& event : receipt.events) {
    saw_unpin_event |= event.name == StorageManagerContract::kUnpinEvent;
  }
  EXPECT_TRUE(saw_unpin_event);
  f.GGetTx(key);
  auto rejected = f.DeliverDigest(key, value);
  EXPECT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status.message().find("digest"), std::string::npos);
}

// What one tier-only update() carries: the shard of its records (the DO
// sends one update per involved shard, so they share it) and the number of
// shard roots in its header.
struct UpdateShape {
  uint32_t shard = 0;
  uint64_t roots = 0;
};

UpdateShape ShapeOf(GrubSystem& system, const Bytes& calldata) {
  UpdateShape shape;
  chain::AbiReader r(calldata);
  (void)r.Hash();  // digest
  (void)r.U64();   // epoch
  if (system.ShardedSp().ShardCount() > 1) {
    shape.roots = r.U64();
    for (uint64_t i = 0; i < shape.roots; ++i) {
      (void)r.U64();
      (void)r.Hash();
    }
  }
  EXPECT_EQ(r.U64(), 0u);  // replicated records
  EXPECT_EQ(r.U64(), 0u);  // evictions
  EXPECT_GT(r.U64(), 0u);  // tier entries
  (void)r.U64();           // tier tag
  auto record = ads::FeedRecord::Deserialize(r.Blob());
  EXPECT_TRUE(record.ok());
  shape.shard = system.ShardedSp().Map().ShardOf(record->key);
  return shape;
}

TEST(TierE2E, OversizedEpochUpdateIsChunkedAcrossTransactions) {
  // 40 calldata-tier records x 1 KiB per shard ≈ 42 KB of tier suffix per
  // shard — well past the 31968-byte Ctx(X) budget. The DO must split each
  // shard's update into several update transactions (TxCost hard-aborts the
  // process on a breach, so completing at all proves every chunk fit; the
  // sizes are asserted too). At four shards only a shard's first chunk
  // carries its root.
  //
  // The 956-byte case puts a chunk boundary inside the tier suffix's two
  // count words: 32 tier entries of 997 bytes (UpdateTierEntryBytes for a
  // 16-byte key) plus the 56-byte base come to 31960 bytes, 8 below
  // kMaxCalldataBytes. Counted with the 16 count bytes, the first chunk
  // holds 31 entries; a chunker that dropped them would pack 32 and send
  // 31976 bytes (1000 words), and TxCost would abort.
  struct Case {
    size_t shards;
    uint64_t records;
    size_t value_bytes;
  };
  for (const auto& [shards, records, value_bytes] :
       {Case{1, 40, 1024}, Case{4, 160, 1024}, Case{1, 40, 956}}) {
    SCOPED_TRACE("shards " + std::to_string(shards) + ", " +
                 std::to_string(value_bytes) + "-byte values");
    SystemOptions options;
    options.shards = shards;
    if (shards > 1) {
      options.shard_boundaries = IndexedKeyBoundaries(records, shards);
    }
    GrubSystem system(options, StaticTier(tier::StorageTier::kCalldata));
    std::vector<std::pair<Bytes, Bytes>> preload;
    for (uint64_t i = 0; i < records; ++i) {
      preload.emplace_back(MakeKey(i), Bytes(value_bytes, 0x11));
    }
    system.Preload(preload);

    for (uint64_t i = 0; i < records; ++i) {
      system.Write(MakeKey(i), Bytes(value_bytes, uint8_t(i + 1)));
    }
    const size_t history_before = system.Chain().CallHistory().size();
    system.EndEpoch();
    std::vector<size_t> updates_per_shard(shards, 0);
    const auto& history = system.Chain().CallHistory();
    for (size_t i = history_before; i < history.size(); ++i) {
      const chain::CallRecord& call = history[i];
      if (call.internal || call.function != StorageManagerContract::kUpdateFn) {
        continue;
      }
      EXPECT_TRUE(call.ok);
      EXPECT_LT(call.calldata.size(), chain::GasSchedule::kMaxCalldataBytes);
      const UpdateShape shape = ShapeOf(system, call.calldata);
      const bool first = updates_per_shard[shape.shard] == 0;
      EXPECT_EQ(shape.roots, shards > 1 && first ? 1u : 0u)
          << "shard " << shape.shard;
      updates_per_shard[shape.shard] += 1;
    }
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_GE(updates_per_shard[s], 2u) << "shard " << s;
    }

    system.ReadNow(MakeKey(0));
    system.ReadNow(MakeKey(records - 1));
    ASSERT_EQ(system.Consumer().values_received(), 2u);
    EXPECT_EQ(system.Consumer().received()[0].second, Bytes(value_bytes, 1));
    EXPECT_EQ(system.Consumer().received()[1].second,
              Bytes(value_bytes, uint8_t(records)));
    EXPECT_EQ(system.Do().Root(), system.ShardedSp().RootOfRoots());
  }
}

TEST(TierE2E, OversizedDeliverBatchIsSplitAcrossPolls) {
  // 40 pending 1 KiB point reads can't answer in one deliver tx; the daemon
  // serves a prefix, rolls its cursor to the first unserved request, and
  // finishes over later polls — no request lost, no oversized calldata.
  GrubSystem system(SystemOptions{}, MakeBL1());
  std::vector<std::pair<Bytes, Bytes>> preload;
  for (uint64_t i = 0; i < 40; ++i) {
    preload.emplace_back(MakeKey(i), Bytes(1024, uint8_t(i + 1)));
  }
  system.Preload(preload);

  for (uint64_t i = 0; i < 40; ++i) system.Consumer().QueueRead(MakeKey(i));
  chain::Transaction tx;
  tx.from = GrubSystem::kUserAccount;
  tx.to = system.ConsumerAddress();
  tx.function = ConsumerContract::kRunFn;
  tx.calldata = ConsumerContract::EncodeRun(0);
  system.Chain().SubmitAndMine(std::move(tx));

  size_t served = 0;
  for (int polls = 0; polls < 16 && served < 40; ++polls) {
    served += system.Daemon().PollAndServe();
  }
  EXPECT_EQ(served, 40u);
  EXPECT_GE(system.Daemon().delivers_sent(), 2u);
  EXPECT_EQ(system.Consumer().values_received(), 40u);
}

TEST(TierE2E, PlacementJsonReportsCensusAndActivity) {
  GrubSystem system(SystemOptions{}, StaticTier(tier::StorageTier::kLog));
  system.Preload({{MakeKey(0), Bytes(32, 0xAB)}});
  system.Write(MakeKey(0), Bytes(32, 0xCD));
  system.EndEpoch();
  system.ReadNow(MakeKey(0));

  const std::string json = system.PlacementJson();
  EXPECT_NE(json.find("\"policy\":\"static-tier(log)\""), std::string::npos);
  EXPECT_NE(json.find("\"log\":1"), std::string::npos);
  EXPECT_NE(json.find("\"log_pins\":1"), std::string::npos);
  EXPECT_NE(json.find("\"digest_delivers\":1"), std::string::npos);
}

}  // namespace
}  // namespace grub::core
