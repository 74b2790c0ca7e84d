// End-to-end security: a malicious SP attacking the full pipeline. The
// storage-manager contract (verifying against the DO-published root) is the
// last line of defence; every integrity attack must revert on chain, and
// the replicate-hint channel must be Gas-only.
#include <gtest/gtest.h>

#include "ads/verify.h"
#include "grub/system.h"
#include "workload/trace.h"

namespace grub::core {
namespace {

using workload::MakeKey;

struct Fixture {
  Fixture() : system(SystemOptions{}, MakeBL1()) {
    std::vector<std::pair<Bytes, Bytes>> records;
    for (uint64_t i = 0; i < 8; ++i) {
      records.emplace_back(MakeKey(i), Bytes(32, static_cast<uint8_t>(i + 1)));
    }
    system.Preload(records);
  }

  // Issues a read and answers it with a handcrafted (possibly malicious)
  // deliver transaction instead of the honest daemon.
  chain::Receipt ReadAndDeliver(const Bytes& key,
                                std::function<void(DeliverEntry&)> corrupt) {
    system.Consumer().QueueRead(key);
    chain::Transaction run;
    run.from = GrubSystem::kUserAccount;
    run.to = system.ConsumerAddress();
    run.function = ConsumerContract::kRunFn;
    run.calldata = ConsumerContract::EncodeRun(1);
    system.Chain().SubmitAndMine(std::move(run));

    DeliverEntry entry;
    entry.kind = DeliverEntry::Kind::kQuery;
    entry.query = system.Sp().Get(key).value();
    entry.key = key;
    entry.callback_contract = system.ConsumerAddress();
    entry.callback_function = ConsumerContract::kOnDataFn;
    corrupt(entry);

    chain::Transaction deliver;
    deliver.from = GrubSystem::kSpAccount;
    deliver.to = system.ManagerAddress();
    deliver.function = StorageManagerContract::kDeliverFn;
    deliver.calldata = StorageManagerContract::EncodeDeliver({entry});
    return system.Chain().SubmitAndMine(std::move(deliver));
  }

  GrubSystem system;
};

TEST(SecurityE2E, HonestDeliverSucceeds) {
  Fixture f;
  auto receipt = f.ReadAndDeliver(MakeKey(1), [](DeliverEntry&) {});
  EXPECT_TRUE(receipt.ok()) << receipt.status.ToString();
  EXPECT_EQ(f.system.Consumer().values_received(), 1u);
}

TEST(SecurityE2E, ValueForgeryRevertsOnChain) {
  Fixture f;
  auto receipt = f.ReadAndDeliver(MakeKey(1), [](DeliverEntry& entry) {
    entry.query.record.value = Bytes(32, 0xEE);
  });
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(f.system.Consumer().values_received(), 0u);
}

TEST(SecurityE2E, CrossKeySubstitutionReverts) {
  Fixture f;
  auto receipt = f.ReadAndDeliver(MakeKey(1), [&](DeliverEntry& entry) {
    // Serve a proof for a DIFFERENT (valid) record under the asked key.
    entry.query = f.system.Sp().Get(MakeKey(2)).value();
  });
  EXPECT_FALSE(receipt.ok());
}

TEST(SecurityE2E, ReplayOfPreUpdateProofReverts) {
  Fixture f;
  auto stale = f.system.Sp().Get(MakeKey(1)).value();
  f.system.Write(MakeKey(1), Bytes(32, 0x44));
  f.system.EndEpoch();  // the on-chain root now reflects the new value
  auto receipt = f.ReadAndDeliver(MakeKey(1), [&](DeliverEntry& entry) {
    entry.query = stale;  // replay the proof from before the update
  });
  EXPECT_FALSE(receipt.ok());
}

TEST(SecurityE2E, ProofPathTamperReverts) {
  Fixture f;
  auto receipt = f.ReadAndDeliver(MakeKey(1), [](DeliverEntry& entry) {
    entry.query.path.siblings[0].bytes[0] ^= 1;
  });
  EXPECT_FALSE(receipt.ok());
}

TEST(SecurityE2E, ReplicateHintAbuseIsGasOnly) {
  // A lying `replicate` instruction cannot corrupt data — it can only make
  // the contract store (or skip storing) a VERIFIED record.
  Fixture f;
  auto receipt = f.ReadAndDeliver(MakeKey(1), [](DeliverEntry& entry) {
    entry.replicate_hint = true;  // DO never asked for this
  });
  ASSERT_TRUE(receipt.ok());
  // The replica holds the CORRECT value (it went through verification).
  f.system.ReadNow(MakeKey(1));
  EXPECT_EQ(f.system.Consumer().received().back().second, Bytes(32, 0x02));
  // Cost: the rogue replication charged storage inserts to the SP's tx.
  EXPECT_GT(receipt.breakdown.storage_insert, 0u);
}

TEST(SecurityE2E, ForkedSpCannotServeAnyReads) {
  Fixture f;
  f.system.Sp().ForkForTesting(MakeKey(1), ToBytes("forged-forked-value!"));
  // The honest daemon would now serve from the forked store; every deliver
  // it sends for the forked key must revert.
  f.system.Consumer().QueueRead(MakeKey(1));
  chain::Transaction run;
  run.from = GrubSystem::kUserAccount;
  run.to = f.system.ConsumerAddress();
  run.function = ConsumerContract::kRunFn;
  run.calldata = ConsumerContract::EncodeRun(1);
  f.system.Chain().SubmitAndMine(std::move(run));
  f.system.Daemon().PollAndServe();
  EXPECT_EQ(f.system.Consumer().values_received(), 0u);
}

TEST(SecurityE2E, TamperedRecordIsCaughtAtItsReadNotAtTheNextBatch) {
  // Four shards of four keys. The SP alters a stored value without touching
  // its tree. Epochs that write OTHER keys of the same shard neither re-hash
  // the tampered record nor notice it: the pre- and post-batch roots still
  // agree. The forgery surfaces when the key is read: its deliver reverts
  // on chain with a typed ProofReject, and no forged byte reaches the
  // consumer.
  SystemOptions options;
  options.shard_boundaries = IndexedKeyBoundaries(16, 4);
  GrubSystem system(options, MakeBL1());
  std::vector<std::pair<Bytes, Bytes>> records;
  for (uint64_t i = 0; i < 16; ++i) {
    records.emplace_back(MakeKey(i), Bytes(32, static_cast<uint8_t>(i + 1)));
  }
  system.Preload(records);
  const Bytes target = MakeKey(5);
  const uint32_t shard = system.Shards().ShardOf(target);
  ASSERT_EQ(system.Shards().ShardOf(MakeKey(4)), shard);
  ASSERT_EQ(system.Shards().ShardOf(MakeKey(6)), shard);

  const Bytes forged(32, 0xEE);
  system.ShardedSp().Shard(shard).TamperValueForTesting(target, forged);
  for (uint8_t epoch = 0; epoch < 3; ++epoch) {
    system.Write(MakeKey(4), Bytes(32, static_cast<uint8_t>(0x40 + epoch)));
    system.Write(MakeKey(6), Bytes(32, static_cast<uint8_t>(0x60 + epoch)));
    EXPECT_NO_THROW(system.EndEpoch()) << "epoch " << epoch;
  }
  EXPECT_EQ(system.ShardedSp().RootOfRoots(), system.Do().Root());

  // The SP serves the tampered record under its (honest) audit path.
  system.Consumer().QueueRead(target);
  chain::Transaction run;
  run.from = GrubSystem::kUserAccount;
  run.to = system.ConsumerAddress();
  run.function = ConsumerContract::kRunFn;
  run.calldata = ConsumerContract::EncodeRun(1);
  system.Chain().SubmitAndMine(std::move(run));
  DeliverEntry entry;
  entry.kind = DeliverEntry::Kind::kQuery;
  entry.query = system.ShardedSp().Get(target).value();
  ASSERT_EQ(entry.query.record.value, forged);
  entry.key = target;
  entry.callback_contract = system.ConsumerAddress();
  entry.callback_function = ConsumerContract::kOnDataFn;
  chain::Transaction deliver;
  deliver.from = GrubSystem::kSpAccount;
  deliver.to = system.ManagerAddress();
  deliver.function = StorageManagerContract::kDeliverFn;
  deliver.calldata = StorageManagerContract::EncodeDeliver({entry});
  const chain::Receipt receipt =
      system.Chain().SubmitAndMine(std::move(deliver));
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status.code(), StatusCode::kIntegrityViolation);
  EXPECT_NE(receipt.status.message().find(
                ads::Name(ads::ProofReject::kRootMismatch)),
            std::string::npos)
      << receipt.status.ToString();

  // The daemon's own deliver for the same pending read fails the same way.
  system.Daemon().PollAndServe();
  EXPECT_GE(system.Daemon().deliver_rejections(), 1u);
  for (const auto& [key, value] : system.Consumer().received()) {
    EXPECT_NE(value, forged) << "forged bytes reached the consumer";
  }
  EXPECT_EQ(system.Consumer().values_received(), 0u);
}

TEST(SecurityE2E, WithholdingSpIsLivenessNotIntegrity) {
  // An SP that never answers stalls reads (excluded DoS per the trust
  // model) but cannot make the consumer accept anything.
  Fixture f;
  f.system.Consumer().QueueRead(MakeKey(1));
  chain::Transaction run;
  run.from = GrubSystem::kUserAccount;
  run.to = f.system.ConsumerAddress();
  run.function = ConsumerContract::kRunFn;
  run.calldata = ConsumerContract::EncodeRun(1);
  f.system.Chain().SubmitAndMine(std::move(run));
  // No PollAndServe: the watchdog is silent.
  EXPECT_EQ(f.system.Consumer().values_received(), 0u);
  EXPECT_EQ(f.system.Consumer().misses_received(), 0u);
}

}  // namespace
}  // namespace grub::core
