// DO-side control plane: replica tracking from chain history, lazy vs eager
// actuation, eviction sweeps, and update-transaction composition.
#include <gtest/gtest.h>

#include "grub/system.h"
#include "workload/trace.h"

namespace grub::core {
namespace {

using workload::MakeKey;

TEST(DoClient, TracksLazyReplicationFromDeliverHistory) {
  GrubSystem system(SystemOptions{}, std::make_unique<MemorylessPolicy>(1));
  system.Preload({{MakeKey(0), Bytes(32, 1)}});

  system.ReadNow(MakeKey(0));  // flips the decision to R (K=1)
  system.ReadNow(MakeKey(0));  // the deliver materializes the replica
  system.EndEpoch();           // monitor decodes the deliver transactions
  EXPECT_EQ(system.Do().OnChainReplicas().count(MakeKey(0)), 1u);
}

TEST(DoClient, WriteEvictsMemorylessReplica) {
  GrubSystem system(SystemOptions{}, std::make_unique<MemorylessPolicy>(1));
  system.Preload({{MakeKey(0), Bytes(32, 1)}});
  system.ReadNow(MakeKey(0));
  system.ReadNow(MakeKey(0));
  system.EndEpoch();
  ASSERT_EQ(system.Do().OnChainReplicas().count(MakeKey(0)), 1u);

  system.Write(MakeKey(0), Bytes(32, 2));  // Algorithm 1: write -> NR
  system.EndEpoch();
  EXPECT_EQ(system.Do().OnChainReplicas().count(MakeKey(0)), 0u);
  // The next read misses (replica invalidated on chain).
  const uint64_t delivers = system.Daemon().delivers_sent();
  system.ReadNow(MakeKey(0));
  EXPECT_EQ(system.Daemon().delivers_sent(), delivers + 1);
}

TEST(DoClient, EagerReplicationForWriteTimeRDecisions) {
  // Static always-R: written values ride the update transaction and refresh
  // the on-chain replica without any deliver.
  GrubSystem system(SystemOptions{}, MakeBL2());
  system.Preload({{MakeKey(0), Bytes(32, 1)}});
  system.Write(MakeKey(0), Bytes(32, 2));
  system.EndEpoch();
  const uint64_t delivers = system.Daemon().delivers_sent();
  system.ReadNow(MakeKey(0));
  EXPECT_EQ(system.Daemon().delivers_sent(), delivers);  // replica hit
  EXPECT_EQ(system.Consumer().received().back().second, Bytes(32, 2));
}

TEST(DoClient, EmptyEpochIfDirtySendsNothing) {
  GrubSystem system(SystemOptions{}, MakeBL1());
  system.Preload({{MakeKey(0), Bytes(32, 1)}});
  const uint64_t gas = system.TotalGas();
  EXPECT_FALSE(system.Do().EndEpochIfDirty());
  EXPECT_EQ(system.TotalGas(), gas);
}

TEST(DoClient, DirtyEpochWithWritesPublishes) {
  GrubSystem system(SystemOptions{}, MakeBL1());
  system.Preload({{MakeKey(0), Bytes(32, 1)}});
  system.Write(MakeKey(0), Bytes(32, 2));
  const uint64_t gas = system.TotalGas();
  EXPECT_TRUE(system.Do().EndEpochIfDirty());
  EXPECT_GT(system.TotalGas(), gas);
}

TEST(DoClient, AdvisoryStateSteersDeliverImmediately) {
  // The decision travels to the SP without any on-chain action; the next
  // deliver carries the replicate instruction even before the root syncs.
  GrubSystem system(SystemOptions{}, std::make_unique<MemorylessPolicy>(1));
  system.Preload({{MakeKey(0), Bytes(32, 1)}});
  system.ReadNow(MakeKey(0));  // observation flips the policy to R
  EXPECT_EQ(system.Sp().EffectiveTier(MakeKey(0)),
            tier::StorageTier::kStorage);
  // But the authenticated record bit is still NR (no epoch close yet).
  EXPECT_EQ(system.Sp().Peek(MakeKey(0))->state, ads::ReplState::kNR);
}

TEST(DoClient, AuthenticatedStateSyncsOnWrite) {
  GrubSystem system(SystemOptions{}, MakeBL2());
  system.Preload({{MakeKey(0), Bytes(32, 1)}});
  system.Write(MakeKey(0), Bytes(32, 2));
  system.EndEpoch();
  EXPECT_EQ(system.Sp().Peek(MakeKey(0))->state, ads::ReplState::kR);
}

TEST(DoClient, RootAdvancesEveryPublishedEpoch) {
  GrubSystem system(SystemOptions{}, MakeBL1());
  system.Preload({{MakeKey(0), Bytes(32, 1)}});
  Hash256 last = system.Do().Root();
  for (uint8_t i = 2; i < 6; ++i) {
    system.Write(MakeKey(0), Bytes(32, i));
    system.EndEpoch();
    EXPECT_NE(system.Do().Root(), last);
    last = system.Do().Root();
    EXPECT_EQ(system.Sp().Root(), last);  // DO and SP never diverge
  }
}

TEST(DoClient, MultipleWritesSameEpochAllCharged) {
  // The paper's stream semantics: each update in a gPuts batch is applied
  // (and charged) individually for replicated records.
  GrubSystem system(SystemOptions{}, MakeBL2());
  system.Preload({{MakeKey(0), Bytes(32, 1)}});
  system.Write(MakeKey(0), Bytes(32, 2));
  system.Write(MakeKey(0), Bytes(32, 3));
  auto receipt_gas_before = system.TotalGas();
  system.EndEpoch();
  const uint64_t epoch_gas = system.TotalGas() - receipt_gas_before;

  GrubSystem single(SystemOptions{}, MakeBL2());
  single.Preload({{MakeKey(0), Bytes(32, 1)}});
  single.Write(MakeKey(0), Bytes(32, 2));
  auto gas_before = single.TotalGas();
  single.EndEpoch();
  const uint64_t single_gas = single.TotalGas() - gas_before;
  EXPECT_GT(epoch_gas, single_gas);
  // Final value is the last write.
  system.ReadNow(MakeKey(0));
  EXPECT_EQ(system.Consumer().received().back().second, Bytes(32, 3));
}

}  // namespace
}  // namespace grub::core
