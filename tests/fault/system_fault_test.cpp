// End-to-end fault matrix over the assembled system: integrity is never
// violated, liveness is restored by the recovery machinery, runs are
// seed-deterministic, and Gas converges back to the fault-free steady state
// once the faults stop firing.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "grub/system.h"
#include "workload/trace.h"

namespace grub::core {
namespace {

using workload::MakeKey;
using workload::Operation;
using workload::Trace;

SystemOptions WithSchedule(const std::string& schedule, uint64_t seed = 42) {
  SystemOptions options;
  options.fault_schedule = schedule;
  options.fault_seed = seed;
  return options;
}

std::vector<std::pair<Bytes, Bytes>> SmallFeed(size_t n = 4) {
  std::vector<std::pair<Bytes, Bytes>> records;
  for (uint64_t i = 0; i < n; ++i) {
    records.emplace_back(MakeKey(i), Bytes(32, uint8_t(i + 1)));
  }
  return records;
}

TEST(SystemFault, NoScheduleMeansNoInjector) {
  GrubSystem system(SystemOptions{}, MakeBL1());
  EXPECT_EQ(system.Faults(), nullptr);
}

TEST(SystemFault, MalformedScheduleThrowsAtConstruction) {
  EXPECT_THROW(GrubSystem(WithSchedule("sp.deliver.drop"), MakeBL1()),
               std::invalid_argument);
  EXPECT_THROW(GrubSystem(WithSchedule("~0.5"), MakeBL1()),
               std::invalid_argument);
}

TEST(SystemFault, DormantScheduleIsGasIdenticalToNoSchedule) {
  // A loaded injector whose rules never trigger must not perturb Gas at all:
  // the fault points only observe, they never spend.
  GrubSystem clean(SystemOptions{}, MakeBL1());
  GrubSystem dormant(WithSchedule("sp.deliver.drop@1000000"), MakeBL1());
  for (auto* system : {&clean, &dormant}) {
    system->Preload(SmallFeed());
    for (int i = 0; i < 8; ++i) system->ReadNow(MakeKey(i % 4));
    system->Write(MakeKey(1), Bytes(32, 0x77));
    system->EndEpoch();
  }
  EXPECT_EQ(clean.TotalGas(), dormant.TotalGas());
  ASSERT_NE(dormant.Faults(), nullptr);
  EXPECT_EQ(dormant.Faults()->TotalFires(), 0u);
}

TEST(SystemFault, DroppedDeliverIsRetriedAndServed) {
  GrubSystem system(WithSchedule("sp.deliver.drop@1"), MakeBL1());
  system.Preload(SmallFeed());
  system.ReadNow(MakeKey(0));
  // The first submission attempt was lost; the backoff resubmission landed.
  EXPECT_EQ(system.Daemon().deliver_retries(), 1u);
  EXPECT_EQ(system.Daemon().consecutive_failures(), 0u);
  EXPECT_EQ(system.Consumer().values_received(), 1u);
}

TEST(SystemFault, ExhaustedDeliverRetriesAreServedByTheNextPoll) {
  // All three attempts of the first deliver are lost; the requests stay
  // pending on chain and the next poll re-serves them.
  GrubSystem system(WithSchedule("sp.deliver.drop*x3"), MakeBL1());
  system.Preload(SmallFeed());
  system.ReadNow(MakeKey(0));
  EXPECT_EQ(system.Consumer().values_received(), 0u);
  EXPECT_EQ(system.Daemon().deliver_retries(), 2u);
  EXPECT_GE(system.Daemon().consecutive_failures(), 1u);

  system.ReadNow(MakeKey(1));  // next poll serves both requests
  EXPECT_EQ(system.Consumer().values_received(), 2u);
  EXPECT_EQ(system.Daemon().consecutive_failures(), 0u);
}

TEST(SystemFault, CorruptProofIsRejectedOnChainAndReproved) {
  // Integrity: a deliver carrying a corrupted proof must be rejected by the
  // on-chain verifier — the consumer NEVER sees an unverified value — and
  // the honest re-proof serves the request.
  GrubSystem system(WithSchedule("sp.proof.corrupt@1"), MakeBL1());
  system.Preload(SmallFeed());
  system.ReadNow(MakeKey(0));
  EXPECT_EQ(system.Consumer().values_received(), 0u);
  EXPECT_GE(system.Daemon().consecutive_failures(), 1u);

  system.ReadNow(MakeKey(1));  // re-proves honestly, serves both
  EXPECT_EQ(system.Consumer().values_received(), 2u);
  // Every delivered value is byte-exact — the corruption never got through.
  for (const auto& [key, value] : system.Consumer().received()) {
    for (const auto& [feed_key, feed_value] : SmallFeed()) {
      if (key == feed_key) {
        EXPECT_EQ(value, feed_value);
      }
    }
  }
}

TEST(SystemFault, DroppedUpdateIsResubmittedWithTheSameDigest) {
  GrubSystem system(WithSchedule("do.update.drop@1"), MakeBL1());
  system.Preload(SmallFeed());
  EXPECT_EQ(system.Do().update_retries(), 1u);
  // The resubmitted update carried the identical digest: proofs built
  // against the DO's root verify on chain, so reads serve normally.
  system.ReadNow(MakeKey(0));
  EXPECT_EQ(system.Consumer().values_received(), 1u);
}

TEST(SystemFault, CrashedDaemonTriggersWatchdogDegradationAndRecovery) {
  // The SP daemon crashes on its first 6 polls. Reads starve, the DO's
  // watchdog re-emits them, degradation force-replicates the hot keys (BL2
  // fallback, reads keep being answered), and when the SP returns and the
  // backlog drains the DO un-degrades.
  GrubSystem system(WithSchedule("sp.crash*x6"), MakeBL1());
  system.Preload(SmallFeed());

  bool saw_degraded = false;
  for (int i = 0; i < 12; ++i) {
    system.ReadNow(MakeKey(i % 4));
    saw_degraded = saw_degraded || system.Do().degraded();
  }

  EXPECT_TRUE(saw_degraded);
  EXPECT_GT(system.Do().watchdog_reemits(), 0u);
  // Liveness restored: every one of the 12 reads was answered (re-served
  // requests may answer more than once; never less).
  EXPECT_GE(system.Consumer().values_received() +
                system.Consumer().misses_received(),
            12u);
  // The SP is back and the backlog drained: degraded mode ended.
  EXPECT_FALSE(system.Do().degraded());
  EXPECT_EQ(system.Daemon().consecutive_failures(), 0u);
}

TEST(SystemFault, ReorgReplaysTransactionsAndConverges) {
  GrubSystem system(WithSchedule("chain.reorg%5x2"), MakeBL1());
  system.Preload(SmallFeed());
  for (int i = 0; i < 10; ++i) {
    system.ReadNow(MakeKey(i % 4));
    if (i % 3 == 0) {
      system.Write(MakeKey(uint64_t(i % 4)), Bytes(32, uint8_t(0x40 + i)));
      system.EndEpoch();
    }
  }
  ASSERT_EQ(system.Faults()->Fires("chain.reorg"), 2u);
  // Orphaned transactions re-entered the mempool and re-executed: the DO's
  // root and the SP's root agree, and reads were all answered (re-execution
  // may double-fire app callbacks; it never loses one).
  EXPECT_EQ(system.Do().Root(), system.Sp().Root());
  EXPECT_GE(system.Consumer().values_received(), 10u);
  // The system keeps working after the reorgs.
  system.ReadNow(MakeKey(2));
  EXPECT_GE(system.Consumer().values_received(), 11u);
}

TEST(SystemFault, SameSeedAndScheduleReproducesTheRunExactly) {
  // Acceptance criterion: a probabilistic schedule under a fixed seed yields
  // bit-identical Gas totals, retry counts, fire counts and final state.
  auto run = [](uint64_t seed) {
    GrubSystem system(
        WithSchedule("sp.deliver.drop~0.3,do.update.drop~0.2", seed),
        MakeBL1());
    system.Preload(SmallFeed());
    for (int i = 0; i < 16; ++i) {
      system.ReadNow(MakeKey(i % 4));
      if (i % 5 == 0) {
        system.Write(MakeKey(uint64_t(i % 4)), Bytes(32, uint8_t(i + 1)));
        system.EndEpoch();
      }
    }
    return std::make_tuple(system.TotalGas(), system.Daemon().deliver_retries(),
                           system.Do().update_retries(),
                           system.Faults()->FireCounts(), system.Do().Root());
  };
  EXPECT_EQ(run(1234), run(1234));
}

TEST(SystemFault, GasConvergesToFaultFreeSteadyStateAfterFaults) {
  // Fault in epoch 1 only; by the final epoch the per-epoch Gas must be
  // byte-identical to a fault-free twin driven with the same trace.
  Trace trace;
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (int i = 0; i < 32; ++i) {
      trace.push_back(Operation::Read(MakeKey(uint64_t(i % 4))));
    }
  }

  GrubSystem clean(SystemOptions{}, MakeBL1());
  clean.Preload(SmallFeed());
  auto clean_epochs = clean.Drive(trace);

  GrubSystem faulty(WithSchedule("sp.crash@1x1"), MakeBL1());
  faulty.Preload(SmallFeed());
  auto faulty_epochs = faulty.Drive(trace);

  ASSERT_EQ(clean_epochs.size(), faulty_epochs.size());
  ASSERT_GE(clean_epochs.size(), 3u);
  EXPECT_EQ(faulty_epochs.back().gas, clean_epochs.back().gas);
  EXPECT_EQ(faulty_epochs.back().ops, clean_epochs.back().ops);
}

TEST(SystemFault, CrashedSpDegradesInChunkedRecoveryUpdates) {
  // A crashed SP starves a whole 640-read group. Degradation
  // force-replicates every starved key, which is more calldata than one
  // update() may carry, so the forced set must ship in chunks inside the
  // Ctx(X) bound. The SP is untrusted: its outage must not abort the DO.
  constexpr size_t kKeys = 640;
  SystemOptions options = WithSchedule("sp.crash*");
  options.ops_per_tx = kKeys;
  GrubSystem system(options, MakeBL1());
  system.Preload(SmallFeed(kKeys));
  Trace trace;
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t i = 0; i < kKeys; ++i) {
      trace.push_back(Operation::Read(MakeKey(i)));
    }
  }
  system.Drive(trace);

  size_t recovery_updates = 0;
  for (const auto& block : system.Chain().Blocks()) {
    for (const auto& tx : block.transactions) {
      EXPECT_LT(tx.calldata.size(), chain::GasSchedule::kMaxCalldataBytes);
      if (tx.function == StorageManagerContract::kUpdateFn &&
          tx.cause == telemetry::GasCause::kRecovery) {
        recovery_updates += 1;
      }
    }
  }
  EXPECT_GT(system.Faults()->Fires("sp.crash"), 0u);
  EXPECT_TRUE(system.Do().degraded());
  EXPECT_GE(recovery_updates, 2u);  // the forced set did not fit one tx
  // With the SP down for good, the forced replicas answered the reads.
  EXPECT_GE(system.Consumer().values_received(), kKeys);
}

TEST(SystemFault, KvFaultsReachTheSpBackingStore) {
  // The injector threads through GrubSystem -> AdsSp -> KVStore only when
  // the SP has a persistent backing store; smoke-check the wiring end to
  // end with a real db path.
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("grub_sysfault_kv_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  {
    SystemOptions options = WithSchedule("kv.wal.append_fail@1000000");
    options.sp_db_path = dir;
    GrubSystem system(options, MakeBL1());
    system.Preload(SmallFeed());
    // Preload wrote through the KVStore: the WAL fault point took hits.
    EXPECT_GT(system.Faults()->Hits("kv.wal.append_fail"), 0u);
  }
  fs::remove_all(dir);
  {
    // Without a db path there is no store to reach: neither the SP nor the
    // DO writes a KVStore while preloading and closing an epoch.
    GrubSystem system(WithSchedule("kv.wal.append_fail*"), MakeBL1());
    system.Preload(SmallFeed());
    system.Write(MakeKey(0), Bytes(32, 0x7A));
    system.EndEpoch();
    EXPECT_EQ(system.Faults()->Hits("kv.wal.append_fail"), 0u);
  }
}

}  // namespace
}  // namespace grub::core
