// End-to-end Byzantine-SP matrix: one seeded scenario per adversary class,
// each over a 2-replica quorum (replica 0 Byzantine, replica 1 honest).
// Every scenario proves the full chain the ISSUE demands:
//   detection  — the attack is provably rejected (or stalls the liveness
//                watchdog) and charged to the attacking replica;
//   failover   — the coordinator blacklists it and promotes the standby;
//   convergence— every issued read is eventually answered with byte-exact
//                values; no forged byte ever reaches the consumer.
#include <gtest/gtest.h>

#include <string>

#include "grub/system.h"
#include "workload/trace.h"

namespace grub::core {
namespace {

using workload::MakeKey;

std::vector<std::pair<Bytes, Bytes>> SmallFeed(size_t n = 4) {
  std::vector<std::pair<Bytes, Bytes>> records;
  for (uint64_t i = 0; i < n; ++i) {
    records.emplace_back(MakeKey(i), Bytes(32, uint8_t(i + 1)));
  }
  return records;
}

GrubSystem TwoSpSystem(const std::string& adversary) {
  SystemOptions options;
  options.sp_replicas = 2;
  options.adversary_spec = adversary;
  options.adversary_seed = 42;
  return GrubSystem(options, MakeBL1());
}

/// Every value the consumer accepted must be byte-exact feed data. `feed`
/// may hold several entries per key (a key updated mid-test has two honest
/// values: reads before and after the write).
void ExpectValuesExact(GrubSystem& system,
                       std::vector<std::pair<Bytes, Bytes>> feed = SmallFeed()) {
  for (const auto& [key, value] : system.Consumer().received()) {
    bool known = false;
    bool honest = false;
    for (const auto& [feed_key, feed_value] : feed) {
      if (key != feed_key) continue;
      known = true;
      honest |= value == feed_value;
    }
    EXPECT_TRUE(known) << "value for a key the feed never held";
    EXPECT_TRUE(honest) << "forged bytes reached the consumer";
  }
}

void ExpectDetectedAndConverged(
    GrubSystem& system, size_t issued_reads,
    std::vector<std::pair<Bytes, Bytes>> feed = SmallFeed()) {
  EXPECT_GE(system.Quorum().Blacklists(), 1u);
  EXPECT_GE(system.Quorum().Failovers(), 1u);
  EXPECT_EQ(system.Quorum().TrustOf(1), SpTrust::kActive);
  EXPECT_GT(system.Quorum().Replica(1).delivers_sent(), 0u);
  // Convergence: the honest standby answered everything (re-served requests
  // may answer more than once; never less).
  EXPECT_GE(system.Consumer().values_received() +
                system.Consumer().misses_received(),
            issued_reads);
  ExpectValuesExact(system, std::move(feed));
  // The detection counters feed the robustness rollup end to end.
  const telemetry::RobustnessTotals totals = system.Robustness();
  EXPECT_EQ(totals.sp_failovers, system.Quorum().Failovers());
}

TEST(AdversaryE2E, ForgedProofIsRejectedThenFailedOver) {
  GrubSystem system = TwoSpSystem("0:forge*");
  system.Preload(SmallFeed());
  size_t reads = 0;
  for (int i = 0; i < 4; ++i, ++reads) system.ReadNow(MakeKey(i % 4));
  EXPECT_GE(system.Quorum().RejectionsOf(0), 2u);
  EXPECT_EQ(system.Quorum().TrustOf(0), SpTrust::kBlacklisted);
  ExpectDetectedAndConverged(system, reads);
}

TEST(AdversaryE2E, TruncatedPathIsRejectedThenFailedOver) {
  GrubSystem system = TwoSpSystem("0:truncate*");
  system.Preload(SmallFeed());
  size_t reads = 0;
  for (int i = 0; i < 4; ++i, ++reads) system.ReadNow(MakeKey(i % 4));
  EXPECT_GE(system.Quorum().RejectionsOf(0), 2u);
  ExpectDetectedAndConverged(system, reads);
}

TEST(AdversaryE2E, StaleRootReplayIsRejectedOnceTheRootMoves) {
  GrubSystem system = TwoSpSystem("0:stale-root*");
  system.Preload(SmallFeed());
  // First read caches the (then-fresh) proof: the substitution is an
  // identity and the deliver passes — a stale-root attack needs staleness.
  system.ReadNow(MakeKey(0));
  EXPECT_EQ(system.Consumer().values_received(), 1u);
  // Advance the root, then read the same key: the cached proof is now from
  // a dead epoch and the contract's root comparison rejects it.
  system.Write(MakeKey(0), Bytes(32, 0x7A));
  system.EndEpoch();
  size_t reads = 1;
  for (int i = 0; i < 4; ++i, ++reads) system.ReadNow(MakeKey(0));
  EXPECT_GE(system.Quorum().RejectionsOf(0), 2u);
  auto feed = SmallFeed();
  feed.emplace_back(MakeKey(0), Bytes(32, 0x7A));  // post-write honest value
  ExpectDetectedAndConverged(system, reads, std::move(feed));
}

TEST(AdversaryE2E, EquivocatingForkIsRejectedThenFailedOver) {
  // The fork is SELF-consistent (its one-leaf tree verifies internally), so
  // this scenario specifically proves the committed-root comparison — not
  // structural checks — is what detects equivocation.
  GrubSystem system = TwoSpSystem("0:equivocate*");
  system.Preload(SmallFeed());
  size_t reads = 0;
  for (int i = 0; i < 4; ++i, ++reads) system.ReadNow(MakeKey(i % 4));
  EXPECT_GE(system.Quorum().RejectionsOf(0), 2u);
  ExpectDetectedAndConverged(system, reads);
}

TEST(AdversaryE2E, SelectiveOmissionTripsTheLivenessWatchdog) {
  // Omission leaves no on-chain evidence (nothing is submitted), so the
  // detection path is the stall detector over the chain's OWN pending set —
  // never the SP's self-reported state.
  GrubSystem system = TwoSpSystem("0:omit*");
  system.Preload(SmallFeed());
  size_t reads = 0;
  for (int i = 0; i < 7; ++i, ++reads) system.ReadNow(MakeKey(i % 4));
  EXPECT_EQ(system.Quorum().RejectionsOf(0), 0u);  // nothing provable
  ExpectDetectedAndConverged(system, reads);
}

TEST(AdversaryE2E, LoneOmittingSpDegradesInChunkedRecoveryUpdates) {
  // With no standby to fail over to, an SP that omits everything starves a
  // whole 640-read group, and the DO degrades: it force-replicates every
  // starved key. That set is more calldata than one update() may carry, so
  // it must ship in chunks inside the Ctx(X) bound — the SP decides how
  // many reads starve, and must not be able to abort the DO with it.
  constexpr size_t kKeys = 640;
  SystemOptions options;
  options.adversary_spec = "omit*";
  options.ops_per_tx = kKeys;
  GrubSystem system(options, MakeBL1());
  const auto feed = SmallFeed(kKeys);
  system.Preload(feed);
  workload::Trace trace;
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t i = 0; i < kKeys; ++i) {
      trace.push_back(workload::Operation::Read(MakeKey(i)));
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
  EXPECT_EQ(system.Quorum().Replica(0).delivers_sent(), 0u);
  EXPECT_TRUE(system.Do().degraded());
  EXPECT_GE(recovery_updates, 2u);  // the forced set did not fit one tx
  // The forced replicas answered the reads, with the DO's own values.
  EXPECT_GE(system.Consumer().values_received(), kKeys);
  ExpectValuesExact(system, feed);
}

TEST(AdversaryE2E, ReplayedDeliverIsRejectedByThePendingLedger) {
  GrubSystem system = TwoSpSystem("0:replay*");
  system.Preload(SmallFeed());
  // First deliver is honest (nothing to replay yet) and gets cached.
  system.ReadNow(MakeKey(0));
  EXPECT_EQ(system.Consumer().values_received(), 1u);
  // Every later poll resubmits that accepted deliver verbatim: all proofs
  // still verify against the live root — only the contract's unmetered
  // pending-request ledger proves the request was already answered.
  size_t reads = 1;
  for (int i = 1; i < 5; ++i, ++reads) system.ReadNow(MakeKey(i % 4));
  EXPECT_GE(system.Quorum().RejectionsOf(0), 2u);
  ExpectDetectedAndConverged(system, reads);
  // The replayed callback never double-fired: key 0 was answered exactly
  // once before the attack started, and the convergence serves are for the
  // OTHER keys.
  EXPECT_GE(system.Consumer().values_received(), 5u);
}

TEST(AdversaryE2E, HonestTwoSpRunFiresNoAdversaryMachinery) {
  // Armed with nothing: a 2-replica honest quorum behaves exactly like the
  // classic single-SP feed, in every build.
  GrubSystem system = TwoSpSystem("");
  system.Preload(SmallFeed());
  for (int i = 0; i < 4; ++i) system.ReadNow(MakeKey(i % 4));
  EXPECT_EQ(system.Consumer().values_received(), 4u);
  EXPECT_EQ(system.Quorum().Failovers(), 0u);
  EXPECT_EQ(system.Quorum().Blacklists(), 0u);
  EXPECT_EQ(system.Robustness().deliver_rejections, 0u);
  ExpectValuesExact(system);
}

}  // namespace
}  // namespace grub::core
