// SpQuorum coordinator mechanics: construction contracts, N=1 pass-through,
// deterministic account derivation, ToJson shape, and the blacklist /
// failover / parole state machines driven by real adversaries.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "grub/system.h"
#include "telemetry/json.h"
#include "workload/trace.h"

namespace grub::core {
namespace {

using workload::MakeKey;

SystemOptions WithQuorum(size_t sps, const std::string& adversary = "",
                         uint64_t seed = 42) {
  SystemOptions options;
  options.sp_replicas = sps;
  options.adversary_spec = adversary;
  options.adversary_seed = seed;
  return options;
}

std::vector<std::pair<Bytes, Bytes>> SmallFeed(size_t n = 4) {
  std::vector<std::pair<Bytes, Bytes>> records;
  for (uint64_t i = 0; i < n; ++i) {
    records.emplace_back(MakeKey(i), Bytes(32, uint8_t(i + 1)));
  }
  return records;
}

TEST(SpQuorum, SingleReplicaIsTheDefaultAndPassesThrough) {
  GrubSystem system(SystemOptions{}, MakeBL1());
  EXPECT_EQ(system.Quorum().ReplicaCount(), 1u);
  EXPECT_EQ(system.Quorum().ActiveIndex(), 0u);
  EXPECT_EQ(&system.Quorum().Active(), &system.Quorum().Replica(0));
  system.Preload(SmallFeed());
  system.ReadNow(MakeKey(0));
  EXPECT_EQ(system.Consumer().values_received(), 1u);
  EXPECT_EQ(system.Quorum().Failovers(), 0u);
}

TEST(SpQuorum, ReplicaCountOutOfRangeThrows) {
  EXPECT_THROW(GrubSystem(WithQuorum(0), MakeBL1()), std::invalid_argument);
  EXPECT_THROW(GrubSystem(WithQuorum(9), MakeBL1()), std::invalid_argument);
}

TEST(SpQuorum, MalformedAdversarySpecThrowsInEveryBuild) {
  // A bad spec must fail fast at construction, before any replica runs.
  EXPECT_THROW(GrubSystem(WithQuorum(2, "not-a-class@1"), MakeBL1()),
               std::invalid_argument);
  EXPECT_THROW(GrubSystem(WithQuorum(2, "5:forge@1"), MakeBL1()),
               std::invalid_argument);
  EXPECT_THROW(GrubSystem(WithQuorum(2, "0:forge@1;0:omit*"), MakeBL1()),
               std::invalid_argument);
}

TEST(SpQuorum, ReplicaZeroKeepsTheCanonicalAccountAndStandbysAreDistinct) {
  GrubSystem system(WithQuorum(4), MakeBL1());
  system.Preload(SmallFeed());
  auto json = telemetry::ParseJson(system.Quorum().ToJson());
  ASSERT_TRUE(json.ok());
  const auto* sps = json->FindOfKind("sps", telemetry::JsonValue::Kind::kArray);
  ASSERT_NE(sps, nullptr);
  ASSERT_EQ(sps->Items().size(), 4u);
  std::set<uint64_t> accounts;
  for (const auto& sp : sps->Items()) {
    accounts.insert(sp.Find("account")->AsU64());
  }
  EXPECT_EQ(accounts.size(), 4u);  // all distinct
  EXPECT_EQ(sps->Items()[0].Find("account")->AsU64(),
            uint64_t(GrubSystem::kSpAccount));
}

TEST(SpQuorum, HonestMultiSpServesThroughReplicaZeroOnly) {
  GrubSystem system(WithQuorum(3), MakeBL1());
  system.Preload(SmallFeed());
  for (int i = 0; i < 6; ++i) system.ReadNow(MakeKey(i % 4));
  EXPECT_EQ(system.Consumer().values_received(), 6u);
  EXPECT_EQ(system.Quorum().Failovers(), 0u);
  EXPECT_EQ(system.Quorum().Blacklists(), 0u);
  EXPECT_EQ(system.Quorum().ActiveIndex(), 0u);
  EXPECT_GT(system.Quorum().Replica(0).delivers_sent(), 0u);
  EXPECT_EQ(system.Quorum().Replica(1).delivers_sent(), 0u);
  EXPECT_EQ(system.Quorum().Replica(2).delivers_sent(), 0u);
}

TEST(SpQuorum, ToJsonShapeIsStable) {
  GrubSystem system(WithQuorum(2), MakeBL1());
  auto json = telemetry::ParseJson(system.Quorum().ToJson());
  ASSERT_TRUE(json.ok());
  for (const char* key : {"replicas", "active", "failovers", "blacklists"}) {
    EXPECT_NE(json->FindOfKind(key, telemetry::JsonValue::Kind::kNumber),
              nullptr)
        << key;
  }
  const auto* sps = json->FindOfKind("sps", telemetry::JsonValue::Kind::kArray);
  ASSERT_NE(sps, nullptr);
  for (const auto& sp : sps->Items()) {
    for (const char* key :
         {"index", "account", "rejections", "delivers_sent",
          "deliver_rejections", "blacklisted_count"}) {
      EXPECT_NE(sp.FindOfKind(key, telemetry::JsonValue::Kind::kNumber),
                nullptr)
          << key;
    }
    EXPECT_NE(sp.FindOfKind("trust", telemetry::JsonValue::Kind::kString),
              nullptr);
    EXPECT_NE(sp.FindOfKind("adversary", telemetry::JsonValue::Kind::kString),
              nullptr);
  }
}

TEST(SpQuorum, VerifiedRejectionsBlacklistAndFailOverInTheSameCycle) {
  GrubSystem system(WithQuorum(2, "0:forge*"), MakeBL1());
  system.Preload(SmallFeed());
  // Two polls with forged proofs reach the blacklist threshold (default 2);
  // the promoted honest standby serves the whole backlog in the same cycle.
  system.ReadNow(MakeKey(0));
  EXPECT_EQ(system.Consumer().values_received(), 0u);  // rejected, pending
  system.ReadNow(MakeKey(1));
  EXPECT_EQ(system.Quorum().Blacklists(), 1u);
  EXPECT_EQ(system.Quorum().Failovers(), 1u);
  EXPECT_EQ(system.Quorum().ActiveIndex(), 1u);
  EXPECT_EQ(system.Quorum().TrustOf(0), SpTrust::kBlacklisted);
  EXPECT_EQ(system.Quorum().TrustOf(1), SpTrust::kActive);
  EXPECT_EQ(system.Quorum().RejectionsOf(0), 2u);
  // Convergence: both reads answered by the honest replica, values exact.
  EXPECT_EQ(system.Consumer().values_received(), 2u);
  for (const auto& [key, value] : system.Consumer().received()) {
    for (const auto& [feed_key, feed_value] : SmallFeed()) {
      if (key == feed_key) {
        EXPECT_EQ(value, feed_value);
      }
    }
  }
}

TEST(SpQuorum, AllByzantineQuorumParolesButNeverAcceptsForgedValues) {
  // Every replica forges every deliver: no SP ever lands a value, parole
  // cycles replicas, and integrity holds. Availability may still recover —
  // the DO's own watchdog degrades starved keys to replicated mode and
  // serves them from the on-chain replica — but every byte the consumer
  // sees must be honest feed data, never a forged proof's payload.
  GrubSystem system(WithQuorum(2, "0:forge*;1:forge*"), MakeBL1());
  system.Preload(SmallFeed());
  for (int i = 0; i < 8; ++i) system.ReadNow(MakeKey(i % 4));
  EXPECT_GE(system.Quorum().Blacklists(), 2u);
  EXPECT_GE(system.Quorum().Failovers(), 2u);
  for (const auto& [key, value] : system.Consumer().received()) {
    for (const auto& [feed_key, feed_value] : SmallFeed()) {
      if (key == feed_key) {
        EXPECT_EQ(value, feed_value);
      }
    }
  }
}

TEST(SpQuorum, DeterministicUnderSeed) {
  auto run = [](uint64_t seed) {
    GrubSystem system(WithQuorum(3, "0:forge~0.5,omit~0.2", seed), MakeBL1());
    system.Preload(SmallFeed());
    for (int i = 0; i < 12; ++i) system.ReadNow(MakeKey(i % 4));
    return std::make_pair(system.TotalGas(), system.Quorum().ToJson());
  };
  EXPECT_EQ(run(7), run(7));
  // Failover decisions and Gas are a pure function of (seed, spec).
}

TEST(SpQuorum, RejectedCalldataIsNeverResentVerbatim) {
  // The retry path distinguishes proof-REJECTED from tx-DROPPED: a dropped
  // deliver retries verbatim (it was honest, the network ate it), but a
  // provably-rejected one must never be resubmitted unchanged — the chain
  // already ruled, and re-sending would burn Gas on a known verdict. N=1 so
  // no failover can mask the daemon's own behavior.
  GrubSystem system(WithQuorum(1, "forge*"), MakeBL1());
  system.Preload(SmallFeed());
  system.Consumer().QueueRead(MakeKey(0));
  chain::Transaction tx;
  tx.from = GrubSystem::kUserAccount;
  tx.to = system.ConsumerAddress();
  tx.function = ConsumerContract::kRunFn;
  tx.calldata = ConsumerContract::EncodeRun(0);
  system.Chain().SubmitAndMine(std::move(tx));

  // First poll: the forged deliver is submitted and rejected on chain.
  EXPECT_EQ(system.Quorum().PollAndServe(), 0u);
  EXPECT_EQ(system.Quorum().Replica(0).deliver_rejections(), 1u);
  const uint64_t gas_after_verdict = system.TotalGas();

  // Later polls rebuild byte-identical calldata from the same pending set:
  // the quarantine counts each as a rejection WITHOUT resubmitting — no tx,
  // not one unit of Gas.
  EXPECT_EQ(system.Quorum().PollAndServe(), 0u);
  EXPECT_EQ(system.Quorum().PollAndServe(), 0u);
  EXPECT_EQ(system.Quorum().Replica(0).deliver_rejections(), 3u);
  EXPECT_EQ(system.TotalGas(), gas_after_verdict);
  EXPECT_EQ(system.Quorum().Replica(0).delivers_sent(), 0u);
  EXPECT_EQ(system.Consumer().values_received(), 0u);
}

TEST(SpQuorum, LivenessStallBlacklistsASilentActive) {
  // Replica 0 omits every batch: no rejection ever lands on chain, so only
  // the liveness watchdog (oldest pending unchanged for
  // SpQuorum::kLivenessTimeoutPolls) can catch it.
  GrubSystem system(WithQuorum(2, "0:omit*"), MakeBL1());
  system.Preload(SmallFeed());
  for (int i = 0; i < 6; ++i) system.ReadNow(MakeKey(0));
  EXPECT_GE(system.Quorum().Failovers(), 1u);
  EXPECT_EQ(system.Quorum().TrustOf(1), SpTrust::kActive);
  // The honest standby drained the backlog once promoted.
  EXPECT_GT(system.Consumer().values_received(), 0u);
}

TEST(SpQuorum, ByzantineFeedFailsOverWithoutTouchingItsNeighbour) {
  // Multi-feed tenancy: each feed owns its quorum. Feed 0 is under attack
  // behind a 2-replica quorum, feed 1 is a classic single honest SP on the
  // SAME chain — the blast radius of a Byzantine SP is its own feed, and
  // even there failover restores every read.
  SystemOptions attacked;
  attacked.ops_per_tx = 1;  // one poll per read: enough polls to blacklist
  attacked.sp_replicas = 2;
  attacked.adversary_spec = "0:forge*";
  FeedOptions honest;
  honest.ops_per_tx = 1;
  GrubSystem system(attacked, MakeBL1());
  const size_t f0 = 0;
  const size_t f1 = system.AddFeed(honest, MakeBL1());
  system.Preload(f0, SmallFeed());
  system.Preload(f1, SmallFeed());

  workload::Trace reads;
  for (uint64_t i = 0; i < 6; ++i) {
    reads.push_back(workload::Operation::Read(MakeKey(i % 4)));
  }
  system.DriveAll({reads, reads});

  Feed& attacked_feed = system.FeedAt(f0);
  Feed& honest_feed = system.FeedAt(f1);
  EXPECT_GE(attacked_feed.Quorum().Failovers(), 1u);
  EXPECT_EQ(attacked_feed.Quorum().TrustOf(0), SpTrust::kBlacklisted);
  EXPECT_GE(attacked_feed.Consumer().values_received() +
                attacked_feed.Consumer().misses_received(),
            reads.size());
  // The honest neighbour never noticed.
  EXPECT_EQ(honest_feed.Quorum().ReplicaCount(), 1u);
  EXPECT_EQ(honest_feed.Quorum().Failovers(), 0u);
  EXPECT_EQ(honest_feed.Consumer().values_received(), reads.size());
}

}  // namespace
}  // namespace grub::core
