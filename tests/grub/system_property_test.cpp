// System-level properties over randomized workloads:
//  * determinism: identical traces yield identical Gas, roots, and data;
//  * delivery totality: every read is answered (value or proven absence);
//  * adaptivity: converged GRuB never loses to BOTH static baselines;
//  * state agreement: DO and SP roots never diverge at epoch boundaries;
//  * replica tracking: the DO's record of live replicas and log-tier pins
//    equals what contract storage holds, also under faults once the
//    mempool is drained.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <set>

#include "common/rng.h"
#include "grub/system.h"
#include "tier/tier.h"
#include "workload/trace.h"

namespace grub::core {
namespace {

using workload::MakeKey;
using workload::Operation;
using workload::Trace;

Trace RandomTrace(uint64_t seed, size_t ops, size_t keys) {
  Rng rng(seed);
  Trace trace;
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t key = rng.NextBounded(keys);
    if (rng.NextBool(0.4)) {
      Bytes value(32);
      for (auto& b : value) b = static_cast<uint8_t>(rng.NextU64() & 0xFF);
      trace.push_back(Operation::Write(MakeKey(key), std::move(value)));
    } else {
      trace.push_back(Operation::Read(MakeKey(key)));
    }
  }
  return trace;
}

std::vector<std::pair<Bytes, Bytes>> Preload(size_t keys) {
  std::vector<std::pair<Bytes, Bytes>> records;
  for (uint64_t i = 0; i < keys; ++i) {
    records.emplace_back(MakeKey(i), Bytes(32, 0x11));
  }
  return records;
}

class SystemPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SystemPropertyTest, RunsAreDeterministic) {
  auto trace = RandomTrace(GetParam(), 200, 8);
  auto run = [&] {
    GrubSystem system(SystemOptions{},
                      std::make_unique<MemorylessPolicy>(2));
    system.Preload(Preload(8));
    system.Drive(trace);
    return std::make_tuple(system.TotalGas(), system.Do().Root(),
                           system.Consumer().received());
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
}

TEST_P(SystemPropertyTest, EveryReadIsAnswered) {
  auto trace = RandomTrace(GetParam() + 100, 300, 6);
  size_t reads = 0;
  for (const auto& op : trace) {
    reads += op.type == workload::OpType::kRead ? 1 : 0;
  }
  GrubSystem system(SystemOptions{},
                    std::make_unique<MemorizingPolicy>(2, 1));
  system.Preload(Preload(6));
  system.Drive(trace);
  EXPECT_EQ(system.Consumer().values_received() +
                system.Consumer().misses_received(),
            reads);
  EXPECT_EQ(system.Consumer().misses_received(), 0u);  // all keys preloaded
}

TEST_P(SystemPropertyTest, ReadsAlwaysSeeLastPublishedValue) {
  // Model check: a read must return the value of the last write that was
  // published (epoch-closed) before the read's transaction group.
  auto trace = RandomTrace(GetParam() + 200, 160, 4);
  SystemOptions options;
  options.ops_per_tx = 8;  // small groups: many epoch boundaries
  GrubSystem system(options, std::make_unique<MemorylessPolicy>(1));
  system.Preload(Preload(4));

  // Reference: replay the trace tracking published values per epoch.
  std::map<Bytes, Bytes> published;
  std::map<Bytes, Bytes> pending;
  for (const auto& [k, v] : Preload(4)) published[k] = v;
  std::vector<std::pair<Bytes, Bytes>> expected;  // (key, value) per read
  size_t in_group = 0;
  for (const auto& op : trace) {
    if (op.type == workload::OpType::kWrite) {
      pending[op.key] = op.value;
    } else {
      expected.emplace_back(op.key, published[op.key]);
    }
    if (++in_group == options.ops_per_tx) {
      for (auto& [k, v] : pending) published[k] = v;
      pending.clear();
      in_group = 0;
    }
  }

  system.Drive(trace);
  // Replica hits answer synchronously inside the run transaction while
  // misses arrive with the (later) deliver, so the GLOBAL delivery order
  // interleaves; per-key order is preserved. Compare per key.
  std::map<Bytes, std::deque<Bytes>> expected_per_key;
  for (auto& [key, value] : expected) expected_per_key[key].push_back(value);
  const auto& received = system.Consumer().received();
  ASSERT_EQ(received.size(), expected.size());
  for (size_t i = 0; i < received.size(); ++i) {
    auto& queue = expected_per_key[received[i].first];
    ASSERT_FALSE(queue.empty()) << "unexpected delivery at " << i;
    EXPECT_EQ(received[i].second, queue.front()) << i;
    queue.pop_front();
  }
}

TEST_P(SystemPropertyTest, ConvergedGrubNeverLosesToBothBaselines) {
  auto trace = RandomTrace(GetParam() + 300, 400, 4);
  auto converged = [&](std::unique_ptr<ReplicationPolicy> policy) {
    GrubSystem system(SystemOptions{}, std::move(policy));
    system.Preload(Preload(4));
    system.Drive(trace);
    system.Chain().ResetGasCounters();
    system.Drive(trace);
    return system.TotalGas();
  };
  const uint64_t bl1 = converged(MakeBL1());
  const uint64_t bl2 = converged(MakeBL2());
  const uint64_t grub = converged(std::make_unique<MemorizingPolicy>(2, 1));
  EXPECT_LE(grub, std::max(bl1, bl2))
      << "grub=" << grub << " bl1=" << bl1 << " bl2=" << bl2;
}

TEST_P(SystemPropertyTest, DoAndSpRootsAgreeAtEveryEpoch) {
  auto trace = RandomTrace(GetParam() + 400, 120, 5);
  SystemOptions options;
  options.ops_per_tx = 10;
  GrubSystem system(options, std::make_unique<MemorylessPolicy>(1));
  system.Preload(Preload(5));
  // Drive in slices, checking agreement at each boundary.
  for (size_t start = 0; start < trace.size(); start += 30) {
    Trace slice(trace.begin() + static_cast<long>(start),
                trace.begin() + static_cast<long>(
                                    std::min(start + 30, trace.size())));
    system.Drive(slice);
    EXPECT_EQ(system.Do().Root(), system.Sp().Root()) << "slice " << start;
  }
}

// The keys among MakeKey(0..keys) whose slot (per `slot_of`) is non-zero in
// the feed's contract storage.
std::set<Bytes> KeysWithLiveSlot(GrubSystem& system, size_t keys,
                                 Word (*slot_of)(ByteSpan)) {
  const chain::ContractStorage& storage =
      system.Chain().StorageOf(system.ManagerAddress());
  std::set<Bytes> live;
  for (uint64_t i = 0; i < keys; ++i) {
    const Bytes key = MakeKey(i);
    if (!storage.Load(slot_of(key)).IsZero()) live.insert(key);
  }
  return live;
}

std::set<Bytes> Sorted(const KeySet& keys) {
  std::set<Bytes> sorted;
  keys.ForEach([&](ByteSpan key) { sorted.emplace(key.begin(), key.end()); });
  return sorted;
}

// Under faults the DO's record and contract storage differ only by the
// transactions still in the mempool when Drive returns: orphaned by the
// run's last reorg, or delayed. Draining them (faults off, mine until the
// mempool is empty, one more epoch close to fold the landed delivers and
// publish what the DO decided meanwhile) leaves the two equal: no update
// is lost.
void DrainMempool(GrubSystem& system) {
  system.Chain().SetFaultInjector(nullptr);
  while (!system.Chain().MineBlock().empty()) {
  }
  system.Do().EndEpoch();
}

TEST_P(SystemPropertyTest, TrackedReplicasEqualLiveLengthSlots) {
  constexpr size_t kKeys = 96;
  const auto trace = RandomTrace(GetParam() + 500, 600, kKeys);
  const std::vector<std::function<std::unique_ptr<ReplicationPolicy>()>>
      policies = {
          [] { return std::make_unique<MemorylessPolicy>(2); },
          [] { return std::make_unique<MemorizingPolicy>(2, 1); },
          [] { return std::make_unique<AdaptiveK1Policy>(2); },
          [] { return MakeBL2(); },
      };
  for (const char* schedule :
       {"", "sp.deliver.drop@2", "chain.reorg%6", "chain.tx.delay%4"}) {
    uint64_t fires = 0;  // BL2 never delivers, so drop@2 cannot fire there
    for (size_t p = 0; p < policies.size(); ++p) {
      for (size_t shards : {1, 4}) {
        SystemOptions options;
        options.shards = shards;
        if (shards > 1) {
          options.shard_boundaries = IndexedKeyBoundaries(kKeys, shards);
        }
        options.fault_schedule = schedule;
        GrubSystem system(options, policies[p]());
        system.Preload(Preload(kKeys));
        system.Drive(trace);
        if (system.Faults() != nullptr) {
          fires += system.Faults()->TotalFires();
          DrainMempool(system);
        }
        EXPECT_EQ(Sorted(system.Do().OnChainReplicas()),
                  KeysWithLiveSlot(system, kKeys,
                                   &StorageManagerContract::LenSlot))
            << "policy " << system.Do().Policy().Name() << " shards "
            << shards << " schedule '" << schedule << "'";
      }
    }
    if (*schedule != '\0') {
      EXPECT_GT(fires, 0u) << schedule;
    }
  }
}

// Places a key on the log tier after an odd number of writes and off chain
// after an even number, so one run both pins and unpins.
class AlternatingLogPolicy : public ReplicationPolicy {
 public:
  TierStep Observe(const Operation& op) override {
    const tier::StorageTier before = TierOf(op.key);
    if (op.type == workload::OpType::kWrite) writes_[op.key] += 1;
    return {before, TierOf(op.key)};
  }
  ads::ReplState StateOf(const Bytes&) const override {
    return ads::ReplState::kNR;
  }
  tier::StorageTier TierOf(const Bytes& key) const override {
    auto it = writes_.find(key);
    return it != writes_.end() && it->second % 2 == 1
               ? tier::StorageTier::kLog
               : tier::StorageTier::kOffchain;
  }
  std::string Name() const override { return "alternating-log"; }

 private:
  std::map<Bytes, uint64_t> writes_;
};

TEST_P(SystemPropertyTest, TrackedLogPinsEqualLiveDigestPins) {
  constexpr size_t kKeys = 96;
  const auto trace = RandomTrace(GetParam() + 600, 600, kKeys);
  for (const char* schedule :
       {"", "sp.deliver.drop@2", "chain.reorg%6", "chain.tx.delay%4"}) {
    for (size_t shards : {1, 4}) {
      SystemOptions options;
      options.shards = shards;
      if (shards > 1) {
        options.shard_boundaries = IndexedKeyBoundaries(kKeys, shards);
      }
      options.fault_schedule = schedule;
      GrubSystem system(options, std::make_unique<AlternatingLogPolicy>());
      system.Preload(Preload(kKeys));
      system.Drive(trace);
      if (system.Faults() != nullptr) {
        EXPECT_GT(system.Faults()->TotalFires(), 0u) << schedule;
        DrainMempool(system);
      }
      EXPECT_GT(system.Do().log_pins(), 0u);
      EXPECT_GT(system.Do().log_unpins(), 0u);
      EXPECT_EQ(Sorted(system.Do().LogPinsOnChain()),
                KeysWithLiveSlot(system, kKeys,
                                 &StorageManagerContract::DigestSlot))
          << "shards " << shards << " schedule '" << schedule << "'";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace grub::core
