// Gas invisibility: every observer, every dormant fault point and every
// configuration that is Gas-neutral by construction must leave the chain
// exactly as its off/base side leaves it. A null pointer is the one off
// switch (no Telemetry, Tracer, WorkloadMonitor, FaultInjector or adversary),
// so this suite is what keeps "off" and "on" on the same Gas.
//
// Each case runs one pair twice on ci.sh's BENCH_ARGS workload
// (grubctl --policy adaptive-k2 --workload ycsb:B --records 256 --ops 512)
// and compares, in process:
//   * the call history, field by field — transaction bytes, not report text;
//   * the event log;
//   * the chain's component x cause Gas matrix, cell by cell, and the block
//     count;
//   * the per-epoch EpochGas series Drive returns.
// The pairs are crossed with shards {1, 4} and with a fault schedule that
// drops a deliver and reorgs, so recovery paths are compared too. The
// dormant-schedule pair is its own schedule, so it runs unscheduled only.
// The monitor is compared under both policies that could read it: the
// binary AdaptiveK2Policy and the AdaptiveTierPolicy.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "grub/system.h"
#include "tier/placement.h"
#include "workload/ycsb.h"

namespace grub::core {
namespace {

constexpr uint64_t kRecords = 256;
constexpr size_t kRecordBytes = 32;
constexpr size_t kOps = 512;
constexpr uint64_t kWatchEvery = 8;
constexpr const char* kSchedule = "sp.deliver.drop@2,chain.reorg%6";

using PolicyFactory = std::function<std::unique_ptr<ReplicationPolicy>(
    const chain::GasSchedule&)>;

std::unique_ptr<ReplicationPolicy> AdaptiveK2(const chain::GasSchedule& gas) {
  return std::make_unique<AdaptiveK2Policy>(BreakEvenK(gas));
}

std::unique_ptr<ReplicationPolicy> AdaptiveTier(const chain::GasSchedule& gas) {
  tier::AdaptiveTierPolicy::Options options;
  options.default_value_bytes = kRecordBytes;
  return std::make_unique<tier::AdaptiveTierPolicy>(tier::TierCostModel(gas),
                                                    options);
}

PolicyFactory StaticTier(tier::StorageTier t) {
  return [t](const chain::GasSchedule&) {
    return std::make_unique<tier::StaticTierPolicy>(t);
  };
}

/// One side of a pair: what it changes in the options, and its policy.
struct Side {
  std::function<void(SystemOptions&)> configure = [](SystemOptions&) {};
  PolicyFactory policy = AdaptiveK2;
};

struct Pair {
  std::string name;
  Side on;
  Side base;
  /// The pair sets its own fault schedule (it cannot cross the schedule).
  bool owns_schedule = false;
};

struct Case {
  const Pair* pair;
  size_t shards;
  bool scheduled;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.pair->name << " shards=" << c.shards
      << " schedule=" << (c.scheduled ? kSchedule : "none");
}

const std::vector<Pair>& Pairs() {
  static const std::vector<Pair> pairs = {
      {"telemetry", {[](SystemOptions& o) { o.enable_telemetry = true; }}, {}},
      {"tracing", {[](SystemOptions& o) { o.enable_tracing = true; }}, {}},
      {"tracing_over_telemetry",
       {[](SystemOptions& o) {
         o.enable_telemetry = true;
         o.enable_tracing = true;
       }},
       {[](SystemOptions& o) { o.enable_telemetry = true; }}},
      {"monitor",
       {[](SystemOptions& o) { o.enable_workload_monitor = true; }},
       {}},
      {"monitor_adaptive_tier",
       {[](SystemOptions& o) { o.enable_workload_monitor = true; },
        AdaptiveTier},
       {[](SystemOptions&) {}, AdaptiveTier}},
      {"dormant_schedule",
       {[](SystemOptions& o) {
         o.fault_schedule = "sp.deliver.drop@100000000";
       }},
       {},
       /*owns_schedule=*/true},
      {"unit_price",
       {[](SystemOptions& o) {
         o.chain_params.price = chain::GasPriceSchedule::Constant(1000, 1000);
       }},
       {}},
      {"honest_quorum", {[](SystemOptions& o) { o.sp_replicas = 2; }}, {}},
      {"storage_tier_is_bl2",
       {[](SystemOptions&) {}, StaticTier(tier::StorageTier::kStorage)},
       {[](SystemOptions&) {},
        [](const chain::GasSchedule&) { return MakeBL2(); }}},
      {"offchain_tier_is_bl1",
       {[](SystemOptions&) {}, StaticTier(tier::StorageTier::kOffchain)},
       {[](SystemOptions&) {},
        [](const chain::GasSchedule&) { return MakeBL1(); }}},
  };
  return pairs;
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const Pair& pair : Pairs()) {
    for (size_t shards : {size_t{1}, size_t{4}}) {
      for (bool scheduled : {false, true}) {
        if (scheduled && pair.owns_schedule) continue;
        cases.push_back({&pair, shards, scheduled});
      }
    }
  }
  return cases;
}

const workload::Trace& BenchTrace() {
  static const workload::Trace trace = [] {
    workload::YcsbGenerator gen(workload::YcsbConfig::ByName('B'), kRecords,
                                kRecordBytes, /*seed=*/1);
    workload::Trace t;
    gen.Generate(kOps, t);
    return t;
  }();
  return trace;
}

/// One driven system, wired the way grubctl wires a single-feed run.
struct Run {
  std::ostringstream watch;  // declared first: outlives the system
  std::unique_ptr<GrubSystem> system;
  std::vector<EpochGas> epochs;
};

std::unique_ptr<Run> Drive(const Side& side, const Case& c) {
  SystemOptions options;
  options.shards = c.shards;
  if (c.shards > 1) {
    options.shard_boundaries = IndexedKeyBoundaries(kRecords, c.shards);
  }
  if (c.scheduled) options.fault_schedule = kSchedule;
  side.configure(options);

  auto run = std::make_unique<Run>();
  run->system = std::make_unique<GrubSystem>(
      options, side.policy(options.chain_params.gas));
  GrubSystem& system = *run->system;
  std::vector<std::pair<Bytes, Bytes>> preload;
  for (uint64_t i = 0; i < kRecords; ++i) {
    preload.emplace_back(workload::MakeKey(i), Bytes(kRecordBytes, 0x11));
  }
  system.Preload(preload);
  if (system.Workload() != nullptr) {
    system.EnableWorkloadOracle(BenchTrace());
    system.SetWatch(kWatchEvery, &run->watch);
  }
  run->epochs = system.Drive(BenchTrace());
  return run;
}

testing::AssertionResult SameCall(const chain::CallRecord& a,
                                  const chain::CallRecord& b) {
  if (a.caller != b.caller) return testing::AssertionFailure() << "caller";
  if (a.contract != b.contract) {
    return testing::AssertionFailure() << "contract";
  }
  if (a.function != b.function) {
    return testing::AssertionFailure()
           << "function: " << a.function << " vs " << b.function;
  }
  if (a.calldata != b.calldata) {
    return testing::AssertionFailure()
           << "calldata (" << a.function << "): " << a.calldata.size()
           << " vs " << b.calldata.size() << " bytes";
  }
  if (a.block_number != b.block_number) {
    return testing::AssertionFailure()
           << "block: " << a.block_number << " vs " << b.block_number;
  }
  if (a.internal != b.internal) {
    return testing::AssertionFailure() << "internal";
  }
  if (a.ok != b.ok) return testing::AssertionFailure() << "ok";
  return testing::AssertionSuccess();
}

testing::AssertionResult SameEvent(const chain::EventRecord& a,
                                   const chain::EventRecord& b) {
  if (a.contract != b.contract || a.name != b.name || a.data != b.data ||
      a.block_number != b.block_number || a.log_index != b.log_index) {
    return testing::AssertionFailure()
           << a.name << "@" << a.block_number << " vs " << b.name << "@"
           << b.block_number;
  }
  return testing::AssertionSuccess();
}

class GasInvisibility : public testing::TestWithParam<Case> {};

TEST_P(GasInvisibility, OnSideMatchesBaseSide) {
  const Case& c = GetParam();
  const auto on = Drive(c.pair->on, c);
  const auto base = Drive(c.pair->base, c);
  const chain::Blockchain& on_chain = on->system->Chain();
  const chain::Blockchain& base_chain = base->system->Chain();

  // Not vacuous: the schedule really fires on both sides.
  if (c.scheduled) {
    EXPECT_GT(on->system->Faults()->TotalFires(), 0u);
    EXPECT_GT(base->system->Faults()->TotalFires(), 0u);
  }

  const auto& on_calls = on_chain.CallHistory();
  const auto& base_calls = base_chain.CallHistory();
  ASSERT_EQ(on_calls.size(), base_calls.size());
  for (size_t i = 0; i < on_calls.size(); ++i) {
    ASSERT_TRUE(SameCall(on_calls[i], base_calls[i])) << "call " << i;
  }

  const auto& on_events = on_chain.EventLog();
  const auto& base_events = base_chain.EventLog();
  ASSERT_EQ(on_events.size(), base_events.size());
  for (size_t i = 0; i < on_events.size(); ++i) {
    ASSERT_TRUE(SameEvent(on_events[i], base_events[i])) << "event " << i;
  }

  const telemetry::GasMatrix& on_gas = on_chain.TotalGasMatrix();
  const telemetry::GasMatrix& base_gas = base_chain.TotalGasMatrix();
  for (size_t comp = 0; comp < telemetry::kNumGasComponents; ++comp) {
    for (size_t why = 0; why < telemetry::kNumGasCauses; ++why) {
      EXPECT_EQ(on_gas.cells[comp][why], base_gas.cells[comp][why])
          << telemetry::Name(static_cast<telemetry::GasComponent>(comp))
          << " x " << telemetry::Name(static_cast<telemetry::GasCause>(why));
    }
  }
  EXPECT_EQ(on_chain.Blocks().size(), base_chain.Blocks().size());

  ASSERT_EQ(on->epochs.size(), base->epochs.size());
  for (size_t i = 0; i < on->epochs.size(); ++i) {
    const EpochGas& a = on->epochs[i];
    const EpochGas& b = base->epochs[i];
    EXPECT_EQ(a.gas, b.gas) << "epoch " << i;
    EXPECT_EQ(a.ops, b.ops) << "epoch " << i;
    EXPECT_EQ(a.touched_shards, b.touched_shards) << "epoch " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, GasInvisibility, testing::ValuesIn(AllCases()),
    [](const testing::TestParamInfo<Case>& info) {
      return info.param.pair->name + "_shards" +
             std::to_string(info.param.shards) +
             (info.param.scheduled ? "_faults" : "");
    });

}  // namespace
}  // namespace grub::core
