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
//   * the chain's Gas breakdown, field by field, and the block count;
//   * the per-epoch EpochGas series Drive returns;
//   * the component x cause Gas matrix, when both sides record one.
// The pairs are crossed with shards {1, 4} and with a fault schedule that
// drops a deliver and reorgs, so recovery paths are compared too. The
// dormant-schedule pair is its own schedule, so it runs unscheduled only.
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

testing::AssertionResult SameBreakdown(const chain::GasBreakdown& a,
                                       const chain::GasBreakdown& b) {
  const std::pair<const char*, std::pair<uint64_t, uint64_t>> fields[] = {
      {"tx", {a.tx, b.tx}},
      {"storage_insert", {a.storage_insert, b.storage_insert}},
      {"storage_update", {a.storage_update, b.storage_update}},
      {"storage_read", {a.storage_read, b.storage_read}},
      {"hash", {a.hash, b.hash}},
      {"log", {a.log, b.log}},
      {"other", {a.other, b.other}},
  };
  for (const auto& [name, values] : fields) {
    if (values.first != values.second) {
      return testing::AssertionFailure()
             << name << ": " << values.first << " vs " << values.second;
    }
  }
  return testing::AssertionSuccess();
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

  EXPECT_TRUE(SameBreakdown(on->system->TotalBreakdown(),
                            base->system->TotalBreakdown()));
  EXPECT_EQ(on_chain.Blocks().size(), base_chain.Blocks().size());

  ASSERT_EQ(on->epochs.size(), base->epochs.size());
  for (size_t i = 0; i < on->epochs.size(); ++i) {
    const EpochGas& a = on->epochs[i];
    const EpochGas& b = base->epochs[i];
    EXPECT_EQ(a.gas, b.gas) << "epoch " << i;
    EXPECT_EQ(a.ops, b.ops) << "epoch " << i;
    EXPECT_EQ(a.touched_shards, b.touched_shards) << "epoch " << i;
    EXPECT_TRUE(SameBreakdown(a.breakdown, b.breakdown)) << "epoch " << i;
  }

  const telemetry::Telemetry* on_metrics = on->system->Metrics();
  const telemetry::Telemetry* base_metrics = base->system->Metrics();
  if (on_metrics != nullptr && base_metrics != nullptr) {
    const telemetry::GasMatrix a = on_metrics->Gas().Snapshot();
    const telemetry::GasMatrix b = base_metrics->Gas().Snapshot();
    for (size_t comp = 0; comp < telemetry::kNumGasComponents; ++comp) {
      for (size_t why = 0; why < telemetry::kNumGasCauses; ++why) {
        EXPECT_EQ(a.cells[comp][why], b.cells[comp][why])
            << telemetry::Name(static_cast<telemetry::GasComponent>(comp))
            << " x "
            << telemetry::Name(static_cast<telemetry::GasCause>(why));
      }
    }
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
