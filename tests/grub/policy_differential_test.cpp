// Differential test of the stateful policies against reference models of
// the paper's algorithms: Algorithm 1 (memoryless), Algorithm 2
// (memorizing) and the App. C.3 adaptive-K heuristics. Each model keeps its
// per-key state in an ordered std::map<Bytes, ...>, the layout the policies
// used before their state moved behind one hash lookup. Seeded random
// read/write streams drive both sides; after every operation the policy's
// StateOf and CounterState for the operation's key must equal the model's.
//
// A second case list holds every policy's Observe to its contract: the
// step it returns is the key's TierOf immediately before and after the
// observation, the two lookups the control plane made before Observe
// returned the step.
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "chain/gas.h"
#include "common/rng.h"
#include "grub/policy.h"
#include "tier/placement.h"
#include "workload/trace.h"

namespace grub::core {
namespace {

using ads::ReplState;
using workload::MakeKey;
using workload::Operation;
using workload::OpType;

constexpr size_t kOps = 20'000;
constexpr uint64_t kKeys = 4096;
constexpr uint64_t kHotKeys = 64;  // half the stream hits these, so keys flip
constexpr double kReadFraction = 0.75;

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

class Model {
 public:
  virtual ~Model() = default;
  virtual void Observe(const Operation& op) = 0;
  virtual ReplState StateOf(const Bytes& key) const = 0;
  virtual std::string CounterState(const Bytes& key) const = 0;
};

/// Algorithm 1: a run of K consecutive reads replicates; a write evicts and
/// resets the run. The rendered counter saturates at K.
class MemorylessModel : public Model {
 public:
  explicit MemorylessModel(uint64_t k) : k_(k) {}
  void Observe(const Operation& op) override {
    uint64_t& reads = reads_[op.key];
    if (op.type == OpType::kWrite) {
      reads = 0;
    } else if (reads < k_) {
      reads += 1;
    }
  }
  ReplState StateOf(const Bytes& key) const override {
    return Reads(key) >= k_ ? ReplState::kR : ReplState::kNR;
  }
  std::string CounterState(const Bytes& key) const override {
    return "consecutive_reads=" + std::to_string(Reads(key));
  }

 private:
  uint64_t Reads(const Bytes& key) const {
    auto it = reads_.find(key);
    return it == reads_.end() ? 0 : it->second;
  }
  uint64_t k_;
  std::map<Bytes, uint64_t> reads_;
};

/// Algorithm 2: cumulative counters with hysteresis D. NR -> R once
/// r >= w*K' + D (then w = 0, r = D); R -> NR once r <= w*K' - D (then
/// r = 0, w = D/K').
class MemorizingModel : public Model {
 public:
  MemorizingModel(double k_prime, double d) : k_prime_(k_prime), d_(d) {}
  void Observe(const Operation& op) override {
    Entry& e = entries_[op.key];
    (op.type == OpType::kWrite ? e.w : e.r) += 1;
    if (!e.replicated && e.r >= e.w * k_prime_ + d_) {
      e.replicated = true;
      e.w = 0;
      e.r = d_;
    }
    if (e.replicated && e.r <= e.w * k_prime_ - d_) {
      e.replicated = false;
      e.r = 0;
      e.w = d_ / k_prime_;
    }
  }
  ReplState StateOf(const Bytes& key) const override {
    return Get(key).replicated ? ReplState::kR : ReplState::kNR;
  }
  std::string CounterState(const Bytes& key) const override {
    const Entry e = Get(key);
    return "r=" + Num(e.r) + ",w=" + Num(e.w);
  }

 private:
  struct Entry {
    double r = 0;
    double w = 0;
    bool replicated = false;
  };
  Entry Get(const Bytes& key) const {
    auto it = entries_.find(key);
    return it == entries_.end() ? Entry{} : it->second;
  }
  double k_prime_;
  double d_;
  std::map<Bytes, Entry> entries_;
};

/// App. C.3: at each write, predict K as the mean reads-per-write over the
/// last `window` writes. K1 replicates when the prediction reaches the
/// threshold; K2 when it does not.
class AdaptiveKModel : public Model {
 public:
  AdaptiveKModel(double threshold, size_t window, bool k1)
      : threshold_(threshold), window_(window), k1_(k1) {}
  void Observe(const Operation& op) override {
    Entry& e = entries_[op.key];
    if (op.type != OpType::kWrite) {
      e.reads += 1;
      return;
    }
    e.runs.push_back(e.reads);
    if (e.runs.size() > window_) e.runs.pop_front();
    e.reads = 0;
    e.replicated = (Mean(e.runs) >= threshold_) == k1_;
  }
  ReplState StateOf(const Bytes& key) const override {
    return Get(key).replicated ? ReplState::kR : ReplState::kNR;
  }
  std::string CounterState(const Bytes& key) const override {
    const Entry e = Get(key);
    std::string out = "runs=[";
    for (size_t i = 0; i < e.runs.size(); ++i) {
      out += (i > 0 ? " " : "") + std::to_string(e.runs[i]);
    }
    out += "],reads_since_write=" + std::to_string(e.reads);
    if (!e.runs.empty()) out += ",predicted_k=" + Num(Mean(e.runs));
    return out;
  }

 private:
  struct Entry {
    std::deque<uint64_t> runs;
    uint64_t reads = 0;
    bool replicated = false;
  };
  static double Mean(const std::deque<uint64_t>& runs) {
    double sum = 0;
    for (uint64_t run : runs) sum += static_cast<double>(run);
    return sum / static_cast<double>(runs.size());
  }
  Entry Get(const Bytes& key) const {
    auto it = entries_.find(key);
    return it == entries_.end() ? Entry{} : it->second;
  }
  double threshold_;
  size_t window_;
  bool k1_;
  std::map<Bytes, Entry> entries_;
};

struct Case {
  const char* name;
  std::function<std::unique_ptr<ReplicationPolicy>()> policy;
  std::function<std::unique_ptr<Model>()> model;
};

std::vector<Case> Cases() {
  return {
      {"memoryless_k3", [] { return std::make_unique<MemorylessPolicy>(3); },
       [] { return std::make_unique<MemorylessModel>(3); }},
      {"memorizing_k2_d1",
       [] { return std::make_unique<MemorizingPolicy>(2, 1); },
       [] { return std::make_unique<MemorizingModel>(2, 1); }},
      {"memorizing_k2.5_d1.5",
       [] { return std::make_unique<MemorizingPolicy>(2.5, 1.5); },
       [] { return std::make_unique<MemorizingModel>(2.5, 1.5); }},
      {"adaptive_k1", [] { return std::make_unique<AdaptiveK1Policy>(3, 3); },
       [] { return std::make_unique<AdaptiveKModel>(3, 3, true); }},
      {"adaptive_k2", [] { return std::make_unique<AdaptiveK2Policy>(3, 3); },
       [] { return std::make_unique<AdaptiveKModel>(3, 3, false); }},
  };
}

class PolicyDifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(PolicyDifferentialTest, MatchesOrderedReferenceModelAfterEveryOp) {
  const auto [case_index, seed] = GetParam();
  const Case c = Cases()[case_index];
  auto policy = c.policy();
  auto model = c.model();
  std::vector<Bytes> keys(kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) keys[i] = MakeKey(i);

  Rng rng(seed);
  size_t flips = 0;
  for (size_t i = 0; i < kOps; ++i) {
    const Bytes& key =
        keys[rng.NextBool(0.5) ? rng.NextBounded(kHotKeys)
                               : rng.NextBounded(kKeys)];
    const Operation op = rng.NextBool(kReadFraction)
                             ? Operation::Read(key)
                             : Operation::Write(key, {});
    const ReplState before = model->StateOf(key);
    policy->Observe(op);
    model->Observe(op);
    ASSERT_EQ(policy->StateOf(key), model->StateOf(key))
        << c.name << " seed " << seed << " op " << i;
    ASSERT_EQ(policy->CounterState(key), model->CounterState(key))
        << c.name << " seed " << seed << " op " << i;
    flips += model->StateOf(key) != before ? 1 : 0;
  }
  // The stream must exercise decisions, not just counters.
  EXPECT_GT(flips, 100u) << c.name;
  for (const Bytes& key : keys) {
    ASSERT_EQ(policy->StateOf(key), model->StateOf(key)) << c.name;
  }
}

std::string ParamName(std::string name, uint64_t seed) {
  for (char& ch : name) {
    if (ch == '.') ch = '_';
  }
  return name + "_seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesBySeed, PolicyDifferentialTest,
    ::testing::Combine(::testing::Range<size_t>(0, 5),
                       ::testing::Values<uint64_t>(17, 29)),
    [](const ::testing::TestParamInfo<PolicyDifferentialTest::ParamType>&
           info) {
      return ParamName(Cases()[std::get<0>(info.param)].name,
                       std::get<1>(info.param));
    });

// --- Observe's returned step against TierOf around it ---

// The differential stream, with write values of two sizes so the tier
// policy's cost argmin sees both.
workload::Trace RandomStream(uint64_t seed) {
  std::vector<Bytes> keys(kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) keys[i] = MakeKey(i);
  Rng rng(seed);
  workload::Trace trace;
  trace.reserve(kOps);
  for (size_t i = 0; i < kOps; ++i) {
    const Bytes& key =
        keys[rng.NextBool(0.5) ? rng.NextBounded(kHotKeys)
                               : rng.NextBounded(kKeys)];
    trace.push_back(rng.NextBool(kReadFraction)
                        ? Operation::Read(key)
                        : Operation::Write(key, Bytes(rng.NextBool(0.5)
                                                          ? 32
                                                          : 512,
                                                      0x5A)));
  }
  return trace;
}

struct StepCase {
  const char* name;
  std::function<std::unique_ptr<ReplicationPolicy>(const workload::Trace&)>
      policy;
  bool priced = false;  // interleave ObservePrice with the stream
  bool flips = true;    // the stream must flip some key
};

std::vector<StepCase> StepCases() {
  const chain::GasSchedule gas;
  using Trace = workload::Trace;
  return {
      {"memoryless_k3",
       [](const Trace&) { return std::make_unique<MemorylessPolicy>(3); }},
      {"memorizing_k2_d1",
       [](const Trace&) { return std::make_unique<MemorizingPolicy>(2, 1); }},
      {"adaptive_k1",
       [](const Trace&) { return std::make_unique<AdaptiveK1Policy>(3, 3); }},
      {"adaptive_k2",
       [](const Trace&) { return std::make_unique<AdaptiveK2Policy>(3, 3); }},
      {"windowed_k_priced",
       [](const Trace&) { return std::make_unique<WindowedKPolicy>(2, 4); },
       /*priced=*/true},
      {"price_ewma_priced",
       [](const Trace&) { return std::make_unique<PriceEwmaPolicy>(2, 0.25); },
       /*priced=*/true},
      {"offline_optimal",
       [](const Trace& trace) {
         return std::make_unique<OfflineOptimalPolicy>(trace, 3.0);
       }},
      {"static_bl1", [](const Trace&) { return MakeBL1(); }, false, false},
      {"static_bl2", [](const Trace&) { return MakeBL2(); }, false, false},
      {"static_tier_log",
       [](const Trace&) {
         return std::make_unique<tier::StaticTierPolicy>(
             tier::StorageTier::kLog);
       },
       false, false},
      {"adaptive_tier_hot8",
       [gas](const Trace&) {
         tier::AdaptiveTierPolicy::Options options;
         options.sketch_capacity = 8;  // far below the key space: evictions
         return std::make_unique<tier::AdaptiveTierPolicy>(
             tier::TierCostModel(gas), options);
       }},
      {"adaptive_tier_priced",
       [gas](const Trace&) {
         return std::make_unique<tier::AdaptiveTierPolicy>(
             tier::TierCostModel(gas));
       },
       /*priced=*/true},
  };
}

class PolicyStepTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(PolicyStepTest, ObserveReturnsTierOfBeforeAndAfter) {
  const auto [case_index, seed] = GetParam();
  const StepCase c = StepCases()[case_index];
  const workload::Trace trace = RandomStream(seed);
  auto policy = c.policy(trace);
  Rng prices(seed);
  size_t flips = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (c.priced && i % 256 == 0) {
      policy->ObservePrice(1000 + prices.NextBounded(2000),
                           1000 + prices.NextBounded(4000), i);
    }
    const Operation& op = trace[i];
    const tier::StorageTier before = policy->TierOf(op.key);
    const TierStep step = policy->Observe(op);
    ASSERT_EQ(step.before, before) << c.name << " seed " << seed << " op " << i;
    ASSERT_EQ(step.after, policy->TierOf(op.key))
        << c.name << " seed " << seed << " op " << i;
    flips += step.Flipped() ? 1 : 0;
  }
  if (c.flips) {
    EXPECT_GT(flips, 0u) << c.name;
  } else {
    EXPECT_EQ(flips, 0u) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesBySeed, PolicyStepTest,
    ::testing::Combine(::testing::Range<size_t>(0, StepCases().size()),
                       ::testing::Values<uint64_t>(17, 29)),
    [](const ::testing::TestParamInfo<PolicyStepTest::ParamType>& info) {
      return ParamName(StepCases()[std::get<0>(info.param)].name,
                       std::get<1>(info.param));
    });

}  // namespace
}  // namespace grub::core
