// Multi-tier placement policies (the PlacementPolicy generalization of the
// paper's binary replication policies).
//
//  * StaticTierPolicy — every key pinned to one tier. storage ≡ BL2 and
//    offchain ≡ BL1 Gas-exactly (ci.sh diffs both identities); log and
//    calldata are the new static baselines bench_tiers sweeps.
//  * AdaptiveTierPolicy — per-key placement by 4-way cost argmin: observed
//    reads-per-write K̂ feeds TierCostModel::Cheapest at every write (tier
//    decisions ride the epoch update, so deciding at writes is free).
//    Bounded state: a SpaceSaving hot-key sketch gates which keys may hold
//    a non-default tier — an evicted (cold) key falls back to off-chain,
//    the tier that costs nothing to hold. K̂ comes from the policy's own
//    per-key counters, so the workload observatory (which hears a write
//    only after the policy decided on it) never steers placement.
#pragma once

#include <map>
#include <string>

#include "grub/policy.h"
#include "telemetry/sketch.h"
#include "tier/cost.h"
#include "tier/tier.h"

namespace grub::tier {

class StaticTierPolicy : public core::ReplicationPolicy {
 public:
  explicit StaticTierPolicy(StorageTier t) : tier_(t) {}

  core::TierStep Observe(const workload::Operation&) override {
    return {tier_, tier_};
  }
  ads::ReplState StateOf(const Bytes&) const override {
    return ToReplState(tier_);
  }
  StorageTier TierOf(const Bytes&) const override { return tier_; }
  std::string Name() const override {
    return std::string("static-tier(") + tier::Name(tier_) + ")";
  }

 private:
  StorageTier tier_;
};

class AdaptiveTierPolicy : public core::ReplicationPolicy {
 public:
  struct Options {
    /// Fallback value size for the cost argmin before a key's first
    /// observed write (reads carry no payload).
    size_t default_value_bytes = 32;
    /// Hot-key budget: only sketch-tracked keys may hold a non-default tier.
    size_t sketch_capacity = 64;
  };

  explicit AdaptiveTierPolicy(const TierCostModel& cost)
      : AdaptiveTierPolicy(cost, Options()) {}
  AdaptiveTierPolicy(const TierCostModel& cost, Options options);

  core::TierStep Observe(const workload::Operation& op) override;
  /// Under a non-unit GasPriceSchedule the control plane feeds the current
  /// multipliers here; subsequent write decisions argmin CheapestPriced at
  /// them. Never called on constant-price runs, and 1000/1000 is the exact
  /// unpriced argmin, so legacy placement is byte-identical.
  void ObservePrice(uint64_t exec_milli, uint64_t storage_milli,
                    uint64_t block) override;
  ads::ReplState StateOf(const Bytes& key) const override {
    return ToReplState(TierOf(key));
  }
  StorageTier TierOf(const Bytes& key) const override;
  std::string Name() const override;
  std::string CounterState(const Bytes& key) const override;

 private:
  struct Counts {
    uint64_t reads = 0;
    uint64_t writes = 0;
    size_t value_bytes = 0;  // last observed write size
    StorageTier tier = StorageTier::kOffchain;
  };

  TierCostModel cost_;
  Options options_;
  uint64_t exec_milli_ = 1000;     // effective multipliers; unit until the
  uint64_t storage_milli_ = 1000;  // first ObservePrice
  telemetry::SpaceSavingSketch sketch_;
  std::map<Bytes, Counts> counts_;  // sketch-tracked keys only
};

}  // namespace grub::tier
