// Deterministic, seeded fail-point framework.
//
// Components that can fail expose named fault points ("sp.deliver.drop",
// "kv.wal.torn", ...). Each point site asks the injector whether to fire on
// this hit; the answer is a pure function of (seed, schedule, hit count), so
// a given seed + schedule reproduces the exact same failure sequence — and
// therefore the exact same Gas totals, retry counts and final state — on
// every run. Probabilistic rules draw from a per-point RNG seeded with
// seed ^ FNV1a(point), so adding a rule for one point never perturbs the
// draws of another.
//
// Schedules are parsed from a compact spec (see FaultInjector::Parse):
//
//   sp.deliver.drop@3           fire once, on the 3rd hit
//   chain.tx.drop%5             fire on every 5th hit
//   sp.crash~0.1                fire each hit with probability 0.1
//   kv.wal.sync_fail*           fire on every hit
//   sp.deliver.drop%2x4         ... at most 4 times total
//   chain.reorg@1+10            hit counting starts after the 10th hit
//
// Multiple rules (comma-separated) may target the same point; the point
// fires if ANY rule matches. A null injector is the off switch: the site
// macro folds to one pointer test, and a null injector changes no Gas (the
// `identity` ctest enforces it). The injector's per-point hit and fire
// counts are the only record of what fired.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace grub::fault {

/// FNV-1a 64-bit — stable point-name hash for per-point RNG streams.
uint64_t Fnv1a(std::string_view s);

/// One schedule entry. A rule matches a hit when the (1-based, post-window)
/// hit index satisfies its trigger and the rule has fires left.
struct FaultRule {
  std::string point;
  uint64_t on_hit = 0;       // fire exactly on this hit (0 = unused)
  uint64_t every = 0;        // fire on every Nth hit (0 = unused)
  double probability = 0.0;  // fire per-hit with this probability (0 = unused)
  bool always = false;       // fire on every hit
  uint64_t from_hit = 0;     // ignore the first `from_hit` hits entirely
  uint64_t max_fires = 0;    // stop after this many fires (0 = unlimited)
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0) : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Parse a comma-separated schedule spec (grammar in the header comment).
  /// Whitespace around rules is ignored; an empty spec yields an injector
  /// with no rules (nothing ever fires).
  static Result<std::unique_ptr<FaultInjector>> Parse(std::string_view spec,
                                                      uint64_t seed);

  void AddRule(FaultRule rule);

  /// Called by a GRUB_FAULT_POINT site: counts the hit and returns whether
  /// any rule fires on it. Not const — advances hit counters and RNG state.
  bool Fire(std::string_view point);

  /// Total hits observed at `point` (fired or not).
  uint64_t Hits(std::string_view point) const;
  /// Total fires at `point`.
  uint64_t Fires(std::string_view point) const;
  /// Fires across all points (GrubSystem::Robustness() sums this over the
  /// schedule injector and every replica's adversary injector).
  uint64_t TotalFires() const;
  /// Per-point fire counts, for end-of-run summaries.
  std::map<std::string, uint64_t> FireCounts() const;

  const std::vector<FaultRule>& Rules() const { return rules_; }
  uint64_t seed() const { return seed_; }

 private:
  struct PointState {
    uint64_t hits = 0;
    uint64_t fires = 0;
    std::unique_ptr<Rng> rng;  // created lazily on first probabilistic draw
    std::vector<uint64_t> rule_fires;  // parallel to rules_, lazily sized
  };

  PointState& StateOf(std::string_view point);

  uint64_t seed_;
  std::vector<FaultRule> rules_;
  std::map<std::string, PointState, std::less<>> points_;
};

}  // namespace grub::fault

// Fault-point site macro. `injector` is a `fault::FaultInjector*`; null is
// the off switch (one branch, no schedule consulted, no Gas moved).
#define GRUB_FAULT_POINT(injector, point) \
  ((injector) != nullptr && (injector)->Fire(point))
