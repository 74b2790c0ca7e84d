// Online replication decision-making (§3.1, Appendix A, Appendix C.3).
//
// A policy consumes the per-key read/write stream (the control plane feeds
// it the federated trace) and maintains a desired replication state per key.
// Implementations:
//
//  * MemorylessPolicy (Algorithm 1): per-key consecutive-read counter; write
//    resets to NR, the K-th consecutive read flips to R. With
//    K = C_update / C_read_off (Eq. 1) the policy is 2-competitive.
//  * MemorizingPolicy (Algorithm 2): cumulative read/write counters with
//    hysteresis window D; (4D+2)/K'-competitive.
//  * AdaptiveK1Policy / AdaptiveK2Policy (Appendix C.3): predict K as the
//    mean reads-per-write over the last `window` writes. K1 replicates on a
//    write when the prediction clears the static threshold ("the future
//    repeats the past"); K2 is the dual ("the future does not repeat the
//    past" — the variant that actually saved 12.8% on ethPriceOracle).
//    (The paper's prose describes K1 and K2 identically — an evident typo;
//    we implement K2 as the stated "opposite" of K1.)
//  * OfflineOptimalPolicy: clairvoyant — replicates at a write iff the reads
//    before the next write on that key repay the replication cost. The
//    comparator lower bound in Fig. 8a.
//  * AlwaysNR / AlwaysR: the static baselines BL1 / BL2 expressed as
//    degenerate policies, so every feed variant shares one mechanism.
//
// The control plane consults a policy on every read and write, so each
// stateful policy keeps its per-key state in one flat KeyMap
// (common/key_map.h), and Observe answers the key's tier before and after
// the observation from the same single probe that updates it.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "ads/record.h"
#include "chain/price.h"
#include "common/key_map.h"
#include "telemetry/sketch.h"
#include "tier/tier.h"
#include "workload/trace.h"

namespace grub::core {

/// A key's desired tier immediately before and after one observation.
struct TierStep {
  tier::StorageTier before = tier::StorageTier::kOffchain;
  tier::StorageTier after = tier::StorageTier::kOffchain;

  bool Flipped() const { return before != after; }
};

class ReplicationPolicy {
 public:
  virtual ~ReplicationPolicy() = default;

  /// Observes one operation (kWrite or kRead; scans are expanded into reads
  /// by the control plane before they reach the policy) and returns the
  /// key's TierOf before and after it, from the one lookup that updates
  /// the key's state, so callers never probe around an observation.
  virtual TierStep Observe(const workload::Operation& op) = 0;

  /// Desired replication state of `key` right now.
  virtual ads::ReplState StateOf(const Bytes& key) const = 0;

  /// Desired storage tier of `key` right now. The binary policies are the
  /// two-tier special case: R means a contract-storage replica, NR means
  /// off-chain — which is exactly this default. Multi-tier placement
  /// policies (src/tier/placement.h) override it; implementations must keep
  /// StateOf consistent (kR iff TierOf is kStorage), because the record
  /// state rides the authenticated leaves and the tier does not.
  virtual tier::StorageTier TierOf(const Bytes& key) const {
    return tier::FromReplState(StateOf(key));
  }

  /// Observes the chain's effective gas-price multipliers (milli, >= 1000).
  /// The control plane feeds this between read groups ONLY when a non-unit
  /// GasPriceSchedule is active, so constant-price runs never take the call
  /// and stay byte-identical. Online re-estimating policies (WindowedKPolicy,
  /// PriceEwmaPolicy) track the storage/exec ratio here; everyone else
  /// ignores it.
  virtual void ObservePrice(uint64_t exec_milli, uint64_t storage_milli,
                            uint64_t block) {
    (void)exec_milli;
    (void)storage_milli;
    (void)block;
  }

  /// Self-describing name: policy family plus the parameters that govern its
  /// decisions, so exported series and audit records need no side channel.
  virtual std::string Name() const = 0;

  /// Deterministic "k=v,..." rendering of the per-key decision counters (the
  /// evidence behind StateOf). Empty for stateless policies. Audit records
  /// capture this before AND after the observation that flips a key.
  virtual std::string CounterState(const Bytes& key) const {
    (void)key;
    return "";
  }

  /// Audit mode: when enabled, Observe() captures the CounterState evidence
  /// around any observation that flips a key's state. Flips are rare, so the
  /// per-operation hot path pays nothing — callers must not pre-capture
  /// counter strings per op. Enabled by the DO when a Tracer is attached.
  void EnableAudit(bool on) { audit_ = on; }
  /// Evidence of the most recent audited flip: counter state immediately
  /// before / after the flipping observation. Valid right after an Observe()
  /// that changed StateOf(key); empty when audit mode is off.
  const std::string& AuditBefore() const { return audit_before_; }
  const std::string& AuditAfter() const { return audit_after_; }

 protected:
  bool audit_ = false;
  std::string audit_before_;
  std::string audit_after_;
};

class MemorylessPolicy : public ReplicationPolicy {
 public:
  explicit MemorylessPolicy(uint64_t k) : k_(k) {}

  TierStep Observe(const workload::Operation& op) override;
  ads::ReplState StateOf(const Bytes& key) const override;
  std::string Name() const override {
    return "memoryless(K=" + std::to_string(k_) + ")";
  }
  std::string CounterState(const Bytes& key) const override;

 private:
  struct State {
    uint64_t consecutive_reads = 0;
    ads::ReplState state = ads::ReplState::kNR;
  };
  uint64_t k_;
  KeyMap<State> states_;
};

class MemorizingPolicy : public ReplicationPolicy {
 public:
  MemorizingPolicy(double k_prime, double d) : k_prime_(k_prime), d_(d) {}

  TierStep Observe(const workload::Operation& op) override;
  ads::ReplState StateOf(const Bytes& key) const override;
  std::string Name() const override;
  std::string CounterState(const Bytes& key) const override;

 private:
  struct State {
    double r_count = 0;
    double w_count = 0;
    ads::ReplState state = ads::ReplState::kNR;
  };
  double k_prime_;
  double d_;
  KeyMap<State> states_;
};

/// Shared base for the two adaptive-K heuristics.
class AdaptiveKPolicy : public ReplicationPolicy {
 public:
  /// `threshold` is the Eq. 1 static K; `window` the number of past writes
  /// averaged to predict the future reads-per-write.
  AdaptiveKPolicy(double threshold, size_t window, bool repeat_hypothesis)
      : threshold_(threshold),
        window_(window),
        repeat_hypothesis_(repeat_hypothesis) {}

  TierStep Observe(const workload::Operation& op) override;
  ads::ReplState StateOf(const Bytes& key) const override;
  std::string Name() const override;
  std::string CounterState(const Bytes& key) const override;

 private:
  struct State {
    std::vector<uint64_t> recent_read_runs;  // reads after each recent write
    uint64_t reads_since_write = 0;
    ads::ReplState state = ads::ReplState::kNR;
  };
  double threshold_;
  size_t window_;
  bool repeat_hypothesis_;
  KeyMap<State> states_;
};

class AdaptiveK1Policy : public AdaptiveKPolicy {
 public:
  explicit AdaptiveK1Policy(double threshold, size_t window = 3)
      : AdaptiveKPolicy(threshold, window, /*repeat_hypothesis=*/true) {}
};

class AdaptiveK2Policy : public AdaptiveKPolicy {
 public:
  explicit AdaptiveK2Policy(double threshold, size_t window = 3)
      : AdaptiveKPolicy(threshold, window, /*repeat_hypothesis=*/false) {}
};

/// Online re-estimating policy #1: memorizing structure (Algorithm 2's
/// cumulative per-key read/write counters, hysteresis D=1) with a
/// price-scaled threshold re-derived on every decision as
///   K_eff = K0 * mean(storage_milli / exec_milli)
/// over the last `window` price observations — the windowed estimate of the
/// CURRENT Eq. 1 break-even under a time-varying schedule. The memorizing
/// chassis matters: replicas survive writes, so a price regime only costs
/// one flip per key at its boundary instead of an insert/evict round-trip
/// per write cycle. Under a constant (unit) schedule the control plane never
/// feeds ObservePrice, so the policy is exactly memorizing(K'=K0, D=1).
class WindowedKPolicy : public ReplicationPolicy {
 public:
  explicit WindowedKPolicy(double base_k, size_t window = 8)
      : base_k_(base_k), window_(window == 0 ? 1 : window) {}

  TierStep Observe(const workload::Operation& op) override;
  void ObservePrice(uint64_t exec_milli, uint64_t storage_milli,
                    uint64_t block) override;
  ads::ReplState StateOf(const Bytes& key) const override;
  std::string Name() const override;
  std::string CounterState(const Bytes& key) const override;

  /// The threshold currently in force (K0 until the first observation).
  double CurrentK() const;

 private:
  struct State {
    double r_count = 0;
    double w_count = 0;
    ads::ReplState state = ads::ReplState::kNR;
  };
  double base_k_;
  size_t window_;
  std::deque<double> recent_ratios_;  // storage_milli / exec_milli
  KeyMap<State> states_;
};

/// Online re-estimating policy #2: the same memorizing structure, but the
/// break-even ratio is tracked by the PR-7 observatory's EWMA drift detector
/// (telemetry::EwmaDriftDetector) instead of a sliding window —
///   K_eff = K0 * Ewma(storage_milli / exec_milli).
/// Smoother than WindowedKPolicy on noisy regime schedules, slower to turn on
/// sharp steps; the leaderboard scores both. Behaves as memorizing(K'=K0,
/// D=1) until the first price observation.
class PriceEwmaPolicy : public ReplicationPolicy {
 public:
  explicit PriceEwmaPolicy(double base_k, double alpha = 0.25)
      : base_k_(base_k), alpha_(alpha), detector_(alpha) {}

  TierStep Observe(const workload::Operation& op) override;
  void ObservePrice(uint64_t exec_milli, uint64_t storage_milli,
                    uint64_t block) override;
  ads::ReplState StateOf(const Bytes& key) const override;
  std::string Name() const override;
  std::string CounterState(const Bytes& key) const override;

  double CurrentK() const;
  /// Drift events flagged by the underlying detector (regime-shift count).
  uint64_t DriftCount() const { return detector_.DriftCount(); }

 private:
  struct State {
    double r_count = 0;
    double w_count = 0;
    ads::ReplState state = ads::ReplState::kNR;
  };
  double base_k_;
  double alpha_;
  telemetry::EwmaDriftDetector detector_;
  KeyMap<State> states_;
};

/// Maps trace op index -> block number so the clairvoyant oracle can replay
/// a GasPriceSchedule: block(i) = start_block + i * blocks_per_op. The
/// control plane drives ~ops_per_tx ops per transaction and a read group
/// costs a request + deliver + callback round, so the driver supplies the
/// observed blocks-per-op slope of its own loop. Approximate by construction
/// (ops within one transaction share a block) — documented in DESIGN.md §10.
struct PriceReplayModel {
  const chain::GasPriceSchedule* schedule = nullptr;
  uint64_t start_block = 0;
  double blocks_per_op = 0.0;

  bool Active() const {
    return schedule != nullptr && !schedule->IsUnit() && blocks_per_op > 0.0;
  }
  uint64_t BlockOf(size_t op_index) const {
    return start_block +
           static_cast<uint64_t>(static_cast<double>(op_index) * blocks_per_op);
  }
};

class OfflineOptimalPolicy : public ReplicationPolicy {
 public:
  /// Inspects the whole trace up front. `break_even_reads` is the number of
  /// off-chain reads whose cost equals one on-chain replication (Eq. 1's K).
  OfflineOptimalPolicy(const workload::Trace& trace, double break_even_reads);

  /// Price-aware variant: replays `model`'s schedule over the trace so each
  /// write's decision weighs its reads at THEIR blocks' exec price against
  /// the replication cost at the WRITE's block's storage price:
  ///   replicate iff  sum_j exec(b_j)/1000  >=  K * storage(b_w)/1000.
  /// With an inactive model this is exactly the static constructor.
  OfflineOptimalPolicy(const workload::Trace& trace, double break_even_reads,
                       const PriceReplayModel& model);

  TierStep Observe(const workload::Operation& op) override;
  ads::ReplState StateOf(const Bytes& key) const override;
  std::string Name() const override {
    return priced_ ? "offline-optimal(priced)" : "offline-optimal";
  }
  std::string CounterState(const Bytes& key) const override;

 private:
  struct State {
    std::vector<ads::ReplState> decisions;  // per write, in order
    size_t next_write = 0;
    ads::ReplState state = ads::ReplState::kNR;
  };
  bool priced_ = false;
  KeyMap<State> states_;
};

class StaticPolicy : public ReplicationPolicy {
 public:
  explicit StaticPolicy(ads::ReplState state) : state_(state) {}

  TierStep Observe(const workload::Operation&) override {
    const tier::StorageTier t = tier::FromReplState(state_);
    return {t, t};
  }
  ads::ReplState StateOf(const Bytes&) const override { return state_; }
  std::string Name() const override {
    return state_ == ads::ReplState::kR ? "always-replicate(BL2)"
                                        : "never-replicate(BL1)";
  }

 private:
  ads::ReplState state_;
};

inline std::unique_ptr<StaticPolicy> MakeBL1() {
  return std::make_unique<StaticPolicy>(ads::ReplState::kNR);
}
inline std::unique_ptr<StaticPolicy> MakeBL2() {
  return std::make_unique<StaticPolicy>(ads::ReplState::kR);
}

}  // namespace grub::core
