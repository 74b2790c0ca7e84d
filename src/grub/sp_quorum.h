// Multi-SP quorum coordinator: N replicated watchdog daemons per feed with
// verified-detection failover.
//
// GRuB's trust model makes SP misbehaviour DETECTABLE (the contract rejects
// every forged proof) but a single SP still controls availability: a
// Byzantine or dead watchdog starves reads. The quorum closes that gap with
// redundancy: N SpDaemon replicas share the feed's ADS, exactly one is
// ACTIVE and polls; the coordinator watches two signals and fails over
// deterministically:
//
//   * verified rejections — the active daemon's deliver was rejected by
//     on-chain verification (DeliverOutcome::kRejected), a PROVEN
//     misbehaviour signal. After kBlacklistAfterRejections of them the
//     replica is blacklisted and the next standby promoted (same poll
//     cycle, so reads converge without an extra round).
//   * liveness stalls — the oldest pending request (tracked from chain
//     state, never from the SP's own claims) survives
//     kLivenessTimeoutPolls consecutive polls unchanged: the active SP
//     is omitting, crash-looping, or losing every transaction. Blacklist
//     and fail over.
//
// When every replica is blacklisted the coordinator paroles the one with
// the fewest rejections (availability over purity — the alternative is a
// permanently dead feed).
//
// A single-replica quorum is a strict pass-through: no tracker, no
// failover state, bit-identical Gas and behaviour to a bare SpDaemon (the
// CI byte-identity gate pins this).
//
// Failovers(), Blacklists() and the per-replica rejection and blacklist
// counts are the coordinator's only record of its decisions: ToJson,
// grubctl and GrubSystem::Robustness() read them here.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "fault/adversary.h"
#include "grub/request_tracker.h"
#include "grub/sp_daemon.h"

namespace grub::core {

/// A replica's standing with the coordinator.
enum class SpTrust {
  kActive = 0,   // currently serving
  kStandby,      // healthy, waiting for promotion
  kBlacklisted,  // proven misbehaviour or liveness timeout
};

const char* Name(SpTrust trust);

struct QuorumOptions {
  /// SP replicas (1..kMaxReplicas). 1 = the classic single-watchdog feed.
  size_t replicas = 1;
  /// Per-replica Byzantine behaviour (fault::ParseMulti grammar, e.g.
  /// "forge@2" or "0:omit*;1:replay@1"). Empty = every replica honest.
  std::string adversary_spec;
  /// Seed for probabilistic adversary triggers.
  uint64_t adversary_seed = 42;
};

class SpQuorum {
 public:
  static constexpr size_t kMaxReplicas = 8;
  /// Verified rejections before the active replica is blacklisted.
  static constexpr uint64_t kBlacklistAfterRejections = 2;
  /// Consecutive polls the oldest pending request may survive unchanged
  /// before the active replica is declared dead.
  static constexpr uint64_t kLivenessTimeoutPolls = 3;
  /// Standby accounts are derived collision-free above this base; replica 0
  /// always uses `sp_account` itself so N=1 stays bit-identical.
  static constexpr chain::Address kStandbyAccountBase = 500000;

  /// Throws std::invalid_argument on a bad adversary spec or replica count
  /// (mirrors GrubSystem's fault-schedule contract).
  SpQuorum(chain::Blockchain& chain, shard::ShardedAdsSp& sp,
           chain::Address storage_manager, chain::Address sp_account,
           QuorumOptions options, bool dedup_batch = false);

  /// One coordinated poll cycle: the active replica serves; rejections and
  /// stalls drive blacklist + failover, with the promoted replica polling
  /// in the same cycle. Returns total requests served.
  size_t PollAndServe();

  size_t ReplicaCount() const { return replicas_.size(); }
  size_t ActiveIndex() const { return active_; }
  SpDaemon& Active() { return *replicas_[active_].daemon; }
  SpDaemon& Replica(size_t i) { return *replicas_.at(i).daemon; }
  const SpDaemon& Replica(size_t i) const { return *replicas_.at(i).daemon; }
  SpTrust TrustOf(size_t i) const { return replicas_.at(i).trust; }
  /// Verified rejections the coordinator has charged to replica `i`.
  uint64_t RejectionsOf(size_t i) const { return replicas_.at(i).rejections; }
  /// Times replica `i` has been blacklisted (parole clears trust, not this).
  uint64_t BlacklistedCountOf(size_t i) const {
    return replicas_.at(i).blacklisted_count;
  }
  uint64_t Failovers() const { return failovers_; }
  uint64_t Blacklists() const { return blacklists_; }

  /// Forwards the accident-model injector to every replica (the Byzantine
  /// model rides separately via the per-replica adversaries).
  void SetFaultInjector(fault::FaultInjector* faults);
  void SetTracer(telemetry::Tracer* tracer);
  /// Forwards the workload observatory to every replica daemon (served
  /// deliver batches feed the monitor regardless of which replica is
  /// active). Null detaches.
  void SetWorkloadMonitor(telemetry::WorkloadMonitor* monitor);

  /// Deterministic JSON summary (grubctl --json `quorum` section, pinned by
  /// the golden-file regression test).
  std::string ToJson() const;

 private:
  struct ReplicaState {
    std::unique_ptr<SpDaemon> daemon;
    std::unique_ptr<fault::SpAdversary> adversary;  // null = honest
    chain::Address account = chain::kNullAddress;
    SpTrust trust = SpTrust::kStandby;
    uint64_t rejections = 0;
    uint64_t blacklisted_count = 0;
  };

  void Blacklist(const char* reason);
  /// Promotes the next healthy standby (parole when none). Returns false
  /// only if the quorum has a single replica.
  bool Failover();
  void CheckLiveness(size_t& served);

  chain::Blockchain& chain_;
  std::vector<ReplicaState> replicas_;
  size_t active_ = 0;
  uint64_t failovers_ = 0;
  uint64_t blacklists_ = 0;
  RequestTracker tracker_;
  uint64_t last_oldest_pending_ = 0;
  uint64_t stall_polls_ = 0;
  telemetry::Tracer* tracer_ = nullptr;  // not owned; may be null
};

}  // namespace grub::core
