// The SP-side watchdog daemon (§3.3, read path r2/r3).
//
// "The SP runs an external daemon process (watchdog) that spins on the log
// to wait for a request event." Here the spin is a poll over the chain's
// event log; each poll gathers every unanswered `request`, resolves it
// against the SP's local KV store (record + proof, or absence proof), and
// answers them all in ONE batched `deliver` transaction — the middleware
// batching that amortizes the 21000-Gas transaction base across a read
// batch.
//
// Failure handling: the event cursor is disposable in-memory state — a
// (re)constructed daemon re-derives it from the chain's pending-request set
// (RequestTracker), so a crash/restart neither re-serves history nor skips
// outstanding requests. Deliver submission retries with deterministic
// exponential backoff when the transaction is lost; a rejected deliver rolls
// the cursor back so the next poll rebuilds fresh proofs.
//
// The daemon's counters (delivers sent, deliver retries and rejections,
// digest entries served) are the only copy of those counts: grubctl, the
// quorum's JSON summary and GrubSystem::Robustness() read them here. The
// daemon reads no clock; perfbench times the serve path from outside.
#pragma once

#include <optional>

#include "shard/forest.h"
#include "chain/blockchain.h"
#include "common/key_map.h"
#include "fault/adversary.h"
#include "fault/injector.h"
#include "grub/request_tracker.h"
#include "grub/storage_manager.h"
#include "telemetry/tracing.h"
#include "telemetry/workload_monitor.h"

namespace grub::core {

/// How the last poll cycle ended — the typed signal the quorum coordinator
/// keys failover decisions on. kRejected is the PROVEN-misbehaviour outcome
/// (the contract rejected a proof); kLost/kCrashed are mere liveness noise.
enum class DeliverOutcome {
  kIdle = 0,  // nothing to serve
  kServed,    // deliver included and accepted (or delayed in the mempool)
  kCrashed,   // the poll crashed before serving
  kLost,      // every submission attempt was lost in transit
  kRejected,  // included but rejected by on-chain verification — or skipped
              // because this exact deliver was already rejected
  kOmitted,   // a Byzantine daemon swallowed the batch without serving it
};

class SpDaemon {
 public:
  /// `dedup_batch` merges identical (key, callback) requests of one poll
  /// into a single proven entry — a middleware optimization beyond the
  /// paper's prototype (off by default; see the batching ablation bench).
  ///
  /// Construction recovers the event cursor from chain state, so building a
  /// daemon mid-trace (an SP restart) resumes exactly where the previous
  /// instance left off.
  SpDaemon(chain::Blockchain& chain, shard::ShardedAdsSp& sp,
           chain::Address storage_manager, chain::Address sp_account,
           bool dedup_batch = false)
      : chain_(chain),
        sp_(sp),
        manager_(storage_manager),
        sp_account_(sp_account),
        dedup_batch_(dedup_batch),
        tracker_(storage_manager) {
    RecoverCursor();
  }

  /// One poll cycle: tail new request events, build proofs, submit one
  /// deliver transaction (mined immediately; resubmitted with backoff if the
  /// transaction is lost). Returns requests served — 0 when the poll crashed,
  /// every submission attempt was lost, or the deliver was rejected (those
  /// requests stay pending and are retried by the next poll).
  size_t PollAndServe();

  /// Total deliver transactions sent (observability).
  uint64_t delivers_sent() const { return delivers_sent_; }
  /// Deliver resubmissions after a lost transaction. Rejected delivers are
  /// NEVER resubmitted (rejection is deterministic in calldata + roots), so
  /// this counts only transit losses.
  uint64_t deliver_retries() const { return deliver_retries_; }
  /// Delivers provably rejected by on-chain verification, including polls
  /// short-circuited by the no-resend guard. The quorum's blacklist signal.
  uint64_t deliver_rejections() const { return deliver_rejections_; }
  /// Log-tier digest entries built into deliver batches: reads served by
  /// replaying the `grub_data` receipt instead of proving a Merkle path.
  uint64_t digest_entries_served() const { return digest_entries_served_; }
  /// Poll cycles since the last successful deliver that ended in failure
  /// (crash, exhausted retries, rejected deliver). Resets on success.
  uint64_t consecutive_failures() const { return consecutive_failures_; }
  /// How the most recent PollAndServe ended.
  DeliverOutcome last_outcome() const { return last_outcome_; }

  /// Installs the fault injector consulted at the daemon's fault points
  /// (sp.crash, sp.deliver.drop, sp.proof.corrupt). Null detaches.
  void SetFaultInjector(fault::FaultInjector* faults) { faults_ = faults; }

  /// Request-scoped tracing: each poll's deliver batch becomes a span, and
  /// drops/retries/serves annotate the request spans they touch. Null (the
  /// default) skips all recording.
  void SetTracer(telemetry::Tracer* tracer) { tracer_ = tracer; }

  /// Streams served deliver batches into the workload observatory
  /// (observation-only; null skips recording).
  void SetWorkloadMonitor(telemetry::WorkloadMonitor* monitor) {
    workload_ = monitor;
  }

  /// Arms this replica with a Byzantine behaviour model (null = honest; a
  /// null adversary changes no Gas).
  void SetAdversary(fault::SpAdversary* adversary) { adversary_ = adversary; }
  const fault::SpAdversary* Adversary() const { return adversary_; }

  /// Failover entry point: a standby promoted to active re-derives its
  /// cursor from chain state and forgets the no-resend quarantine (its own
  /// proofs are not the rejected ones).
  void Reactivate() {
    RecoverCursor();
    last_rejected_digest_.reset();
  }

 private:
  /// Re-derives the event cursor from the chain: everything before the
  /// oldest pending request is answered; with nothing pending, resume at the
  /// log tail. This is the crash-recovery path — and the constructor's.
  void RecoverCursor();

  /// Folds new `grub_data`/`grub_unpin` receipts into the live log-value
  /// map — the SP's receipt-replay store for log-tier keys. Runs on its own
  /// cursor: the request cursor resumes from the pending set, but the value
  /// fold must replay every data receipt since genesis exactly once (a
  /// reorg below the fold cursor clears the map and refolds from scratch).
  void FoldLogEvents();

  /// Applies the armed adversary's proof mutations (forge / truncate /
  /// stale-root / equivocate) to the outgoing batch.
  void MutateEntries(std::vector<DeliverEntry>& entries);

  static constexpr uint64_t kMaxDeliverAttempts = 3;
  static constexpr chain::TimeSec kRetryBackoffSec = 2;

  chain::Blockchain& chain_;
  shard::ShardedAdsSp& sp_;
  chain::Address manager_;
  chain::Address sp_account_;
  bool dedup_batch_ = false;
  uint64_t cursor_ = 0;  // next event log index to inspect
  uint64_t log_fold_cursor_ = 0;  // next log index the value fold inspects
  /// Live log-tier values reconstructed from `grub_data` receipts (erased on
  /// `grub_unpin`). THE storage log-tier reads are served from.
  KeyMap<Bytes> log_values_;
  uint64_t digest_entries_served_ = 0;
  uint64_t delivers_sent_ = 0;
  uint64_t deliver_retries_ = 0;
  uint64_t deliver_rejections_ = 0;
  uint64_t consecutive_failures_ = 0;
  DeliverOutcome last_outcome_ = DeliverOutcome::kIdle;
  RequestTracker tracker_;
  fault::FaultInjector* faults_ = nullptr;      // not owned; may be null
  fault::SpAdversary* adversary_ = nullptr;     // not owned; null = honest
  telemetry::Tracer* tracer_ = nullptr;         // not owned; may be null
  telemetry::WorkloadMonitor* workload_ = nullptr;  // not owned; may be null

  /// Digest of the last deliver the contract rejected. While the rebuilt
  /// calldata still matches, submission is skipped — re-sending a provably
  /// bad proof burns Gas for a foregone verdict.
  std::optional<Hash256> last_rejected_digest_;
  /// Adversary ammunition, maintained only while an adversary is armed: the
  /// first proof ever served per key (goes stale once the root moves) and
  /// the last accepted deliver calldata (for replay).
  KeyMap<ads::QueryProof> stale_proofs_;
  Bytes last_good_calldata_;
};

}  // namespace grub::core
