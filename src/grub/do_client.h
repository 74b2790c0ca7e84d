// The data owner's off-chain client: GRuB's control plane (§3.2) plus the
// write path of the data plane (§B.2.1).
//
// Per epoch the DO:
//  1. MONITORS: recovers the epoch's reads from the blockchain's
//     contract-call history (gGet internal calls) — never from the untrusted
//     SP — and tracks which replicas materialized on chain by decoding
//     deliver transactions. Local writes are observed directly.
//  2. DECIDES: feeds the federated trace (reads first — they landed on chain
//     before this epoch's write batch — then writes) to the pluggable
//     ReplicationPolicy.
//  3. ACTUATES: flips record state bits through verified ADS updates on the
//     SP (changing the root), and sends the epoch's update() carrying the
//     new signed digest, full values for records whose on-chain replica
//     must stay fresh, and evictions for R->NR transitions. NR->R
//     materialization is lazy: the next read's deliver inserts the replica
//     (charged then), so replicas that are never read again cost nothing
//     on-chain.
//
// The update path is the same at every shard count: one update() per
// involved shard (at one shard, the one shard every epoch), each split only
// where the Ctx(X) calldata bound requires. The shard-root section appears
// in the calldata only with more than one shard, so a single-tree
// deployment sends the paper's update() byte for byte.
#pragma once

#include <array>
#include <set>
#include <unordered_set>
#include <vector>

#include "chain/blockchain.h"
#include "fault/injector.h"
#include "grub/policy.h"
#include "grub/request_tracker.h"
#include "grub/storage_manager.h"
#include "kvstore/db.h"
#include "shard/forest.h"
#include "telemetry/metrics.h"
#include "telemetry/tracing.h"
#include "telemetry/workload_monitor.h"

namespace grub::core {

class DoClient {
 public:
  struct Options {
    chain::Address do_account = chain::kNullAddress;
    chain::Address storage_manager = chain::kNullAddress;
  };

  /// A pending read older than this many blocks is stale: the liveness
  /// watchdog re-emits it (the SP never answered — its deliver was lost,
  /// or the daemon is down).
  static constexpr uint64_t kWatchdogTimeoutBlocks = 2;
  /// Consecutive liveness rounds with stale reads before the DO degrades:
  /// it force-replicates the starved keys on chain (falling back toward
  /// BL2) so reads keep being served without the SP.
  static constexpr uint64_t kDegradeAfterRounds = 2;
  /// Bounded resubmission for a lost update() transaction; each retry
  /// carries the identical calldata (same epoch digest).
  static constexpr uint64_t kMaxUpdateAttempts = 3;
  /// Base of the deterministic exponential retry backoff.
  static constexpr chain::TimeSec kRetryBackoffSec = 2;

  /// Hashed key set for the per-key sets consulted on every epoch close.
  using KeySet = std::unordered_set<Bytes, BytesHash, BytesEqual>;

  /// `sp` carries the shard layout: the DO mirrors it with one tree per
  /// shard. A single-shard forest is the legacy deployment bit-for-bit.
  DoClient(chain::Blockchain& chain, shard::ShardedAdsSp& sp, Options options,
           std::unique_ptr<ReplicationPolicy> policy);

  /// Buffers one data update for the current epoch (a gPuts item).
  void BufferPut(Bytes key, Bytes value);

  /// Feeds one DU read to the workload monitor at its position in the
  /// operation stream. The paper's monitor continuously federates the
  /// chain-recovered read trace with local write timestamps (§3.2);
  /// NoteRead models that merged stream at operation granularity. The chain
  /// history remains the integrity source (replica tracking decodes deliver
  /// transactions; nothing is ever learned from the SP).
  void NoteRead(const Bytes& key);

  /// Bulk-loads initial records (no verification round-trips, one update
  /// transaction). Benchmarks reset Gas counters afterwards.
  void Preload(const std::vector<std::pair<Bytes, Bytes>>& records);

  /// Closes the epoch: monitor -> decide -> actuate -> update() transaction.
  /// Returns the receipt of the update transaction.
  chain::Receipt EndEpoch();

  /// Time-based epoch boundary (the paper's epochs are intervals, e.g. one
  /// minute): closes the epoch only if there is something to publish —
  /// buffered writes, replication-state transitions, or evictions. A
  /// boundary with no changes costs nothing (no transaction). Returns true
  /// if an update transaction was sent.
  bool EndEpochIfDirty();

  uint64_t CurrentEpoch() const { return epoch_; }
  const ReplicationPolicy& Policy() const { return *policy_; }
  ReplicationPolicy& MutablePolicy() { return *policy_; }

  /// Keys whose replica currently lives in contract storage (as tracked by
  /// the monitor).
  const KeySet& OnChainReplicas() const { return replicas_on_chain_; }

  /// Keys whose log-tier digest pin is currently live on chain.
  const KeySet& LogPinsOnChain() const { return log_pins_on_chain_; }

  /// Per-tier key counts over every key the DO's ADS mirror holds (the
  /// preloaded keys plus every key written since), by the policy's CURRENT
  /// placement (the `placement` census grubctl surfaces).
  std::array<size_t, tier::kNumStorageTiers> TierCensus() const;

  uint64_t tier_flips() const { return tier_flips_; }
  uint64_t log_pins() const { return log_pins_; }
  uint64_t log_unpins() const { return log_unpins_; }

  /// The DO's ADS digest (what the next update() will publish): the shard
  /// root itself in a single-shard deployment, else the root-of-roots.
  Hash256 Root() const { return ads_do_.RootOfRoots(); }

  /// Shards whose Merkle trees changed in the last closed epoch (or
  /// preload). Feeds the telemetry epoch column and the scaling benches.
  size_t LastEpochTouchedShards() const { return last_epoch_touched_shards_; }

  /// Cumulative Gas of the epoch update() transactions attributed to each
  /// shard (indexed by shard). Every epoch sends one update per involved
  /// shard, so receipts meter this exactly; at one shard every epoch's
  /// update, digest-only or not, is shard 0's.
  const std::vector<uint64_t>& PerShardUpdateGas() const {
    return per_shard_update_gas_;
  }

  /// Read-liveness watchdog: scans the chain for requests that have been
  /// pending longer than kWatchdogTimeoutBlocks and re-emits them
  /// (fresh gGet/gScan transactions from the DO's account, so the consumer
  /// callback still fires). After kDegradeAfterRounds consecutive stale
  /// rounds the DO degrades: starved point-read keys are force-replicated on
  /// chain with the current epoch digest — reads fall back toward BL2 and
  /// keep being served without the SP. When the backlog clears, the DO
  /// un-degrades and hands the forced keys back to the policy (they are
  /// evicted at the next epoch close unless the policy wants them
  /// replicated). Call once per driver step, after the SP had its chance to
  /// poll; fault-free runs take the no-op path and cost no Gas.
  void CheckReadLiveness();

  bool degraded() const { return degraded_; }
  uint64_t update_retries() const { return update_retries_; }
  uint64_t watchdog_reemits() const { return watchdog_reemits_; }

  /// Installs replication-decision counters, labeled by the policy's name:
  /// do.replication_flips{policy,direction=nr_to_r|r_to_nr} counts per-key
  /// state transitions as the monitor observes the workload, plus the
  /// robustness instruments (do.update_retries, do.watchdog_reemits
  /// counters; do.degraded gauge). Null detaches.
  void SetMetrics(telemetry::MetricsRegistry* registry);

  /// Installs the fault injector consulted at the DO's fault points
  /// (do.update.drop). Null detaches.
  void SetFaultInjector(fault::FaultInjector* faults) { faults_ = faults; }

  /// Request-scoped tracing: buffered puts open an epoch span that closes at
  /// the update() transaction, every policy flip emits an audit record with
  /// the counter state that justified it, and watchdog re-emits annotate the
  /// starved request's span. Null (the default) skips all recording.
  void SetTracer(telemetry::Tracer* tracer) {
    tracer_ = tracer;
    // Flip-only audit capture inside Observe(): the per-op hot path stays
    // free of counter-string formatting.
    policy_->EnableAudit(tracer != nullptr);
  }

  /// Streams each observed read/write (and every policy flip) into the
  /// workload observatory. Also hands the monitor to the policy: adaptive
  /// tier placement prefers the observatory's live K̂ estimates over its own
  /// counters when one is bound. Null (the default) detaches both.
  void SetWorkloadMonitor(telemetry::WorkloadMonitor* monitor) {
    workload_ = monitor;
    policy_->BindWorkloadMonitor(monitor);
  }

 private:
  void MonitorChainHistory();
  /// Submits an update() transaction, resubmitting the identical calldata
  /// with deterministic backoff when the transaction is lost. `trace_span`
  /// (0 = none) receives retry/drop annotations and rides the transaction.
  chain::Receipt SubmitUpdate(Bytes calldata, telemetry::GasCause cause,
                              uint64_t trace_span = 0);
  /// Opens the current epoch's span on first use (tracing only).
  void EnsureEpochSpan();
  /// Emits the policy-audit record for an observation that flipped `key`,
  /// with the counter evidence the policy captured around the flip.
  void RecordFlipAudit(const Bytes& key, ads::ReplState before,
                       ads::ReplState after, const char* op);
  /// Sends the epoch's update transactions: one update() per involved
  /// shard (one with tree changes or replica/eviction/tier traffic, and at
  /// one shard the one shard always), each carrying the incremental
  /// root-of-roots after that shard's root lands, its Gas accumulated into
  /// per_shard_update_gas_. `pre_roots` are the shard roots before this
  /// epoch's batches were applied (== what the contract currently stores).
  /// Returns the last receipt.
  chain::Receipt SubmitEpochUpdates(std::vector<Hash256> pre_roots,
                                    const std::vector<uint32_t>& tree_touched,
                                    std::vector<ads::FeedRecord> replicated,
                                    std::vector<Bytes> evictions,
                                    TierSuffix tiered);
  /// Splits one logical update into as many update() payloads as the
  /// Ctx(X) calldata validity bound requires (X < 1000 words — see
  /// GasSchedule::kMaxCalldataBytes), in the deployment's layout. Every
  /// chunk carries the same digest and epoch (re-storing the root is
  /// idempotent); only the first carries the shard roots. The common small
  /// update stays one payload, byte-identical to the unchunked encoding.
  std::vector<Bytes> EncodeUpdateChunks(
      const Hash256& digest,
      const std::vector<std::pair<uint64_t, Hash256>>& shard_roots,
      const std::vector<ads::FeedRecord>& replicated,
      const std::vector<Bytes>& evictions, const TierSuffix& tiered) const;
  /// Force-replicates starved keys and flips into degraded mode.
  void Degrade(const std::vector<PendingRequest>& stale);
  /// Leaves degraded mode; forced keys return to policy control.
  void Undegrade();
  Result<Bytes> CachedValue(const Bytes& key) const;
  /// Compares a key's policy state before/after an Observe and bumps the
  /// matching flip counter (no-op without metrics).
  void NoteFlip(ads::ReplState before, ads::ReplState after);

  chain::Blockchain& chain_;
  shard::ShardedAdsSp& sp_;
  Options options_;
  std::unique_ptr<ReplicationPolicy> policy_;
  shard::ShardedAdsDo ads_do_;

  // DO-local copy of current values (it produced them), in the embedded
  // KVStore — used to re-encode records on state-only flips.
  std::unique_ptr<kv::KVStore> value_cache_;

  struct BufferedWrite {
    Bytes key;
    Bytes value;
  };
  std::vector<BufferedWrite> pending_writes_;
  // Keys observed since the last epoch close. Ordered: its order is the
  // eviction and unpin order in the update() calldata.
  std::set<Bytes> touched_;

  KeySet replicas_on_chain_;
  KeySet log_pins_on_chain_;
  size_t call_history_cursor_ = 0;
  uint64_t epoch_ = 0;

  // Read-liveness watchdog / degradation state.
  RequestTracker tracker_;
  fault::FaultInjector* faults_ = nullptr;  // not owned; may be null
  telemetry::Tracer* tracer_ = nullptr;     // not owned; may be null
  telemetry::WorkloadMonitor* workload_ = nullptr;  // not owned; may be null
  uint64_t epoch_span_ = 0;                 // open epoch span (0 = none)
  std::string policy_name_;  // cached Policy().Name() for audit records
  bool degraded_ = false;
  KeySet forced_replicas_;           // degradation-pinned on-chain replicas
  uint64_t stale_rounds_ = 0;        // consecutive rounds with stale reads
  uint64_t update_retries_ = 0;
  uint64_t watchdog_reemits_ = 0;
  uint64_t tier_flips_ = 0;   // per-key placement changes (any tier pair)
  uint64_t log_pins_ = 0;     // log-tier records ridden in update() txs
  uint64_t log_unpins_ = 0;   // digest pins dropped (keys leaving the tier)
  size_t last_epoch_touched_shards_ = 0;
  std::vector<uint64_t> per_shard_update_gas_;  // indexed by shard

  // Cached instruments (null = telemetry off).
  telemetry::Counter* flips_nr_to_r_ = nullptr;
  telemetry::Counter* flips_r_to_nr_ = nullptr;
  telemetry::Counter* update_retries_counter_ = nullptr;
  telemetry::Counter* reemits_counter_ = nullptr;
  telemetry::Gauge* degraded_gauge_ = nullptr;
};

}  // namespace grub::core
