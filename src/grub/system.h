// GrubSystem: N GRuB feeds on one chain plus the one trace driver used by
// every experiment.
//
// A feed is one deployment of Fig. 4: the StorageManagerContract, a generic
// ConsumerContract (DU), the SP-side forest (AdsSp shards; a KVStore only
// with an `sp_db_path`), the SpQuorum of watchdog daemons, and the DoClient
// control plane with a pluggable ReplicationPolicy. The constructor deploys
// feed 0, which every single-feed call site means; AddFeed deploys more on
// the SAME chain. Feeds are isolated by construction (disjoint contracts,
// accounts and shard sets), and FeedGas attributes each feed's Gas exactly
// via Blockchain::GasUsedBy on its two contracts: internal calls (gGet from a
// consumer, callbacks from a deliver) meter into the outer transaction's
// target, which is always one of the owning feed's contracts. The chain, the
// telemetry bundle, the tracer, the fault injector and the gas-price
// schedule are system-wide. The static baselines BL1/BL2 are the same system
// with degenerate policies; the BL3 dynamic baselines set the contract's
// on-chain-trace flags.
//
// Trace driving model (matching the paper's experiment setup):
//  * operations are grouped `ops_per_tx` to a transaction (32 in the micro
//    benches — "each [tx] encoding 32 operations", Fig. 8a);
//  * the reads of a group execute in one DU `run` transaction; misses are
//    answered by batched `deliver` transactions from the watchdog, polled
//    until the SP has nothing left to serve;
//  * writes buffer at the DO and flush in one `update` transaction when the
//    epoch (`txs_per_epoch` groups) closes;
//  * a scan expands to `scan_len` consecutive point reads over the live key
//    space and counts as that many operations (per-record accounting).
// Drive runs one trace on feed 0; DriveAll runs one trace per feed,
// round-robin one transaction group at a time, so blocks mix feeds the way a
// shared chain would. Both run the same per-group step. EpochGas and the
// telemetry epoch series stay chain-wide measures: under N feeds an epoch's
// Gas includes its neighbours' transactions mined in the meantime, and
// per-feed totals come from FeedGas.
#pragma once

#include <functional>
#include <memory>
#include <set>

#include "chain/blockchain.h"
#include "fault/injector.h"
#include "grub/consumer.h"
#include "grub/do_client.h"
#include "grub/policy.h"
#include "grub/sp_daemon.h"
#include "grub/sp_quorum.h"
#include "grub/storage_manager.h"
#include "shard/forest.h"
#include "telemetry/telemetry.h"
#include "workload/trace.h"

namespace grub::core {

/// How DU range reads are served.
enum class ScanMode {
  /// Expand a scan into per-record gGets (what the paper's evaluation
  /// normalization implies; each record pays its own proof).
  kExpandPointReads,
  /// One gScan request answered with a single range-completeness proof
  /// (B.2.2's r2 protocol) — far cheaper calldata for contiguous ranges.
  kRangeProof,
};

/// Everything one feed owns: its grouping, contracts, shard layout, SP
/// quorum and observatory. SystemOptions inherits these for feed 0.
struct FeedOptions {
  size_t ops_per_tx = 32;
  size_t txs_per_epoch = 1;
  ScanMode scan_mode = ScanMode::kExpandPointReads;
  bool trace_reads_on_chain = false;   // BL3 (reads)
  bool trace_writes_on_chain = false;  // BL3 (reads + writes)
  /// Merge duplicate requests within one deliver batch (ablation; the
  /// paper's prototype serves each request individually).
  bool dedup_deliver_batch = false;
  /// The SP's persistent backing store. Empty = none (the SP keeps its
  /// records and trees in memory only); feeds of one system need distinct
  /// paths.
  std::string sp_db_path;
  /// Number of key-range shards in the Merkle forest. 1 (the default) is the
  /// legacy single-tree deployment, bit-identical in Gas and calldata. With
  /// more shards the keyspace is range-partitioned (boundaries below or
  /// ShardMap::Uniform), each shard keeps its own tree + on-chain root, and
  /// the epoch update sends one transaction per touched shard.
  size_t shards = 1;
  /// Explicit shard boundaries (sorted, distinct; shard i covers
  /// [boundaries[i-1], boundaries[i])). Overrides `shards` when non-empty.
  /// Use IndexedKeyBoundaries() for workload::MakeKey keyspaces — ASCII
  /// keys occupy a sliver of the u64 prefix space, so Uniform() would put
  /// them all in shard 0.
  std::vector<Bytes> shard_boundaries;
  /// SP watchdog replicas (the Byzantine-SP quorum; see sp_quorum.h). 1 is
  /// the classic single-watchdog deployment, bit-identical in Gas and
  /// transactions to the pre-quorum pipeline.
  size_t sp_replicas = 1;
  /// Per-replica Byzantine behaviour spec (fault::ParseMulti grammar, e.g.
  /// "forge@2" or "0:omit*;1:replay@1"). Empty = all replicas honest. The
  /// constructor throws std::invalid_argument on a malformed spec.
  std::string adversary_spec;
  /// Seed for probabilistic adversary triggers.
  uint64_t adversary_seed = 42;
  /// Attach the workload observatory: a per-feed WorkloadMonitor streaming
  /// per-shard heat, hot-key sets, online K estimates, flip regret and
  /// gas-per-op drift as the system runs (grubctl --workload / --watch).
  /// Observation-only; never changes Gas results (the `identity` ctest
  /// pins it).
  bool enable_workload_monitor = false;
};

/// The system-wide knobs, plus feed 0's (inherited).
struct SystemOptions : FeedOptions {
  chain::ChainParams chain_params = {};
  /// Attach a Telemetry bundle: per-epoch snapshots of the chain's Gas
  /// matrix in Drive. Off by default — enabling it never changes Gas
  /// results (asserted in tests).
  bool enable_telemetry = false;
  /// Attach the request-scoped Tracer (implies a Telemetry bundle): spans
  /// per gGet/gScan/deliver/epoch, policy-flip audit records, Chrome
  /// JSON / JSONL export via Tracing(). Like enable_telemetry, never changes
  /// Gas results (asserted in tests).
  bool enable_tracing = false;
  /// Fault schedule (fault::FaultInjector::Parse grammar, e.g.
  /// "sp.deliver.drop@3,chain.reorg~0.05"). Empty = no injector, the off
  /// switch: every fault point is one null test and Gas results are
  /// bit-identical to a dormant schedule's (the `identity` ctest pins it).
  /// The constructor throws std::invalid_argument on a malformed schedule.
  std::string fault_schedule;
  /// Seed for the injector's probabilistic rules — same seed + schedule
  /// reproduces the identical failure (and recovery) sequence.
  uint64_t fault_seed = 42;
};

/// Gas measured over one epoch of driving.
struct EpochGas {
  uint64_t gas = 0;
  size_t ops = 0;
  /// Shards whose trees changed this epoch (1 at most in single-shard runs).
  size_t touched_shards = 0;

  double PerOp() const {
    return ops == 0 ? 0.0 : static_cast<double>(gas) / static_cast<double>(ops);
  }
};

/// One deployed feed: its contracts and accounts, SP forest, control plane,
/// quorum and observers. Owned and driven by GrubSystem.
class Feed {
 public:
  DoClient& Do() { return *do_client_; }
  ConsumerContract& Consumer() { return *consumer_; }
  SpQuorum& Quorum() { return *quorum_; }
  const SpQuorum& Quorum() const { return *quorum_; }
  shard::ShardedAdsSp& ShardedSp() { return sp_; }
  const shard::ShardMap& Shards() const { return sp_.Map(); }
  chain::Address ManagerAddress() const { return manager_address_; }
  chain::Address ConsumerAddress() const { return consumer_address_; }
  /// The feed's workload monitor, or null when `enable_workload_monitor` is
  /// off.
  telemetry::WorkloadMonitor* Workload() { return workload_.get(); }
  const telemetry::WorkloadMonitor* Workload() const { return workload_.get(); }

 private:
  friend class GrubSystem;
  explicit Feed(const FeedOptions& options);

  FeedOptions options_;
  shard::ShardedAdsSp sp_;
  chain::Address user_account_ = chain::kNullAddress;
  chain::Address manager_address_ = chain::kNullAddress;
  chain::Address consumer_address_ = chain::kNullAddress;
  ConsumerContract* consumer_ = nullptr;  // owned by the chain
  StorageManagerContract* manager_ = nullptr;  // owned by the chain
  std::unique_ptr<DoClient> do_client_;
  std::unique_ptr<SpQuorum> quorum_;
  std::unique_ptr<telemetry::WorkloadMonitor> workload_;  // null = off
  std::unique_ptr<OfflineOptimalPolicy> oracle_;  // null = regret unarmed
  std::set<Bytes> live_keys_;  // for scan expansion/bounds
};

class GrubSystem {
 public:
  /// Builds the chain and the system-wide observers, then deploys feed 0.
  GrubSystem(SystemOptions options, std::unique_ptr<ReplicationPolicy> policy);

  /// Deploys one more feed on the shared chain and returns its index. Its
  /// accounts are feed 0's shifted by 3 per index; the system-wide
  /// telemetry, tracer and fault injector attach to it as to feed 0. Throws
  /// std::invalid_argument on a malformed adversary spec.
  size_t AddFeed(const FeedOptions& options,
                 std::unique_ptr<ReplicationPolicy> policy);
  size_t FeedCount() const { return feeds_.size(); }
  Feed& FeedAt(size_t feed) { return *feeds_.at(feed); }
  const Feed& FeedAt(size_t feed) const { return *feeds_.at(feed); }
  /// Gas metered to one feed's two contracts since the last counter reset.
  uint64_t FeedGas(size_t feed) const;
  /// The run's cumulative robustness counts, summed over every feed and
  /// every SP replica from the components' own counters: fault fires of the
  /// schedule injector and of each replica's adversary, deliver plus update
  /// retries, watchdog re-emits, deliver rejections and SP failovers;
  /// `degraded` is 1 while any feed's DO is degraded. The epoch series'
  /// robustness columns and grubctl's robustness section read these.
  telemetry::RobustnessTotals Robustness() const;

  /// Bulk-loads records into feed 0 and zeroes the Gas counters.
  void Preload(const std::vector<std::pair<Bytes, Bytes>>& records);
  /// Bulk-loads records into one feed and zeroes the Gas counters.
  void Preload(size_t feed,
               const std::vector<std::pair<Bytes, Bytes>>& records);

  /// Drives a trace on feed 0 to completion; returns the per-epoch Gas series.
  std::vector<EpochGas> Drive(const workload::Trace& trace);
  /// Drives traces[i] on feed i (a feed may get an empty trace, or none),
  /// round-robin one transaction group at a time; returns each feed's
  /// per-epoch series.
  std::vector<std::vector<EpochGas>> DriveAll(
      const std::vector<workload::Trace>& traces);

  uint64_t TotalGas() const { return chain_.TotalGasUsed(); }
  chain::GasBreakdown TotalBreakdown() const { return chain_.TotalBreakdown(); }

  // Feed 0's components — every single-feed call site means exactly these.
  chain::Blockchain& Chain() { return chain_; }
  /// The first (single-shard deployments: only) shard's SP-side ADS —
  /// existing call sites predate the forest and mean exactly this.
  ads::AdsSp& Sp() { return ShardedSp().Shard(0); }
  /// The whole SP-side forest.
  shard::ShardedAdsSp& ShardedSp() { return feeds_[0]->ShardedSp(); }
  const shard::ShardMap& Shards() const { return feeds_[0]->Shards(); }
  DoClient& Do() { return feeds_[0]->Do(); }
  ConsumerContract& Consumer() { return feeds_[0]->Consumer(); }
  /// The ACTIVE watchdog daemon — single-replica deployments have exactly
  /// one, so existing call sites keep their meaning under the quorum.
  SpDaemon& Daemon() { return Quorum().Active(); }
  /// The multi-SP coordinator (always present; N=1 is a pass-through).
  SpQuorum& Quorum() { return feeds_[0]->Quorum(); }
  const SpQuorum& Quorum() const { return feeds_[0]->Quorum(); }
  chain::Address ManagerAddress() const { return feeds_[0]->ManagerAddress(); }
  chain::Address ConsumerAddress() const {
    return feeds_[0]->ConsumerAddress();
  }

  /// The multi-tier placement summary grubctl embeds verbatim under --json
  /// "placement" (and the placement golden test pins): policy name, per-tier
  /// key census, flip/pin/unpin counters, and log-tier serves across the
  /// quorum's daemons.
  std::string PlacementJson() const;

  /// The attached telemetry bundle, or null when `enable_telemetry` is off.
  /// (Capitalized to avoid shadowing the `telemetry` namespace in-class.)
  telemetry::Telemetry* Metrics() { return telemetry_.get(); }
  const telemetry::Telemetry* Metrics() const { return telemetry_.get(); }

  /// The attached fault injector, or null when no schedule was given.
  fault::FaultInjector* Faults() { return faults_.get(); }
  const fault::FaultInjector* Faults() const { return faults_.get(); }

  /// The attached Tracer, or null when `enable_tracing` is off.
  telemetry::Tracer* Tracing() {
    return telemetry_ == nullptr ? nullptr : telemetry_->Trace();
  }
  const telemetry::Tracer* Tracing() const {
    return telemetry_ == nullptr ? nullptr : telemetry_->Trace();
  }

  /// Feed 0's workload monitor, or null when `enable_workload_monitor` is
  /// off.
  telemetry::WorkloadMonitor* Workload() { return feeds_[0]->Workload(); }
  const telemetry::WorkloadMonitor* Workload() const {
    return feeds_[0]->Workload();
  }

  /// Arms one feed monitor's streaming-regret comparator: an
  /// OfflineOptimalPolicy replay over `trace` runs alongside driving, and
  /// every flip the clairvoyant oracle would pay feeds
  /// WorkloadMonitor::OnOracleFlip (scans are skipped, matching the
  /// trace-summary regret baseline — the oracle only flips at point
  /// observations). Call before each pass over the same trace; no-op when
  /// the feed's monitor is off. Under a non-unit GasPriceSchedule the oracle
  /// replay is price-aware (see OracleReplayModel), so streamed regret stays
  /// correct under non-stationary prices.
  void EnableWorkloadOracle(const workload::Trace& trace, size_t feed = 0);

  /// The op -> block model price-aware oracles replay the schedule with,
  /// anchored at the chain's current block. blocks_per_op is the driving
  /// loop's approximate slope: ~3 mined blocks per `ops_per_tx`-op group
  /// (consumer run + deliver + amortized epoch update) — approximate by
  /// construction, documented in DESIGN.md §10.
  PriceReplayModel OracleReplayModel(size_t feed = 0) const;

  /// Streams one JSONL snapshot of feed 0's WorkloadMonitor to `out` every
  /// `every_blocks` blocks while driving (the grubctl --watch stream). Pass
  /// null/0 to detach; no-op when the monitor is off.
  void SetWatch(uint64_t every_blocks, std::ostream* out);

  /// Issues a single read on feed 0 immediately (its own transaction + any
  /// deliver).
  void ReadNow(const Bytes& key);
  /// Buffers a write into feed 0's current DO epoch.
  void Write(Bytes key, Bytes value);
  /// Ends feed 0's current epoch explicitly.
  void EndEpoch();

  /// Feed 0's accounts; feed i uses these plus 3 * i.
  static constexpr chain::Address kDoAccount = 1001;
  static constexpr chain::Address kSpAccount = 1002;
  static constexpr chain::Address kUserAccount = 1003;

 private:
  /// Where one feed's pass over its trace stands.
  struct DriveState {
    const workload::Trace* trace = nullptr;
    size_t next = 0;  // index of the next operation to drive
    size_t groups_in_epoch = 0;
    size_t ops_in_epoch = 0;
    uint64_t epoch_start_gas = 0;
    std::vector<EpochGas> epochs;
  };
  DriveState StartDrive(const workload::Trace& trace) const;
  /// The one per-group step: turns the next transaction group of the
  /// feed's trace into transactions, then closes the group, and the epoch
  /// when it is full or the trace has ended. Requires an undriven operation.
  void DriveGroup(Feed& feed, DriveState& state);
  void CloseEpoch(Feed& feed, DriveState& state);
  void FlushReadGroup(Feed& feed);
  void BufferWrite(Feed& feed, Bytes key, Bytes value);
  std::vector<Bytes> ExpandScan(const Feed& feed, const Bytes& start,
                                uint32_t len) const;
  /// Feeds one point observation to the feed's armed oracle replay (no-op
  /// without one) and forwards any flip to its monitor's regret accumulator.
  void ObserveOracle(Feed& feed, const workload::Operation& op);
  /// Emits a --watch snapshot when the chain crossed into a new window.
  void MaybeEmitWatch();

  SystemOptions options_;
  chain::Blockchain chain_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;  // null = disabled
  std::unique_ptr<fault::FaultInjector> faults_;     // null = no schedule
  std::vector<std::unique_ptr<Feed>> feeds_;
  uint64_t watch_every_blocks_ = 0;       // 0 = no watch stream
  std::ostream* watch_out_ = nullptr;     // not owned; may be null
  uint64_t watch_windows_emitted_ = 0;    // watch windows already snapshot
};

/// Convenience: Eq. 1's K = C_update / C_read_off for a schedule.
double BreakEvenK(const chain::GasSchedule& gas);

/// Builds the ShardMap a feed's options describe (boundaries win over the
/// uniform count). Exposed so benches/tools can inspect the layout.
shard::ShardMap MakeShardMap(const FeedOptions& options);

/// Shard boundaries that split the workload::MakeKey(0..key_count) keyspace
/// into `shards` near-equal ranges. MakeKey emits fixed-width ASCII keys
/// ("k%015llu"), which collapse into one uniform-prefix bucket — these
/// boundaries are the MakeKey quantiles instead.
std::vector<Bytes> IndexedKeyBoundaries(uint64_t key_count, size_t shards);

}  // namespace grub::core
