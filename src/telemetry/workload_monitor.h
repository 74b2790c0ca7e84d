// Per-feed workload observatory: the online sensing layer the replication
// policies and ROADMAP items 1/2/5a consume. Where the trace analyzer
// characterizes a workload after the run ends, the WorkloadMonitor streams
// the same signals as the system executes:
//
//   * per-shard heat scores — block-windowed decayed read+write rates,
//     the input signal for load-driven shard split/merge;
//   * hot-key sets — a SpaceSaving sketch over all key touches;
//   * online per-key and global K estimates (reads per write), the live
//     counterpart of the break-even K the policies decide against;
//   * a streaming flip-regret accumulator against an OfflineOptimalPolicy
//     replay (fed externally — see OnOracleFlip);
//   * an EWMA gas-per-op drift detector (ROADMAP 5a's hook for
//     non-stationary pricing).
//
// Contract (same as tracing, PR 3): the monitor is Gas-invisible. It only
// observes — every hook is called after the simulation decision it watches,
// it holds no references into mutable simulation state, and chain Gas is
// byte-identical with the monitor on or null (the `identity` ctest pins
// it). Determinism: all exported numbers derive from block heights and
// operation streams, never the wall clock, so same-seed runs produce
// byte-identical --watch snapshots and --json sections.
//
// Layering: grub_telemetry links only grub_common, so the monitor cannot
// name ShardMap or OfflineOptimalPolicy. The shard mapping arrives as a
// std::function, and the oracle's flips arrive as OnOracleFlip() calls from
// the GrubSystem-side replay.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/key_map.h"
#include "telemetry/json.h"
#include "telemetry/sketch.h"

namespace grub::telemetry {

class WorkloadMonitor {
 public:
  struct Options {
    /// Number of shards heat is bucketed into (>= 1).
    uint32_t shard_count = 1;
    /// Key -> shard bucket. Must be pure and deterministic. When empty,
    /// every key lands in shard 0.
    std::function<uint32_t(const Bytes&)> shard_of;
    /// SpaceSaving sketch capacity (tracked-key budget).
    size_t sketch_capacity = 64;
    /// Block window for all rate estimators.
    uint64_t rate_window_blocks = 16;
  };

  /// EWMA weight for the rate estimators.
  static constexpr double kRateAlpha = 0.5;
  /// Gas-per-op drift detector tuning: EWMA weight, alarm threshold (% off
  /// the EWMA) and epochs of warm-up before it may alarm.
  static constexpr double kDriftAlpha = 0.25;
  static constexpr double kDriftThresholdPct = 25.0;
  static constexpr uint64_t kDriftWarmup = 4;

  /// Per-key online state, kept only for sketch-tracked keys.
  struct KeyStats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    /// Observed reads-per-write — the live analogue of the workload K the
    /// paper's policies decide against. 0 until the first write.
    double KEstimate() const {
      return writes == 0 ? 0.0
                         : static_cast<double>(reads) /
                               static_cast<double>(writes);
    }
  };

  struct ShardStats {
    uint64_t reads = 0;
    uint64_t writes = 0;
  };

  explicit WorkloadMonitor(Options options);

  // ---- hooks (called by DoClient / SpDaemon / StorageManagerContract) ----

  /// DO-side read of `key` at `block` (DoClient::NoteRead).
  void OnRead(const Bytes& key, uint64_t block);
  /// DO-side write of `key` at `block` (DoClient::BufferPut).
  void OnWrite(const Bytes& key, uint64_t block);
  /// An actual replication flip the online policy performed.
  void OnFlip(bool to_replicated);
  /// One flip the offline-optimal oracle would have performed over the same
  /// stream. Fed by the GrubSystem-side OfflineOptimalPolicy replay.
  void OnOracleFlip();
  /// SP delivered `entries` update entries at `block`.
  void OnDeliver(uint64_t entries, uint64_t block);
  /// On-chain gGet served from the replica (`replica_hit`) or escalated to
  /// an SP round-trip.
  void OnChainRead(bool replica_hit);
  /// Epoch boundary: `ops` operations consumed `gas` Gas, closing at
  /// `block`. Feeds the gas-per-op drift detector.
  void OnEpochClose(uint64_t ops, uint64_t gas, uint64_t block);

  // ---- exports ----

  /// Per-shard heat (decayed read+write ops per block) as of `block`.
  std::vector<double> ShardHeat(uint64_t block) const;
  /// Heaviest keys by total touches (reads+writes), deterministic order.
  std::vector<HotKey> HotKeys(size_t k) const;
  /// Per-key stats for a tracked key; nullptr when the sketch evicted it.
  const KeyStats* StatsOf(const Bytes& key) const;
  /// Global reads-per-write across the whole stream (0 until a write).
  double GlobalKEstimate() const;

  uint64_t TotalReads() const { return total_reads_; }
  uint64_t TotalWrites() const { return total_writes_; }
  uint64_t ActualFlips() const { return actual_flips_; }
  uint64_t OracleFlips() const { return oracle_flips_; }
  /// Excess flips over the oracle, saturating at 0.
  uint64_t FlipRegret() const {
    return actual_flips_ > oracle_flips_ ? actual_flips_ - oracle_flips_ : 0;
  }
  const EwmaDriftDetector& GasDrift() const { return gas_drift_; }
  uint64_t ReplicaHits() const { return replica_hits_; }
  uint64_t ReplicaMisses() const { return replica_misses_; }
  uint64_t DeliveredEntries() const { return delivered_entries_; }

  /// The pinned `"workload"` section of `grubctl --json` (golden-tested).
  JsonValue ToJson(uint64_t block) const;
  /// One compact JSONL line for `--watch` streams; starts with {"block":
  /// so downstream filters can recognize watch output.
  std::string SnapshotJsonLine(uint64_t block) const;
  /// Human-readable report (the `grubctl --workload` table).
  void PrintTable(uint64_t block, std::FILE* out = stdout) const;

 private:
  void Touch(const Bytes& key, uint64_t block, bool is_write);

  Options options_;
  SpaceSavingSketch sketch_;
  /// Sketch-tracked keys only: one probe per observed op, and nothing
  /// iterates it (StatsOf serves the hot-key K estimates).
  KeyMap<KeyStats> key_stats_;
  std::vector<ShardStats> shard_stats_;
  std::vector<BlockRateEstimator> shard_read_rate_;
  std::vector<BlockRateEstimator> shard_write_rate_;
  BlockRateEstimator deliver_rate_;
  EwmaDriftDetector gas_drift_;

  uint64_t total_reads_ = 0;
  uint64_t total_writes_ = 0;
  uint64_t actual_flips_ = 0;
  uint64_t flips_to_replicated_ = 0;
  uint64_t oracle_flips_ = 0;
  uint64_t replica_hits_ = 0;
  uint64_t replica_misses_ = 0;
  uint64_t delivered_entries_ = 0;
  uint64_t epochs_closed_ = 0;
  uint64_t last_block_ = 0;
};

}  // namespace grub::telemetry
