// EpochSeries: per-epoch time-series snapshots of the chain's Gas matrix.
//
// The epoch closer (GrubSystem, or a bench driving its own epochs) closes
// one row per epoch from the chain's cumulative matrix
// (Blockchain::TotalGasMatrix); each row carries the epoch's operation count
// and the matrix DELTA since the previous row (so rows sum exactly to the
// run's total — the invariant the integration tests assert). Rows export as
// CSV (one header + one line per epoch) and JSON-lines (one object per
// epoch), the shared schema the bench JSON consumers read.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "telemetry/gas_attribution.h"

namespace grub::telemetry {

/// Robustness counters sampled at epoch close (cumulative since run start);
/// EpochSeries turns the monotone ones into per-epoch deltas.
struct RobustnessTotals {
  uint64_t fault_fires = 0;       // injected fault-point fires
  uint64_t retries = 0;           // deliver + update resubmissions
  uint64_t watchdog_reemits = 0;  // DO re-emitted stale read requests
  int64_t degraded = 0;           // degradation level at close (gauge, 0/1)
  uint64_t deliver_rejections = 0;  // delivers the contract rejected (verified
                                    // detections of a lying/forging SP)
  uint64_t sp_failovers = 0;        // quorum switched the active SP replica
};

/// Effective gas-price multipliers sampled at epoch close. Lives here (not in
/// src/chain) because telemetry must not depend on the chain layer; the
/// driver copies the chain's PricePoint in. `valid` is false when the run has
/// no non-unit schedule, and exports add price columns only when some row is
/// valid — so constant-price output stays byte-identical to the pre-scenario
/// schema.
struct EpochPrice {
  bool valid = false;
  uint64_t exec_milli = 1000;
  uint64_t storage_milli = 1000;
};

struct EpochRow {
  uint64_t epoch = 0;  // 0-based, in close order
  uint64_t ops = 0;
  GasMatrix gas;  // the chain matrix's delta over this epoch
  // Robustness deltas for this epoch (zero in fault-free runs).
  uint64_t fault_fires = 0;
  uint64_t retries = 0;
  uint64_t watchdog_reemits = 0;
  int64_t degraded = 0;  // level at close, not a delta
  uint64_t deliver_rejections = 0;
  uint64_t sp_failovers = 0;
  // Shards whose Merkle trees changed this epoch (1 at most in an unsharded
  // deployment; the scaling benches pin per-epoch update Gas to this, not to
  // the keyspace size).
  uint64_t touched_shards = 0;
  // Per-shard heat (decayed ops/block) sampled at epoch close by the
  // workload monitor; empty when the monitor is off. Exports add
  // heat_shard<i> columns only when some row carries heat, so monitor-off
  // output stays byte-identical to the pre-observatory schema.
  std::vector<double> shard_heat;
  // Effective price multipliers at epoch close (scenario-lab runs only; see
  // EpochPrice — columns are conditional on some row being valid).
  EpochPrice price;

  uint64_t GasTotal() const { return gas.Total(); }
  double GasPerOp() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(GasTotal()) / static_cast<double>(ops);
  }
};

class EpochSeries {
 public:
  /// Closes one epoch: the delta of `gas` (the chain's cumulative matrix)
  /// against the previous close (or the last baseline reset) becomes the
  /// new row, with the robustness counter deltas since the previous close
  /// (`robustness` carries cumulative values), the number of shards whose
  /// trees changed this epoch, and (when the workload monitor is live) the
  /// per-shard heat snapshot at close.
  const EpochRow& Close(uint64_t ops, const GasMatrix& gas,
                        const RobustnessTotals& robustness,
                        uint64_t touched_shards = 0,
                        std::vector<double> shard_heat = {},
                        EpochPrice price = {});

  /// Re-baselines after a Gas-counter reset (Blockchain::ResetGasCounters
  /// passes the zeroed matrix) so the next row does not absorb pre-reset
  /// Gas. Clears nothing already recorded.
  void ResetBaseline(const GasMatrix& gas);

  /// Drops recorded rows (e.g. warm-up epochs before a converged
  /// measurement); the baseline is unaffected.
  void Clear() { rows_.clear(); }

  const std::vector<EpochRow>& Rows() const { return rows_; }

  /// Sum of all row deltas (== the matrix total since the last reset,
  /// provided every epoch was closed).
  GasMatrix RowSum() const;

  void WriteCsv(std::ostream& os) const;
  void WriteJsonLines(std::ostream& os) const;

 private:
  std::vector<EpochRow> rows_;
  GasMatrix baseline_{};
  RobustnessTotals robustness_baseline_{};
};

}  // namespace grub::telemetry
