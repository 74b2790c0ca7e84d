// Telemetry: the bundle a running system wires through its components.
//
// One Telemetry object per GrubSystem (or per bench) owns:
//   * a MetricsRegistry — counters/gauges/histograms by name + labels;
//   * a GasAttribution  — the component x cause Gas matrix the GasMeter
//     records into (see gas_attribution.h);
//   * an EpochSeries    — per-epoch attribution snapshots for CSV/JSONL
//     export.
//
// Off switch: a null pointer. A component holding a null Telemetry*,
// Registry*, Histogram* or Tracer* skips recording behind one predictable
// branch and reads no clock. Telemetry never feeds back into simulation
// state: a null observer changes no Gas, and the `identity` ctest
// (tests/grub/gas_invisibility_test.cpp) enforces it.
#pragma once

#include <memory>

#include "telemetry/epoch_series.h"
#include "telemetry/gas_attribution.h"
#include "telemetry/metrics.h"
#include "telemetry/tracing.h"

namespace grub::telemetry {

class Telemetry {
 public:
  MetricsRegistry& Registry() { return registry_; }
  GasAttribution& Gas() { return gas_; }
  const GasAttribution& Gas() const { return gas_; }
  EpochSeries& Epochs() { return epochs_; }
  const EpochSeries& Epochs() const { return epochs_; }

  /// Closes one epoch row from the current attribution state, sampling the
  /// robustness counters (fault fires, retries, watchdog re-emits,
  /// degradation level) out of the registry so exported series show when
  /// faults hit and when the DO degraded. `shard_heat` is the workload
  /// monitor's per-shard heat snapshot at close (empty when the monitor is
  /// off — the exports then keep their pre-observatory schema).
  const EpochRow& CloseEpoch(uint64_t ops, uint64_t touched_shards = 0,
                             std::vector<double> shard_heat = {},
                             EpochPrice price = {}) {
    return epochs_.Close(ops, gas_, GatherRobustness(), touched_shards,
                         std::move(shard_heat), price);
  }

  /// Cumulative robustness counters, read from the handles cached at
  /// construction (all zero in fault-free runs).
  RobustnessTotals GatherRobustness() const {
    RobustnessTotals totals;
    totals.fault_fires = fault_fires_.Value();
    totals.retries = deliver_retries_.Value() + update_retries_.Value();
    totals.watchdog_reemits = watchdog_reemits_.Value();
    totals.degraded = degraded_.Value();
    totals.deliver_rejections = deliver_rejections_.Value();
    totals.sp_failovers = sp_failovers_.Value();
    return totals;
  }

  /// Lazily creates the Tracer; components receive it via SetTracer and use
  /// the null-pointer fast path when tracing is off.
  Tracer& EnableTracing() {
    if (!tracer_) tracer_ = std::make_unique<Tracer>();
    return *tracer_;
  }
  Tracer* Trace() { return tracer_.get(); }
  const Tracer* Trace() const { return tracer_.get(); }

  /// Zeroes the Gas attribution and re-baselines the epoch series; called by
  /// Blockchain::ResetGasCounters so the matrix stays in lockstep with the
  /// chain's metered totals.
  void ResetGas() {
    gas_.Reset();
    epochs_.ResetBaseline(gas_);
  }

 private:
  MetricsRegistry registry_;
  GasAttribution gas_;
  EpochSeries epochs_;
  std::unique_ptr<Tracer> tracer_;

  // Robustness instruments, resolved once: GatherRobustness runs on every
  // epoch close, and a full-registry Snapshot() scan there is O(all
  // instruments) per epoch. Handles stay valid for the registry's lifetime.
  Counter& fault_fires_ = registry_.GetCounter("fault.fires_total");
  Counter& deliver_retries_ = registry_.GetCounter("sp.deliver_retries");
  Counter& update_retries_ = registry_.GetCounter("do.update_retries");
  Counter& watchdog_reemits_ = registry_.GetCounter("do.watchdog_reemits");
  Gauge& degraded_ = registry_.GetGauge("do.degraded");
  Counter& deliver_rejections_ = registry_.GetCounter("sp.deliver_rejections");
  Counter& sp_failovers_ = registry_.GetCounter("quorum.failovers");
};

}  // namespace grub::telemetry
