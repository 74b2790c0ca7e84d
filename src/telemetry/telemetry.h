// Telemetry: the bundle a running system wires through its components.
//
// One Telemetry object per GrubSystem (or per bench) owns:
//   * a GasAttribution — the component x cause Gas matrix the GasMeter
//     records into (see gas_attribution.h);
//   * an EpochSeries   — per-epoch attribution snapshots for CSV/JSONL
//     export;
//   * the request-scoped Tracer, created on demand (see tracing.h).
//
// The bundle keeps no count of its own. The robustness columns of an epoch
// row are the components' own counters, which the caller sums and passes
// to CloseEpoch (GrubSystem::Robustness()).
//
// Off switch: a null pointer. A component holding a null Telemetry* or
// Tracer* skips recording behind one predictable branch. Telemetry never
// feeds back into simulation state: a null observer changes no Gas, and the
// `identity` ctest (tests/grub/gas_invisibility_test.cpp) enforces it.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "telemetry/epoch_series.h"
#include "telemetry/gas_attribution.h"
#include "telemetry/tracing.h"

namespace grub::telemetry {

class Telemetry {
 public:
  GasAttribution& Gas() { return gas_; }
  const GasAttribution& Gas() const { return gas_; }
  EpochSeries& Epochs() { return epochs_; }
  const EpochSeries& Epochs() const { return epochs_; }

  /// Closes one epoch row from the current attribution state. `robustness`
  /// holds the cumulative robustness counts at close (fault fires, retries,
  /// watchdog re-emits, degradation level, ...), so exported series show
  /// when faults hit and when the DO degraded. `shard_heat` is the workload
  /// monitor's per-shard heat snapshot at close (empty when the monitor is
  /// off — the exports then keep their pre-observatory schema).
  const EpochRow& CloseEpoch(uint64_t ops, const RobustnessTotals& robustness,
                             uint64_t touched_shards = 0,
                             std::vector<double> shard_heat = {},
                             EpochPrice price = {}) {
    return epochs_.Close(ops, gas_, robustness, touched_shards,
                         std::move(shard_heat), price);
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
  GasAttribution gas_;
  EpochSeries epochs_;
  std::unique_ptr<Tracer> tracer_;
};

}  // namespace grub::telemetry
