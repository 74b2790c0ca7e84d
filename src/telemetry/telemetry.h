// Telemetry: the bundle a running system wires through its components.
//
// One Telemetry object per GrubSystem (or per bench) owns:
//   * an EpochSeries — per-epoch deltas of the chain's Gas matrix for
//     CSV/JSONL export;
//   * the request-scoped Tracer, created on demand (see tracing.h).
//
// The bundle keeps no count of its own. Gas is the chain's one ledger
// (Blockchain::TotalGasMatrix), and the robustness columns of an epoch row
// are the components' own counters (GrubSystem::Robustness()); the epoch
// closer passes both to EpochSeries::Close.
//
// Off switch: a null pointer. A component holding a null Telemetry* or
// Tracer* skips recording behind one predictable branch. Telemetry never
// feeds back into simulation state: a null observer changes no Gas, and the
// `identity` ctest (tests/grub/gas_invisibility_test.cpp) enforces it.
#pragma once

#include <memory>

#include "telemetry/epoch_series.h"
#include "telemetry/tracing.h"

namespace grub::telemetry {

class Telemetry {
 public:
  EpochSeries& Epochs() { return epochs_; }
  const EpochSeries& Epochs() const { return epochs_; }

  /// Lazily creates the Tracer; components receive it via SetTracer and use
  /// the null-pointer fast path when tracing is off.
  Tracer& EnableTracing() {
    if (!tracer_) tracer_ = std::make_unique<Tracer>();
    return *tracer_;
  }
  Tracer* Trace() { return tracer_.get(); }
  const Tracer* Trace() const { return tracer_.get(); }

 private:
  EpochSeries epochs_;
  std::unique_ptr<Tracer> tracer_;
};

}  // namespace grub::telemetry
