// Wall-clock timer spans feeding latency histograms.
//
// Usage at a hot-path site (histogram pointer cached at setup time):
//
//   telemetry::TimerSpan timer(wal_sync_seconds_);   // nullptr = off
//   ... the timed work ...
//                                                    // records on scope exit
//
// Wall-clock never influences simulation results (the repo's determinism
// rule); these spans are pure observability. With a null histogram the clock
// is never read.
#pragma once

#include <chrono>

#include "telemetry/metrics.h"

namespace grub::telemetry {

class TimerSpan {
 public:
  explicit TimerSpan(Histogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~TimerSpan() {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->Record(std::chrono::duration<double>(elapsed).count());
  }

  TimerSpan(const TimerSpan&) = delete;
  TimerSpan& operator=(const TimerSpan&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace grub::telemetry
