// MetricsRegistry: named, labeled, thread-safe instruments.
//
// Three instrument kinds cover the repo's observability needs:
//   * Counter   — monotonically increasing u64 (ops served, flips, delivers);
//   * Gauge     — last-set i64 (replicas on chain, runs in the LSM store);
//   * Histogram — fixed upper-bound buckets over doubles (wall-clock latency
//     in seconds, Gas amounts), with running sum/count for means.
//
// Instruments are identified by (name, label set); labels are order-
// insensitive — GetCounter("x", {{"a","1"},{"b","2"}}) and the swapped order
// return the SAME instrument. Registration takes a mutex; the hot increment
// path is a single relaxed atomic op. The off switch is a null
// MetricsRegistry* or instrument pointer (see telemetry.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace grub::telemetry {

/// Key/value instrument labels, e.g. {{"policy", "memoryless(K=2)"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
/// Lock-free add for doubles (fetch_add on atomic<double> is C++20 but not
/// universally lowered; CAS is portable and the path is not hot).
inline void AtomicAdd(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace detail

class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram. Bucket i counts values v with
/// bounds[i-1] < v <= bounds[i]; one implicit overflow bucket counts
/// v > bounds.back(). Bounds are sorted at construction.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Record(double value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const {
    const uint64_t n = Count();
    return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
  }
  const std::vector<double>& UpperBounds() const { return bounds_; }
  /// Count in bucket `i`; i == UpperBounds().size() is the overflow bucket.
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of one instrument (for export; no atomics).
struct InstrumentSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  Labels labels;
  uint64_t counter_value = 0;
  int64_t gauge_value = 0;
  uint64_t histogram_count = 0;
  double histogram_sum = 0.0;
  std::vector<double> histogram_bounds;
  std::vector<uint64_t> histogram_buckets;  // bounds.size() + 1
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Instruments live as long as the registry; returned references are
  /// stable. Same (name, labels) — labels in any order — same instrument.
  Counter& GetCounter(const std::string& name, const Labels& labels = {});
  Gauge& GetGauge(const std::string& name, const Labels& labels = {});
  /// `upper_bounds` applies on first registration; later calls with the same
  /// identity return the existing histogram regardless of bounds.
  Histogram& GetHistogram(const std::string& name, const Labels& labels,
                          std::vector<double> upper_bounds);

  /// Stable-ordered (by identity key) copy of every instrument.
  std::vector<InstrumentSnapshot> Snapshot() const;

  /// Canonical identity key: name + sorted labels (exposed for tests).
  static std::string IdentityKey(const std::string& name, const Labels& labels);

 private:
  template <typename T, typename... Args>
  T& GetOrCreate(std::map<std::string, std::unique_ptr<T>>& table,
                 const std::string& name, const Labels& labels,
                 std::map<std::string, Labels>& label_index, Args&&... args);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, Labels> labels_of_;  // identity key -> original labels
};

/// Default latency buckets (seconds): 1us .. ~10s, roughly 4x steps.
std::vector<double> DefaultLatencyBounds();

}  // namespace grub::telemetry
