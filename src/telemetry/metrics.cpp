#include "telemetry/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace grub::telemetry {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  if (buckets_.size() != bounds_.size() + 1) {
    // Duplicates were removed; buckets_ cannot be resized (atomics), so the
    // surplus tail simply stays unused — indices follow bounds_.
  }
}

void Histogram::Record(double value) {
  // First bucket whose upper bound admits the value; past-the-end = overflow.
  const size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::AtomicAdd(sum_, value);
}

std::string MetricsRegistry::IdentityKey(const std::string& name,
                                         const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  for (const auto& [k, v] : sorted) {
    key += '\x1f';  // unit separator: cannot collide with label text
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

template <typename T, typename... Args>
T& MetricsRegistry::GetOrCreate(std::map<std::string, std::unique_ptr<T>>& table,
                                const std::string& name, const Labels& labels,
                                std::map<std::string, Labels>& label_index,
                                Args&&... args) {
  const std::string key = IdentityKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table.find(key);
  if (it == table.end()) {
    it = table.emplace(key, std::make_unique<T>(std::forward<Args>(args)...))
             .first;
    label_index.emplace(key, labels);
  }
  return *it->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  return GetOrCreate(counters_, name, labels, labels_of_);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, const Labels& labels) {
  return GetOrCreate(gauges_, name, labels, labels_of_);
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels,
                                         std::vector<double> upper_bounds) {
  // Same normalization the Histogram constructor applies, so an existing
  // instrument can be compared against what this registration would build.
  std::vector<double> normalized = upper_bounds;
  std::sort(normalized.begin(), normalized.end());
  normalized.erase(std::unique(normalized.begin(), normalized.end()),
                   normalized.end());
  Histogram& histogram = GetOrCreate(histograms_, name, labels, labels_of_,
                                     std::move(upper_bounds));
  if (histogram.UpperBounds() != normalized) {
    // Silently handing back the first registration's buckets would make the
    // second call site record into bounds it never asked for — corrupting
    // the exported series with no error anywhere. Hard error instead.
    std::fprintf(stderr,
                 "MetricsRegistry::GetHistogram: '%s' re-registered with "
                 "different bucket bounds\n",
                 name.c_str());
    std::abort();
  }
  return histogram;
}

std::vector<InstrumentSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<InstrumentSnapshot> out;
  std::lock_guard<std::mutex> lock(mu_);

  auto name_of = [](const std::string& key) {
    return key.substr(0, key.find('\x1f'));
  };
  auto labels_of = [&](const std::string& key) {
    auto it = labels_of_.find(key);
    return it == labels_of_.end() ? Labels{} : it->second;
  };

  for (const auto& [key, counter] : counters_) {
    InstrumentSnapshot s;
    s.kind = InstrumentSnapshot::Kind::kCounter;
    s.name = name_of(key);
    s.labels = labels_of(key);
    s.counter_value = counter->Value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, gauge] : gauges_) {
    InstrumentSnapshot s;
    s.kind = InstrumentSnapshot::Kind::kGauge;
    s.name = name_of(key);
    s.labels = labels_of(key);
    s.gauge_value = gauge->Value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, histogram] : histograms_) {
    InstrumentSnapshot s;
    s.kind = InstrumentSnapshot::Kind::kHistogram;
    s.name = name_of(key);
    s.labels = labels_of(key);
    s.histogram_count = histogram->Count();
    s.histogram_sum = histogram->Sum();
    s.histogram_bounds = histogram->UpperBounds();
    s.histogram_buckets.reserve(s.histogram_bounds.size() + 1);
    for (size_t i = 0; i <= s.histogram_bounds.size(); ++i) {
      s.histogram_buckets.push_back(histogram->BucketCount(i));
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<double> DefaultLatencyBounds() {
  return {1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3,
          1.0, 10.0};
}

}  // namespace grub::telemetry
