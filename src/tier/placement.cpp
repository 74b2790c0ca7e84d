#include "tier/placement.h"

#include <cstdio>

namespace grub::tier {

AdaptiveTierPolicy::AdaptiveTierPolicy(const TierCostModel& cost,
                                       Options options)
    : cost_(cost),
      options_(options),
      sketch_(options.sketch_capacity == 0 ? 1 : options.sketch_capacity) {}

void AdaptiveTierPolicy::Observe(const workload::Operation& op) {
  if (op.type == workload::OpType::kScan) return;  // expanded upstream
  // Admit the key to the hot set; a displaced key loses its counters AND
  // its tier — cold keys revert to the zero-holding-cost default.
  if (auto evicted = sketch_.Touch(op.key)) {
    counts_.erase(*evicted);
  }
  Counts& counts = counts_[op.key];
  if (op.type == workload::OpType::kRead) {
    counts.reads += 1;
    return;  // tier decisions happen at writes, where they ride for free
  }
  counts.writes += 1;
  if (!op.value.empty()) counts.value_bytes = op.value.size();
  const size_t value_bytes =
      counts.value_bytes != 0 ? counts.value_bytes : options_.default_value_bytes;
  // K̂ = reads per write; the write just counted makes it well defined.
  const double k_hat = static_cast<double>(counts.reads) /
                       static_cast<double>(counts.writes);
  counts.tier = cost_.CheapestPriced(k_hat, op.key.size(), value_bytes,
                                     exec_milli_, storage_milli_);
}

void AdaptiveTierPolicy::ObservePrice(uint64_t exec_milli,
                                      uint64_t storage_milli, uint64_t block) {
  (void)block;
  exec_milli_ = exec_milli;
  storage_milli_ = storage_milli;
}

StorageTier AdaptiveTierPolicy::TierOf(const Bytes& key) const {
  const auto it = counts_.find(key);
  return it == counts_.end() ? StorageTier::kOffchain : it->second.tier;
}

std::string AdaptiveTierPolicy::Name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "adaptive-tier(hot=%zu)",
                sketch_.Capacity());
  return buf;
}

std::string AdaptiveTierPolicy::CounterState(const Bytes& key) const {
  const auto it = counts_.find(key);
  if (it == counts_.end()) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "r=%llu,w=%llu,tier=%s",
                static_cast<unsigned long long>(it->second.reads),
                static_cast<unsigned long long>(it->second.writes),
                tier::Name(it->second.tier));
  return buf;
}

}  // namespace grub::tier
