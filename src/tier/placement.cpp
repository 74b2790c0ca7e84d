#include "tier/placement.h"

#include <cstdio>

namespace grub::tier {

AdaptiveTierPolicy::AdaptiveTierPolicy(const TierCostModel& cost,
                                       Options options)
    : cost_(cost),
      options_(options),
      sketch_(options.sketch_capacity == 0 ? 1 : options.sketch_capacity) {}

core::TierStep AdaptiveTierPolicy::Observe(const workload::Operation& op) {
  if (op.type == workload::OpType::kScan) {  // expanded upstream
    const StorageTier t = TierOf(op.key);
    return {t, t};
  }
  // Admit the key to the hot set; a displaced key loses its counters AND
  // its tier — cold keys revert to the zero-holding-cost default. The
  // displaced key is never op.key (a tracked key is never displaced by its
  // own touch), so the lookup below still sees op.key's tier before.
  if (auto evicted = sketch_.Touch(op.key)) {
    counts_.erase(*evicted);
  }
  Counts& counts = counts_.try_emplace(op.key).first->second;
  const StorageTier before = counts.tier;  // kOffchain when just inserted
  if (op.type == workload::OpType::kRead) {
    counts.reads += 1;
    return {before, before};  // tier decisions happen at writes, for free
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
  return {before, counts.tier};
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
