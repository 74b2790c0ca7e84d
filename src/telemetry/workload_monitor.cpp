#include "telemetry/workload_monitor.h"

#include <algorithm>
#include <sstream>

#include "telemetry/percentile.h"
#include "telemetry/tracing.h"

namespace grub::telemetry {

WorkloadMonitor::WorkloadMonitor(Options options)
    : options_(std::move(options)),
      sketch_(options_.sketch_capacity),
      deliver_rate_(options_.rate_window_blocks, kRateAlpha),
      gas_drift_(kDriftAlpha, kDriftThresholdPct, kDriftWarmup) {
  if (options_.shard_count == 0) options_.shard_count = 1;
  shard_stats_.resize(options_.shard_count);
  shard_read_rate_.assign(
      options_.shard_count,
      BlockRateEstimator(options_.rate_window_blocks, kRateAlpha));
  shard_write_rate_.assign(
      options_.shard_count,
      BlockRateEstimator(options_.rate_window_blocks, kRateAlpha));
}

void WorkloadMonitor::Touch(const Bytes& key, uint64_t block, bool is_write) {
  last_block_ = std::max(last_block_, block);
  uint32_t shard = 0;
  if (options_.shard_of) {
    shard = options_.shard_of(key);
    if (shard >= options_.shard_count) shard = options_.shard_count - 1;
  }
  if (is_write) {
    total_writes_ += 1;
    shard_stats_[shard].writes += 1;
    shard_write_rate_[shard].Record(block);
  } else {
    total_reads_ += 1;
    shard_stats_[shard].reads += 1;
    shard_read_rate_[shard].Record(block);
  }
  // The sketch tracks total touches; per-key read/write splits (the K
  // estimate) live in side state that follows sketch admission/eviction.
  if (auto evicted = sketch_.Touch(key)) key_stats_.Erase(*evicted);
  KeyStats& stats = key_stats_[key];
  if (is_write) {
    stats.writes += 1;
  } else {
    stats.reads += 1;
  }
}

void WorkloadMonitor::OnRead(const Bytes& key, uint64_t block) {
  Touch(key, block, /*is_write=*/false);
}

void WorkloadMonitor::OnWrite(const Bytes& key, uint64_t block) {
  Touch(key, block, /*is_write=*/true);
}

void WorkloadMonitor::OnFlip(bool to_replicated) {
  actual_flips_ += 1;
  if (to_replicated) flips_to_replicated_ += 1;
}

void WorkloadMonitor::OnOracleFlip() { oracle_flips_ += 1; }

void WorkloadMonitor::OnDeliver(uint64_t entries, uint64_t block) {
  last_block_ = std::max(last_block_, block);
  delivered_entries_ += entries;
  if (entries > 0) deliver_rate_.Record(block, entries);
}

void WorkloadMonitor::OnChainRead(bool replica_hit) {
  if (replica_hit) {
    replica_hits_ += 1;
  } else {
    replica_misses_ += 1;
  }
}

void WorkloadMonitor::OnEpochClose(uint64_t ops, uint64_t gas,
                                   uint64_t block) {
  last_block_ = std::max(last_block_, block);
  epochs_closed_ += 1;
  if (ops > 0) {
    gas_drift_.Update(static_cast<double>(gas) / static_cast<double>(ops));
  }
}

std::vector<double> WorkloadMonitor::ShardHeat(uint64_t block) const {
  std::vector<double> heat(options_.shard_count, 0.0);
  for (uint32_t s = 0; s < options_.shard_count; ++s) {
    heat[s] = shard_read_rate_[s].RateAt(block) +
              shard_write_rate_[s].RateAt(block);
  }
  return heat;
}

std::vector<HotKey> WorkloadMonitor::HotKeys(size_t k) const {
  return sketch_.TopK(k);
}

const WorkloadMonitor::KeyStats* WorkloadMonitor::StatsOf(
    const Bytes& key) const {
  return key_stats_.Find(key);
}

double WorkloadMonitor::GlobalKEstimate() const {
  return total_writes_ == 0 ? 0.0
                            : static_cast<double>(total_reads_) /
                                  static_cast<double>(total_writes_);
}

JsonValue WorkloadMonitor::ToJson(uint64_t block) const {
  JsonValue doc = JsonValue::Object();
  doc.Set("block", JsonValue::NumberU64(block));
  doc.Set("reads", JsonValue::NumberU64(total_reads_));
  doc.Set("writes", JsonValue::NumberU64(total_writes_));
  doc.Set("k_estimate", JsonValue::NumberDouble(GlobalKEstimate()));

  JsonValue hot = JsonValue::Array();
  for (const HotKey& hk : HotKeys(8)) {
    JsonValue entry = JsonValue::Object();
    entry.Set("key", JsonValue::String(Tracer::RenderKey(hk.key)));
    entry.Set("count", JsonValue::NumberU64(hk.count));
    entry.Set("error", JsonValue::NumberU64(hk.error));
    const KeyStats* stats = StatsOf(hk.key);
    entry.Set("k_estimate", JsonValue::NumberDouble(
                                stats == nullptr ? 0.0 : stats->KEstimate()));
    hot.Append(std::move(entry));
  }
  doc.Set("hot_keys", std::move(hot));

  const std::vector<double> heat = ShardHeat(block);
  JsonValue shards = JsonValue::Array();
  for (uint32_t s = 0; s < options_.shard_count; ++s) {
    JsonValue entry = JsonValue::Object();
    entry.Set("shard", JsonValue::NumberU64(s));
    entry.Set("heat", JsonValue::NumberDouble(heat[s]));
    entry.Set("reads", JsonValue::NumberU64(shard_stats_[s].reads));
    entry.Set("writes", JsonValue::NumberU64(shard_stats_[s].writes));
    shards.Append(std::move(entry));
  }
  doc.Set("shards", std::move(shards));
  doc.Set("heat_p50",
          JsonValue::NumberDouble(PercentileNearestRankD(heat, 50)));
  doc.Set("heat_p90",
          JsonValue::NumberDouble(PercentileNearestRankD(heat, 90)));

  JsonValue regret = JsonValue::Object();
  regret.Set("actual_flips", JsonValue::NumberU64(actual_flips_));
  regret.Set("oracle_flips", JsonValue::NumberU64(oracle_flips_));
  regret.Set("regret", JsonValue::NumberU64(FlipRegret()));
  doc.Set("flip_regret", std::move(regret));

  JsonValue drift = JsonValue::Object();
  drift.Set("samples", JsonValue::NumberU64(gas_drift_.Samples()));
  drift.Set("gas_per_op_ewma", JsonValue::NumberDouble(gas_drift_.Ewma()));
  drift.Set("drift_events", JsonValue::NumberU64(gas_drift_.DriftCount()));
  doc.Set("gas_drift", std::move(drift));

  JsonValue chain = JsonValue::Object();
  chain.Set("replica_hits", JsonValue::NumberU64(replica_hits_));
  chain.Set("replica_misses", JsonValue::NumberU64(replica_misses_));
  doc.Set("chain_reads", std::move(chain));

  doc.Set("delivered_entries", JsonValue::NumberU64(delivered_entries_));
  doc.Set("epochs", JsonValue::NumberU64(epochs_closed_));
  return doc;
}

std::string WorkloadMonitor::SnapshotJsonLine(uint64_t block) const {
  // The leading {"block": prefix is load-bearing: ci.sh and EXPERIMENTS.md
  // filter --watch lines out of mixed stdout by that prefix.
  std::ostringstream os;
  os << "{\"block\":" << block << ",\"reads\":" << total_reads_
     << ",\"writes\":" << total_writes_ << ",\"k_estimate\":"
     << FormatJsonDouble(GlobalKEstimate()) << ",\"heat\":[";
  const std::vector<double> heat = ShardHeat(block);
  for (size_t s = 0; s < heat.size(); ++s) {
    if (s != 0) os << ",";
    os << FormatJsonDouble(heat[s]);
  }
  os << "],\"flips\":" << actual_flips_ << ",\"regret\":" << FlipRegret()
     << ",\"drift_events\":" << gas_drift_.DriftCount() << "}";
  return os.str();
}

void WorkloadMonitor::PrintTable(uint64_t block, std::FILE* out) const {
  std::fprintf(out, "=== workload observatory ===\n");
  std::fprintf(out,
               "stream:    %llu reads, %llu writes, K-est %s "
               "(as of block %llu)\n",
               (unsigned long long)total_reads_,
               (unsigned long long)total_writes_,
               FormatJsonDouble(GlobalKEstimate()).c_str(),
               (unsigned long long)block);
  const std::vector<double> heat = ShardHeat(block);
  std::fprintf(out, "heat:      p50=%s p90=%s ops/block over %llu shards\n",
               FormatJsonDouble(PercentileNearestRankD(heat, 50)).c_str(),
               FormatJsonDouble(PercentileNearestRankD(heat, 90)).c_str(),
               (unsigned long long)options_.shard_count);
  for (uint32_t s = 0; s < options_.shard_count; ++s) {
    std::fprintf(out, "  shard %-4u heat %-10s reads %8llu  writes %8llu\n",
                 s, FormatJsonDouble(heat[s]).c_str(),
                 (unsigned long long)shard_stats_[s].reads,
                 (unsigned long long)shard_stats_[s].writes);
  }
  std::fprintf(out, "hot keys:  (count ± error, per-key K estimate)\n");
  for (const HotKey& hk : HotKeys(8)) {
    const KeyStats* stats = StatsOf(hk.key);
    std::fprintf(
        out, "  %-24s %8llu ±%-6llu K-est %s\n",
        Tracer::RenderKey(hk.key).c_str(), (unsigned long long)hk.count,
        (unsigned long long)hk.error,
        FormatJsonDouble(stats == nullptr ? 0.0 : stats->KEstimate()).c_str());
  }
  std::fprintf(out,
               "regret:    %llu actual flips vs %llu oracle flips "
               "(regret %llu)\n",
               (unsigned long long)actual_flips_,
               (unsigned long long)oracle_flips_,
               (unsigned long long)FlipRegret());
  std::fprintf(out,
               "gas drift: ewma %s gas/op over %llu samples, %llu drift "
               "events\n",
               FormatJsonDouble(gas_drift_.Ewma()).c_str(),
               (unsigned long long)gas_drift_.Samples(),
               (unsigned long long)gas_drift_.DriftCount());
  std::fprintf(out,
               "chain:     %llu replica hits, %llu misses, %llu delivered "
               "entries, %llu epochs\n",
               (unsigned long long)replica_hits_,
               (unsigned long long)replica_misses_,
               (unsigned long long)delivered_entries_,
               (unsigned long long)epochs_closed_);
}

}  // namespace grub::telemetry
