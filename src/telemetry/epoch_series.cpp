#include "telemetry/epoch_series.h"

#include <algorithm>
#include <string>

#include "telemetry/json.h"
#include "telemetry/table.h"

namespace grub::telemetry {

namespace {
// Counters can only grow between closes, but guard anyway (a reorg rolls
// Gas back, never these counters; a zero delta is the safe floor).
uint64_t DeltaOrZero(uint64_t now, uint64_t before) {
  return now >= before ? now - before : 0;
}
}  // namespace

const EpochRow& EpochSeries::Close(uint64_t ops, const GasMatrix& gas,
                                   const RobustnessTotals& robustness,
                                   uint64_t touched_shards,
                                   std::vector<double> shard_heat,
                                   EpochPrice price) {
  EpochRow row;
  row.epoch = rows_.size();
  row.ops = ops;
  row.gas = gas - baseline_;
  row.fault_fires =
      DeltaOrZero(robustness.fault_fires, robustness_baseline_.fault_fires);
  row.retries = DeltaOrZero(robustness.retries, robustness_baseline_.retries);
  row.watchdog_reemits = DeltaOrZero(robustness.watchdog_reemits,
                                     robustness_baseline_.watchdog_reemits);
  row.degraded = robustness.degraded;
  row.deliver_rejections = DeltaOrZero(robustness.deliver_rejections,
                                       robustness_baseline_.deliver_rejections);
  row.sp_failovers = DeltaOrZero(robustness.sp_failovers,
                                 robustness_baseline_.sp_failovers);
  row.touched_shards = touched_shards;
  row.shard_heat = std::move(shard_heat);
  row.price = price;
  baseline_ = gas;
  robustness_baseline_ = robustness;
  rows_.push_back(row);
  return rows_.back();
}

void EpochSeries::ResetBaseline(const GasMatrix& gas) { baseline_ = gas; }

GasMatrix EpochSeries::RowSum() const {
  GasMatrix sum;
  for (const auto& row : rows_) sum += row.gas;
  return sum;
}

void EpochSeries::WriteCsv(std::ostream& os) const {
  // Heat columns appear only when a row carries heat, so pre-observatory
  // exports (and monitor-off runs) keep the golden-pinned schema unchanged.
  size_t heat_shards = 0;
  bool any_price = false;
  for (const auto& row : rows_) {
    heat_shards = std::max(heat_shards, row.shard_heat.size());
    any_price = any_price || row.price.valid;
  }

  std::vector<std::string> header = {"epoch", "ops", "gas_total", "gas_per_op"};
  for (size_t c = 0; c < kNumGasComponents; ++c) {
    header.push_back(std::string("component_") +
                     Name(static_cast<GasComponent>(c)));
  }
  for (size_t w = 0; w < kNumGasCauses; ++w) {
    header.push_back(std::string("cause_") + Name(static_cast<GasCause>(w)));
  }
  header.insert(header.end(),
                {"fault_fires", "retries", "watchdog_reemits", "degraded",
                 "deliver_rejections", "sp_failovers", "touched_shards"});
  for (size_t s = 0; s < heat_shards; ++s) {
    header.push_back("heat_shard" + std::to_string(s));
  }
  // Price columns are conditional, like the heat columns: only scenario-lab
  // runs (non-unit schedule) widen the schema.
  if (any_price) {
    header.push_back("price_exec_milli");
    header.push_back("price_storage_milli");
  }
  WriteCsvRow(os, header);

  for (const auto& row : rows_) {
    std::vector<std::string> fields = {
        std::to_string(row.epoch), std::to_string(row.ops),
        std::to_string(row.GasTotal()), std::to_string(row.GasPerOp())};
    for (size_t c = 0; c < kNumGasComponents; ++c) {
      fields.push_back(std::to_string(
          row.gas.ComponentTotal(static_cast<GasComponent>(c))));
    }
    for (size_t w = 0; w < kNumGasCauses; ++w) {
      fields.push_back(
          std::to_string(row.gas.CauseTotal(static_cast<GasCause>(w))));
    }
    fields.insert(fields.end(),
                  {std::to_string(row.fault_fires), std::to_string(row.retries),
                   std::to_string(row.watchdog_reemits),
                   std::to_string(row.degraded),
                   std::to_string(row.deliver_rejections),
                   std::to_string(row.sp_failovers),
                   std::to_string(row.touched_shards)});
    for (size_t s = 0; s < heat_shards; ++s) {
      fields.push_back(s < row.shard_heat.size()
                           ? FormatJsonDouble(row.shard_heat[s])
                           : "0");
    }
    if (any_price) {
      fields.push_back(std::to_string(row.price.exec_milli));
      fields.push_back(std::to_string(row.price.storage_milli));
    }
    WriteCsvRow(os, fields);
  }
}

void EpochSeries::WriteJsonLines(std::ostream& os) const {
  for (const auto& row : rows_) {
    os << "{\"epoch\":" << row.epoch << ",\"ops\":" << row.ops
       << ",\"gas_total\":" << row.GasTotal() << ",\"components\":{";
    for (size_t c = 0; c < kNumGasComponents; ++c) {
      if (c != 0) os << ',';
      os << '"' << JsonEscape(Name(static_cast<GasComponent>(c))) << "\":"
         << row.gas.ComponentTotal(static_cast<GasComponent>(c));
    }
    os << "},\"causes\":{";
    for (size_t w = 0; w < kNumGasCauses; ++w) {
      if (w != 0) os << ',';
      os << '"' << JsonEscape(Name(static_cast<GasCause>(w))) << "\":"
         << row.gas.CauseTotal(static_cast<GasCause>(w));
    }
    os << "},\"fault_fires\":" << row.fault_fires
       << ",\"retries\":" << row.retries
       << ",\"watchdog_reemits\":" << row.watchdog_reemits
       << ",\"degraded\":" << row.degraded
       << ",\"deliver_rejections\":" << row.deliver_rejections
       << ",\"sp_failovers\":" << row.sp_failovers
       << ",\"touched_shards\":" << row.touched_shards;
    if (!row.shard_heat.empty()) {
      os << ",\"shard_heat\":[";
      for (size_t s = 0; s < row.shard_heat.size(); ++s) {
        if (s != 0) os << ',';
        os << FormatJsonDouble(row.shard_heat[s]);
      }
      os << ']';
    }
    if (row.price.valid) {
      os << ",\"price\":{\"exec_milli\":" << row.price.exec_milli
         << ",\"storage_milli\":" << row.price.storage_milli << '}';
    }
    os << "}\n";
  }
}

}  // namespace grub::telemetry
