#include "telemetry/gas_attribution.h"

namespace grub::telemetry {

const char* Name(GasComponent component) {
  switch (component) {
    case GasComponent::kTxBase: return "tx-base";
    case GasComponent::kCalldata: return "calldata";
    case GasComponent::kSstoreInsert: return "sstore-insert";
    case GasComponent::kSstoreUpdate: return "sstore-update";
    case GasComponent::kSload: return "sload";
    case GasComponent::kHash: return "hash";
    case GasComponent::kLog: return "log";
    case GasComponent::kOther: return "other";
  }
  return "?";
}

const char* Name(GasCause cause) {
  switch (cause) {
    case GasCause::kUnattributed: return "unattributed";
    case GasCause::kGGetSync: return "gGet-sync";
    case GasCause::kDeliver: return "deliver";
    case GasCause::kUpdateRoot: return "update-root";
    case GasCause::kReplicaInsert: return "replica-insert";
    case GasCause::kReplicaEvict: return "replica-evict";
    case GasCause::kBl3Trace: return "BL3-trace";
    case GasCause::kRecovery: return "recovery";
    case GasCause::kRootRollup: return "root-rollup";
    case GasCause::kProofReject: return "proof-reject";
    case GasCause::kLogPin: return "log-pin";
    case GasCause::kLogDeliver: return "log-deliver";
    case GasCause::kPriceShift: return "price-shift";
  }
  return "?";
}

uint64_t GasMatrix::ComponentTotal(GasComponent c) const {
  uint64_t total = 0;
  for (uint64_t v : cells[static_cast<size_t>(c)]) total += v;
  return total;
}

uint64_t GasMatrix::CauseTotal(GasCause why) const {
  uint64_t total = 0;
  for (const auto& row : cells) total += row[static_cast<size_t>(why)];
  return total;
}

uint64_t GasMatrix::Total() const {
  uint64_t total = 0;
  for (const auto& row : cells) {
    for (uint64_t v : row) total += v;
  }
  return total;
}

GasMatrix& GasMatrix::operator+=(const GasMatrix& o) {
  for (size_t c = 0; c < kNumGasComponents; ++c) {
    for (size_t w = 0; w < kNumGasCauses; ++w) cells[c][w] += o.cells[c][w];
  }
  return *this;
}

GasMatrix GasMatrix::operator-(const GasMatrix& o) const {
  GasMatrix out;
  for (size_t c = 0; c < kNumGasComponents; ++c) {
    for (size_t w = 0; w < kNumGasCauses; ++w) {
      out.cells[c][w] =
          cells[c][w] >= o.cells[c][w] ? cells[c][w] - o.cells[c][w] : 0;
    }
  }
  return out;
}

}  // namespace grub::telemetry
