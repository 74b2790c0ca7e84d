#include "chain/gas.h"

#include <sstream>

namespace grub::chain {

GasBreakdown GasBreakdown::Of(const telemetry::GasMatrix& gas) {
  using telemetry::GasComponent;
  return GasBreakdown{
      .tx = gas.ComponentTotal(GasComponent::kTxBase) +
            gas.ComponentTotal(GasComponent::kCalldata),
      .storage_insert = gas.ComponentTotal(GasComponent::kSstoreInsert),
      .storage_update = gas.ComponentTotal(GasComponent::kSstoreUpdate),
      .storage_read = gas.ComponentTotal(GasComponent::kSload),
      .hash = gas.ComponentTotal(GasComponent::kHash),
      .log = gas.ComponentTotal(GasComponent::kLog),
      .other = gas.ComponentTotal(GasComponent::kOther),
  };
}

std::string GasBreakdown::ToString() const {
  std::ostringstream os;
  os << "tx=" << tx << " insert=" << storage_insert
     << " update=" << storage_update << " read=" << storage_read
     << " hash=" << hash << " log=" << log << " other=" << other
     << " total=" << Total();
  return os.str();
}

}  // namespace grub::chain
