// GasSpan / GasMatrix: the ambient-cause scoping rules and the matrix
// arithmetic the epoch exporter depends on. How the chain's meter routes
// charges into cells is pinned in tests/chain/gas_test.cpp.
#include <gtest/gtest.h>

#include "telemetry/gas_attribution.h"

namespace grub::telemetry {
namespace {

TEST(GasSpan, DefaultCauseIsUnattributed) {
  EXPECT_EQ(GasSpan::Current(), GasCause::kUnattributed);
}

TEST(GasSpan, NestsInnermostWinsAndRestores) {
  EXPECT_EQ(GasSpan::Current(), GasCause::kUnattributed);
  {
    GasSpan outer(GasCause::kDeliver);
    EXPECT_EQ(GasSpan::Current(), GasCause::kDeliver);
    {
      GasSpan inner(GasCause::kReplicaInsert);
      EXPECT_EQ(GasSpan::Current(), GasCause::kReplicaInsert);
    }
    EXPECT_EQ(GasSpan::Current(), GasCause::kDeliver);
  }
  EXPECT_EQ(GasSpan::Current(), GasCause::kUnattributed);
}

TEST(GasMatrix, ArithmeticComposes) {
  GasMatrix a;
  a.cells[0][0] = 10;
  a.cells[1][2] = 5;
  GasMatrix b = a;
  b += a;
  EXPECT_EQ(b.cells[0][0], 20u);
  EXPECT_EQ(b.Total(), 2 * a.Total());

  GasMatrix d = b - a;
  EXPECT_EQ(d.cells[0][0], 10u);
  EXPECT_EQ(d.cells[1][2], 5u);
  EXPECT_EQ(d.Total(), a.Total());
}

TEST(GasMatrix, NamesCoverEveryEnumerator) {
  for (size_t c = 0; c < kNumGasComponents; ++c) {
    EXPECT_STRNE(Name(static_cast<GasComponent>(c)), "");
  }
  for (size_t w = 0; w < kNumGasCauses; ++w) {
    EXPECT_STRNE(Name(static_cast<GasCause>(w)), "");
  }
}

}  // namespace
}  // namespace grub::telemetry
