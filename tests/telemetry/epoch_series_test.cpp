// EpochSeries: delta semantics (rows sum to the matrix total) and the
// CSV / JSON-lines export formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "telemetry/epoch_series.h"

namespace grub::telemetry {
namespace {

void RecordSome(GasMatrix& gas, uint64_t sload, uint64_t tx) {
  gas.Add(GasComponent::kSload, GasCause::kGGetSync, sload);
  gas.Add(GasComponent::kTxBase, GasCause::kGGetSync, tx);
}

TEST(EpochSeries, RowsAreDeltasAndSumToTotal) {
  GasMatrix gas;
  EpochSeries series;

  RecordSome(gas, 200, 21000);
  const EpochRow& row0 = series.Close(32, gas, {});
  EXPECT_EQ(row0.epoch, 0u);
  EXPECT_EQ(row0.ops, 32u);
  EXPECT_EQ(row0.GasTotal(), 21200u);

  RecordSome(gas, 400, 21000);
  const EpochRow& row1 = series.Close(16, gas, {});
  EXPECT_EQ(row1.epoch, 1u);
  EXPECT_EQ(row1.GasTotal(), 21400u);  // delta, not cumulative
  EXPECT_EQ(row1.gas.At(GasComponent::kSload, GasCause::kGGetSync), 400u);

  EXPECT_EQ(series.RowSum().Total(), gas.Total());
}

TEST(EpochSeries, GasPerOpDividesByOps) {
  GasMatrix gas;
  EpochSeries series;
  RecordSome(gas, 0, 42000);
  EXPECT_DOUBLE_EQ(series.Close(21, gas, {}).GasPerOp(), 2000.0);
  EXPECT_DOUBLE_EQ(series.Close(0, gas, {}).GasPerOp(), 0.0);
}

TEST(EpochSeries, ResetBaselineSkipsGasBeforeTheReset) {
  GasMatrix gas;
  EpochSeries series;

  RecordSome(gas, 999, 999);  // warm-up noise
  series.ResetBaseline(gas);

  RecordSome(gas, 200, 21000);
  EXPECT_EQ(series.Close(1, gas, {}).GasTotal(), 21200u);
}

TEST(EpochSeries, ClearDropsRowsKeepsBaseline) {
  GasMatrix gas;
  EpochSeries series;
  RecordSome(gas, 100, 100);
  series.Close(1, gas, {});
  series.Clear();
  EXPECT_TRUE(series.Rows().empty());

  RecordSome(gas, 50, 0);
  EXPECT_EQ(series.Close(1, gas, {}).GasTotal(), 50u);  // delta only
}

TEST(EpochSeries, CsvExportShapeAndValues) {
  GasMatrix gas;
  EpochSeries series;
  RecordSome(gas, 200, 21000);
  series.Close(32, gas, {});

  std::ostringstream out;
  series.WriteCsv(out);
  std::istringstream in(out.str());
  std::string header, row, extra;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_FALSE(std::getline(in, extra));  // one data row per epoch

  EXPECT_EQ(header.rfind("epoch,ops,gas_total,gas_per_op", 0), 0u);
  EXPECT_NE(header.find("component_sload"), std::string::npos);
  EXPECT_NE(header.find("cause_gGet-sync"), std::string::npos);
  EXPECT_EQ(row.rfind("0,32,21200,", 0), 0u);

  // Same column count in header and row.
  auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(commas(header), commas(row));
}

TEST(EpochSeries, JsonLinesExportOneObjectPerEpoch) {
  GasMatrix gas;
  EpochSeries series;
  RecordSome(gas, 200, 21000);
  series.Close(32, gas, {});
  RecordSome(gas, 0, 21000);
  series.Close(8, gas, {});

  std::ostringstream out;
  series.WriteJsonLines(out);
  std::istringstream in(out.str());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, 2u);

  EXPECT_NE(out.str().find("{\"epoch\":0,\"ops\":32,\"gas_total\":21200,"),
            std::string::npos);
  EXPECT_NE(out.str().find("\"sload\":200"), std::string::npos);
  EXPECT_NE(out.str().find("\"gGet-sync\":21200"), std::string::npos);
}

}  // namespace
}  // namespace grub::telemetry
