// End-to-end telemetry invariants over a driven GrubSystem:
//   1. the chain's Gas matrix total equals the metered total and the
//      per-contract totals — every unit of Gas is attributed, exactly once;
//   2. per-epoch rows sum to that same total (the time series is lossless),
//      also across a counter reset;
//   3. the tx-base and calldata components match the mined transactions;
//   4. attaching telemetry changes no Gas result (bit-identical totals).
#include <gtest/gtest.h>

#include "grub/system.h"
#include "workload/synthetic.h"

namespace grub::core {
namespace {

std::vector<std::pair<Bytes, Bytes>> SomeRecords(size_t n, size_t bytes) {
  std::vector<std::pair<Bytes, Bytes>> records;
  records.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    records.emplace_back(workload::MakeKey(i), Bytes(bytes, 0x11));
  }
  return records;
}

// The Fig. 7 setup in miniature: fixed read/write-ratio workload, adaptive
// policy, default chain schedule.
GrubSystem MakeSystem(bool telemetry, double ratio = 4) {
  (void)ratio;
  SystemOptions options;
  options.enable_telemetry = telemetry;
  return GrubSystem(options, std::make_unique<MemorylessPolicy>(2));
}

TEST(SystemTelemetry, AttributionTotalEqualsChainTotal) {
  // The chain keeps its matrix with telemetry off too.
  auto system = MakeSystem(/*telemetry=*/false);
  system.Preload(SomeRecords(64, 32));
  auto trace = workload::FixedRatioTrace(/*ratio=*/4, /*ops=*/512, 32);
  system.Drive(trace);

  const auto& matrix = system.Chain().TotalGasMatrix();
  EXPECT_GT(system.TotalGas(), 0u);
  EXPECT_EQ(matrix.Total(), system.TotalGas());
  // Per-contract totals are summed from receipts, apart from the matrix.
  EXPECT_EQ(system.FeedGas(0), matrix.Total());
}

TEST(SystemTelemetry, EpochRowsSumExactlyToChainTotal) {
  auto system = MakeSystem(/*telemetry=*/true);
  system.Preload(SomeRecords(64, 32));
  auto trace = workload::FixedRatioTrace(/*ratio=*/4, /*ops=*/512, 32);
  system.Drive(trace);

  const auto& series = system.Metrics()->Epochs();
  ASSERT_FALSE(series.Rows().empty());
  EXPECT_EQ(series.RowSum().Total(), system.TotalGas());

  // Per-row internal consistency: component and cause margins both sum to
  // the row total.
  for (const auto& row : series.Rows()) {
    uint64_t by_component = 0, by_cause = 0;
    for (size_t c = 0; c < telemetry::kNumGasComponents; ++c) {
      by_component +=
          row.gas.ComponentTotal(static_cast<telemetry::GasComponent>(c));
    }
    for (size_t w = 0; w < telemetry::kNumGasCauses; ++w) {
      by_cause += row.gas.CauseTotal(static_cast<telemetry::GasCause>(w));
    }
    EXPECT_EQ(by_component, row.GasTotal());
    EXPECT_EQ(by_cause, row.GasTotal());
  }
}

TEST(SystemTelemetry, ComponentSumsMatchChainBreakdown) {
  auto system = MakeSystem(/*telemetry=*/true);
  system.Preload(SomeRecords(64, 32));
  const size_t first_block = system.Chain().Blocks().size();
  auto trace = workload::FixedRatioTrace(/*ratio=*/2, /*ops=*/256, 32);
  system.Drive(trace);

  using telemetry::GasComponent;
  const auto& matrix = system.Chain().TotalGasMatrix();
  const auto breakdown = system.TotalBreakdown();

  // Recompute Ctx(X) from the mined transactions: the base per transaction
  // and the per-word calldata.
  const chain::GasSchedule& gas = system.Chain().Params().gas;
  const auto& blocks = system.Chain().Blocks();
  uint64_t txs = 0;
  uint64_t calldata_words = 0;
  for (size_t b = first_block; b < blocks.size(); ++b) {
    for (const auto& tx : blocks[b].transactions) {
      txs += 1;
      calldata_words += WordsForBytes(tx.CalldataBytes());
    }
  }
  ASSERT_GT(txs, 0u);
  EXPECT_EQ(matrix.ComponentTotal(GasComponent::kTxBase), txs * gas.tx_base);
  EXPECT_EQ(matrix.ComponentTotal(GasComponent::kCalldata),
            calldata_words * gas.tx_per_word);
  EXPECT_EQ(matrix.ComponentTotal(GasComponent::kTxBase) +
                matrix.ComponentTotal(GasComponent::kCalldata),
            breakdown.tx);
  EXPECT_EQ(matrix.ComponentTotal(GasComponent::kSstoreInsert),
            breakdown.storage_insert);
  EXPECT_EQ(matrix.ComponentTotal(GasComponent::kSstoreUpdate),
            breakdown.storage_update);
  EXPECT_EQ(matrix.ComponentTotal(GasComponent::kSload),
            breakdown.storage_read);
  EXPECT_EQ(matrix.ComponentTotal(GasComponent::kHash), breakdown.hash);
  EXPECT_EQ(matrix.ComponentTotal(GasComponent::kLog), breakdown.log);
  EXPECT_EQ(matrix.ComponentTotal(GasComponent::kOther), breakdown.other);
}

TEST(SystemTelemetry, CausesCoverTheGrubCodePaths) {
  auto system = MakeSystem(/*telemetry=*/true);
  system.Preload(SomeRecords(64, 32));
  auto trace = workload::FixedRatioTrace(/*ratio=*/4, /*ops=*/512, 32);
  system.Drive(trace);

  using telemetry::GasCause;
  const auto& matrix = system.Chain().TotalGasMatrix();
  // A mixed read/write run exercises the sync-read, deliver, and
  // root-update paths.
  EXPECT_GT(matrix.CauseTotal(GasCause::kGGetSync), 0u);
  EXPECT_GT(matrix.CauseTotal(GasCause::kDeliver), 0u);
  EXPECT_GT(matrix.CauseTotal(GasCause::kUpdateRoot), 0u);
}

TEST(SystemTelemetry, FlipCountersTrackPolicyTransitions) {
  // The DO keeps no flip counter of its own: every policy transition is one
  // flip audit record in the tracer, which carries its direction.
  SystemOptions options;
  options.enable_tracing = true;
  GrubSystem system(options, std::make_unique<MemorylessPolicy>(2));
  system.Preload(SomeRecords(16, 32));
  // Reads promote toward R, writes demote toward NR under memoryless K=2:
  // drive enough of both on one key to force transitions in each direction.
  auto trace = workload::FixedRatioTrace(/*ratio=*/4, /*ops=*/512, 32);
  system.Drive(trace);

  ASSERT_NE(system.Tracing(), nullptr);
  const std::string policy = system.Do().Policy().Name();
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  for (const auto& flip : system.Tracing()->Flips()) {
    EXPECT_EQ(flip.policy, policy);
    (flip.to_replicated ? promotions : demotions) += 1;
  }
  EXPECT_GT(promotions, 0u);
  EXPECT_GT(demotions, 0u);
}

TEST(SystemTelemetry, GasTotalsBitIdenticalWithTelemetryOnOrOff) {
  auto trace = workload::FixedRatioTrace(/*ratio=*/4, /*ops=*/512, 32);

  auto with = MakeSystem(/*telemetry=*/true);
  with.Preload(SomeRecords(64, 32));
  auto epochs_with = with.Drive(trace);

  auto without = MakeSystem(/*telemetry=*/false);
  without.Preload(SomeRecords(64, 32));
  auto epochs_without = without.Drive(trace);

  EXPECT_EQ(without.Metrics(), nullptr);
  ASSERT_EQ(epochs_with.size(), epochs_without.size());
  for (size_t i = 0; i < epochs_with.size(); ++i) {
    EXPECT_EQ(epochs_with[i].gas, epochs_without[i].gas) << "epoch " << i;
    EXPECT_EQ(epochs_with[i].ops, epochs_without[i].ops) << "epoch " << i;
  }
  EXPECT_EQ(with.TotalGas(), without.TotalGas());
  EXPECT_EQ(with.TotalBreakdown().tx, without.TotalBreakdown().tx);
  EXPECT_EQ(with.TotalBreakdown().storage_insert,
            without.TotalBreakdown().storage_insert);
}

TEST(SystemTelemetry, ResetGasCountersRebaselinesTheEpochSeries) {
  // grubctl --converged: a warm-up pass, a counter reset, then a measured
  // pass whose epoch rows must add up to the measured Gas alone, cell by
  // cell.
  auto system = MakeSystem(/*telemetry=*/true);
  system.Preload(SomeRecords(64, 32));
  auto trace = workload::FixedRatioTrace(/*ratio=*/4, /*ops=*/256, 32);
  system.Drive(trace);  // warm up
  system.Chain().ResetGasCounters();
  EXPECT_EQ(system.TotalGas(), 0u);
  system.Metrics()->Epochs().Clear();

  system.Drive(trace);
  const auto sum = system.Metrics()->Epochs().RowSum();
  const auto& matrix = system.Chain().TotalGasMatrix();
  EXPECT_GT(sum.Total(), 0u);
  for (size_t c = 0; c < telemetry::kNumGasComponents; ++c) {
    for (size_t w = 0; w < telemetry::kNumGasCauses; ++w) {
      EXPECT_EQ(sum.cells[c][w], matrix.cells[c][w]) << c << " x " << w;
    }
  }
}

}  // namespace
}  // namespace grub::core
