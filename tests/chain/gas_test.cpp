// Gas schedule: the Table 2 formulas must be reproduced exactly — every
// experimental number in the paper reduction rests on them.
#include <gtest/gtest.h>

#include "chain/gas.h"

namespace grub::chain {
namespace {

TEST(GasSchedule, TransactionCostMatchesTable2) {
  GasSchedule gas;
  // Ctx(X) = 21000 + 2176 X over calldata words.
  EXPECT_EQ(gas.TxCost(0), 21000u);
  EXPECT_EQ(gas.TxCost(1), 21000u + 2176);
  EXPECT_EQ(gas.TxCost(32), 21000u + 2176);
  EXPECT_EQ(gas.TxCost(33), 21000u + 2 * 2176);
  EXPECT_EQ(gas.TxCost(320), 21000u + 10 * 2176);
}

TEST(GasSchedule, StorageCostsMatchTable2) {
  GasSchedule gas;
  EXPECT_EQ(gas.InsertCost(1), 20000u);
  EXPECT_EQ(gas.InsertCost(7), 140000u);
  EXPECT_EQ(gas.UpdateCost(1), 5000u);
  EXPECT_EQ(gas.UpdateCost(3), 15000u);
  EXPECT_EQ(gas.ReadCost(1), 200u);
  EXPECT_EQ(gas.ReadCost(10), 2000u);
}

TEST(GasSchedule, HashCostMatchesTable2) {
  GasSchedule gas;
  // Chash(X) = 30 + 6 X.
  EXPECT_EQ(gas.HashCost(0), 30u);
  EXPECT_EQ(gas.HashCost(1), 36u);
  EXPECT_EQ(gas.HashCost(100), 630u);
}

TEST(GasSchedule, LogCostFollowsYellowPaper) {
  GasSchedule gas;
  EXPECT_EQ(gas.LogCost(1, 0), 375u + 375u);
  EXPECT_EQ(gas.LogCost(1, 100), 375u + 375u + 800u);
  EXPECT_EQ(gas.LogCost(3, 10), 375u + 3 * 375u + 80u);
}

TEST(GasSchedule, ConstantsPinYellowPaperValues) {
  // The default-constructed schedule IS Table 2 + Yellow Paper Appendix G;
  // every measured figure downstream rests on these exact rates.
  GasSchedule gas;
  EXPECT_EQ(gas.tx_base, 21000u);               // Gtransaction
  EXPECT_EQ(gas.tx_per_word, 2176u);            // 32 x Gtxdatanonzero (68)
  EXPECT_EQ(gas.sstore_insert_per_word, 20000u);  // Gsset
  EXPECT_EQ(gas.sstore_update_per_word, 5000u);   // Gsreset
  EXPECT_EQ(gas.sload_per_word, 200u);            // Gsload
  EXPECT_EQ(gas.hash_base, 30u);                  // Gsha3
  EXPECT_EQ(gas.hash_per_word, 6u);               // Gsha3word
  EXPECT_EQ(gas.log_base, 375u);                  // Glog
  EXPECT_EQ(gas.log_per_topic, 375u);             // Glogtopic
  EXPECT_EQ(gas.log_per_byte, 8u);                // Glogdata
}

TEST(GasSchedule, LogCostTopicAndDataByteEdges) {
  GasSchedule gas;
  // LOG0 with no data is the bare Glog; the EVM tops out at LOG4.
  EXPECT_EQ(gas.LogCost(0, 0), 375u);
  EXPECT_EQ(gas.LogCost(4, 0), 375u + 4 * 375u);
  // LOG data is priced per BYTE (8 gas), never word-rounded — crossing a
  // 32-byte boundary moves the cost by exactly 8, unlike calldata/sstore.
  EXPECT_EQ(gas.LogCost(0, 31), 375u + 31 * 8u);
  EXPECT_EQ(gas.LogCost(0, 32), 375u + 32 * 8u);
  EXPECT_EQ(gas.LogCost(0, 33), 375u + 33 * 8u);
  EXPECT_EQ(gas.LogCost(0, 33) - gas.LogCost(0, 32), 8u);
  // Topics and data compose additively.
  EXPECT_EQ(gas.LogCost(2, 1000), 375u + 2 * 375u + 8000u);
}

TEST(GasScheduleDeathTest, TxCostAbortsAtThousandWordBoundary) {
  GasSchedule gas;
  // Ctx(X) is documented for X < 1000 words only. The last covered size
  // meters normally; one byte more crosses into the 1000th word and the
  // schedule hard-aborts — chunkers must split, never extrapolate.
  EXPECT_EQ(GasSchedule::kMaxCalldataBytes, 999u * 32u);
  EXPECT_EQ(gas.TxCost(GasSchedule::kMaxCalldataBytes), 21000u + 999u * 2176u);
  EXPECT_DEATH((void)gas.TxCost(GasSchedule::kMaxCalldataBytes + 1),
               "chunk the transaction");
  EXPECT_DEATH((void)gas.TxCost(1000u * 32u), "chunk the transaction");
  EXPECT_DEATH((void)gas.TxCost(1u << 20), "chunk the transaction");
}

TEST(GasSchedule, OffchainReadPerWordIsCalldataRate) {
  // C_read_off in the algorithm analysis = marginal calldata word cost.
  GasSchedule gas;
  EXPECT_EQ(gas.OffchainReadPerWord(), 2176u);
}

TEST(GasMeter, AccumulatesByCategory) {
  GasSchedule gas;
  GasMeter meter(gas);
  meter.ChargeTx(100);          // 21000 + 4*2176
  meter.ChargeInsert(2);        // 40000
  meter.ChargeUpdate(3);        // 15000
  meter.ChargeRead(5);          // 1000
  meter.ChargeHash(2);          // 42
  meter.ChargeLog(1, 10);       // 830
  meter.ChargeOther(7);

  const auto& breakdown = meter.Breakdown();
  EXPECT_EQ(breakdown.tx, 21000u + 4 * 2176);
  EXPECT_EQ(breakdown.storage_insert, 40000u);
  EXPECT_EQ(breakdown.storage_update, 15000u);
  EXPECT_EQ(breakdown.storage_read, 1000u);
  EXPECT_EQ(breakdown.hash, 42u);
  EXPECT_EQ(breakdown.log, 830u);
  EXPECT_EQ(breakdown.other, 7u);
  EXPECT_EQ(meter.Used(), breakdown.Total());
}

TEST(GasMeter, WordRoundingAtBoundaries) {
  // The 32-byte word rounding drives every per-word cost; pin the edges
  // through the meter (not just the schedule arithmetic).
  EXPECT_EQ(WordsForBytes(0), 0u);
  EXPECT_EQ(WordsForBytes(1), 1u);
  EXPECT_EQ(WordsForBytes(32), 1u);
  EXPECT_EQ(WordsForBytes(33), 2u);

  GasSchedule gas;
  for (const auto& [bytes, words] :
       {std::pair<uint64_t, uint64_t>{0, 0}, {1, 1}, {32, 1}, {33, 2}}) {
    GasMeter meter(gas);
    meter.ChargeTx(bytes);
    EXPECT_EQ(meter.Used(), 21000u + words * 2176)
        << "calldata bytes = " << bytes;
  }
}

TEST(GasMeter, EmptyCalldataTransactionIsExactlyBase) {
  GasSchedule gas;
  GasMeter meter(gas);
  meter.ChargeTx(0);
  EXPECT_EQ(meter.Used(), 21000u);
  EXPECT_EQ(meter.Breakdown().tx, 21000u);
  EXPECT_EQ(meter.Breakdown().Total(), 21000u);
}

TEST(GasMeter, ChargeLandsInAmbientCauseCell) {
  using telemetry::GasCause;
  using telemetry::GasComponent;
  using telemetry::GasSpan;
  GasSchedule gas;
  GasMeter meter(gas);
  meter.ChargeRead(1);  // no span open: unattributed
  {
    GasSpan span(GasCause::kGGetSync);
    meter.ChargeRead(2);
    meter.ChargeHash(1);
    meter.ChargeTx(100);  // splits into its base and calldata cells
    {
      GasSpan inner(GasCause::kReplicaInsert);
      meter.ChargeInsert(1);
    }
  }

  const telemetry::GasMatrix& m = meter.Matrix();
  EXPECT_EQ(m.At(GasComponent::kSload, GasCause::kUnattributed), 200u);
  EXPECT_EQ(m.At(GasComponent::kSload, GasCause::kGGetSync), 400u);
  EXPECT_EQ(m.At(GasComponent::kHash, GasCause::kGGetSync), 36u);
  EXPECT_EQ(m.At(GasComponent::kTxBase, GasCause::kGGetSync), 21000u);
  EXPECT_EQ(m.At(GasComponent::kCalldata, GasCause::kGGetSync), 4u * 2176);
  EXPECT_EQ(m.At(GasComponent::kSstoreInsert, GasCause::kReplicaInsert),
            20000u);
  EXPECT_EQ(m.ComponentTotal(GasComponent::kSload), 600u);
  EXPECT_EQ(m.CauseTotal(GasCause::kGGetSync), 400u + 36 + 21000 + 4 * 2176);
  // Each charge is recorded once: the total and the breakdown are views of
  // the same cells.
  EXPECT_EQ(meter.Used(), m.Total());
  EXPECT_EQ(meter.Used(), 200u + 400 + 36 + 21000 + 4 * 2176 + 20000);
  EXPECT_EQ(meter.Breakdown().tx, 21000u + 4 * 2176);
  EXPECT_EQ(meter.Breakdown().Total(), meter.Used());
}

}  // namespace
}  // namespace grub::chain
