// GasPriceSchedule: spec grammar, the normalized-trough invariant, the
// per-kind At() shapes, and the chain's surcharge metering (attribution
// still sums; a unit schedule is byte-invisible).
#include <gtest/gtest.h>

#include "chain/abi.h"
#include "chain/blockchain.h"
#include "chain/price.h"

namespace grub::chain {
namespace {

TEST(PriceSchedule, DefaultIsUnit) {
  GasPriceSchedule unit;
  EXPECT_TRUE(unit.IsUnit());
  EXPECT_EQ(unit.At(0).exec_milli, 1000u);
  EXPECT_EQ(unit.At(1'000'000).storage_milli, 1000u);
}

TEST(PriceSchedule, ParseRoundTripsEveryKind) {
  for (const char* spec :
       {"constant", "constant:2000", "constant:2000,3000", "step:10,5,1500,4000",
        "step:25,0,1000,16000", "ramp:8,16,3000,3000", "square:12,2500,1000",
        "regime:7,6,1500,4000"}) {
    auto parsed = GasPriceSchedule::Parse(spec);
    ASSERT_TRUE(parsed.ok()) << spec;
    auto reparsed = GasPriceSchedule::Parse(parsed->Describe());
    ASSERT_TRUE(reparsed.ok()) << parsed->Describe();
    // Canonical form is a fixed point, and both parses agree at every block.
    EXPECT_EQ(parsed->Describe(), reparsed->Describe());
    for (uint64_t b : {0u, 9u, 10u, 14u, 15u, 26u, 100u}) {
      EXPECT_EQ(parsed->At(b).exec_milli, reparsed->At(b).exec_milli) << spec;
      EXPECT_EQ(parsed->At(b).storage_milli, reparsed->At(b).storage_milli)
          << spec;
    }
  }
}

TEST(PriceSchedule, ParseRejectsBelowTroughMultipliers) {
  // Normalized-trough invariant: the base IS the cheapest point, so any
  // multiplier below 1000 (a discount) is rejected, never clamped.
  for (const char* spec : {"constant:500", "constant:2000,999",
                           "step:0,0,900,1000", "ramp:0,4,1000,100",
                           "square:4,999,1000", "regime:1,4,1000,0"}) {
    EXPECT_FALSE(GasPriceSchedule::Parse(spec).ok()) << spec;
  }
  EXPECT_FALSE(GasPriceSchedule::Parse("bogus:1,2,3").ok());
  EXPECT_FALSE(GasPriceSchedule::Parse("").ok());
}

TEST(PriceSchedule, StepShape) {
  // Closed window [10, 15): unit outside, target inside.
  GasPriceSchedule step = GasPriceSchedule::Step(10, 5, 1500, 4000);
  EXPECT_TRUE(step.At(9).IsUnit());
  EXPECT_EQ(step.At(10).exec_milli, 1500u);
  EXPECT_EQ(step.At(14).storage_milli, 4000u);
  EXPECT_TRUE(step.At(15).IsUnit());

  // LEN 0 = open-ended: the repricing is permanent.
  GasPriceSchedule fork = GasPriceSchedule::Step(25, 0, 1000, 16000);
  EXPECT_TRUE(fork.At(24).IsUnit());
  EXPECT_EQ(fork.At(25).storage_milli, 16000u);
  EXPECT_EQ(fork.At(1'000'000).storage_milli, 16000u);
}

TEST(PriceSchedule, RampInterpolatesThenHolds) {
  GasPriceSchedule ramp = GasPriceSchedule::Ramp(10, 10, 3000, 2000);
  EXPECT_TRUE(ramp.At(9).IsUnit());
  // Monotone non-decreasing across the ramp, exact at both ends.
  uint64_t prev_exec = 1000;
  for (uint64_t b = 10; b < 20; ++b) {
    const PricePoint p = ramp.At(b);
    EXPECT_GE(p.exec_milli, prev_exec);
    prev_exec = p.exec_milli;
  }
  EXPECT_EQ(ramp.At(20).exec_milli, 3000u);
  EXPECT_EQ(ramp.At(20).storage_milli, 2000u);
  EXPECT_EQ(ramp.At(1'000'000).exec_milli, 3000u);
}

TEST(PriceSchedule, SquareAlternatesEachPeriod) {
  GasPriceSchedule square = GasPriceSchedule::Square(4, 2500, 1000);
  for (uint64_t b = 0; b < 32; ++b) {
    const bool high = (b / 4) % 2 == 1;
    EXPECT_EQ(square.At(b).exec_milli, high ? 2500u : 1000u) << b;
  }
}

TEST(PriceSchedule, RegimeIsSeededAndTwoValued) {
  GasPriceSchedule a = GasPriceSchedule::Regime(7, 6, 1500, 4000);
  GasPriceSchedule b = GasPriceSchedule::Regime(7, 6, 1500, 4000);
  bool saw_base = false, saw_target = false;
  for (uint64_t blk = 0; blk < 256; ++blk) {
    const PricePoint pa = a.At(blk);
    EXPECT_EQ(pa.exec_milli, b.At(blk).exec_milli) << blk;  // deterministic
    EXPECT_EQ(pa.storage_milli, b.At(blk).storage_milli) << blk;
    if (pa.IsUnit()) saw_base = true;
    if (pa.exec_milli == 1500 && pa.storage_milli == 4000) saw_target = true;
    EXPECT_TRUE(pa.IsUnit() ||
                (pa.exec_milli == 1500 && pa.storage_milli == 4000));
  }
  EXPECT_TRUE(saw_base);
  EXPECT_TRUE(saw_target);
}

// Minimal contract driving both charge classes: one sstore (storage) plus
// calldata/tx base (exec).
class SetContract : public Contract {
 public:
  Status Call(CallContext& ctx, const std::string& /*function*/,
              ByteSpan args) override {
    AbiReader r(args);
    ctx.Storage().SStore(Word::FromU64(1), Word::FromU64(r.U64()));
    return Status::Ok();
  }
};

Transaction SetTx(Address to, uint64_t value) {
  AbiWriter w;
  w.U64(value);
  Transaction tx;
  tx.from = 500;
  tx.to = to;
  tx.function = "set";
  tx.calldata = w.Take();
  return tx;
}

TEST(PriceSchedule, SurchargeSplitsExecAndStorageMultipliers) {
  // Reference run under unit prices to learn the base exec/storage split.
  Blockchain unit_chain;
  Address unit_addr = unit_chain.Deploy(std::make_unique<SetContract>());
  auto base_insert = unit_chain.SubmitAndMine(SetTx(unit_addr, 1));
  auto base_update = unit_chain.SubmitAndMine(SetTx(unit_addr, 2));
  ASSERT_TRUE(base_insert.ok());
  ASSERT_TRUE(base_update.ok());

  ChainParams params;
  params.price = GasPriceSchedule::Constant(2000, 3000);
  Blockchain chain(params);
  Address addr = chain.Deploy(std::make_unique<SetContract>());
  auto insert = chain.SubmitAndMine(SetTx(addr, 1));
  auto update = chain.SubmitAndMine(SetTx(addr, 2));
  ASSERT_TRUE(insert.ok());
  ASSERT_TRUE(update.ok());

  auto expect_priced = [](const Receipt& base, const Receipt& priced) {
    const uint64_t storage_gas =
        base.breakdown.storage_insert + base.breakdown.storage_update;
    const uint64_t exec_gas = base.gas_used - storage_gas;
    const uint64_t surcharge =
        exec_gas * (2000 - 1000) / 1000 + storage_gas * (3000 - 1000) / 1000;
    EXPECT_EQ(priced.gas_used, base.gas_used + surcharge);
    // The surcharge is metered as an `other` charge (cause price-shift), so
    // the breakdown still sums to the receipt total.
    EXPECT_EQ(priced.breakdown.other, base.breakdown.other + surcharge);
    EXPECT_EQ(priced.breakdown.Total(), priced.gas_used);
  };
  expect_priced(base_insert, insert);
  expect_priced(base_update, update);
}

TEST(PriceSchedule, UnitConstantIsByteInvisible) {
  Blockchain plain;
  ChainParams params;
  params.price = GasPriceSchedule::Constant(1000, 1000);
  Blockchain scheduled(params);
  Address a1 = plain.Deploy(std::make_unique<SetContract>());
  Address a2 = scheduled.Deploy(std::make_unique<SetContract>());
  for (uint64_t v = 1; v <= 4; ++v) {
    auto r1 = plain.SubmitAndMine(SetTx(a1, v));
    auto r2 = scheduled.SubmitAndMine(SetTx(a2, v));
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r1.gas_used, r2.gas_used);
    EXPECT_EQ(r1.breakdown.other, r2.breakdown.other);
  }
}

}  // namespace
}  // namespace grub::chain
