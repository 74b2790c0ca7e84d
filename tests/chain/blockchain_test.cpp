// Blockchain simulator: dispatch, receipts, events, call history, logical
// time / propagation / finality, and Gas accounting boundaries.
#include <gtest/gtest.h>

#include <map>

#include "chain/abi.h"
#include "chain/blockchain.h"

namespace grub::chain {
namespace {

// Test contract: "set" stores a value, "get" returns it, "emit" logs an
// event, "call" makes an internal call to another contract, "boom" throws.
class EchoContract : public Contract {
 public:
  Status Call(CallContext& ctx, const std::string& function,
              ByteSpan args) override {
    AbiReader r(args);
    if (function == "set") {
      ctx.Storage().SStore(Word::FromU64(1), Word::FromU64(r.U64()));
      return Status::Ok();
    }
    if (function == "get") {
      AbiWriter w;
      w.U64(ctx.Storage().SLoad(Word::FromU64(1)).ToU64());
      ctx.Return(w.Take());
      return Status::Ok();
    }
    if (function == "emit") {
      ctx.EmitEvent("ping", args);
      return Status::Ok();
    }
    if (function == "call") {
      const Address target = r.U64();
      auto result = ctx.InternalCall(target, "get", {});
      if (!result.ok()) return result.status();
      ctx.Return(std::move(result).value());
      return Status::Ok();
    }
    if (function == "boom") {
      throw std::runtime_error("deliberate contract failure");
    }
    return Status::NotFound("unknown function");
  }
};

Transaction MakeTx(Address to, const std::string& fn, Bytes args = {}) {
  Transaction tx;
  tx.from = 500;
  tx.to = to;
  tx.function = fn;
  tx.calldata = std::move(args);
  return tx;
}

TEST(Blockchain, DeployAndCall) {
  Blockchain chain;
  Address addr = chain.Deploy(std::make_unique<EchoContract>());
  AbiWriter w;
  w.U64(42);
  auto receipt = chain.SubmitAndMine(MakeTx(addr, "set", w.Take()));
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(chain.StorageOf(addr).Load(Word::FromU64(1)).ToU64(), 42u);
}

TEST(Blockchain, ReceiptCarriesReturnData) {
  Blockchain chain;
  Address addr = chain.Deploy(std::make_unique<EchoContract>());
  AbiWriter w;
  w.U64(7);
  chain.SubmitAndMine(MakeTx(addr, "set", w.Take()));
  auto receipt = chain.SubmitAndMine(MakeTx(addr, "get"));
  ASSERT_TRUE(receipt.ok());
  AbiReader r(receipt.return_data);
  EXPECT_EQ(r.U64(), 7u);
}

TEST(Blockchain, TransactionGasIncludesBaseAndCalldata) {
  Blockchain chain;
  Address addr = chain.Deploy(std::make_unique<EchoContract>());
  auto receipt = chain.SubmitAndMine(MakeTx(addr, "emit", Bytes(64, 1)));
  // 64B args + 4B selector = 3 words.
  EXPECT_EQ(receipt.breakdown.tx, 21000u + 3 * 2176);
  EXPECT_GT(receipt.breakdown.log, 0u);
}

TEST(Blockchain, UnknownContractFailsButChargesTxBase) {
  Blockchain chain;
  auto receipt = chain.SubmitAndMine(MakeTx(999, "set"));
  EXPECT_FALSE(receipt.ok());
  EXPECT_GE(receipt.gas_used, 21000u);
}

TEST(Blockchain, ThrowingContractYieldsInternalError) {
  Blockchain chain;
  Address addr = chain.Deploy(std::make_unique<EchoContract>());
  auto receipt = chain.SubmitAndMine(MakeTx(addr, "boom"));
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status.code(), StatusCode::kInternal);
}

TEST(Blockchain, EventsLandInLogAndReceipt) {
  Blockchain chain;
  Address addr = chain.Deploy(std::make_unique<EchoContract>());
  auto receipt = chain.SubmitAndMine(MakeTx(addr, "emit", ToBytes("hello")));
  ASSERT_EQ(receipt.events.size(), 1u);
  EXPECT_EQ(receipt.events[0].name, "ping");
  EXPECT_EQ(receipt.events[0].data, ToBytes("hello"));
  ASSERT_EQ(chain.EventLog().size(), 1u);
  EXPECT_EQ(chain.EventLog()[0].data, ToBytes("hello"));
}

TEST(Blockchain, EventsSinceTailsTheLog) {
  Blockchain chain;
  Address addr = chain.Deploy(std::make_unique<EchoContract>());
  chain.SubmitAndMine(MakeTx(addr, "emit", ToBytes("a")));
  chain.SubmitAndMine(MakeTx(addr, "emit", ToBytes("b")));
  auto since1 = chain.EventsSince(1);
  ASSERT_EQ(since1.size(), 1u);
  EXPECT_EQ(since1[0].data, ToBytes("b"));
  EXPECT_TRUE(chain.EventsSince(2).empty());
  EXPECT_EQ(chain.EventsSince(0).size(), 2u);
}

TEST(Blockchain, InternalCallsRecordedInHistory) {
  Blockchain chain;
  Address a = chain.Deploy(std::make_unique<EchoContract>());
  Address b = chain.Deploy(std::make_unique<EchoContract>());
  AbiWriter w;
  w.U64(b);
  chain.SubmitAndMine(MakeTx(a, "call", w.Take()));

  ASSERT_EQ(chain.CallHistory().size(), 2u);
  EXPECT_FALSE(chain.CallHistory()[0].internal);
  EXPECT_EQ(chain.CallHistory()[0].contract, a);
  EXPECT_TRUE(chain.CallHistory()[1].internal);
  EXPECT_EQ(chain.CallHistory()[1].contract, b);
  EXPECT_EQ(chain.CallHistory()[1].caller, a);
}

// "nest" (depth, fanout, path): calls itself `fanout` times at depth - 1,
// each child's path extended by its position, and only AFTER the children
// return records the calldata it was handed. The children grow the call
// history, so a callee's view of its record's calldata must survive the
// history reallocating underneath it (ASan flags a dangling view).
class NestContract : public Contract {
 public:
  Status Call(CallContext& ctx, const std::string& function,
              ByteSpan args) override {
    if (function != "nest") return Status::NotFound(function);
    AbiReader r(args);
    const uint64_t depth = r.U64();
    const uint64_t fanout = r.U64();
    const ByteSpan path = r.BlobView();
    if (depth > 0) {
      for (uint64_t k = 0; k < fanout; ++k) {
        Bytes child_path(path.begin(), path.end());
        child_path.push_back(static_cast<uint8_t>(k));
        AbiWriter w;
        w.U64(depth - 1).U64(fanout).Blob(child_path);
        auto result = ctx.InternalCall(ctx.Self(), "nest", w.Take());
        if (!result.ok()) return result.status();
      }
    }
    read_.emplace(Bytes(path.begin(), path.end()),
                  Bytes(args.begin(), args.end()));
    return Status::Ok();
  }

  /// Calldata each call read after its children ran, by call path.
  std::map<Bytes, Bytes> read_;
};

TEST(Blockchain, NestedCallsReadTheirRecordsCalldataAcrossReallocation) {
  Blockchain chain;
  auto nest = std::make_unique<NestContract>();
  NestContract* contract = nest.get();
  const Address addr = chain.Deploy(std::move(nest));
  AbiWriter w;
  w.U64(3).U64(4).Blob({});
  const Bytes top = w.Take();
  const size_t capacity_before = chain.CallHistory().capacity();
  auto receipt = chain.SubmitAndMine(MakeTx(addr, "nest", top));
  ASSERT_TRUE(receipt.ok()) << receipt.status.ToString();

  // 1 + 4 + 16 + 64 calls, all inside one transaction: the history grew
  // (and reallocated) while callers up the stack were still reading.
  const auto& history = chain.CallHistory();
  ASSERT_EQ(history.size(), 85u);
  EXPECT_GT(history.capacity(), capacity_before);
  ASSERT_EQ(contract->read_.size(), 85u);
  EXPECT_FALSE(history[0].internal);
  EXPECT_EQ(history[0].calldata, top);
  for (const CallRecord& record : history) {
    AbiReader r(record.calldata);
    (void)r.U64();
    (void)r.U64();
    const Bytes path = r.Blob();
    auto it = contract->read_.find(path);
    ASSERT_NE(it, contract->read_.end());
    EXPECT_EQ(it->second, record.calldata) << "path size " << path.size();
    EXPECT_TRUE(record.ok);
  }
}

TEST(Blockchain, InternalCallSharesGasMeter) {
  Blockchain chain;
  Address a = chain.Deploy(std::make_unique<EchoContract>());
  Address b = chain.Deploy(std::make_unique<EchoContract>());
  AbiWriter set;
  set.U64(5);
  chain.SubmitAndMine(MakeTx(b, "set", set.Take()));

  AbiWriter w;
  w.U64(b);
  auto receipt = chain.SubmitAndMine(MakeTx(a, "call", w.Take()));
  ASSERT_TRUE(receipt.ok());
  // The callee's sload is charged to the caller's transaction.
  EXPECT_EQ(receipt.breakdown.storage_read, 200u);
}

TEST(Blockchain, StaticCallDoesNotAffectTotals) {
  Blockchain chain;
  Address addr = chain.Deploy(std::make_unique<EchoContract>());
  AbiWriter w;
  w.U64(3);
  chain.SubmitAndMine(MakeTx(addr, "set", w.Take()));
  const uint64_t before = chain.TotalGasUsed();
  auto receipt = chain.StaticCall(addr, "get", {});
  ASSERT_TRUE(receipt.ok());
  EXPECT_GT(receipt.gas_used, 0u);
  EXPECT_EQ(chain.TotalGasUsed(), before);
  AbiReader r(receipt.return_data);
  EXPECT_EQ(r.U64(), 3u);
}

TEST(Blockchain, StaticCallEventsDoNotPolluteLog) {
  Blockchain chain;
  Address addr = chain.Deploy(std::make_unique<EchoContract>());
  chain.StaticCall(addr, "emit", ToBytes("ghost"));
  EXPECT_TRUE(chain.EventLog().empty());
}

TEST(Blockchain, AdvanceTimeMinesOnSchedule) {
  ChainParams params;
  params.block_interval_sec = 10;
  params.propagation_delay_sec = 1;
  Blockchain chain(params);
  Address addr = chain.Deploy(std::make_unique<EchoContract>());
  chain.Submit(MakeTx(addr, "emit", ToBytes("x")));
  EXPECT_EQ(chain.CurrentBlockNumber(), 0u);
  chain.AdvanceTime(35);
  // Blocks at t=10, 20, 30.
  EXPECT_EQ(chain.CurrentBlockNumber(), 3u);
  EXPECT_EQ(chain.EventLog().size(), 1u);
}

TEST(Blockchain, PropagationDelayDefersInclusion) {
  ChainParams params;
  params.block_interval_sec = 10;
  params.propagation_delay_sec = 15;  // longer than one block interval
  Blockchain chain(params);
  Address addr = chain.Deploy(std::make_unique<EchoContract>());
  chain.Submit(MakeTx(addr, "emit", ToBytes("x")));
  chain.AdvanceTime(10);  // block 1 at t=10: tx not yet propagated
  EXPECT_TRUE(chain.Blocks()[0].transactions.empty());
  chain.AdvanceTime(10);  // block 2 at t=20 >= submit(0)+15
  ASSERT_EQ(chain.CurrentBlockNumber(), 2u);
  EXPECT_EQ(chain.Blocks()[1].transactions.size(), 1u);
}

TEST(Blockchain, FinalityLagsHeadByConfiguredDepth) {
  ChainParams params;
  params.finality_depth = 5;
  Blockchain chain(params);
  for (int i = 0; i < 8; ++i) chain.MineBlock();
  EXPECT_EQ(chain.CurrentBlockNumber(), 8u);
  EXPECT_EQ(chain.FinalizedBlockNumber(), 3u);
}

TEST(Blockchain, BlockGasLimitSealsBlocks) {
  ChainParams params;
  params.block_gas_limit = 25000;  // roughly one emit transaction
  Blockchain chain(params);
  Address addr = chain.Deploy(std::make_unique<EchoContract>());
  for (int i = 0; i < 6; ++i) chain.Submit(MakeTx(addr, "emit", ToBytes("x")));
  auto receipts = chain.MineBlock();
  ASSERT_EQ(receipts.size(), 6u);  // all executed...
  EXPECT_GT(chain.CurrentBlockNumber(), 1u);  // ...across several blocks
  size_t total_txs = 0;
  for (const auto& block : chain.Blocks()) {
    total_txs += block.transactions.size();
    EXPECT_LE(block.transactions.size(), 2u);
  }
  EXPECT_EQ(total_txs, 6u);
}

TEST(Blockchain, OversizedTransactionStillMines) {
  // A single transaction above the limit gets its own block (a block always
  // takes at least one transaction).
  ChainParams params;
  params.block_gas_limit = 1000;  // below even the 21000 base
  Blockchain chain(params);
  Address addr = chain.Deploy(std::make_unique<EchoContract>());
  chain.Submit(MakeTx(addr, "emit", ToBytes("x")));
  chain.Submit(MakeTx(addr, "emit", ToBytes("y")));
  auto receipts = chain.MineBlock();
  ASSERT_EQ(receipts.size(), 2u);
  EXPECT_EQ(chain.CurrentBlockNumber(), 2u);  // one tx per block
}

TEST(Blockchain, ReorgRollsTheGasMatrixBack) {
  using telemetry::GasCause;
  auto faults = fault::FaultInjector::Parse("chain.reorg@2", /*seed=*/1);
  ASSERT_TRUE(faults.ok());
  Blockchain chain;
  chain.SetFaultInjector(faults.value().get());
  const Address a = chain.Deploy(std::make_unique<EchoContract>());
  const Address b = chain.Deploy(std::make_unique<EchoContract>());
  auto tx = [](Address to, const std::string& fn, Bytes args, GasCause why) {
    Transaction t = MakeTx(to, fn, std::move(args));
    t.cause = why;
    return t;
  };
  auto u64 = [](uint64_t v) {
    AbiWriter w;
    w.U64(v);
    return w.Take();
  };

  // Block 1 stays canonical.
  chain.SubmitAndMine(tx(a, "set", u64(7), GasCause::kUpdateRoot));
  const telemetry::GasMatrix before = chain.TotalGasMatrix();
  const uint64_t a_before = chain.GasUsedBy(a);
  const uint64_t b_before = chain.GasUsedBy(b);

  // Block 2 charges every kind of cell under four causes; chain.reorg fires
  // as it is sealed and orphans it.
  const std::vector<Transaction> block2 = {
      tx(a, "set", u64(9), GasCause::kUpdateRoot),      // sstore update
      tx(b, "set", u64(5), GasCause::kReplicaInsert),   // sstore insert
      tx(b, "emit", ToBytes("x"), GasCause::kDeliver),  // log
      tx(b, "call", u64(a), GasCause::kGGetSync),       // internal sload
  };
  for (const Transaction& t : block2) chain.Submit(t);
  chain.MineBlock();
  ASSERT_EQ(faults.value()->Fires("chain.reorg"), 1u);
  ASSERT_EQ(chain.CurrentBlockNumber(), 1u);

  const telemetry::GasMatrix& after = chain.TotalGasMatrix();
  for (size_t c = 0; c < telemetry::kNumGasComponents; ++c) {
    for (size_t w = 0; w < telemetry::kNumGasCauses; ++w) {
      EXPECT_EQ(after.cells[c][w], before.cells[c][w])
          << telemetry::Name(static_cast<telemetry::GasComponent>(c)) << " x "
          << telemetry::Name(static_cast<GasCause>(w));
    }
  }
  EXPECT_EQ(chain.TotalBreakdown().ToString(),
            GasBreakdown::Of(before).ToString());
  EXPECT_EQ(chain.GasUsedBy(a), a_before);
  EXPECT_EQ(chain.GasUsedBy(b), b_before);
  EXPECT_EQ(chain.GasUsedBy(a) + chain.GasUsedBy(b), chain.TotalGasUsed());

  // Not vacuous: the replayed block meters all four causes again.
  chain.MineBlock();
  const telemetry::GasMatrix replayed = chain.TotalGasMatrix() - before;
  for (GasCause why : {GasCause::kUpdateRoot, GasCause::kReplicaInsert,
                       GasCause::kDeliver, GasCause::kGGetSync}) {
    EXPECT_GT(replayed.CauseTotal(why), 0u) << telemetry::Name(why);
  }
  EXPECT_GT(replayed.ComponentTotal(telemetry::GasComponent::kSstoreInsert),
            0u);
  EXPECT_GT(replayed.ComponentTotal(telemetry::GasComponent::kLog), 0u);
}

TEST(Blockchain, ResetGasCountersZeroesTotals) {
  Blockchain chain;
  Address addr = chain.Deploy(std::make_unique<EchoContract>());
  chain.SubmitAndMine(MakeTx(addr, "emit", ToBytes("x")));
  EXPECT_GT(chain.TotalGasUsed(), 0u);
  chain.ResetGasCounters();
  EXPECT_EQ(chain.TotalGasUsed(), 0u);
}

}  // namespace
}  // namespace grub::chain
