// Deterministic Ethereum-style blockchain simulator.
//
// Responsibilities:
//  * contract registry and call dispatch (transactions + internal calls);
//  * Gas accounting per transaction and cumulatively, under Table 2: one
//    component x cause GasMatrix (telemetry/gas_attribution.h) is the run's
//    Gas ledger, and the totals and breakdowns are views of it;
//  * logical time: mempool -> blocks every B seconds, finality depth F,
//    propagation delay Pt (ChainParams, §3.4);
//  * the EVM event log, queryable by index (the SP watchdog tails it);
//  * the contract-call history (the DO's workload monitor reads gGet calls
//    from here, never from the untrusted SP).
//
// For cost experiments callers typically use SubmitAndMine(), which includes
// the transaction in the next block immediately; the consistency tests use
// the explicit mempool + AdvanceTime path.
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "chain/contract.h"
#include "chain/types.h"
#include "fault/injector.h"
#include "telemetry/telemetry.h"

namespace grub::chain {

struct Block {
  uint64_t number = 0;
  TimeSec timestamp = 0;
  std::vector<Transaction> transactions;
};

class Blockchain {
 public:
  explicit Blockchain(ChainParams params = {});

  /// Registers a contract and returns its address.
  Address Deploy(std::unique_ptr<Contract> contract);

  Contract* At(Address address);

  /// Queues a transaction; it executes when included in a block.
  void Submit(Transaction tx);

  /// Advances logical time, producing blocks (and executing queued
  /// transactions) every `block_interval_sec`.
  void AdvanceTime(TimeSec seconds);

  /// Produces one block immediately containing all queued transactions.
  /// Returns receipts in queue order.
  std::vector<Receipt> MineBlock();

  /// Convenience: submit + mine a single transaction, return its receipt.
  Receipt SubmitAndMine(Transaction tx);

  /// Read-only internal call executed outside any transaction ("eth_call").
  /// Gas is metered into the returned receipt but NOT added to totals.
  Receipt StaticCall(Address to, const std::string& function, ByteSpan args);

  // --- used by CallContext ---
  Result<Bytes> ExecuteInternalCall(GasMeter& meter, Address caller,
                                    Address to, const std::string& function,
                                    Bytes args);
  void RecordEvent(Address contract, const std::string& name, ByteSpan data);

  // --- observability ---
  const std::vector<EventRecord>& EventLog() const { return event_log_; }
  /// Events with log_index >= from (the watchdog's tailing interface): a
  /// view of the log, so callers finish reading it before the next
  /// transaction runs.
  std::span<const EventRecord> EventsSince(uint64_t from_log_index) const;
  /// The log index the next emitted event will get (== one past the newest).
  uint64_t NextLogIndex() const { return next_log_index_; }
  const std::vector<CallRecord>& CallHistory() const { return call_history_; }
  const std::vector<Block>& Blocks() const { return blocks_; }

  uint64_t CurrentBlockNumber() const { return blocks_.size(); }
  TimeSec Now() const { return now_; }
  /// Highest block number considered final (depth >= finality_depth).
  uint64_t FinalizedBlockNumber() const;

  /// Cumulative Gas by component x cause since the last counter reset:
  /// every metered transaction's matrix, added once. Static calls add
  /// nothing.
  const telemetry::GasMatrix& TotalGasMatrix() const { return gas_; }
  uint64_t TotalGasUsed() const { return gas_.Total(); }
  GasBreakdown TotalBreakdown() const { return GasBreakdown::Of(gas_); }
  /// Cumulative Gas metered by transactions sent TO `contract` (multi-feed
  /// tenancy attribution: each feed's costs are the sum over its own
  /// contracts). Internal calls meter into their outer transaction's target.
  uint64_t GasUsedBy(Address contract) const {
    auto it = gas_by_contract_.find(contract);
    return it == gas_by_contract_.end() ? 0 : it->second;
  }
  /// Resets cumulative Gas counters (experiment phase boundaries) and
  /// re-baselines the attached telemetry's epoch series on the zeroed
  /// matrix.
  void ResetGasCounters() {
    gas_ = telemetry::GasMatrix{};
    gas_by_contract_.clear();
    // Snapshots straddling a counter reset would restore pre-reset totals;
    // a reorg cannot cross an experiment phase boundary.
    snapshots_.clear();
    if (telemetry_ != nullptr) telemetry_->Epochs().ResetBaseline(gas_);
  }

  /// Installs (or removes, with nullptr) the telemetry sink: the epoch
  /// series ResetGasCounters re-baselines, and the tracer reorgs and
  /// exceptional transactions annotate.
  void SetTelemetry(telemetry::Telemetry* telemetry) { telemetry_ = telemetry; }
  telemetry::Telemetry* Telemetry() const { return telemetry_; }

  /// Installs (or removes, with nullptr) the fault injector. With one
  /// attached, mining consults the `chain.tx.drop` / `chain.tx.delay` /
  /// `chain.reorg` points and keeps per-block state snapshots so a reorg can
  /// roll non-final blocks back. Without one (the default), mining takes no
  /// snapshots and behaves exactly as before.
  void SetFaultInjector(fault::FaultInjector* faults) { faults_ = faults; }
  fault::FaultInjector* FaultInjector() const { return faults_; }

  /// Blocks rolled back per reorg (clamped to the non-final suffix).
  static constexpr uint64_t kReorgDepth = 1;

  /// Rolls back up to kReorgDepth non-final blocks: contract storage, event
  /// log, call history and the Gas matrix return to their pre-block state,
  /// and the orphaned blocks' transactions re-enter the mempool front in
  /// order, ready for re-inclusion. Bounded by the snapshots available
  /// (taken only while a fault injector is attached). Returns the number of
  /// blocks rolled back. Receipts already handed out for orphaned
  /// transactions are stale — like a real reorg, the sender only learns by
  /// watching the new canonical chain.
  uint64_t ReorgNonFinalBlocks();

  const ChainParams& Params() const { return params_; }

  /// Unmetered storage inspection (test/debug only).
  const ContractStorage& StorageOf(Address address) const;
  /// Unmetered mutable storage access for genesis/preload setup (costs are
  /// deliberately outside the Gas accounting, like a chain's genesis state).
  ContractStorage& MutableStorageOf(Address address);

 private:
  Receipt ExecuteTransaction(Transaction& tx, uint64_t block_number);
  std::vector<Receipt> MineBlockInternal(bool respect_propagation);
  void TakeBlockSnapshot();

  ChainParams params_;
  TimeSec now_ = 0;
  TimeSec last_block_time_ = 0;

  Address next_address_ = 1;
  std::unordered_map<Address, std::unique_ptr<Contract>> contracts_;
  std::unordered_map<Address, ContractStorage> storages_;

  struct PendingTx {
    Transaction tx;
    TimeSec submit_time;
  };
  std::deque<PendingTx> mempool_;
  std::vector<Block> blocks_;

  std::vector<EventRecord> event_log_;
  std::vector<CallRecord> call_history_;
  uint64_t next_log_index_ = 0;

  // State captured at the start of each mined block (only while a fault
  // injector is attached) so ReorgNonFinalBlocks can restore it. At most
  // kReorgDepth snapshots are kept — a single reorg never reaches deeper.
  struct BlockSnapshot {
    std::unordered_map<Address, ContractStorage> storages;
    size_t event_log_size = 0;
    size_t call_history_size = 0;
    uint64_t next_log_index = 0;
    telemetry::GasMatrix gas;
    std::unordered_map<Address, uint64_t> gas_by_contract;
    TimeSec last_block_time = 0;
  };
  std::deque<BlockSnapshot> snapshots_;

  telemetry::GasMatrix gas_;
  std::unordered_map<Address, uint64_t> gas_by_contract_;
  fault::FaultInjector* faults_ = nullptr;     // not owned; may be null
  telemetry::Telemetry* telemetry_ = nullptr;  // not owned; may be null
  // Events recorded during the currently executing transaction (moved into
  // its receipt at the end).
  std::vector<EventRecord>* current_tx_events_ = nullptr;
  bool in_static_call_ = false;
};

}  // namespace grub::chain
