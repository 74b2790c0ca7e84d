#include "chain/blockchain.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "crypto/sha256.h"

namespace grub::chain {

Blockchain::Blockchain(ChainParams params) : params_(std::move(params)) {}

Address Blockchain::Deploy(std::unique_ptr<Contract> contract) {
  const Address address = next_address_++;
  contract->address_ = address;
  storages_.emplace(address, ContractStorage{});
  contracts_.emplace(address, std::move(contract));
  return address;
}

Contract* Blockchain::At(Address address) {
  auto it = contracts_.find(address);
  return it == contracts_.end() ? nullptr : it->second.get();
}

void Blockchain::Submit(Transaction tx) {
  mempool_.push_back(PendingTx{std::move(tx), now_});
}

void Blockchain::AdvanceTime(TimeSec seconds) {
  const TimeSec target = now_ + seconds;
  while (last_block_time_ + params_.block_interval_sec <= target) {
    now_ = last_block_time_ + params_.block_interval_sec;
    MineBlockInternal(/*respect_propagation=*/true);
  }
  now_ = target;
}

std::vector<Receipt> Blockchain::MineBlock() {
  return MineBlockInternal(/*respect_propagation=*/false);
}

void Blockchain::TakeBlockSnapshot() {
  BlockSnapshot snap;
  snap.storages = storages_;
  snap.event_log_size = event_log_.size();
  snap.call_history_size = call_history_.size();
  snap.next_log_index = next_log_index_;
  snap.gas = gas_;
  snap.gas_by_contract = gas_by_contract_;
  snap.last_block_time = last_block_time_;
  snapshots_.push_back(std::move(snap));
  while (snapshots_.size() > kReorgDepth) snapshots_.pop_front();
}

std::vector<Receipt> Blockchain::MineBlockInternal(bool respect_propagation) {
  if (faults_ != nullptr) TakeBlockSnapshot();
  Block block;
  block.number = blocks_.size() + 1;
  block.timestamp = now_;
  last_block_time_ = now_;

  uint64_t block_gas = 0;
  std::vector<Receipt> receipts;
  std::deque<PendingTx> not_yet_propagated;
  while (!mempool_.empty()) {
    PendingTx pending = std::move(mempool_.front());
    mempool_.pop_front();
    if (respect_propagation &&
        pending.submit_time + params_.propagation_delay_sec > now_) {
      not_yet_propagated.push_back(std::move(pending));
      continue;
    }
    if (GRUB_FAULT_POINT(faults_, "chain.tx.drop")) {
      // Lost before inclusion: never executes, never lands in a block. The
      // placeholder receipt keeps submit/mine receipt ordering intact.
      Receipt dropped;
      dropped.status = Status::Unavailable(kDroppedTxMessage);
      dropped.block_number = block.number;
      receipts.push_back(std::move(dropped));
      continue;
    }
    if (GRUB_FAULT_POINT(faults_, "chain.tx.delay")) {
      // Deferred inclusion: back to the mempool, eligible again once it
      // re-propagates (immediately for MineBlock, Pt later for AdvanceTime).
      Receipt delayed;
      delayed.status = Status::Unavailable(kDelayedTxMessage);
      delayed.block_number = block.number;
      receipts.push_back(std::move(delayed));
      pending.submit_time = now_;
      not_yet_propagated.push_back(std::move(pending));
      continue;
    }
    Receipt receipt = ExecuteTransaction(pending.tx, block.number);
    block_gas += receipt.gas_used;
    block.transactions.push_back(std::move(pending.tx));
    receipts.push_back(std::move(receipt));
    // Block gas limit: seal the current block and continue in the next one
    // (a block always takes at least one transaction).
    if (params_.block_gas_limit != 0 && !mempool_.empty() &&
        block_gas >= params_.block_gas_limit) {
      blocks_.push_back(std::move(block));
      if (faults_ != nullptr) TakeBlockSnapshot();
      block = Block{};
      block.number = blocks_.size() + 1;
      block.timestamp = now_;
      block_gas = 0;
    }
  }
  mempool_ = std::move(not_yet_propagated);
  blocks_.push_back(std::move(block));
  if (GRUB_FAULT_POINT(faults_, "chain.reorg")) ReorgNonFinalBlocks();
  return receipts;
}

uint64_t Blockchain::ReorgNonFinalBlocks() {
  const uint64_t non_final = CurrentBlockNumber() - FinalizedBlockNumber();
  const uint64_t depth = std::min(
      {kReorgDepth, non_final, static_cast<uint64_t>(snapshots_.size())});
  if (depth == 0) return 0;

  // Orphaned transactions re-enter the mempool front in their original
  // order, already propagated (submit_time 0), ready for the next block.
  std::vector<PendingTx> orphaned;
  for (size_t b = blocks_.size() - depth; b < blocks_.size(); ++b) {
    for (Transaction& tx : blocks_[b].transactions) {
      tx.reorg_replay = true;
      orphaned.push_back(PendingTx{std::move(tx), /*submit_time=*/0});
    }
  }
  mempool_.insert(mempool_.begin(), std::make_move_iterator(orphaned.begin()),
                  std::make_move_iterator(orphaned.end()));
  blocks_.resize(blocks_.size() - depth);

  // Restore the state captured at the start of the oldest orphaned block.
  BlockSnapshot& snap = snapshots_[snapshots_.size() - depth];
  storages_ = std::move(snap.storages);
  event_log_.resize(snap.event_log_size);
  call_history_.resize(snap.call_history_size);
  next_log_index_ = snap.next_log_index;
  gas_ = snap.gas;
  gas_by_contract_ = snap.gas_by_contract;
  last_block_time_ = snap.last_block_time;
  snapshots_.erase(snapshots_.end() - static_cast<long>(depth),
                   snapshots_.end());
  if (telemetry_ != nullptr && telemetry_->Trace() != nullptr) {
    telemetry_->Trace()->GlobalEvent("chain.reorg", CurrentBlockNumber(),
                                     "depth=" + std::to_string(depth));
  }
  return depth;
}

Receipt Blockchain::SubmitAndMine(Transaction tx) {
  Submit(std::move(tx));
  auto receipts = MineBlock();
  return receipts.back();
}

Receipt Blockchain::ExecuteTransaction(Transaction& tx,
                                       uint64_t block_number) {
  Receipt receipt;
  receipt.block_number = block_number;

  // The sender's declared cause scopes the whole transaction (tx base +
  // calldata included); contract handlers refine it with nested spans.
  telemetry::GasSpan cause_span(tx.cause);
  GasMeter meter(params_.gas);
  meter.ChargeTx(tx.CalldataBytes());

  // Internal calls append to the history during execution, so remember this
  // record's index to set its outcome afterwards (the vector may grow).
  const size_t call_record_index = call_history_.size();
  call_history_.push_back(CallRecord{.caller = tx.from,
                                     .contract = tx.to,
                                     .function = tx.function,
                                     .calldata = tx.calldata,
                                     .block_number = block_number,
                                     .internal = false});

  Contract* contract = At(tx.to);
  if (contract == nullptr) {
    receipt.status = Status::NotFound("no contract at target address");
  } else {
    std::vector<EventRecord> events;
    current_tx_events_ = &events;
    CallContext ctx(*this, meter, MeteredStorage(storages_[tx.to], meter),
                    tx.to, tx.from, block_number);
    ctx.AttachReplayPayload(&tx.replay_payload);
    try {
      receipt.status = contract->Call(ctx, tx.function, tx.calldata);
    } catch (const std::exception& e) {
      receipt.status = Status::Internal(std::string("contract threw: ") + e.what());
    }
    receipt.return_data = std::move(ctx.ReturnData());
    receipt.events = std::move(events);
    current_tx_events_ = nullptr;
  }

  call_history_[call_record_index].ok = receipt.status.ok();

  // Dynamic pricing: the block's schedule charges a non-negative surcharge on
  // top of the Table 2 meter. sstore insert/update take the storage
  // multiplier; everything else (tx base, calldata, sload, hash, LOG, other)
  // takes the exec multiplier. The unit schedule skips the branch entirely,
  // keeping legacy runs byte-identical. Metered via ChargeOther so the
  // surcharge flows through receipts, per-contract totals, and reorg rollback
  // exactly like any other charge, under the kPriceShift cause.
  const PricePoint price = params_.price.At(block_number);
  if (!price.IsUnit()) {
    const telemetry::GasMatrix& base = meter.Matrix();
    const uint64_t storage_gas =
        base.ComponentTotal(telemetry::GasComponent::kSstoreInsert) +
        base.ComponentTotal(telemetry::GasComponent::kSstoreUpdate);
    const uint64_t exec_gas = meter.Used() - storage_gas;
    const uint64_t surcharge =
        exec_gas * (price.exec_milli - 1000) / 1000 +
        storage_gas * (price.storage_milli - 1000) / 1000;
    if (surcharge != 0) {
      telemetry::GasSpan price_span(telemetry::GasCause::kPriceShift);
      meter.ChargeOther(surcharge);
    }
  }

  receipt.gas_used = meter.Used();
  receipt.breakdown = meter.Breakdown();
  gas_ += meter.Matrix();
  gas_by_contract_[tx.to] += receipt.gas_used;
  if (telemetry_ != nullptr && tx.trace_id != 0 &&
      telemetry_->Trace() != nullptr &&
      (tx.reorg_replay || !receipt.status.ok())) {
    // An ordinary successful execution is already recorded by the owning
    // span's completion; only the exceptional outcomes (replays, rejections)
    // earn a per-transaction event.
    telemetry_->Trace()->Annotate(
        tx.trace_id, tx.reorg_replay ? "tx.replayed" : "tx.executed",
        block_number, std::string("ok=") + (receipt.status.ok() ? "1" : "0"));
  }
  return receipt;
}

Receipt Blockchain::StaticCall(Address to, const std::string& function,
                               ByteSpan args) {
  Receipt receipt;
  receipt.block_number = CurrentBlockNumber();

  GasMeter meter(params_.gas);
  Contract* contract = At(to);
  if (contract == nullptr) {
    receipt.status = Status::NotFound("no contract at target address");
    return receipt;
  }
  std::vector<EventRecord> events;
  auto* saved = current_tx_events_;
  current_tx_events_ = &events;
  in_static_call_ = true;
  CallContext ctx(*this, meter, MeteredStorage(storages_[to], meter), to,
                  kNullAddress, receipt.block_number);
  try {
    receipt.status = contract->Call(ctx, function, args);
  } catch (const std::exception& e) {
    receipt.status = Status::Internal(std::string("contract threw: ") + e.what());
  }
  in_static_call_ = false;
  current_tx_events_ = saved;
  receipt.return_data = std::move(ctx.ReturnData());
  receipt.events = std::move(events);
  receipt.gas_used = meter.Used();
  receipt.breakdown = meter.Breakdown();
  // Static calls do not consume on-chain Gas: not added to totals.
  return receipt;
}

Result<Bytes> Blockchain::ExecuteInternalCall(GasMeter& meter, Address caller,
                                              Address to,
                                              const std::string& function,
                                              Bytes args) {
  Contract* contract = At(to);
  if (contract == nullptr) {
    return Status::NotFound("internal call: no contract at target");
  }
  const size_t call_record_index = call_history_.size();
  call_history_.push_back(
      CallRecord{.caller = caller,
                 .contract = to,
                 .function = function,
                 .calldata = std::move(args),
                 .block_number = CurrentBlockNumber() + 1,
                 .internal = true});
  // The record holds the one copy of the calldata. Nested calls may grow
  // the history, but records move on reallocation and a moved vector keeps
  // its buffer, so this view stays valid for the whole call.
  const ByteSpan calldata = call_history_.back().calldata;

  CallContext ctx(*this, meter, MeteredStorage(storages_[to], meter), to,
                  caller, CurrentBlockNumber() + 1);
  Status status = contract->Call(ctx, function, calldata);
  call_history_[call_record_index].ok = status.ok();
  if (!status.ok()) return status;
  return std::move(ctx.ReturnData());
}

void Blockchain::RecordEvent(Address contract, const std::string& name,
                             ByteSpan data) {
  EventRecord event{.contract = contract,
                    .name = name,
                    .data = Bytes(data.begin(), data.end()),
                    .block_number = CurrentBlockNumber() + 1,
                    .log_index = next_log_index_++};
  if (current_tx_events_ != nullptr) current_tx_events_->push_back(event);
  if (!in_static_call_) event_log_.push_back(std::move(event));
}

std::span<const EventRecord> Blockchain::EventsSince(
    uint64_t from_log_index) const {
  // Log indices are dense and ascending; binary-search the start.
  const auto first =
      std::partition_point(event_log_.begin(), event_log_.end(),
                           [from_log_index](const EventRecord& e) {
                             return e.log_index < from_log_index;
                           });
  return {first, event_log_.end()};
}

uint64_t Blockchain::FinalizedBlockNumber() const {
  const uint64_t head = CurrentBlockNumber();
  return head > params_.finality_depth ? head - params_.finality_depth : 0;
}

const ContractStorage& Blockchain::StorageOf(Address address) const {
  auto it = storages_.find(address);
  if (it == storages_.end()) {
    throw std::out_of_range("StorageOf: unknown address");
  }
  return it->second;
}

ContractStorage& Blockchain::MutableStorageOf(Address address) {
  auto it = storages_.find(address);
  if (it == storages_.end()) {
    throw std::out_of_range("MutableStorageOf: unknown address");
  }
  return it->second;
}

// --- CallContext methods that need the Blockchain definition ---

void CallContext::EmitEvent(const std::string& name, ByteSpan data) {
  meter_.ChargeLog(/*topics=*/1, data.size());
  chain_.RecordEvent(self_, name, data);
}

Hash256 CallContext::MeteredHash(ByteSpan data) {
  meter_.ChargeHash(WordsForBytes(data.size()));
  return Sha256::Digest(data);
}

Result<Bytes> CallContext::InternalCall(Address to, const std::string& function,
                                        Bytes args) {
  return chain_.ExecuteInternalCall(meter_, self_, to, function,
                                    std::move(args));
}

}  // namespace grub::chain
