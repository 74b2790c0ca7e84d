// Smart-contract execution model.
//
// Contracts are C++ objects registered with the Blockchain. A call (external
// transaction or internal contract-to-contract call) receives a CallContext
// giving gas-metered storage, event emission, metered hashing, and the
// ability to make internal calls. This mirrors how the paper's Solidity
// storage-manager contract executes under the EVM cost model.
#pragma once

#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "chain/gas.h"
#include "chain/storage.h"
#include "chain/types.h"

namespace grub::chain {

class Blockchain;

/// Execution context for one call frame. Created by the Blockchain.
class CallContext {
 public:
  CallContext(Blockchain& chain, GasMeter& meter, MeteredStorage storage,
              Address self, Address sender, uint64_t block_number)
      : chain_(chain),
        meter_(meter),
        storage_(storage),
        self_(self),
        sender_(sender),
        block_number_(block_number) {}

  MeteredStorage& Storage() { return storage_; }
  GasMeter& Meter() { return meter_; }

  Address Self() const { return self_; }
  /// Immediate caller (EOA for a transaction, contract for internal calls).
  Address Sender() const { return sender_; }
  uint64_t BlockNumber() const { return block_number_; }

  /// Emits an EVM log event; charged per the log schedule.
  void EmitEvent(const std::string& name, ByteSpan data);

  /// Gas-metered hash of arbitrary bytes (the verify() path uses this).
  Hash256 MeteredHash(ByteSpan data);

  /// Internal call to another contract (no transaction cost; same meter).
  /// The calldata moves into the call's history record, and the callee
  /// reads it there in place. The callee's return data lands in the result
  /// on success.
  Result<Bytes> InternalCall(Address to, const std::string& function,
                             Bytes args);

  /// Sets the return data of the current frame.
  void Return(Bytes data) { return_data_ = std::move(data); }
  Bytes& ReturnData() { return return_data_; }

  /// The transaction's replay payload (empty on first execution, on internal
  /// calls, and on static calls). A non-empty payload means this transaction
  /// was orphaned by a reorg and is re-executing: consume the recorded state
  /// instead of whatever the C++-side object holds now.
  const Bytes& ReplayPayload() const {
    static const Bytes kEmpty;
    return replay_payload_ != nullptr ? *replay_payload_ : kEmpty;
  }
  /// Records out-of-band state onto the executing transaction so a reorg
  /// replay is deterministic. No-op outside a top-level transaction frame;
  /// never metered (see Transaction::replay_payload).
  void RecordReplayPayload(Bytes payload) {
    if (replay_payload_ != nullptr) *replay_payload_ = std::move(payload);
  }

 private:
  friend class Blockchain;
  void AttachReplayPayload(Bytes* payload) { replay_payload_ = payload; }

  Blockchain& chain_;
  GasMeter& meter_;
  MeteredStorage storage_;
  Address self_;
  Address sender_;
  uint64_t block_number_;
  Bytes return_data_;
  Bytes* replay_payload_ = nullptr;  // aliases the executing tx; may be null
};

class Contract {
 public:
  virtual ~Contract() = default;

  /// Dispatches a function call. Returning a non-OK status reverts nothing
  /// in this simulator (contracts are expected to validate before writing)
  /// but is surfaced in the receipt; Gas is still charged, as on Ethereum.
  virtual Status Call(CallContext& ctx, const std::string& function,
                      ByteSpan args) = 0;

  Address address() const { return address_; }

 private:
  friend class Blockchain;
  Address address_ = kNullAddress;
};

}  // namespace grub::chain
