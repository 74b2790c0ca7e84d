// Core chain value types: addresses, transactions, events, receipts, params.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bytes.h"
#include "common/hash256.h"
#include "common/status.h"
#include "chain/gas.h"
#include "chain/price.h"

namespace grub::chain {

/// Account / contract address. 0 is reserved (the null address).
using Address = uint64_t;
inline constexpr Address kNullAddress = 0;

/// Logical time in seconds (used for block production, propagation, epochs).
using TimeSec = uint64_t;

struct Transaction {
  Address from = kNullAddress;
  Address to = kNullAddress;   // target contract
  std::string function;        // method selector
  Bytes calldata;              // ABI-encoded arguments
  /// Telemetry-only: the logical cause this transaction's Gas is attributed
  /// to (the sender knows why it is paying; contract handlers refine it with
  /// nested GasSpans). Never affects execution or metering.
  telemetry::GasCause cause = telemetry::GasCause::kUnattributed;

  /// Out-of-band application state captured at the transaction's FIRST
  /// execution (via CallContext::RecordReplayPayload) so that a reorg replay
  /// re-executes identically. Benchmark contracts keep some state in C++
  /// members outside the snapshotted chain storage (e.g. the consumer's
  /// queued read keys, which stay off calldata to match the paper's cost
  /// accounting); this field stands in for the on-chain state a real
  /// contract would re-read. Never metered and never set by senders.
  Bytes replay_payload;

  /// Telemetry-only: the trace span this transaction belongs to (0 = none).
  /// Rides outside calldata so tracing cannot change the metered Gas; the
  /// chain uses it to annotate the owning span at execution time.
  uint64_t trace_id = 0;
  /// Telemetry-only: set when a reorg returned this transaction to the
  /// mempool, so its re-execution is annotated as a replay, not a fresh run.
  bool reorg_replay = false;

  /// Bytes charged as calldata: args plus a 4-byte selector, mirroring the
  /// Solidity ABI.
  uint64_t CalldataBytes() const { return calldata.size() + 4; }
};

struct EventRecord {
  Address contract = kNullAddress;
  std::string name;
  Bytes data;
  uint64_t block_number = 0;
  uint64_t log_index = 0;  // global, monotonically increasing
};

/// Record of a contract invocation (transaction or internal call). This is
/// the "natively logged contract-call history" (§3.2) the DO's workload
/// monitor reads from its full node.
struct CallRecord {
  Address caller = kNullAddress;
  Address contract = kNullAddress;
  std::string function;
  Bytes calldata;
  uint64_t block_number = 0;
  bool internal = false;  // true for contract-to-contract calls
  /// Whether the call completed successfully. Readers that reconstruct
  /// protocol state from the history (the DO's replica tracker, the SP's
  /// cursor recovery) must skip failed calls — a rejected deliver changed
  /// nothing on chain.
  bool ok = true;
};
// An executing callee reads its calldata in place from its CallRecord while
// nested calls append to the history. The span survives the vector's
// reallocation only because records move, never copy, and a moved vector
// keeps its buffer.
static_assert(std::is_nothrow_move_constructible_v<CallRecord>);

struct Receipt {
  Status status = Status::Ok();
  uint64_t gas_used = 0;
  GasBreakdown breakdown;
  Bytes return_data;
  uint64_t block_number = 0;
  std::vector<EventRecord> events;

  bool ok() const { return status.ok(); }
};

/// Blockchain timing/finality parameters (§3.4): propagation delay Pt, block
/// interval B, finality depth F. Ethereum-like defaults.
struct ChainParams {
  TimeSec propagation_delay_sec = 1;  // Pt
  TimeSec block_interval_sec = 14;    // B
  uint64_t finality_depth = 250;      // F
  /// "such as 10 million gas per Ethereum block" (§2.2). A block seals once
  /// its accumulated Gas reaches this (so a block can overshoot by its last
  /// transaction); a block always takes at least one transaction.
  /// 0 = unlimited (the cost experiments' default, where only totals
  /// matter).
  uint64_t block_gas_limit = 0;
  GasSchedule gas;
  /// Block-granular price multipliers applied on top of `gas` as a
  /// non-negative surcharge (GasCause::kPriceShift). The default is the unit
  /// schedule, which the chain detects and skips — Gas stays byte-identical
  /// to a build that predates dynamic pricing.
  GasPriceSchedule price;
};

// --- fault-injection receipt markers ---
// A dropped transaction never executes (the sender must resubmit); a delayed
// transaction stays in the mempool and executes in a later block. Both
// produce a placeholder receipt so submit/mine receipt ordering holds.
inline constexpr const char* kDroppedTxMessage = "fault: tx dropped before inclusion";
inline constexpr const char* kDelayedTxMessage = "fault: tx inclusion delayed";

inline bool IsDroppedReceipt(const Receipt& r) {
  return r.status.code() == StatusCode::kUnavailable &&
         r.status.message() == kDroppedTxMessage;
}
inline bool IsDelayedReceipt(const Receipt& r) {
  return r.status.code() == StatusCode::kUnavailable &&
         r.status.message() == kDelayedTxMessage;
}

}  // namespace grub::chain
