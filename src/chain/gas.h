// Ethereum Gas model (Table 2 of the paper).
//
//   Transaction              Ctx(X)     = 21000 + 2176·X   (X < 1000 words)
//   Storage write (insert)   Cinsert(X) = 20000·X
//   Storage write (update)   Cupdate(X) = 5000·X
//   Storage read             Cread(X)   = 200·X
//   Hash computation         Chash(X)   = 30 + 6·X
//
// X is the number of 32-byte words. Event (LOG) costs follow the Yellow
// Paper: 375 base + 375 per topic + 8 per data byte; the paper folds these
// into its measured figures implicitly via the `request` event.
//
// Every on-chain operation in the simulator routes through a GasMeter, so
// experiment Gas counts are exact functions of the operation stream. The
// meter records each charge once, in the component x cause cell of its
// GasMatrix (telemetry/gas_attribution.h) that the charge kind and the
// ambient GasSpan name; its total and its Table 2 breakdown are views of
// that matrix.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/bytes.h"
#include "telemetry/gas_attribution.h"

namespace grub::chain {

struct GasSchedule {
  uint64_t tx_base = 21000;
  uint64_t tx_per_word = 2176;
  uint64_t sstore_insert_per_word = 20000;
  uint64_t sstore_update_per_word = 5000;
  uint64_t sload_per_word = 200;
  uint64_t hash_base = 30;
  uint64_t hash_per_word = 6;
  uint64_t log_base = 375;
  uint64_t log_per_topic = 375;
  uint64_t log_per_byte = 8;

  /// Ctx(X) is documented for X < 1000 words only (Table 2); beyond that
  /// the linear formula is an unvalidated extrapolation, so metering it
  /// would silently corrupt every measurement downstream. Hard boundary:
  /// transaction builders must chunk (DoClient splits oversized epoch
  /// updates, SpDaemon splits oversized deliver batches) — a breach here is
  /// a bug, not an input error.
  static constexpr uint64_t kMaxCalldataWords = 1000;
  /// Largest calldata payload the formula covers: the last valid word
  /// count, in bytes. Chunkers split against this budget.
  static constexpr uint64_t kMaxCalldataBytes = (kMaxCalldataWords - 1) * 32;

  uint64_t TxCost(uint64_t calldata_bytes) const {
    const uint64_t words = WordsForBytes(calldata_bytes);
    if (words >= kMaxCalldataWords) {
      std::fprintf(stderr,
                   "GasSchedule::TxCost: %llu calldata words, but Ctx(X) is "
                   "only valid for X < %llu — chunk the transaction\n",
                   static_cast<unsigned long long>(words),
                   static_cast<unsigned long long>(kMaxCalldataWords));
      std::abort();
    }
    return tx_base + tx_per_word * words;
  }
  uint64_t InsertCost(uint64_t words) const {
    return sstore_insert_per_word * words;
  }
  uint64_t UpdateCost(uint64_t words) const {
    return sstore_update_per_word * words;
  }
  uint64_t ReadCost(uint64_t words) const { return sload_per_word * words; }
  uint64_t HashCost(uint64_t words) const {
    return hash_base + hash_per_word * words;
  }
  uint64_t LogCost(uint64_t topics, uint64_t data_bytes) const {
    return log_base + log_per_topic * topics + log_per_byte * data_bytes;
  }

  /// Marginal Gas to ship one word from off-chain to the chain (the
  /// C_read_off of the algorithm analysis): calldata words of a transaction.
  uint64_t OffchainReadPerWord() const { return tx_per_word; }
};

/// Where Gas went, by Table 2 category: `tx` is Ctx(X) (the tx-base and
/// calldata components together); every other field is one component.
struct GasBreakdown {
  uint64_t tx = 0;
  uint64_t storage_insert = 0;
  uint64_t storage_update = 0;
  uint64_t storage_read = 0;
  uint64_t hash = 0;
  uint64_t log = 0;
  uint64_t other = 0;

  uint64_t Total() const {
    return tx + storage_insert + storage_update + storage_read + hash + log +
           other;
  }

  /// The categories of a component x cause matrix.
  static GasBreakdown Of(const telemetry::GasMatrix& gas);

  std::string ToString() const;
};

/// Meters Gas against the schedule, one GasMatrix per transaction: each
/// charge lands in [its component][GasSpan::Current()].
class GasMeter {
 public:
  explicit GasMeter(const GasSchedule& schedule) : schedule_(schedule) {}

  void ChargeTx(uint64_t calldata_bytes) {
    // TxCost enforces the Ctx(X) bound; the lump splits into its base and
    // marginal-calldata parts so the matrix can answer "what does shipping
    // the data itself cost".
    const uint64_t base_and_calldata = schedule_.TxCost(calldata_bytes);
    Record(telemetry::GasComponent::kTxBase, schedule_.tx_base);
    Record(telemetry::GasComponent::kCalldata,
           base_and_calldata - schedule_.tx_base);
  }
  void ChargeInsert(uint64_t words) {
    Record(telemetry::GasComponent::kSstoreInsert, schedule_.InsertCost(words));
  }
  void ChargeUpdate(uint64_t words) {
    Record(telemetry::GasComponent::kSstoreUpdate, schedule_.UpdateCost(words));
  }
  void ChargeRead(uint64_t words) {
    Record(telemetry::GasComponent::kSload, schedule_.ReadCost(words));
  }
  void ChargeHash(uint64_t words) {
    Record(telemetry::GasComponent::kHash, schedule_.HashCost(words));
  }
  void ChargeLog(uint64_t topics, uint64_t data_bytes) {
    Record(telemetry::GasComponent::kLog,
           schedule_.LogCost(topics, data_bytes));
  }
  void ChargeOther(uint64_t gas) {
    Record(telemetry::GasComponent::kOther, gas);
  }

  uint64_t Used() const { return matrix_.Total(); }
  GasBreakdown Breakdown() const { return GasBreakdown::Of(matrix_); }
  const telemetry::GasMatrix& Matrix() const { return matrix_; }
  const GasSchedule& Schedule() const { return schedule_; }

 private:
  void Record(telemetry::GasComponent component, uint64_t amount) {
    matrix_.Add(component, telemetry::GasSpan::Current(), amount);
  }

  GasSchedule schedule_;
  telemetry::GasMatrix matrix_;
};

}  // namespace grub::chain
