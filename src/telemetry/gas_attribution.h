// Gas attribution: where did the Gas go, and why.
//
// Every metered unit of Gas carries two coordinates:
//   * component — WHAT was charged (the Table 2 cost category, with the
//     transaction cost split into its 21000 base and per-word calldata);
//   * cause — WHY it was charged (the logical GRuB code path: a synchronous
//     replica read, a watchdog deliver, the DO's root publication, replica
//     materialization/eviction, BL3's on-chain trace upkeep).
//
// The cause is ambient: code entering a logical phase opens a GasSpan (RAII,
// thread-local, nestable — innermost wins) and every charge metered while it
// is open lands in that cause's column. Charges outside any span fall in
// kUnattributed.
//
// The chain's GasMeter (chain/gas.h) records each charge once, into the cell
// of a GasMatrix; the chain folds each transaction's matrix into its
// cumulative one (Blockchain::TotalGasMatrix), which is the run's one Gas
// ledger: its total is the metered total, and its component sums are the
// Table 2 breakdown.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace grub::telemetry {

enum class GasComponent : uint8_t {
  kTxBase = 0,       // 21000 per transaction
  kCalldata,         // 2176 per calldata word
  kSstoreInsert,     // 20000 per word, zero -> nonzero
  kSstoreUpdate,     // 5000 per word
  kSload,            // 200 per word
  kHash,             // 30 + 6 per word
  kLog,              // event emission (Yellow Paper LOG)
  kOther,            // explicit ChargeOther
};
inline constexpr size_t kNumGasComponents = 8;

enum class GasCause : uint8_t {
  kUnattributed = 0,  // no span open (app transactions, tests)
  kGGetSync,          // gGet served from an on-chain replica (+ miss request)
  kDeliver,           // watchdog deliver: proof verification + callbacks
  kUpdateRoot,        // DO epoch update: digest + replicated values
  kReplicaInsert,     // materializing a replica (deliver R-hint or update)
  kReplicaEvict,      // R -> NR: zeroing the replica length slot
  kBl3Trace,          // BL3 baselines' on-chain trace counters
  kRecovery,          // fault recovery: retries, watchdog re-emits,
                      // degradation force-replication
  kRootRollup,        // sharded update: root-of-roots recomputation over the
                      // stored shard roots (sloads + hashing)
  kProofReject,       // hash work spent verifying a deliver proof the
                      // contract then rejected (Byzantine SP detection cost)
  kLogPin,            // log-tier update path: digest pin sstore, value hash,
                      // and the data/unpin event emissions
  kLogDeliver,        // digest-verified deliver: pinned-digest sload + the
                      // on-chain re-hash of the delivered value
  kPriceShift,        // dynamic-pricing surcharge: the amount the block's
                      // GasPriceSchedule charged above the base schedule
};
inline constexpr size_t kNumGasCauses = 13;

const char* Name(GasComponent component);
const char* Name(GasCause cause);

/// Opens an attribution scope: Gas metered while this object lives is
/// attributed to `cause`. Nestable; restores the previous cause on
/// destruction.
class GasSpan {
 public:
  explicit GasSpan(GasCause cause) : previous_(current_) { current_ = cause; }
  ~GasSpan() { current_ = previous_; }

  GasSpan(const GasSpan&) = delete;
  GasSpan& operator=(const GasSpan&) = delete;

  static GasCause Current() { return current_; }

 private:
  GasCause previous_;
  // Keep the definition inline: out of line, every access goes through a
  // TLS wrapper that UBSan reports as a null store/load.
  static inline thread_local GasCause current_ = GasCause::kUnattributed;
};

/// Gas by component x cause.
struct GasMatrix {
  std::array<std::array<uint64_t, kNumGasCauses>, kNumGasComponents> cells{};

  uint64_t At(GasComponent c, GasCause why) const {
    return cells[static_cast<size_t>(c)][static_cast<size_t>(why)];
  }
  void Add(GasComponent c, GasCause why, uint64_t amount) {
    cells[static_cast<size_t>(c)][static_cast<size_t>(why)] += amount;
  }
  uint64_t ComponentTotal(GasComponent c) const;
  uint64_t CauseTotal(GasCause why) const;
  uint64_t Total() const;

  GasMatrix& operator+=(const GasMatrix& o);
  /// Cell-wise saturating subtraction (per-epoch deltas). Saturates at zero
  /// because a chain reorg can roll the matrix below an epoch baseline.
  GasMatrix operator-(const GasMatrix& o) const;
};

}  // namespace grub::telemetry
