// Gas-metered smart-contract storage.
//
// Each contract owns a word-addressed store (32-byte key -> 32-byte value),
// the EVM storage model. All access is through MeteredStorage, which charges
// the Table 2 schedule:
//   * SStore zero->nonzero : insert, 20000/word
//   * SStore nonzero->any  : update,  5000/word (including deletes-to-zero;
//     we conservatively ignore Ethereum's partial refunds)
//   * SLoad                : read,     200/word
//
// Multi-word helpers lay a byte blob across consecutive slots derived from a
// base key, like Solidity's storage arrays.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/hash256.h"
#include "chain/gas.h"

namespace grub::chain {

/// Raw per-contract backing store; unmetered access is for inspection only.
///
/// One flat open-addressing table: each (key, value) word pair sits inline
/// in its slot, probed linearly from a home slot, with power-of-two growth
/// and backward-shift deletion (no tombstones). A zero value marks an empty
/// slot, since storing zero erases. The table is copied by value into the
/// chain's reorg snapshots and has no iteration API, so its layout never
/// reaches Gas or output.
class ContractStorage {
 public:
  Word Load(const Word& key) const {
    if (slots_.empty()) return Word{};
    for (size_t i = Home(key);; i = (i + 1) & Mask()) {
      const Slot& slot = slots_[i];
      if (IsEmpty(slot)) return Word{};
      if (slot.key == key) return slot.value;
    }
  }

  void Store(const Word& key, const Word& value);

  size_t SlotCount() const { return size_; }

 private:
  struct Slot {
    Word key;
    Word value;  // zero = empty slot
  };

  static bool IsEmpty(const Slot& slot) {
    uint64_t q[4];
    std::memcpy(q, slot.value.bytes.data(), sizeof q);
    return (q[0] | q[1] | q[2] | q[3]) == 0;
  }

  /// Mixes both ends of the key: digest keys are uniform in their first
  /// quadword, while blob slots (SlotKey(base, w)) and small-integer words
  /// differ only in the last.
  size_t Home(const Word& key) const {
    uint64_t head, tail;
    std::memcpy(&head, key.bytes.data(), 8);
    std::memcpy(&tail, key.bytes.data() + 24, 8);
    uint64_t h = head ^ tail;
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ULL;
    h ^= h >> 33;
    return static_cast<size_t>(h) & Mask();
  }

  size_t Mask() const { return slots_.size() - 1; }
  void Grow();

  std::vector<Slot> slots_;  // empty, or a power-of-two count
  size_t size_ = 0;
};

/// The storage view handed to executing contracts; every access is charged.
class MeteredStorage {
 public:
  MeteredStorage(ContractStorage& backing, GasMeter& meter)
      : backing_(backing), meter_(meter) {}

  Word SLoad(const Word& key) {
    meter_.ChargeRead(1);
    return backing_.Load(key);
  }

  void SStore(const Word& key, const Word& value) {
    const bool was_zero = backing_.Load(key).IsZero();
    if (was_zero && !value.IsZero()) {
      meter_.ChargeInsert(1);
    } else {
      meter_.ChargeUpdate(1);
    }
    backing_.Store(key, value);
  }

  /// Reads `byte_len` bytes laid out from `base`. Charges one read per word.
  Bytes SLoadBytes(const Word& base, size_t byte_len);

  /// Writes a blob across ceil(len/32) slots from `base`. If the previous
  /// blob was longer, surplus slots are zeroed (charged as updates).
  void SStoreBytes(const Word& base, ByteSpan data, size_t previous_len);

  /// Slot key for word `index` of the blob at `base` (Solidity-style
  /// base-hash + offset derivation, but without charging a hash: the EVM
  /// computes key derivation in cheap arithmetic once the base is hashed).
  static Word SlotKey(const Word& base, uint64_t index);

  /// Unmetered view of the backing store, for contract bookkeeping that must
  /// not perturb the paper's Gas numbers (e.g. the storage manager's
  /// pending-request ledger guarding against replayed delivers). The backing
  /// store is part of the chain's block snapshots, so writes here stay
  /// reorg-consistent — unlike contract C++ members.
  ContractStorage& Backing() { return backing_; }

 private:
  ContractStorage& backing_;
  GasMeter& meter_;
};

}  // namespace grub::chain
