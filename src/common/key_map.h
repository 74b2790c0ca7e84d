// Flat hashed tables keyed by byte strings: KeyMap<V> and KeySet.
//
// Every per-key lookup on the read and write path (policy counters, SP
// advisory tiers, the ADS key-to-leaf indexes, the DO's replica and pin
// sets, the tracer's and monitor's per-key state) is one probe into one of
// these. The table is open addressing with linear probing over a
// power-of-two slot array that doubles at load 3/4, with backward-shift
// deletion (no tombstones), the layout chain::ContractStorage uses. Each
// slot caches its key's 64-bit hash, so growth never rehashes key bytes and
// a probe compares key bytes only on a full hash match. Keys up to
// StoredKey::kInline bytes sit inline in the slot (workload::MakeKey keys
// are 16); a longer key spills to an owned heap copy.
//
// Lookups take any byte span, so a probe never builds a key. Pointers and
// references into a table are invalidated by any insert or erase (slots
// move on growth and on backward shift), unlike std::unordered_map nodes.
// Iteration (ForEach) visits slots in table order, which depends on the
// hash function and the insertion history: it must never reach Gas,
// calldata, events, reports or exports. Callers that need an order sort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace grub {

/// 64-bit hash of a byte string; never 0, which marks an empty slot.
inline uint64_t HashKey(ByteSpan key) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  uint64_t h = static_cast<uint64_t>(key.size()) * kMul;
  const uint8_t* p = key.data();
  size_t n = key.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  }
  if (n > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  }
  // MurmurHash3's finalizer: every key bit reaches the low (home) bits.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h == 0 ? 1 : h;
}

/// A key owned by a table slot: inline up to kInline bytes, else an owned
/// heap copy. 24 bytes either way.
class StoredKey {
 public:
  static constexpr size_t kInline = 23;

  StoredKey() = default;
  explicit StoredKey(ByteSpan key) {
    if (key.size() <= kInline) {
      if (!key.empty()) std::memcpy(buf_, key.data(), key.size());
      buf_[kInline] = static_cast<uint8_t>(key.size());
    } else {
      auto* heap = new uint8_t[key.size()];
      std::memcpy(heap, key.data(), key.size());
      SetHeap(heap, key.size());
    }
  }
  StoredKey(const StoredKey& other) : StoredKey(other.View()) {}
  StoredKey(StoredKey&& other) noexcept {
    std::memcpy(buf_, other.buf_, sizeof buf_);
    other.buf_[kInline] = 0;
  }
  StoredKey& operator=(const StoredKey& other) {
    if (this != &other) *this = StoredKey(other);
    return *this;
  }
  StoredKey& operator=(StoredKey&& other) noexcept {
    if (this != &other) {
      Release();
      std::memcpy(buf_, other.buf_, sizeof buf_);
      other.buf_[kInline] = 0;
    }
    return *this;
  }
  ~StoredKey() { Release(); }

  ByteSpan View() const {
    if (!spilled()) return {buf_, buf_[kInline]};
    return {HeapData(), HeapSize()};
  }

  bool Equals(ByteSpan key) const {
    const ByteSpan mine = View();
    return mine.size() == key.size() &&
           (key.empty() ||
            std::memcmp(mine.data(), key.data(), key.size()) == 0);
  }

 private:
  static constexpr uint8_t kSpilled = 0xFF;

  bool spilled() const { return buf_[kInline] == kSpilled; }

  // Spilled layout: the heap pointer in bytes [0, 8), the size in [8, 16).
  void SetHeap(uint8_t* data, size_t size) {
    std::memcpy(buf_, &data, sizeof data);
    const uint64_t n = size;
    std::memcpy(buf_ + 8, &n, sizeof n);
    buf_[kInline] = kSpilled;
  }
  uint8_t* HeapData() const {
    uint8_t* data = nullptr;
    std::memcpy(&data, buf_, sizeof data);
    return data;
  }
  size_t HeapSize() const {
    uint64_t n = 0;
    std::memcpy(&n, buf_ + 8, sizeof n);
    return static_cast<size_t>(n);
  }
  void Release() {
    if (spilled()) delete[] HeapData();
    buf_[kInline] = 0;
  }

  // Inline layout: the key in bytes [0, size), its size in the last byte.
  alignas(8) uint8_t buf_[kInline + 1] = {};
};

/// Map from byte-string keys to V (see the file comment for the layout and
/// the iteration-order rule). V must be default-constructible and movable.
template <typename V>
class KeyMap {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The key's value, or null when absent.
  V* Find(ByteSpan key) {
    const size_t i = IndexOf(key, HashKey(key));
    return i == kNone ? nullptr : &slots_[i].value;
  }
  const V* Find(ByteSpan key) const {
    const size_t i = IndexOf(key, HashKey(key));
    return i == kNone ? nullptr : &slots_[i].value;
  }

  /// Find-or-insert: the key's value (default-constructed when this call
  /// inserted it) and whether this call inserted it.
  std::pair<V*, bool> FindOrInsert(ByteSpan key) {
    const uint64_t h = HashKey(key);
    if (slots_.empty()) Rehash(kMinSlots);
    size_t i = static_cast<size_t>(h) & Mask();
    for (;; i = (i + 1) & Mask()) {
      Slot& slot = slots_[i];
      if (slot.hash == 0) break;
      if (slot.hash == h && slot.key.Equals(key)) return {&slot.value, false};
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.size() * 2);
      for (i = static_cast<size_t>(h) & Mask(); slots_[i].hash != 0;
           i = (i + 1) & Mask()) {
      }
    }
    Slot& slot = slots_[i];
    slot.hash = h;
    slot.key = StoredKey(key);
    size_ += 1;
    return {&slot.value, true};
  }

  /// The key's value, default-constructed and inserted when absent.
  V& operator[](ByteSpan key) { return *FindOrInsert(key).first; }

  /// Removes the key; returns whether it was present.
  bool Erase(ByteSpan key) {
    const uint64_t h = HashKey(key);
    const size_t found = IndexOf(key, h);
    if (found == kNone) return false;
    // Backward-shift deletion: pull each later member of the probe run into
    // the hole unless its home lies cyclically in (hole, member], so every
    // remaining key stays reachable from its home without tombstones.
    size_t hole = found;
    for (size_t j = (found + 1) & Mask(); slots_[j].hash != 0;
         j = (j + 1) & Mask()) {
      const size_t home = static_cast<size_t>(slots_[j].hash) & Mask();
      if (((j - home) & Mask()) >= ((j - hole) & Mask())) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    size_ -= 1;
    return true;
  }

  /// Drops every key, keeping the slot array for reuse.
  void clear() {
    if (size_ == 0) return;
    for (Slot& slot : slots_) {
      if (slot.hash != 0) slot = Slot{};
    }
    size_ = 0;
  }

  /// Grows the slot array so `n` keys fit without another growth.
  void reserve(size_t n) {
    size_t slots = kMinSlots;
    while (n * 4 > slots * 3) slots *= 2;
    if (slots > slots_.size()) Rehash(slots);
  }

  /// Calls f(ByteSpan key, V& value) for every key, in table order (which
  /// must not reach any output). `f` must not insert or erase.
  template <typename F>
  void ForEach(F&& f) {
    for (Slot& slot : slots_) {
      if (slot.hash != 0) f(slot.key.View(), slot.value);
    }
  }
  template <typename F>
  void ForEach(F&& f) const {
    for (const Slot& slot : slots_) {
      if (slot.hash != 0) f(slot.key.View(), slot.value);
    }
  }

 private:
  static constexpr size_t kMinSlots = 16;
  static constexpr size_t kNone = ~size_t{0};

  struct Slot {
    uint64_t hash = 0;  // 0 = empty slot
    StoredKey key;
    [[no_unique_address]] V value{};
  };

  size_t Mask() const { return slots_.size() - 1; }

  size_t IndexOf(ByteSpan key, uint64_t h) const {
    if (slots_.empty()) return kNone;
    for (size_t i = static_cast<size_t>(h) & Mask();; i = (i + 1) & Mask()) {
      const Slot& slot = slots_[i];
      if (slot.hash == 0) return kNone;
      if (slot.hash == h && slot.key.Equals(key)) return i;
    }
  }

  // Moves every key into a fresh array of `slot_count` slots by its cached
  // hash; no key bytes are rehashed or copied.
  void Rehash(size_t slot_count) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(slot_count);
    for (Slot& slot : old) {
      if (slot.hash == 0) continue;
      size_t i = static_cast<size_t>(slot.hash) & Mask();
      while (slots_[i].hash != 0) i = (i + 1) & Mask();
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;  // empty, or a power-of-two count
  size_t size_ = 0;
};

/// Set of byte-string keys over the same flat table.
class KeySet {
 public:
  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  bool Contains(ByteSpan key) const { return keys_.Find(key) != nullptr; }
  /// Adds the key; returns whether it was absent.
  bool Insert(ByteSpan key) { return keys_.FindOrInsert(key).second; }
  /// Removes the key; returns whether it was present.
  bool Erase(ByteSpan key) { return keys_.Erase(key); }
  void clear() { keys_.clear(); }
  /// Calls f(ByteSpan key) for every key, in table order (which must not
  /// reach any output).
  template <typename F>
  void ForEach(F&& f) const {
    keys_.ForEach([&](ByteSpan key, const Present&) { f(key); });
  }

 private:
  struct Present {};
  KeyMap<Present> keys_;
};

}  // namespace grub
