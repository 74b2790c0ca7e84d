#include "chain/storage.h"

#include <cstring>

namespace grub::chain {

void ContractStorage::Store(const Word& key, const Word& value) {
  const bool erase = value.IsZero();
  if (slots_.empty()) {
    if (erase) return;
    Grow();
  }
  size_t i = Home(key);
  for (;; i = (i + 1) & Mask()) {
    if (IsEmpty(slots_[i])) break;
    if (slots_[i].key == key) {
      if (!erase) {
        slots_[i].value = value;
        return;
      }
      // Backward-shift deletion: pull each later member of the probe run
      // into the hole unless its home lies cyclically in (hole, member], so
      // every remaining key stays reachable from its home without
      // tombstones.
      size_t hole = i;
      for (size_t j = (i + 1) & Mask(); !IsEmpty(slots_[j]);
           j = (j + 1) & Mask()) {
        const size_t home = Home(slots_[j].key);
        if (((j - home) & Mask()) >= ((j - hole) & Mask())) {
          slots_[hole] = slots_[j];
          hole = j;
        }
      }
      slots_[hole] = Slot{};
      size_ -= 1;
      return;
    }
  }
  if (erase) return;  // storing zero into an absent key changes nothing
  // Keep the load factor at or below 3/4.
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    Grow();
    for (i = Home(key); !IsEmpty(slots_[i]); i = (i + 1) & Mask()) {
    }
  }
  slots_[i] = Slot{key, value};
  size_ += 1;
}

void ContractStorage::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  for (const Slot& slot : old) {
    if (IsEmpty(slot)) continue;
    size_t i = Home(slot.key);
    while (!IsEmpty(slots_[i])) i = (i + 1) & Mask();
    slots_[i] = slot;
  }
}

Word MeteredStorage::SlotKey(const Word& base, uint64_t index) {
  // base + index over the low 8 bytes (big-endian), with carry confined to
  // the low quadword — collisions are impossible for blobs < 2^64 words
  // because bases come from distinct hashes/prefixes.
  Word key = base;
  uint64_t low = 0;
  for (size_t i = 24; i < 32; ++i) low = (low << 8) | key.bytes[i];
  low += index;
  for (int i = 31; i >= 24; --i) {
    key.bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(low & 0xFF);
    low >>= 8;
  }
  return key;
}

Bytes MeteredStorage::SLoadBytes(const Word& base, size_t byte_len) {
  Bytes out(byte_len);
  const uint64_t words = WordsForBytes(byte_len);
  for (uint64_t w = 0; w < words; ++w) {
    Word slot = SLoad(SlotKey(base, w));
    const size_t offset = static_cast<size_t>(w) * kWordSize;
    const size_t take = std::min(kWordSize, byte_len - offset);
    std::memcpy(out.data() + offset, slot.bytes.data(), take);
  }
  return out;
}

void MeteredStorage::SStoreBytes(const Word& base, ByteSpan data,
                                 size_t previous_len) {
  const uint64_t new_words = WordsForBytes(data.size());
  for (uint64_t w = 0; w < new_words; ++w) {
    Word slot{};
    const size_t offset = static_cast<size_t>(w) * kWordSize;
    const size_t take = std::min(kWordSize, data.size() - offset);
    std::memcpy(slot.bytes.data(), data.data() + offset, take);
    SStore(SlotKey(base, w), slot);
  }
  // Zero surplus slots from a longer previous value.
  const uint64_t old_words = WordsForBytes(previous_len);
  for (uint64_t w = new_words; w < old_words; ++w) {
    SStore(SlotKey(base, w), Word{});
  }
}

}  // namespace grub::chain
