// Minimal length-prefixed argument codec for contract calls.
//
// Stands in for the Solidity ABI: calldata Gas is charged on the encoded
// byte length, so the codec's compactness matters for fidelity. Layout per
// field: a blob is its u64 little-endian length, then the raw bytes; the
// fixed-width fields (u64 little-endian, Hash256) carry no length prefix.
//
// Encoders that know their exact size pass it to the writer, so the buffer
// is allocated once. The reader checks every length against the bytes
// remaining before it reads or allocates: calldata from the SP is attacker
// input, and BlobView() hands out spans into it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/hash256.h"

namespace grub::chain {

class AbiWriter {
 public:
  AbiWriter() = default;
  /// Reserves `size` bytes up front. Callers pass the exact encoded size
  /// from the matching size function: the chain keeps every call's calldata
  /// for the whole run, so an overestimate would stay resident.
  explicit AbiWriter(size_t size) { out_.reserve(size); }

  AbiWriter& U64(uint64_t v) {
    uint8_t le[8];
    for (size_t i = 0; i < 8; ++i) le[i] = static_cast<uint8_t>(v >> (8 * i));
    out_.insert(out_.end(), le, le + 8);
    return *this;
  }

  AbiWriter& Hash(const Hash256& h) {
    grub::Append(out_, h.Span());
    return *this;
  }

  AbiWriter& Blob(ByteSpan data) {
    U64(data.size());
    grub::Append(out_, data);
    return *this;
  }

  /// A blob of `len` bytes that `write` appends straight into the calldata
  /// (no temporary buffer); `write` must append exactly `len` bytes.
  template <typename Write>
  AbiWriter& BlobWith(uint64_t len, Write&& write) {
    U64(len);
    write(out_);
    return *this;
  }

  AbiWriter& HashList(const std::vector<Hash256>& hashes) {
    U64(hashes.size());
    for (const auto& h : hashes) Hash(h);
    return *this;
  }

  Bytes Take() { return std::move(out_); }

 private:
  Bytes out_;
};

class AbiReader {
 public:
  explicit AbiReader(ByteSpan data) : data_(data) {}

  uint64_t U64() {
    Need(8);
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | data_[pos_ + static_cast<size_t>(i)];
    }
    pos_ += 8;
    return v;
  }

  Hash256 Hash() {
    Need(32);
    Hash256 h = Hash256::FromSpan(data_.subspan(pos_, 32));
    pos_ += 32;
    return h;
  }

  /// The next blob, read in place: a span into the calldata, valid as long
  /// as the calldata is.
  ByteSpan BlobView() {
    const uint64_t len = U64();
    Need(len);
    const ByteSpan out = data_.subspan(pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return out;
  }

  Bytes Blob() {
    const ByteSpan view = BlobView();
    return Bytes(view.begin(), view.end());
  }

  std::vector<Hash256> HashList() {
    const uint64_t n = U64();
    // Checked before reserving: the count is attacker input.
    if (n > Remaining() / 32) {
      throw std::out_of_range("AbiReader: hash count exceeds calldata");
    }
    std::vector<Hash256> out;
    out.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) out.push_back(Hash());
    return out;
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  size_t Remaining() const { return data_.size() - pos_; }

  // `pos_ + n > size` would wrap for `n` near 2^64; `pos_` never exceeds
  // the size, so the remainder cannot.
  void Need(uint64_t n) const {
    if (n > Remaining()) {
      throw std::out_of_range("AbiReader: truncated calldata");
    }
  }

  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace grub::chain
