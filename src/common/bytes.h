// Byte-buffer utilities shared across all GRuB modules.
//
// A `Bytes` buffer is the universal currency for keys, values, calldata and
// proofs. Helpers here cover hex round-trips, integer (de)serialization in
// big-endian order (matching Ethereum ABI conventions), and word arithmetic
// (Ethereum charges Gas per 32-byte word). Hashed per-key tables keyed by
// bytes are KeyMap / KeySet (common/key_map.h).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace grub {

using Bytes = std::vector<uint8_t>;
using ByteSpan = std::span<const uint8_t>;

/// Size of one EVM word in bytes; Gas for storage/calldata is charged per word.
inline constexpr size_t kWordSize = 32;

/// Number of 32-byte words needed to hold `bytes` bytes (ceiling division).
constexpr uint64_t WordsForBytes(uint64_t bytes) {
  return (bytes + kWordSize - 1) / kWordSize;
}

/// Encodes a byte span as lowercase hex (no 0x prefix).
std::string ToHex(ByteSpan data);

/// Decodes a hex string (with or without 0x prefix). Throws
/// std::invalid_argument on malformed input.
Bytes FromHex(std::string_view hex);

/// Copies a string's characters into a byte buffer.
Bytes ToBytes(std::string_view s);

/// Interprets a byte buffer as a string (lossless copy).
std::string ToString(ByteSpan data);

/// Serializes a u64 as 8 big-endian bytes.
Bytes U64ToBytes(uint64_t v);

/// Parses up to 8 big-endian bytes into a u64. Throws on longer input.
uint64_t BytesToU64(ByteSpan data);

/// Appends `src` to `dst`.
void Append(Bytes& dst, ByteSpan src);

/// Concatenates any number of spans.
Bytes Concat(std::initializer_list<ByteSpan> parts);

/// Lexicographic three-way comparison (memcmp semantics, then by length).
int Compare(ByteSpan a, ByteSpan b);

/// The bytes viewed as characters, without a copy.
inline std::string_view AsChars(ByteSpan data) {
  return {reinterpret_cast<const char*>(data.data()), data.size()};
}

/// A string's characters viewed as bytes, without a copy.
inline ByteSpan BytesOf(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

}  // namespace grub
