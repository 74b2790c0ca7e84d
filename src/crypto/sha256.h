// From-scratch SHA-256 (FIPS 180-4). No external crypto dependency.
//
// This is the single hash primitive for the whole repo: Merkle leaves/nodes,
// block hashes, storage-key derivation, and the MAC signer are all built on
// it. The streaming interface lets callers hash large records without
// intermediate copies.
//
// Two compression kernels sit behind it (crypto/sha256_kernels.h): one on
// the x86 SHA extensions and a portable scalar one, which is the reference
// the tests compare the other against. The process selects one once, from
// CPUID, on first use; no option or flag chooses, and both produce the same
// digests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "common/bytes.h"
#include "common/hash256.h"

namespace grub {

class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(ByteSpan data);
  /// Finalizes and returns the digest. The object must be Reset() before
  /// further use.
  Hash256 Finish();

  /// One-shot convenience.
  static Hash256 Digest(ByteSpan data);
  /// Digest of the concatenation of two spans (avoids a copy).
  static Hash256 Digest2(ByteSpan a, ByteSpan b);
  /// Digest of the concatenation of `parts`, hashed in place.
  static Hash256 DigestParts(std::initializer_list<ByteSpan> parts);

 private:
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

/// HMAC-SHA256 (RFC 2104).
Hash256 HmacSha256(ByteSpan key, ByteSpan message);

}  // namespace grub
