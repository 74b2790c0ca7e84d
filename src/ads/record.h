// The authenticated KV record (key, value, replication state).
//
// Each GRuB record carries its replication state (R = replicated on chain,
// NR = off-chain only) as described in §3.2: "its key is prefixed with an
// extra bit that indicates whether the record has a replica".
//
// Layout note (deviation documented in DESIGN.md §5): the paper physically
// groups leaves NR-first then key-sorted; we keep a single key-sorted layout
// and bind the state bit *into the leaf hash*. Security is unchanged — a
// verifier learns the record's authenticated state from the leaf — while
// state flips become O(log n) in-place leaf updates instead of relocations.
// Proof sizes (what Gas depends on) are identical.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/hash256.h"
#include "common/status.h"
#include "crypto/merkle.h"

namespace grub::ads {

enum class ReplState : uint8_t {
  kNR = 0,  // not replicated on the blockchain
  kR = 1,   // replicated on the blockchain
};

struct FeedRecord {
  Bytes key;
  Bytes value;
  ReplState state = ReplState::kNR;

  bool operator==(const FeedRecord&) const = default;

  /// Canonical byte encoding: u8 state | u32 key_len | key | u32 val_len | value.
  Bytes Serialize() const;
  /// Appends the canonical encoding to `out` (SerializedBytes() bytes).
  void SerializeTo(Bytes& out) const;
  static Result<FeedRecord> Deserialize(ByteSpan data);

  /// Leaf hash over the canonical encoding (domain-separated), hashed in
  /// parts without building the encoding.
  Hash256 LeafHash() const;

  /// Calldata footprint in bytes when shipped on chain.
  uint64_t SerializedBytes() const { return 1 + 4 + key.size() + 4 + value.size(); }
};

}  // namespace grub::ads
