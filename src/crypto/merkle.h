// Binary Merkle tree with membership and range-completeness proofs.
//
// This is the authenticated data structure (ADS) primitive from §3.3 /
// Appendix B of the GRuB paper. The tree is a perfect binary tree over a
// power-of-two leaf capacity; unused leaves hold the all-zero "empty" marker.
//
// Domain separation prevents cross-level forgeries:
//   leaf  hash = SHA256(0x00 || data)
//   inner hash = SHA256(0x01 || left || right)
// A verifier always recomputes the leaf hash from claimed record bytes, so an
// inner node can never masquerade as a leaf.
//
// Supported proofs:
//  * audit path (ProveLeaf / VerifyLeaf) — membership of one leaf;
//  * range proof (ProveRange / VerifyRange) — the exact multiset of leaves in
//    a contiguous index range, which (with a key-sorted layout maintained by
//    the trusted DO) yields query *completeness*: omitting a matching record
//    or injecting an extra one changes the recomputed root.
//
// Mutation is one batched primitive, Update: a batch of leaf overwrites
// plus a rewritten tail rehashes each dirty inner node once, so k overwrites
// cost O(k log n) and an insert or delete at leaf i costs O(n - i). The tree
// is rebuilt from scratch only when the power-of-two capacity changes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/hash256.h"

namespace grub {

/// Bottom-up sibling hashes; direction at level i comes from bit i of the
/// leaf index.
struct MerkleProof {
  std::vector<Hash256> siblings;

  /// Number of 32-byte words a proof occupies when shipped in calldata.
  uint64_t SizeWords() const { return siblings.size(); }

  bool operator==(const MerkleProof&) const = default;
};

/// Pre-order (left-to-right) hashes of the maximal subtrees that cover every
/// leaf *outside* the proven range.
struct MerkleRangeProof {
  std::vector<Hash256> complement;

  uint64_t SizeWords() const { return complement.size(); }

  bool operator==(const MerkleRangeProof&) const = default;
};

/// Multiproof: one complement cover for an arbitrary (sorted) set of leaf
/// indices. Where k separate audit paths ship k*log(n) sibling hashes with
/// heavy overlap near the root, the multiproof ships each shared subtree
/// hash once — the batched-deliver optimization.
struct MerkleMultiProof {
  std::vector<Hash256> complement;

  uint64_t SizeWords() const { return complement.size(); }

  bool operator==(const MerkleMultiProof&) const = default;
};

class MerkleTree {
 public:
  /// Builds a tree over the given leaf hashes (possibly empty).
  explicit MerkleTree(std::vector<Hash256> leaves = {});

  /// Number of live leaves (<= Capacity()).
  size_t LeafCount() const { return leaf_count_; }
  /// Power-of-two padded width of the leaf level.
  size_t Capacity() const { return levels_.empty() ? 0 : levels_[0].size(); }

  Hash256 Root() const;
  const Hash256& Leaf(size_t index) const;

  /// The live leaves, in index order.
  std::span<const Hash256> Leaves() const {
    return {levels_[0].data(), leaf_count_};
  }

  /// Batched update: writes each (index, hash) of `sets` (strictly
  /// ascending, every index below `from`), then replaces the leaves from
  /// `from` on with `tail`, so LeafCount() becomes from + tail.size(). Each
  /// inner node above a changed leaf is rehashed once per batch; an insert
  /// or delete at leaf i is a tail rewrite from i, so it dirties [i, count).
  /// A change of power-of-two capacity rebuilds instead, so Capacity() and
  /// Root() always equal those of a tree built over the final leaves.
  /// Returns the number of inner nodes hashed.
  size_t Update(std::span<const std::pair<size_t, Hash256>> sets,
                size_t from, std::span<const Hash256> tail);

  /// Replaces the leaf at `index`: a one-leaf Update.
  void SetLeaf(size_t index, const Hash256& hash);

  /// Discards the structure and rebuilds from scratch.
  void Rebuild(std::vector<Hash256> leaves);

  MerkleProof ProveLeaf(size_t index) const;

  /// Verifies an audit path. `leaf` must be the recomputed leaf hash;
  /// `capacity` the (power-of-two) leaf-level width the root was built over.
  static bool VerifyLeaf(const Hash256& root, const Hash256& leaf, size_t index,
                         size_t capacity, const MerkleProof& proof);

  /// Proves leaves [lo, lo+count). count may be 0 (proves emptiness of
  /// nothing — complement covers the whole tree).
  MerkleRangeProof ProveRange(size_t lo, size_t count) const;

  /// Verifies that `leaves` are exactly the leaf hashes at [lo, lo+count)
  /// under `root`.
  static bool VerifyRange(const Hash256& root, size_t capacity, size_t lo,
                          std::span<const Hash256> leaves,
                          const MerkleRangeProof& proof);

  /// Proves an arbitrary set of leaves at once. `sorted_indices` must be
  /// strictly ascending and within capacity.
  MerkleMultiProof ProveLeaves(const std::vector<size_t>& sorted_indices) const;

  /// Verifies a multiproof: `leaves` are (index, leaf-hash) pairs sorted by
  /// index, exactly the set the proof was built for.
  static bool VerifyLeaves(
      const Hash256& root, size_t capacity,
      const std::vector<std::pair<size_t, Hash256>>& leaves,
      const MerkleMultiProof& proof);

  /// Domain-separation byte that starts every leaf hash's input.
  static constexpr uint8_t kLeafPrefix = 0x00;
  /// Leaf hash of record bytes: SHA256(kLeafPrefix || data).
  static Hash256 HashLeafData(ByteSpan data);
  /// Inner-node hash: SHA256(0x01 || left || right).
  static Hash256 HashNode(const Hash256& left, const Hash256& right);
  /// Marker stored in padding leaves.
  static Hash256 EmptyLeaf() { return Hash256{}; }

 private:
  // levels_[0] = leaves (padded); levels_.back() = single root entry.
  std::vector<std::vector<Hash256>> levels_;
  size_t leaf_count_ = 0;
};

/// SHA-256 invocations an on-chain verifier performs to check an audit path
/// (leaf hash + one per level). Used by the chain layer to charge hash Gas.
inline uint64_t VerificationHashes(const MerkleProof& proof) {
  return proof.siblings.size() + 1;
}

/// Hash count to verify a range proof: one leaf hash per in-range record plus
/// one inner hash per recombination step (bounded by complement + leaves).
inline uint64_t VerificationHashes(const MerkleRangeProof& proof,
                                   size_t range_leaves) {
  return proof.complement.size() + 2 * range_leaves;
}

}  // namespace grub
