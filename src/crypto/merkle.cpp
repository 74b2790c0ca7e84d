#include "crypto/merkle.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "telemetry/profile.h"

namespace grub {

namespace {

size_t CapacityFor(size_t n) {
  return n <= 1 ? 1 : std::bit_ceil(n);
}

}  // namespace

Hash256 MerkleTree::HashLeafData(ByteSpan data) {
  return Sha256::Digest2(ByteSpan(&kLeafPrefix, 1), data);
}

Hash256 MerkleTree::HashNode(const Hash256& left, const Hash256& right) {
  // 0x01 || left || right is always 65 bytes, so its padding is fixed: 0x80
  // at byte 65 and the bit length 520 in the last two bytes of block two.
  constexpr size_t kBits = 65 * 8;
  uint8_t blocks[128] = {};
  blocks[0] = 0x01;
  std::memcpy(blocks + 1, left.bytes.data(), 32);
  std::memcpy(blocks + 33, right.bytes.data(), 32);
  blocks[65] = 0x80;
  blocks[126] = static_cast<uint8_t>(kBits >> 8);
  blocks[127] = static_cast<uint8_t>(kBits);
  return sha256_kernels::DigestPadded(blocks, 2);
}

MerkleTree::MerkleTree(std::vector<Hash256> leaves) {
  Rebuild(std::move(leaves));
}

void MerkleTree::Rebuild(std::vector<Hash256> leaves) {
  GRUB_PROBE(telemetry::ProbeSite::kMerkleRebuild);
  leaf_count_ = leaves.size();
  const size_t capacity = CapacityFor(leaf_count_);
  leaves.resize(capacity, EmptyLeaf());

  levels_.clear();
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    const auto& below = levels_.back();
    std::vector<Hash256> above(below.size() / 2);
    for (size_t i = 0; i < above.size(); ++i) {
      above[i] = HashNode(below[2 * i], below[2 * i + 1]);
    }
    levels_.push_back(std::move(above));
  }
}

Hash256 MerkleTree::Root() const {
  return levels_.back()[0];
}

const Hash256& MerkleTree::Leaf(size_t index) const {
  if (index >= leaf_count_) {
    throw std::out_of_range("MerkleTree::Leaf: index out of range");
  }
  return levels_[0][index];
}

size_t MerkleTree::Update(std::span<const std::pair<size_t, Hash256>> sets,
                          size_t from, std::span<const Hash256> tail) {
  if (from > leaf_count_) {
    throw std::out_of_range("MerkleTree::Update: tail starts past the end");
  }
  for (size_t i = 0; i < sets.size(); ++i) {
    if (sets[i].first >= from ||
        (i > 0 && sets[i].first <= sets[i - 1].first)) {
      throw std::out_of_range("MerkleTree::Update: writes not sorted/in range");
    }
  }
  const size_t old_count = leaf_count_;
  const size_t new_count = from + tail.size();
  auto& base = levels_[0];
  if (CapacityFor(new_count) != Capacity()) {
    std::vector<Hash256> leaves(base.begin(),
                                base.begin() + static_cast<long>(from));
    for (const auto& [index, hash] : sets) leaves[index] = hash;
    leaves.insert(leaves.end(), tail.begin(), tail.end());
    Rebuild(std::move(leaves));
    return Capacity() - 1;
  }

  GRUB_PROBE(telemetry::ProbeSite::kMerkleUpdate);
  for (const auto& [index, hash] : sets) base[index] = hash;
  std::copy(tail.begin(), tail.end(), base.begin() + static_cast<long>(from));
  const size_t end = std::max(old_count, new_count);
  std::fill(base.begin() + static_cast<long>(new_count),
            base.begin() + static_cast<long>(end), EmptyLeaf());
  leaf_count_ = new_count;

  // Dirty nodes per level: the written indices below `from`, plus the whole
  // rewritten range [lo, hi). Halving both each level visits every dirty
  // parent once; a written index whose parent falls in the range is dropped.
  std::vector<size_t> dirty;
  dirty.reserve(sets.size());
  for (const auto& write : sets) dirty.push_back(write.first);
  size_t lo = from;
  size_t hi = end;
  size_t hashed = 0;
  for (size_t level = 1; level < levels_.size(); ++level) {
    size_t kept = 0;
    for (size_t index : dirty) {
      const size_t parent = index / 2;
      if (kept == 0 || dirty[kept - 1] != parent) dirty[kept++] = parent;
    }
    dirty.resize(kept);
    if (lo < hi) {
      lo /= 2;
      hi = (hi - 1) / 2 + 1;
      while (!dirty.empty() && dirty.back() >= lo) dirty.pop_back();
    }
    const auto& below = levels_[level - 1];
    auto& above = levels_[level];
    for (size_t node : dirty) {
      above[node] = HashNode(below[2 * node], below[2 * node + 1]);
    }
    for (size_t node = lo; node < hi; ++node) {
      above[node] = HashNode(below[2 * node], below[2 * node + 1]);
    }
    hashed += dirty.size() + (hi - lo);
  }
  return hashed;
}

void MerkleTree::SetLeaf(size_t index, const Hash256& hash) {
  const std::pair<size_t, Hash256> write{index, hash};
  Update({&write, 1}, leaf_count_, {});
}

MerkleProof MerkleTree::ProveLeaf(size_t index) const {
  if (index >= Capacity()) {
    throw std::out_of_range("MerkleTree::ProveLeaf: index out of range");
  }
  MerkleProof proof;
  proof.siblings.reserve(levels_.size() - 1);
  size_t i = index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    proof.siblings.push_back(levels_[level][i ^ 1]);
    i /= 2;
  }
  return proof;
}

bool MerkleTree::VerifyLeaf(const Hash256& root, const Hash256& leaf,
                            size_t index, size_t capacity,
                            const MerkleProof& proof) {
  if (capacity == 0 || (capacity & (capacity - 1)) != 0) return false;
  if (index >= capacity) return false;
  // Depth must match the committed tree shape exactly.
  const size_t depth = static_cast<size_t>(std::bit_width(capacity) - 1);
  if (proof.siblings.size() != depth) return false;

  Hash256 acc = leaf;
  size_t i = index;
  for (const Hash256& sibling : proof.siblings) {
    acc = (i & 1) ? HashNode(sibling, acc) : HashNode(acc, sibling);
    i /= 2;
  }
  return acc == root;
}

namespace {

// Shared recursion for building/consuming a range proof over the virtual
// perfect tree. Nodes are identified by the half-open leaf interval [a, b).
struct RangeProver {
  const std::vector<std::vector<Hash256>>& levels;
  size_t lo, hi;  // proven range [lo, hi)
  std::vector<Hash256>& complement;

  void Walk(size_t level, size_t node, size_t a, size_t b) {
    if (b <= lo || a >= hi) {
      complement.push_back(levels[level][node]);
      return;
    }
    if (b - a == 1) return;  // in-range leaf: verifier supplies it
    const size_t mid = a + (b - a) / 2;
    Walk(level - 1, node * 2, a, mid);
    Walk(level - 1, node * 2 + 1, mid, b);
  }
};

struct RangeVerifier {
  size_t lo, hi;
  std::span<const Hash256> leaves;
  std::span<const Hash256> complement;
  size_t leaf_pos = 0;
  size_t comp_pos = 0;
  bool failed = false;

  Hash256 Walk(size_t a, size_t b) {
    if (failed) return Hash256{};
    if (b <= lo || a >= hi) {
      if (comp_pos >= complement.size()) {
        failed = true;
        return Hash256{};
      }
      return complement[comp_pos++];
    }
    if (b - a == 1) {
      if (leaf_pos >= leaves.size()) {
        failed = true;
        return Hash256{};
      }
      return leaves[leaf_pos++];
    }
    const size_t mid = a + (b - a) / 2;
    Hash256 left = Walk(a, mid);
    Hash256 right = Walk(mid, b);
    return MerkleTree::HashNode(left, right);
  }
};

}  // namespace

namespace {

// Multiproof recursion over a sorted index set: a subtree containing none of
// the indices contributes one complement hash; in-set leaves come from the
// verifier; mixed subtrees recurse.
struct MultiProver {
  const std::vector<std::vector<Hash256>>& levels;
  const std::vector<size_t>& indices;  // sorted
  std::vector<Hash256>& complement;

  bool AnyIn(size_t a, size_t b) const {
    auto it = std::lower_bound(indices.begin(), indices.end(), a);
    return it != indices.end() && *it < b;
  }

  void Walk(size_t level, size_t node, size_t a, size_t b) {
    if (!AnyIn(a, b)) {
      complement.push_back(levels[level][node]);
      return;
    }
    if (b - a == 1) return;  // in-set leaf
    const size_t mid = a + (b - a) / 2;
    Walk(level - 1, node * 2, a, mid);
    Walk(level - 1, node * 2 + 1, mid, b);
  }
};

struct MultiVerifier {
  const std::vector<std::pair<size_t, Hash256>>& leaves;  // sorted by index
  std::span<const Hash256> complement;
  size_t leaf_pos = 0;
  size_t comp_pos = 0;
  bool failed = false;

  bool AnyIn(size_t a, size_t b) const {
    // leaves are consumed in order; peek whether the next one is in [a,b).
    return leaf_pos < leaves.size() && leaves[leaf_pos].first >= a &&
           leaves[leaf_pos].first < b;
  }

  Hash256 Walk(size_t a, size_t b) {
    if (failed) return Hash256{};
    if (!AnyIn(a, b)) {
      if (comp_pos >= complement.size()) {
        failed = true;
        return Hash256{};
      }
      return complement[comp_pos++];
    }
    if (b - a == 1) {
      if (leaves[leaf_pos].first != a) {
        failed = true;
        return Hash256{};
      }
      return leaves[leaf_pos++].second;
    }
    const size_t mid = a + (b - a) / 2;
    Hash256 left = Walk(a, mid);
    Hash256 right = Walk(mid, b);
    return MerkleTree::HashNode(left, right);
  }
};

}  // namespace

MerkleMultiProof MerkleTree::ProveLeaves(
    const std::vector<size_t>& sorted_indices) const {
  const size_t capacity = Capacity();
  for (size_t i = 0; i < sorted_indices.size(); ++i) {
    if (sorted_indices[i] >= capacity ||
        (i > 0 && sorted_indices[i] <= sorted_indices[i - 1])) {
      throw std::out_of_range("ProveLeaves: indices not sorted/in range");
    }
  }
  MerkleMultiProof proof;
  if (sorted_indices.empty()) {
    proof.complement.push_back(Root());
    return proof;
  }
  if (capacity == 1) return proof;  // single leaf, in-set
  MultiProver prover{levels_, sorted_indices, proof.complement};
  prover.Walk(levels_.size() - 1, 0, 0, capacity);
  return proof;
}

bool MerkleTree::VerifyLeaves(
    const Hash256& root, size_t capacity,
    const std::vector<std::pair<size_t, Hash256>>& leaves,
    const MerkleMultiProof& proof) {
  if (capacity == 0 || (capacity & (capacity - 1)) != 0) return false;
  for (size_t i = 0; i < leaves.size(); ++i) {
    if (leaves[i].first >= capacity) return false;
    if (i > 0 && leaves[i].first <= leaves[i - 1].first) return false;
  }
  MultiVerifier verifier{leaves, proof.complement};
  Hash256 computed = verifier.Walk(0, capacity);
  if (verifier.failed) return false;
  if (verifier.leaf_pos != leaves.size()) return false;
  if (verifier.comp_pos != proof.complement.size()) return false;
  return computed == root;
}

MerkleRangeProof MerkleTree::ProveRange(size_t lo, size_t count) const {
  const size_t capacity = Capacity();
  if (lo > capacity || count > capacity - lo) {
    throw std::out_of_range("MerkleTree::ProveRange: range out of bounds");
  }
  MerkleRangeProof proof;
  if (capacity == 1 && count == 1) return proof;  // whole tree is the range
  RangeProver prover{levels_, lo, lo + count, proof.complement};
  prover.Walk(levels_.size() - 1, 0, 0, capacity);
  return proof;
}

bool MerkleTree::VerifyRange(const Hash256& root, size_t capacity, size_t lo,
                             std::span<const Hash256> leaves,
                             const MerkleRangeProof& proof) {
  if (capacity == 0 || (capacity & (capacity - 1)) != 0) return false;
  if (lo > capacity || leaves.size() > capacity - lo) return false;
  RangeVerifier verifier{lo, lo + leaves.size(), leaves, proof.complement};
  Hash256 computed = verifier.Walk(0, capacity);
  if (verifier.failed) return false;
  // Every supplied hash must have been consumed (no smuggled extras).
  if (verifier.leaf_pos != leaves.size()) return false;
  if (verifier.comp_pos != proof.complement.size()) return false;
  return computed == root;
}

}  // namespace grub
