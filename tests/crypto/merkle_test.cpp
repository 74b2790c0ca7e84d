// Merkle tree: structural correctness, incremental-update consistency, and
// adversarial proof manipulation. These invariants carry the whole ADS.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "crypto/merkle.h"

namespace grub {
namespace {

std::vector<Hash256> MakeLeaves(size_t n, uint64_t salt = 0) {
  std::vector<Hash256> leaves(n);
  for (size_t i = 0; i < n; ++i) {
    leaves[i] = Hash256::FromU64(i * 1000003 + salt + 1);
  }
  return leaves;
}

TEST(Merkle, EmptyTreeHasZeroRoot) {
  MerkleTree tree;
  EXPECT_EQ(tree.LeafCount(), 0u);
  EXPECT_EQ(tree.Capacity(), 1u);
  EXPECT_TRUE(tree.Root().IsZero());
}

TEST(Merkle, SingleLeafRootIsLeaf) {
  auto leaves = MakeLeaves(1);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.Root(), leaves[0]);
}

TEST(Merkle, RootIsDeterministic) {
  MerkleTree a(MakeLeaves(13)), b(MakeLeaves(13));
  EXPECT_EQ(a.Root(), b.Root());
  MerkleTree c(MakeLeaves(13, /*salt=*/7));
  EXPECT_NE(a.Root(), c.Root());
}

TEST(Merkle, RootDependsOnLeafOrder) {
  auto leaves = MakeLeaves(4);
  MerkleTree a(leaves);
  std::swap(leaves[0], leaves[3]);
  MerkleTree b(leaves);
  EXPECT_NE(a.Root(), b.Root());
}

TEST(Merkle, DomainSeparationLeafVsNode) {
  // H_leaf(x||y) must differ from H_node(x,y): a 64-byte "record" whose
  // bytes equal two child hashes cannot stand in for their parent.
  Hash256 left = Hash256::FromU64(1), right = Hash256::FromU64(2);
  Bytes concat = Concat({left.Span(), right.Span()});
  EXPECT_NE(MerkleTree::HashLeafData(concat),
            MerkleTree::HashNode(left, right));
}

class MerkleProofTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MerkleProofTest, EveryLeafProves) {
  const size_t n = GetParam();
  auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  const Hash256 root = tree.Root();
  for (size_t i = 0; i < n; ++i) {
    auto proof = tree.ProveLeaf(i);
    EXPECT_TRUE(
        MerkleTree::VerifyLeaf(root, leaves[i], i, tree.Capacity(), proof))
        << "leaf " << i << " of " << n;
    // The same proof must fail for any other index.
    const size_t other = (i + 1) % tree.Capacity();
    if (other != i) {
      EXPECT_FALSE(MerkleTree::VerifyLeaf(root, leaves[i], other,
                                          tree.Capacity(), proof));
    }
  }
}

TEST_P(MerkleProofTest, AllRangesVerify) {
  const size_t n = GetParam();
  auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  const Hash256 root = tree.Root();
  const size_t capacity = tree.Capacity();

  for (size_t lo = 0; lo < n; ++lo) {
    for (size_t count = 0; count <= n - lo; ++count) {
      auto proof = tree.ProveRange(lo, count);
      std::span<const Hash256> range(leaves.data() + lo, count);
      EXPECT_TRUE(MerkleTree::VerifyRange(root, capacity, lo, range, proof))
          << "range [" << lo << ", " << lo + count << ") of " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16,
                                           17, 33));

TEST(Merkle, SetLeafMatchesRebuild) {
  auto leaves = MakeLeaves(11);
  MerkleTree incremental(leaves);
  Rng rng(3);
  for (int step = 0; step < 50; ++step) {
    const size_t i = rng.NextBounded(leaves.size());
    leaves[i] = Hash256::FromU64(rng.NextU64());
    incremental.SetLeaf(i, leaves[i]);
    MerkleTree rebuilt(leaves);
    ASSERT_EQ(incremental.Root(), rebuilt.Root()) << "step " << step;
  }
}

TEST(Merkle, AppendMatchesRebuild) {
  // An append is a one-leaf tail after the last leaf.
  std::vector<Hash256> leaves;
  MerkleTree incremental;
  for (size_t i = 0; i < 40; ++i) {
    leaves.push_back(Hash256::FromU64(i + 5));
    incremental.Update({}, i, std::span(&leaves.back(), 1));
    EXPECT_EQ(incremental.LeafCount(), i + 1);
    MerkleTree rebuilt(leaves);
    ASSERT_EQ(incremental.Root(), rebuilt.Root()) << "append " << i;
    ASSERT_EQ(incremental.Capacity(), rebuilt.Capacity());
  }
}

// Every inner node above a dirty leaf, as (level, node) pairs.
std::set<std::pair<size_t, size_t>> Ancestors(const std::set<size_t>& dirty,
                                              size_t capacity) {
  std::set<std::pair<size_t, size_t>> nodes;
  for (size_t leaf : dirty) {
    size_t node = leaf;
    for (size_t width = capacity, level = 1; width > 1; width /= 2, ++level) {
      node /= 2;
      nodes.emplace(level, node);
    }
  }
  return nodes;
}

TEST(Merkle, BatchedUpdateMatchesRebuild) {
  // Differential, seeded: random overwrite sets plus random tail rewrites
  // (inserts, deletes, appends, truncations) on trees of 0-300 leaves, with
  // tail lengths steered onto power-of-two boundaries so batches cross
  // capacity in both directions. After every batch the tree must equal a
  // from-scratch build, and when capacity held it must have hashed exactly
  // the ancestors of the changed leaves, each once.
  Rng rng(20261017);
  size_t capacity_changes = 0;
  for (int round = 0; round < 120; ++round) {
    std::vector<Hash256> leaves =
        MakeLeaves(rng.NextBounded(301), static_cast<uint64_t>(round) << 20);
    MerkleTree tree(leaves);
    for (int batch = 0; batch < 6; ++batch) {
      const size_t count = leaves.size();
      const size_t from =
          rng.NextBool(0.3) ? count : rng.NextBounded(count + 1);
      size_t new_count = from + rng.NextBounded(301 - from);
      if (rng.NextBool(0.4)) {
        const size_t boundary = size_t{1} << rng.NextBounded(9);  // 1..256
        new_count = std::max(from, boundary + rng.NextBounded(3) - 1);
      }
      std::set<size_t> set_indices;
      const size_t writes = from == 0 ? 0 : rng.NextBounded(12);
      for (size_t w = 0; w < writes; ++w) {
        set_indices.insert(rng.NextBounded(from));
      }
      std::vector<std::pair<size_t, Hash256>> sets;
      for (size_t index : set_indices) {
        sets.emplace_back(index, Hash256::FromU64(rng.NextU64()));
        leaves[index] = sets.back().second;
      }
      std::vector<Hash256> tail(new_count - from);
      for (auto& leaf : tail) leaf = Hash256::FromU64(rng.NextU64());
      leaves.resize(from);
      leaves.insert(leaves.end(), tail.begin(), tail.end());

      const size_t capacity_before = tree.Capacity();
      const size_t hashed = tree.Update(sets, from, tail);
      MerkleTree rebuilt(leaves);
      ASSERT_EQ(tree.Root(), rebuilt.Root())
          << "round " << round << " batch " << batch;
      ASSERT_EQ(tree.Capacity(), rebuilt.Capacity());
      ASSERT_EQ(tree.LeafCount(), leaves.size());
      ASSERT_TRUE(std::equal(leaves.begin(), leaves.end(),
                             tree.Leaves().begin(), tree.Leaves().end()));
      if (tree.Capacity() != capacity_before) {
        capacity_changes += 1;
        EXPECT_EQ(hashed, tree.Capacity() - 1);
        continue;
      }
      std::set<size_t> dirty = set_indices;
      for (size_t i = from; i < std::max(count, new_count); ++i) {
        dirty.insert(i);
      }
      EXPECT_EQ(hashed, Ancestors(dirty, tree.Capacity()).size())
          << "round " << round << " batch " << batch;
    }
  }
  EXPECT_GT(capacity_changes, 50u);  // the boundary steering did its job
}

TEST(Merkle, TamperedLeafFailsVerification) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaf(3);
  Hash256 forged = leaves[3];
  forged.bytes[0] ^= 1;
  EXPECT_FALSE(
      MerkleTree::VerifyLeaf(tree.Root(), forged, 3, tree.Capacity(), proof));
}

TEST(Merkle, TamperedSiblingFailsVerification) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaf(3);
  proof.siblings[1].bytes[5] ^= 0x80;
  EXPECT_FALSE(MerkleTree::VerifyLeaf(tree.Root(), leaves[3], 3,
                                      tree.Capacity(), proof));
}

TEST(Merkle, WrongDepthProofRejected) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaf(3);
  auto truncated = proof;
  truncated.siblings.pop_back();
  EXPECT_FALSE(MerkleTree::VerifyLeaf(tree.Root(), leaves[3], 3,
                                      tree.Capacity(), truncated));
  auto extended = proof;
  extended.siblings.push_back(Hash256::FromU64(9));
  EXPECT_FALSE(MerkleTree::VerifyLeaf(tree.Root(), leaves[3], 3,
                                      tree.Capacity(), extended));
}

TEST(Merkle, WrongCapacityRejected) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaf(3);
  // A root over capacity 8 cannot verify under claimed capacity 16 or 4.
  EXPECT_FALSE(MerkleTree::VerifyLeaf(tree.Root(), leaves[3], 3, 16, proof));
  EXPECT_FALSE(MerkleTree::VerifyLeaf(tree.Root(), leaves[3], 3, 4, proof));
  EXPECT_FALSE(MerkleTree::VerifyLeaf(tree.Root(), leaves[3], 3, 7, proof));
}

TEST(Merkle, RangeProofRejectsOmission) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveRange(2, 3);
  // Omit one in-range leaf.
  std::vector<Hash256> missing = {leaves[2], leaves[4]};
  EXPECT_FALSE(
      MerkleTree::VerifyRange(tree.Root(), tree.Capacity(), 2, missing, proof));
}

TEST(Merkle, RangeProofRejectsInjection) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveRange(2, 2);
  std::vector<Hash256> extra = {leaves[2], leaves[3], Hash256::FromU64(99)};
  EXPECT_FALSE(
      MerkleTree::VerifyRange(tree.Root(), tree.Capacity(), 2, extra, proof));
}

TEST(Merkle, RangeProofRejectsSubstitution) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveRange(2, 2);
  std::vector<Hash256> swapped = {leaves[3], leaves[2]};
  EXPECT_FALSE(MerkleTree::VerifyRange(tree.Root(), tree.Capacity(), 2,
                                       swapped, proof));
}

TEST(Merkle, RangeProofRejectsShiftedWindow) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveRange(2, 2);
  std::vector<Hash256> range = {leaves[2], leaves[3]};
  EXPECT_FALSE(
      MerkleTree::VerifyRange(tree.Root(), tree.Capacity(), 3, range, proof));
}

TEST(Merkle, PaddingLeavesProveAsEmpty) {
  auto leaves = MakeLeaves(5);  // capacity 8: indices 5..7 are padding
  MerkleTree tree(leaves);
  auto proof = tree.ProveRange(5, 3);
  std::vector<Hash256> padding(3, MerkleTree::EmptyLeaf());
  EXPECT_TRUE(
      MerkleTree::VerifyRange(tree.Root(), tree.Capacity(), 5, padding, proof));
  // Claiming a padding slot holds data must fail.
  std::vector<Hash256> forged = {Hash256::FromU64(1), MerkleTree::EmptyLeaf(),
                                 MerkleTree::EmptyLeaf()};
  EXPECT_FALSE(
      MerkleTree::VerifyRange(tree.Root(), tree.Capacity(), 5, forged, proof));
}

class MerkleMultiProofTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MerkleMultiProofTest, AllSubsetsOfSmallTreesVerify) {
  const size_t n = GetParam();
  auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  const Hash256 root = tree.Root();
  // Every subset (bitmask) of the leaves.
  for (size_t mask = 0; mask < (size_t{1} << n); ++mask) {
    std::vector<size_t> indices;
    std::vector<std::pair<size_t, Hash256>> subset;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) {
        indices.push_back(i);
        subset.emplace_back(i, leaves[i]);
      }
    }
    auto proof = tree.ProveLeaves(indices);
    EXPECT_TRUE(MerkleTree::VerifyLeaves(root, tree.Capacity(), subset, proof))
        << "n=" << n << " mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleMultiProofTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(MerkleMultiProof, SharesSiblingsAcrossBatch) {
  auto leaves = MakeLeaves(256);
  MerkleTree tree(leaves);
  std::vector<size_t> indices = {3, 4, 5, 6, 7, 100, 101, 200};
  auto multi = tree.ProveLeaves(indices);
  size_t individual = 0;
  for (size_t i : indices) individual += tree.ProveLeaf(i).siblings.size();
  EXPECT_LT(multi.complement.size(), individual / 2)
      << "multi=" << multi.complement.size() << " individual=" << individual;
}

TEST(MerkleMultiProof, RejectsTamperedLeaf) {
  auto leaves = MakeLeaves(16);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaves({2, 9});
  std::vector<std::pair<size_t, Hash256>> forged = {
      {2, Hash256::FromU64(666)}, {9, leaves[9]}};
  EXPECT_FALSE(
      MerkleTree::VerifyLeaves(tree.Root(), tree.Capacity(), forged, proof));
}

TEST(MerkleMultiProof, RejectsMissingOrExtraLeaf) {
  auto leaves = MakeLeaves(16);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaves({2, 9});
  std::vector<std::pair<size_t, Hash256>> missing = {{2, leaves[2]}};
  EXPECT_FALSE(
      MerkleTree::VerifyLeaves(tree.Root(), tree.Capacity(), missing, proof));
  std::vector<std::pair<size_t, Hash256>> extra = {
      {2, leaves[2]}, {5, leaves[5]}, {9, leaves[9]}};
  EXPECT_FALSE(
      MerkleTree::VerifyLeaves(tree.Root(), tree.Capacity(), extra, proof));
}

TEST(MerkleMultiProof, RejectsShiftedIndices) {
  auto leaves = MakeLeaves(16);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaves({2, 9});
  std::vector<std::pair<size_t, Hash256>> shifted = {{3, leaves[2]},
                                                     {9, leaves[9]}};
  EXPECT_FALSE(
      MerkleTree::VerifyLeaves(tree.Root(), tree.Capacity(), shifted, proof));
}

TEST(MerkleMultiProof, EmptySetProvesRoot) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveLeaves({});
  EXPECT_TRUE(MerkleTree::VerifyLeaves(tree.Root(), tree.Capacity(), {}, proof));
  ASSERT_EQ(proof.complement.size(), 1u);
  EXPECT_EQ(proof.complement[0], tree.Root());
}

TEST(Merkle, OutOfRangeAccessesThrow) {
  MerkleTree tree(MakeLeaves(4));
  EXPECT_THROW(tree.Leaf(4), std::out_of_range);
  EXPECT_THROW(tree.SetLeaf(4, Hash256{}), std::out_of_range);
  const std::pair<size_t, Hash256> unsorted[] = {{2, {}}, {1, {}}};
  EXPECT_THROW(tree.Update(unsorted, 4, {}), std::out_of_range);
  const std::pair<size_t, Hash256> in_tail[] = {{3, {}}};
  EXPECT_THROW(tree.Update(in_tail, 3, {}), std::out_of_range);
  EXPECT_THROW(tree.Update({}, 5, {}), std::out_of_range);  // past the end
  EXPECT_THROW(tree.ProveLeaf(4), std::out_of_range);
  EXPECT_THROW(tree.ProveRange(3, 3), std::out_of_range);
  EXPECT_THROW(tree.ProveLeaves({9}), std::out_of_range);
  EXPECT_THROW(tree.ProveLeaves({2, 2}), std::out_of_range);  // not strict
}

TEST(Merkle, RandomizedRangeAdversary) {
  // Property: random single-bit flips anywhere in a range proof's
  // complement hashes are always caught.
  Rng rng(123);
  auto leaves = MakeLeaves(16);
  MerkleTree tree(leaves);
  for (int round = 0; round < 100; ++round) {
    const size_t lo = rng.NextBounded(16);
    const size_t count = 1 + rng.NextBounded(16 - lo);
    auto proof = tree.ProveRange(lo, count);
    if (proof.complement.empty()) continue;
    auto& target = proof.complement[rng.NextBounded(proof.complement.size())];
    target.bytes[rng.NextBounded(32)] ^=
        static_cast<uint8_t>(1u << rng.NextBounded(8));
    std::span<const Hash256> range(leaves.data() + lo, count);
    EXPECT_FALSE(
        MerkleTree::VerifyRange(tree.Root(), tree.Capacity(), lo, range, proof));
  }
}

}  // namespace
}  // namespace grub
