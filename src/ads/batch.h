// The batch merge both sides of the ADS protocol run. The DO's mirror (keys
// only) and the SP's record array are each a key-sorted array parallel to
// the leaves of a Merkle tree; a batch of puts lands in both with a single
// MerkleTree::Update, so the work is proportional to what changed:
// overwrites rehash their paths, and only an insert rewrites the leaves
// after it. Unchanged elements keep the leaf hash the tree already stores,
// so they are never re-serialized or re-hashed.
#pragma once

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "ads/record.h"
#include "crypto/merkle.h"

namespace grub::ads {

/// The batch's last write per key (arrival order decides), in key order.
inline std::vector<const FeedRecord*> LastWritePerKey(
    std::span<const FeedRecord> records) {
  std::vector<const FeedRecord*> sorted;
  sorted.reserve(records.size());
  for (const auto& r : records) sorted.push_back(&r);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FeedRecord* a, const FeedRecord* b) {
                     return Compare(a->key, b->key) < 0;
                   });
  std::vector<const FeedRecord*> out;
  out.reserve(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i + 1 < sorted.size() &&
        Compare(sorted[i]->key, sorted[i + 1]->key) == 0) {
      continue;  // a later write to the same key wins
    }
    out.push_back(sorted[i]);
  }
  return out;
}

/// Merges `batch` (LastWritePerKey output) into `sorted`, whose elements
/// parallel `tree`'s leaves. `key_of(element)` reads an element's key and
/// `make(record)` builds the element stored for a batch record. Overwrites
/// before the first insert are leaf writes; from the first insert on, the
/// array and its leaves are rewritten.
template <typename T, typename KeyOf, typename Make>
void MergeBatch(std::vector<T>& sorted, MerkleTree& tree,
                std::span<const FeedRecord* const> batch, KeyOf key_of,
                Make make) {
  const auto less = [&](const T& element, const Bytes& key) {
    return Compare(key_of(element), key) < 0;
  };
  std::vector<std::pair<size_t, Hash256>> writes;
  auto pos = sorted.begin();
  size_t b = 0;
  for (; b < batch.size(); ++b) {
    pos = std::lower_bound(pos, sorted.end(), batch[b]->key, less);
    if (pos == sorted.end() || Compare(key_of(*pos), batch[b]->key) != 0) {
      break;  // the first insert
    }
    *pos = make(*batch[b]);
    writes.emplace_back(static_cast<size_t>(pos - sorted.begin()),
                        batch[b]->LeafHash());
  }
  if (b == batch.size()) {
    tree.Update(writes, sorted.size(), {});
    return;
  }

  const size_t from = static_cast<size_t>(pos - sorted.begin());
  const std::span<const Hash256> leaves = tree.Leaves();
  const size_t tail_size = sorted.size() - from + batch.size() - b;
  std::vector<T> merged;
  std::vector<Hash256> tail;
  merged.reserve(tail_size);
  tail.reserve(tail_size);
  size_t i = from;
  while (i < sorted.size() || b < batch.size()) {
    const int order = b == batch.size()   ? 1
                      : i == sorted.size() ? -1
                                           : Compare(batch[b]->key,
                                                     key_of(sorted[i]));
    if (order <= 0) {
      if (order == 0) ++i;  // overwritten
      merged.push_back(make(*batch[b]));
      tail.push_back(batch[b]->LeafHash());
      ++b;
    } else {
      merged.push_back(std::move(sorted[i]));
      tail.push_back(leaves[i]);
      ++i;
    }
  }
  sorted.erase(sorted.begin() + static_cast<long>(from), sorted.end());
  std::move(merged.begin(), merged.end(), std::back_inserter(sorted));
  tree.Update(writes, from, tail);
}

/// Removes element `index` of `sorted` and its leaf: a tail rewrite from
/// `index`.
template <typename T>
void EraseAt(std::vector<T>& sorted, MerkleTree& tree, size_t index) {
  const std::span<const Hash256> leaves = tree.Leaves();
  const std::vector<Hash256> tail(leaves.begin() + static_cast<long>(index) + 1,
                                  leaves.end());
  sorted.erase(sorted.begin() + static_cast<long>(index));
  tree.Update({}, index, tail);
}

}  // namespace grub::ads
