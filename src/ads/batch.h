// The batch merge both sides of the ADS protocol run. The DO's mirror (keys
// only) and the SP's record array are each a key-sorted array parallel to
// the leaves of a Merkle tree; a batch of puts lands in both with a single
// MerkleTree::Update, so the work is proportional to what changed:
// overwrites rehash their paths, and only an insert rewrites the leaves
// after it. Unchanged elements keep the leaf hash the tree already stores,
// so they are never re-serialized or re-hashed.
//
// Each array has a key -> position index (a KeyMap<uint32_t>) that the merge
// keeps exact: an overwrite is found by one index probe, and an insert or
// erase re-indexes the tail it rewrites, the same O(tail) as the tail's
// leaf rehash. A binary search runs once per batch, to place the first
// insert.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "ads/record.h"
#include "common/key_map.h"
#include "crypto/merkle.h"

namespace grub::ads {

/// Points `index` at the positions of sorted[from..]: the tail an insert or
/// erase rewrote. Reserves first, so a bulk load grows the index once.
template <typename T, typename KeyOf>
void IndexTail(const std::vector<T>& sorted, KeyMap<uint32_t>& index,
               size_t from, KeyOf key_of) {
  index.reserve(sorted.size());
  for (size_t i = from; i < sorted.size(); ++i) {
    index[key_of(sorted[i])] = static_cast<uint32_t>(i);
  }
}

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
/// parallel `tree`'s leaves and are indexed by `index`. `key_of(element)`
/// reads an element's key and `make(record)` builds the element stored for
/// a batch record. Overwrites before the first insert are leaf writes; from
/// the first insert on, the array and its leaves are rewritten.
template <typename T, typename KeyOf, typename Make>
void MergeBatch(std::vector<T>& sorted, KeyMap<uint32_t>& index,
                MerkleTree& tree, std::span<const FeedRecord* const> batch,
                KeyOf key_of, Make make) {
  std::vector<std::pair<size_t, Hash256>> writes;
  size_t b = 0;
  for (; b < batch.size(); ++b) {
    const uint32_t* at = index.Find(batch[b]->key);
    if (at == nullptr) break;  // the first insert
    sorted[*at] = make(*batch[b]);
    writes.emplace_back(*at, batch[b]->LeafHash());
  }
  if (b == batch.size()) {
    tree.Update(writes, sorted.size(), {});
    return;
  }

  // The batch is key-sorted, so the first insert lands after every
  // overwrite before it.
  const size_t lo = writes.empty() ? 0 : writes.back().first + 1;
  const size_t from = static_cast<size_t>(
      std::lower_bound(sorted.begin() + static_cast<long>(lo), sorted.end(),
                       batch[b]->key,
                       [&](const T& element, const Bytes& key) {
                         return Compare(key_of(element), key) < 0;
                       }) -
      sorted.begin());
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
  IndexTail(sorted, index, from, key_of);
  tree.Update(writes, from, tail);
}

/// Removes element `pos` of `sorted`, its index entry and its leaf: a tail
/// rewrite from `pos`.
template <typename T, typename KeyOf>
void EraseAt(std::vector<T>& sorted, KeyMap<uint32_t>& index, MerkleTree& tree,
             size_t pos, KeyOf key_of) {
  const std::span<const Hash256> leaves = tree.Leaves();
  const std::vector<Hash256> tail(leaves.begin() + static_cast<long>(pos) + 1,
                                  leaves.end());
  index.Erase(key_of(sorted[pos]));
  sorted.erase(sorted.begin() + static_cast<long>(pos));
  IndexTail(sorted, index, pos, key_of);
  tree.Update({}, pos, tail);
}

}  // namespace grub::ads
