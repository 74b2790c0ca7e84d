// Seeded random update batches for the ADS differential tests, and the
// slow paths they are checked against: a Merkle tree built from scratch over
// the key-sorted records' leaf hashes, and each key's rank in the sorted
// model as the leaf index the SP's key index must return.
#pragma once

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ads/record.h"
#include "ads/sp.h"
#include "common/rng.h"
#include "crypto/merkle.h"
#include "workload/trace.h"

namespace grub::ads {

// Reference model keyed by MakeKey id: MakeKey is fixed-width, so id order
// is key order.
using Model = std::map<uint64_t, FeedRecord>;

inline MerkleTree FromScratch(const Model& model) {
  std::vector<Hash256> leaves;
  for (const auto& [id, record] : model) leaves.push_back(record.LeafHash());
  return MerkleTree(std::move(leaves));
}

// The SP's exact-match lookups against `model` (the SP's records) for every
// key id in [lo, hi): a model key is found at its rank in key order with
// its record, any other key is NotFound, and with no advisory tier set
// EffectiveTier falls back to the record's state (off-chain when absent).
inline void ExpectLookupsMatchRanks(const AdsSp& sp, const Model& model,
                                    uint64_t lo, uint64_t hi) {
  std::map<uint64_t, size_t> rank;
  for (const auto& [id, record] : model) rank.emplace(id, rank.size());
  for (uint64_t id = lo; id < hi; ++id) {
    const Bytes key = workload::MakeKey(id);
    const auto proof = sp.Get(key);
    const auto peek = sp.Peek(key);
    const auto it = model.find(id);
    if (it == model.end()) {
      ASSERT_EQ(proof.status().code(), StatusCode::kNotFound) << "id " << id;
      ASSERT_EQ(peek.status().code(), StatusCode::kNotFound) << "id " << id;
      ASSERT_EQ(sp.EffectiveTier(key), tier::StorageTier::kOffchain);
      continue;
    }
    ASSERT_TRUE(proof.ok()) << "id " << id;
    ASSERT_EQ(proof->index, rank.at(id)) << "id " << id;
    ASSERT_EQ(proof->record, it->second) << "id " << id;
    ASSERT_TRUE(peek.ok()) << "id " << id;
    ASSERT_EQ(*peek, it->second) << "id " << id;
    ASSERT_EQ(sp.EffectiveTier(key), tier::FromReplState(it->second.state));
  }
}

// Key ids: a seed set sits on even ids in [400, 600); inserts land below it
// (front), above it (end), or on odd ids inside it (middle).
struct BatchGen {
  explicit BatchGen(uint64_t seed) : rng(seed) {}

  FeedRecord Record(uint64_t id) {
    Bytes value = ToBytes("v" + std::to_string(rng.NextU64()));
    return FeedRecord{workload::MakeKey(id), std::move(value),
                      rng.NextBool(0.3) ? ReplState::kR : ReplState::kNR};
  }

  /// Up to 100 records on the even seed ids, already in `model`.
  std::vector<FeedRecord> Seed(Model& model) {
    std::vector<FeedRecord> records;
    const uint64_t count = rng.NextBounded(100);
    for (uint64_t id = 400; id < 400 + 2 * count; id += 2) {
      records.push_back(Record(id));
      model[id] = records.back();
    }
    return records;
  }

  uint64_t Existing(const Model& model) {
    auto it = model.begin();
    std::advance(it, static_cast<long>(rng.NextBounded(model.size())));
    return it->first;
  }

  /// One batch in arrival order of updates, repeated keys (the last of
  /// three writes wins), and inserts at the front, end and middle; applied
  /// to `model` as it is drawn.
  std::vector<FeedRecord> Next(Model& model) {
    std::vector<FeedRecord> batch;
    const auto put = [&](uint64_t id) {
      batch.push_back(Record(id));
      model[id] = batch.back();
    };
    const size_t size = 1 + rng.NextBounded(8);
    for (size_t i = 0; i < size; ++i) {
      switch (rng.NextBounded(5)) {
        case 0:  // update
          if (!model.empty()) put(Existing(model));
          break;
        case 1: {  // repeated key
          const uint64_t id = model.empty() ? end : Existing(model);
          for (int r = 0; r < 3; ++r) put(id);
          break;
        }
        case 2:  // insert at the front
          put(front--);
          break;
        case 3:  // insert at the end
          put(end++);
          break;
        case 4:  // insert in the middle
          put(401 + 2 * rng.NextBounded(100));
          break;
      }
    }
    return batch;
  }

  Rng rng;
  uint64_t front = 399;
  uint64_t end = 600;
};

}  // namespace grub::ads
