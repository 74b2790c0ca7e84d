// Seeded random update batches for the ADS differential tests, and the
// slow path they are checked against: a Merkle tree built from scratch over
// the key-sorted records' leaf hashes.
#pragma once

#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ads/record.h"
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
