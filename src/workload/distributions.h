// Key-choice distributions for the YCSB generators.
//
// ZipfianGenerator follows the Gray et al. rejection-free formula used by
// the reference YCSB implementation (theta = 0.99), including the scrambled
// variant that spreads hot keys across the key space.
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace grub::workload {

class ZipfianGenerator {
 public:
  /// Items are drawn from [0, item_count).
  ZipfianGenerator(uint64_t item_count, double theta = 0.99);

  uint64_t Next(Rng& rng);

  /// Changes the item range (inserts grow the key space). Growing from n to
  /// m costs m - n terms of the zeta sum; shrinking recomputes it.
  void SetItemCount(uint64_t item_count);

  uint64_t ItemCount() const { return item_count_; }

 private:
  /// `sum` plus the zeta terms for items [from, n), added in index order.
  static double Zeta(uint64_t n, double theta, uint64_t from, double sum);

  uint64_t item_count_;
  double theta_;
  double zeta_n_;
  double alpha_;
  double eta_;
};

/// Zipfian with the item index scrambled by a hash, so popularity is spread
/// over the whole key space (YCSB's "scrambled zipfian").
class ScrambledZipfianGenerator {
 public:
  explicit ScrambledZipfianGenerator(uint64_t item_count, double theta = 0.99)
      : inner_(item_count, theta), item_count_(item_count) {}

  uint64_t Next(Rng& rng);

  void SetItemCount(uint64_t item_count) {
    item_count_ = item_count;
    inner_.SetItemCount(item_count);
  }

 private:
  ZipfianGenerator inner_;
  uint64_t item_count_;
};

/// YCSB "latest": popularity skewed toward the most recently inserted items.
class LatestGenerator {
 public:
  explicit LatestGenerator(uint64_t item_count) : zipf_(item_count) {}

  uint64_t Next(Rng& rng, uint64_t current_max) {
    zipf_.SetItemCount(current_max);
    uint64_t offset = zipf_.Next(rng);
    return current_max - 1 - offset;
  }

 private:
  ZipfianGenerator zipf_;
};

}  // namespace grub::workload
