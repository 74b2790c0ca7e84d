#include "workload/distributions.h"

#include <cmath>
#include <stdexcept>

namespace grub::workload {

double ZipfianGenerator::Zeta(uint64_t n, double theta, uint64_t from,
                              double sum) {
  for (uint64_t i = from; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
  }
  return sum;
}

ZipfianGenerator::ZipfianGenerator(uint64_t item_count, double theta)
    : item_count_(0), theta_(theta), zeta_n_(0), alpha_(0), eta_(0) {
  if (item_count == 0) {
    throw std::invalid_argument("ZipfianGenerator: item_count must be > 0");
  }
  SetItemCount(item_count);
}

void ZipfianGenerator::SetItemCount(uint64_t item_count) {
  if (item_count == item_count_) return;
  // Growth adds only the new terms to the running sum, in index order: the
  // same additions in the same order as a sum from scratch, so zeta_n_ is
  // bit-identical to one. YCSB-D's latest generator grows the count by one
  // per insert, so each of its key choices adds at most one term.
  zeta_n_ = item_count > item_count_
                ? Zeta(item_count, theta_, item_count_, zeta_n_)
                : Zeta(item_count, theta_, 0, 0.0);
  item_count_ = item_count;
  alpha_ = 1.0 / (1.0 - theta_);
  const double zeta2 = Zeta(2, theta_, 0, 0.0);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(item_count_), 1.0 - theta_)) /
         (1.0 - zeta2 / zeta_n_);
}

uint64_t ZipfianGenerator::Next(Rng& rng) {
  const double u = rng.NextDouble();
  const double uz = u * zeta_n_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const double v =
      static_cast<double>(item_count_) *
      std::pow(eta_ * u - eta_ + 1.0, alpha_);
  uint64_t item = static_cast<uint64_t>(v);
  if (item >= item_count_) item = item_count_ - 1;
  return item;
}

uint64_t ScrambledZipfianGenerator::Next(Rng& rng) {
  const uint64_t rank = inner_.Next(rng);
  SplitMix64 hasher(rank ^ 0x9E3779B97F4A7C15ULL);
  return hasher.Next() % item_count_;
}

}  // namespace grub::workload
