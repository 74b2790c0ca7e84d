// Scale: the Merkle-forest control plane at large keyspaces.
//
// The single-tree design pays an epoch update whose off-chain cost is a
// rebuild over the whole keyspace; the forest confines it to the shards the
// epoch touched, and the on-chain root publication to one root slot per
// touched shard plus an O(shard count) rollup — independent of keyspace
// size. Three measurements pin that down:
//
//   1. touched-shards sweep: per-epoch update-path Gas (update-root +
//      root-rollup causes) against the number of shards an epoch writes
//      into, at a fixed large keyspace — Gas scales with touched shards;
//   2. keyspace sweep: the same one-shard epoch at growing keyspaces — the
//      update-path Gas stays flat while the keyspace grows 16x;
//   3. sustained load: many epochs of shard-local writes round-robin over
//      the shards — per-epoch Gas and wall-clock stay flat (no superlinear
//      blowup as history accumulates).
//
// Full mode runs 1M+ preloaded keys and 10M+ driven write ops; --quick is a
// pinned small configuration for the Gas-exact CI gate.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_registry.h"
#include "bench_util.h"
#include "workload/trace.h"

namespace {

using namespace grub;
using namespace grub::bench;

/// Update-path Gas: the DO's root publication plus the contract's rollup
/// verification. This is the component the forest is meant to bound.
uint64_t UpdatePathGas(const telemetry::GasMatrix& m) {
  return m.CauseTotal(telemetry::GasCause::kUpdateRoot) +
         m.CauseTotal(telemetry::GasCause::kRootRollup);
}

struct ScaleSystem {
  core::GrubSystem system;
  uint64_t key_count;

  ScaleSystem(uint64_t keys, size_t shards)
      : system(
            [&] {
              core::SystemOptions options;
              options.enable_telemetry = true;
              options.shards = shards;
              options.shard_boundaries =
                  core::IndexedKeyBoundaries(keys, shards);
              return options;
            }(),
            core::MakeBL1()),
        key_count(keys) {
    std::vector<std::pair<Bytes, Bytes>> preload;
    preload.reserve(keys);
    for (uint64_t i = 0; i < keys; ++i) {
      preload.emplace_back(workload::MakeKey(i), Bytes(32, 0x11));
    }
    system.Preload(preload);
  }

  /// One epoch of `writes` puts spread over the first `touch` shards
  /// (stride-distributed within each shard's key range), then EndEpoch.
  /// Returns the epoch's update-path Gas.
  uint64_t WriteEpoch(size_t touch, uint64_t writes, uint64_t salt) {
    const size_t shard_count = system.ShardedSp().ShardCount();
    const uint64_t per_shard_keys = key_count / shard_count;
    const telemetry::GasMatrix before = system.Chain().TotalGasMatrix();
    for (uint64_t w = 0; w < writes; ++w) {
      const uint64_t shard = w % touch;
      const uint64_t offset =
          (w / touch * 7919 + salt * 104729) % per_shard_keys;
      const uint64_t index = shard * per_shard_keys + offset;
      system.Write(workload::MakeKey(index), Bytes(32, uint8_t(salt + 1)));
    }
    system.EndEpoch();
    return UpdatePathGas(system.Chain().TotalGasMatrix() - before);
  }
};

telemetry::BenchReport Run(const BenchOptions& opts) {
  // Pinned configurations: quick is the CI Gas-exact gate; full is the 1M+
  // key / 10M+ op scale proof.
  const uint64_t kKeys = opts.quick ? 4096 : 1u << 20;          // keyspace
  const size_t kShards = opts.quick ? 4 : 64;                   // forest size
  const uint64_t kWrites = opts.quick ? 128 : 1024;             // per epoch
  const std::vector<size_t> kTouchSweep =
      opts.quick ? std::vector<size_t>{1, 2, 4}
                 : std::vector<size_t>{1, 2, 4, 8, 16, 32, 64};
  const std::vector<uint64_t> kKeySweep =
      opts.quick ? std::vector<uint64_t>{1024, 4096}
                 : std::vector<uint64_t>{1u << 16, 1u << 18, 1u << 20};
  const uint64_t kSustainedEpochs = opts.quick ? 8 : 1000;
  const uint64_t kSustainedWrites = opts.quick ? 512 : 10000;

  telemetry::BenchReport report;
  report.title = "Merkle-forest scale: root-update Gas vs touched shards";
  report.SetConfig("keys", kKeys);
  report.SetConfig("shards", static_cast<uint64_t>(kShards));
  report.SetConfig("writes_per_epoch", kWrites);
  report.SetConfig("sustained_epochs", kSustainedEpochs);
  report.SetConfig("sustained_writes_per_epoch", kSustainedWrites);

  // --- 1. touched-shards sweep at a fixed keyspace ---
  std::printf("=== update-path Gas vs touched shards (%llu keys, %zu shards) "
              "===\n",
              static_cast<unsigned long long>(kKeys), kShards);
  std::printf("%-18s %16s %12s\n", "shards touched", "update Gas", "Gas/shard");
  auto& touch_series = report.AddSeries("update-path Gas vs touched shards");
  {
    ScaleSystem sys(kKeys, kShards);
    uint64_t salt = 0;
    for (size_t touch : kTouchSweep) {
      // Two epochs per point; the second is the measured one (the first
      // converges replica/slot state for the touched shard set).
      sys.WriteEpoch(touch, kWrites, salt++);
      const uint64_t gas = sys.WriteEpoch(touch, kWrites, salt++);
      std::printf("%-18zu %16llu %12.0f\n", touch,
                  static_cast<unsigned long long>(gas),
                  static_cast<double>(gas) / static_cast<double>(touch));
      touch_series.Add("touched=" + std::to_string(touch),
                       static_cast<double>(touch))
          .Ops(kWrites, gas);
    }
  }

  // --- 2. keyspace sweep at one touched shard ---
  std::printf("\n=== update-path Gas vs keyspace (1 touched shard of %zu) "
              "===\n",
              kShards);
  std::printf("%-18s %16s\n", "keys", "update Gas");
  auto& key_series = report.AddSeries("update-path Gas vs keyspace");
  uint64_t key_sweep_min = 0, key_sweep_max = 0;
  for (uint64_t keys : kKeySweep) {
    ScaleSystem sys(keys, kShards);
    sys.WriteEpoch(1, kWrites, 0);
    const uint64_t gas = sys.WriteEpoch(1, kWrites, 1);
    std::printf("%-18llu %16llu\n", static_cast<unsigned long long>(keys),
                static_cast<unsigned long long>(gas));
    key_series.Add("keys=" + std::to_string(keys), static_cast<double>(keys))
        .Ops(kWrites, gas);
    if (key_sweep_min == 0 || gas < key_sweep_min) key_sweep_min = gas;
    if (gas > key_sweep_max) key_sweep_max = gas;
  }
  // The root-update cost must not grow with the keyspace: the largest
  // keyspace may cost at most 10% more than the smallest (slack for replica
  // slot-warming differences, not for any per-key term).
  const bool keyspace_flat =
      key_sweep_max <= key_sweep_min + key_sweep_min / 10;
  if (!keyspace_flat) {
    report.failed = true;
    report.notes.push_back(
        "FAIL: root-update Gas grew with the keyspace (forest should bound "
        "it by touched shards)");
  }

  // --- 3. sustained load: epochs of shard-local writes, round-robin ---
  std::printf("\n=== sustained load: %llu epochs x %llu writes (%llu ops) "
              "===\n",
              static_cast<unsigned long long>(kSustainedEpochs),
              static_cast<unsigned long long>(kSustainedWrites),
              static_cast<unsigned long long>(kSustainedEpochs *
                                              kSustainedWrites));
  auto& sustained = report.AddSeries("sustained per-epoch update Gas");
  uint64_t first_quarter = 0, last_quarter = 0;
  const uint64_t quarter = kSustainedEpochs / 4 ? kSustainedEpochs / 4 : 1;
  {
    ScaleSystem sys(kKeys, kShards);
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t e = 0; e < kSustainedEpochs; ++e) {
      // Each epoch's writes confined to one shard, rotating — steady-state
      // single-shard epochs over the whole forest.
      const size_t shard = static_cast<size_t>(e % kShards);
      const telemetry::GasMatrix before = sys.system.Chain().TotalGasMatrix();
      const uint64_t per_shard_keys = kKeys / kShards;
      for (uint64_t w = 0; w < kSustainedWrites; ++w) {
        const uint64_t index =
            shard * per_shard_keys + (w * 7919 + e) % per_shard_keys;
        sys.system.Write(workload::MakeKey(index), Bytes(32, uint8_t(e + 1)));
      }
      sys.system.EndEpoch();
      const uint64_t gas =
          UpdatePathGas(sys.system.Chain().TotalGasMatrix() - before);
      if (e < quarter) first_quarter += gas;
      if (e >= kSustainedEpochs - quarter) last_quarter += gas;
      // Record a sparse set of epochs so the artifact stays small.
      if (e == 0 || e == kSustainedEpochs / 2 || e == kSustainedEpochs - 1) {
        sustained.Add("epoch " + std::to_string(e), static_cast<double>(e))
            .Ops(kSustainedWrites, gas);
      }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const uint64_t total_ops = kSustainedEpochs * kSustainedWrites;
    std::printf("first-%llu-epoch update Gas %llu, last-%llu-epoch %llu\n",
                static_cast<unsigned long long>(quarter),
                static_cast<unsigned long long>(first_quarter),
                static_cast<unsigned long long>(quarter),
                static_cast<unsigned long long>(last_quarter));
    if (opts.timing) {
      std::printf("wall: %.1fs for %llu ops (%.0f ops/sec)\n", seconds,
                  static_cast<unsigned long long>(total_ops),
                  static_cast<double>(total_ops) / seconds);
    }
    // No superlinear blowup: the last quarter may cost at most 25% more
    // than the first (steady state, modulo replica-slot warm-up in epoch 0).
    if (last_quarter > first_quarter + first_quarter / 4) {
      report.failed = true;
      report.notes.push_back(
          "FAIL: sustained per-epoch update Gas grew over the run");
    }
  }

  report.notes.push_back(
      "root-update Gas scales with touched shards, not keyspace: the "
      "keyspace sweep is flat while the touched-shards sweep is ~linear");
  return report;
}

[[maybe_unused]] const int kRegistered = RegisterBench(
    "scale_shards", "Merkle-forest scale: update Gas vs touched shards", Run);

}  // namespace
