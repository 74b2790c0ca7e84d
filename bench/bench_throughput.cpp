// §2.2's throughput claim: "the transaction throughput of a blockchain is
// bounded by the total Gas a block can take ... reducing the Gas per
// operation implies the application can submit more operations in a given
// time." This bench makes the claim concrete: same workload, 10M-Gas
// blocks, 14-second block interval — how many feed operations fit per
// second under each placement?
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_registry.h"
#include "bench_util.h"
#include "telemetry/profile.h"

namespace {

using namespace grub;
using namespace grub::bench;

telemetry::BenchReport Run(const BenchOptions& opts) {
  const double ratio = 4;  // moderately read-heavy feed
  const size_t trace_ops = opts.quick ? 512 : 2048;
  auto trace = workload::FixedRatioTrace(ratio, trace_ops, 32);

  telemetry::BenchReport report;
  report.title = "Throughput under 10M-Gas blocks + tracing overhead gate";
  report.SetConfig("workload", "fixed-ratio");
  report.SetConfig("ratio", static_cast<uint64_t>(ratio));
  report.SetConfig("ops", static_cast<uint64_t>(trace_ops));

  std::printf("=== Effective feed throughput under 10M-Gas blocks, B = 14s "
              "(fixed ratio %.0f workload) ===\n", ratio);
  std::printf("%-28s %14s %10s %14s %16s\n", "", "total Gas", "Gas/op",
              "blocks@10M", "Gas-bound ops/s");

  auto& feed_series = report.AddSeries("Gas-bound feed throughput");
  double grub_ops_per_sec = 0;
  size_t variant_index = 0;
  for (const auto& [label, policy] :
       std::vector<std::pair<std::string, PolicyFactory>>{
           {"No replica (BL1)", BL1()},
           {"Always with replica (BL2)", BL2()},
           {"GRuB (memorizing)", Memorizing(2, 1)}}) {
    core::SystemOptions options;
    options.enable_telemetry = true;
    core::GrubSystem system(options, policy());
    system.Preload({{workload::MakeKey(0), Bytes(32, 0x11)}});
    system.Drive(trace);  // converge
    system.Chain().ResetGasCounters();
    system.Metrics()->Epochs().Clear();
    system.Drive(trace);
    // Gas and op counts both come from the telemetry epoch series (rows sum
    // to the chain's metered total).
    size_t ops = 0;
    uint64_t gas = 0;
    for (const auto& e : system.Metrics()->Epochs().Rows()) {
      ops += e.ops;
      gas += e.GasTotal();
    }

    const double total = static_cast<double>(gas);
    const double per_op = total / static_cast<double>(ops);
    // Gas-bound throughput: 10M Gas per 14-second block. This rate is
    // DERIVED from Gas (deterministic), not measured wall-clock.
    const double blocks = total / 10e6;
    const double ops_per_sec =
        static_cast<double>(ops) / (blocks * 14.0);
    std::printf("%-28s %14.0f %10.0f %14.1f %16.1f\n", label.c_str(), total,
                per_op, blocks, ops_per_sec);
    feed_series.Add(label, static_cast<double>(variant_index++))
        .Ops(ops, gas)
        .OpsPerSec(ops_per_sec);
    if (label.rfind("GRuB", 0) == 0) grub_ops_per_sec = ops_per_sec;
  }

  std::printf("\nGas saving converts 1:1 into feed throughput: GRuB sustains "
              "%.0f Gas-bound ops/s where the dearer baseline saturates the "
              "chain sooner.\n", grub_ops_per_sec);

  // Sanity: the simulator's block-gas-limit machinery agrees with the
  // arithmetic above.
  {
    core::SystemOptions limited;
    limited.chain_params.block_gas_limit = 10'000'000;
    core::GrubSystem system(limited, Memorizing(2, 1)());
    system.Preload({{workload::MakeKey(0), Bytes(32, 0x11)}});
    system.Drive(trace);
    std::printf("\n(with the limit enforced in-simulator, the same run sealed "
                "%llu blocks)\n",
                static_cast<unsigned long long>(
                    system.Chain().CurrentBlockNumber()));
    report.AddSeries("blocks sealed at 10M limit")
        .Add("GRuB (memorizing)", 0)
        .Ops(trace.size(), system.Chain().CurrentBlockNumber());
  }

  // --- observability overhead gates ---
  // The observability contract is "never distorts the simulation"; the
  // wall-clock half of that is bounded here for BOTH instruments: the
  // request tracer and the workload monitor + hot-path probes. Interleaved
  // minimum times shave scheduler noise off both sides. Wall-clock is
  // non-deterministic, so the whole gate is skipped under --no-timing
  // (where the report must be byte-identical across runs).
  if (opts.timing) {
    const int kRounds = opts.quick ? 5 : 25;
    constexpr int kDrivesPerRun = 4;  // lengthen the timed region vs noise
    enum class Instrument { kNone, kTracing, kMonitor };
    auto run_once = [&trace](Instrument instrument) {
      core::SystemOptions options;
      options.enable_telemetry = true;
      options.enable_tracing = instrument == Instrument::kTracing;
      options.enable_workload_monitor = instrument == Instrument::kMonitor;
      core::GrubSystem system(options, Memorizing(2, 1)());
      system.Preload({{workload::MakeKey(0), Bytes(32, 0x11)}});
      telemetry::ProfileRegistry::Enable(instrument == Instrument::kMonitor);
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kDrivesPerRun; ++i) {
        system.Drive(trace);
        // Each drive models one traced run (trace, export, reset): the gate
        // bounds steady-state per-op cost, not unbounded accumulation across
        // an artificially repeated workload.
        if (instrument == Instrument::kTracing) system.Tracing()->Clear();
      }
      const double sec = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
      telemetry::ProfileRegistry::Enable(false);
      return sec;
    };
    const double ops_total = static_cast<double>(trace.size() * kDrivesPerRun);
    auto gate = [&](const char* what, Instrument instrument,
                    const char* on_label) {
      // Interference can only inflate a minimum-based measurement, never
      // deflate it — so a failing window is re-measured (up to 3 windows)
      // and the first clean one is accepted. A genuine regression fails all
      // three.
      double off_sec = 1e300, on_sec = 1e300, slowdown_pct = 0;
      for (int attempt = 0; attempt < 3; ++attempt) {
        off_sec = on_sec = 1e300;
        for (int i = 0; i < kRounds; ++i) {
          off_sec = std::min(off_sec, run_once(Instrument::kNone));
          on_sec = std::min(on_sec, run_once(instrument));
        }
        slowdown_pct = (on_sec - off_sec) / off_sec * 100.0;
        if (slowdown_pct <= 5.0) break;
      }
      const double off_ops = ops_total / off_sec;
      const double on_ops = ops_total / on_sec;
      std::printf("\n=== %s overhead (best of %d) ===\n", what, kRounds);
      std::printf("%-28s %12.0f ops/sec\n", "instrumentation off", off_ops);
      std::printf("%-28s %12.0f ops/sec\n", on_label, on_ops);
      std::printf("%-28s %+11.2f%%  (budget 5%%)\n", "slowdown", slowdown_pct);
      auto& overhead =
          report.AddSeries(std::string(what) + " overhead (wall-clock)");
      overhead.Add("instrumentation off", 0).OpsPerSec(off_ops);
      overhead.Add(on_label, 1).OpsPerSec(on_ops);
      if (slowdown_pct > 5.0) {
        std::printf("FAIL: %s slowdown %.2f%% exceeds the 5%% budget\n", what,
                    slowdown_pct);
        report.failed = true;
        report.notes.push_back(std::string("FAIL: ") + what +
                               " slowdown exceeds the 5% budget");
      }
    };
    gate("tracing", Instrument::kTracing, "tracing on");
    gate("workload monitor", Instrument::kMonitor, "monitor + probes on");
  }
  return report;
}

[[maybe_unused]] const int kRegistered = RegisterBench(
    "throughput", "Throughput at 10M-Gas blocks + tracing overhead gate",
    Run);

}  // namespace
