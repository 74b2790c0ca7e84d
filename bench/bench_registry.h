// Bench registry: every figure/table reproduction registers itself as a
// named function returning a telemetry::BenchReport, so one `grub-bench`
// binary can run any subset (--all / --only GLOB / --quick) and emit the
// machine-readable BENCH_*.json artifacts next to today's text tables.
//
// Registration happens in namespace-scope initializers inside each bench TU.
// grub-bench lists the bench .cpp files DIRECTLY in its sources (no static
// library in between), so the initializers are never dropped by the linker.
// `grub-bench --only NAME` runs one bench and prints its tables.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "telemetry/report.h"

namespace grub::bench {

struct BenchOptions {
  /// Run the pinned smaller deterministic configuration (the CI quick gate).
  /// Benches must derive quick parameters from constants, never from the
  /// environment — quick output is compared Gas-exactly against a checked-in
  /// baseline.
  bool quick = false;
  /// Record wall-clock fields (wall_seconds, ops_per_sec). Off for
  /// byte-identical artifacts across repeated runs.
  bool timing = true;
};

using BenchFn = std::function<telemetry::BenchReport(const BenchOptions&)>;

struct BenchInfo {
  std::string name;   // slug: "fig7_ratio_sweep"
  std::string title;  // one-line description for --list
  BenchFn fn;
};

/// Registers a bench under `name`; returns 0 so a namespace-scope static can
/// capture the call. Duplicate names abort (a bench suite with ambiguous
/// names cannot produce trustworthy artifacts).
int RegisterBench(std::string name, std::string title, BenchFn fn);

/// Registered benches sorted by name (stable run order).
std::vector<const BenchInfo*> AllBenches();
const BenchInfo* FindBench(const std::string& name);

/// Glob with '*' and '?' over bench names (for --only).
bool GlobMatch(const std::string& pattern, const std::string& name);

/// Runs one bench; its text tables print as a side effect. Stamps
/// wall_seconds when `options.timing`, and forces the report name to the
/// registered name so artifacts and registry never disagree.
telemetry::BenchReport RunBench(const BenchInfo& info,
                                const BenchOptions& options);

/// Serializes `reports` to `<dir>/BENCH_<stem>.json`; returns the path, or
/// an empty string on I/O failure.
std::string WriteReportFile(const std::string& dir, const std::string& stem,
                            const std::vector<telemetry::BenchReport>& reports);

}  // namespace grub::bench
