#include "bench_registry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace grub::bench {

namespace {

std::vector<BenchInfo>& Registry() {
  static std::vector<BenchInfo> benches;
  return benches;
}

}  // namespace

int RegisterBench(std::string name, std::string title, BenchFn fn) {
  for (const BenchInfo& bench : Registry()) {
    if (bench.name == name) {
      std::fprintf(stderr, "duplicate bench registration: %s\n", name.c_str());
      std::abort();
    }
  }
  Registry().push_back(BenchInfo{std::move(name), std::move(title),
                                 std::move(fn)});
  return 0;
}

std::vector<const BenchInfo*> AllBenches() {
  std::vector<const BenchInfo*> out;
  out.reserve(Registry().size());
  for (const BenchInfo& bench : Registry()) out.push_back(&bench);
  std::sort(out.begin(), out.end(),
            [](const BenchInfo* a, const BenchInfo* b) {
              return a->name < b->name;
            });
  return out;
}

const BenchInfo* FindBench(const std::string& name) {
  for (const BenchInfo& bench : Registry()) {
    if (bench.name == name) return &bench;
  }
  return nullptr;
}

bool GlobMatch(const std::string& pattern, const std::string& name) {
  // Iterative glob with single-star backtracking ('*' any run, '?' any one).
  size_t p = 0, n = 0, star = std::string::npos, star_n = 0;
  while (n < name.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == name[n])) {
      ++p;
      ++n;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_n = n;
    } else if (star != std::string::npos) {
      p = star + 1;
      n = ++star_n;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

telemetry::BenchReport RunBench(const BenchInfo& info,
                                const BenchOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  telemetry::BenchReport report = info.fn(options);
  report.name = info.name;
  if (report.title.empty()) report.title = info.title;
  if (options.quick) report.SetConfig("quick", "true");
  if (options.timing) {
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  } else {
    report.wall_seconds = 0;
    // Strip any wall-clock the bench recorded itself: deterministic artifacts
    // must be byte-identical across runs.
    for (auto& series : report.series) {
      for (auto& row : series.rows) row.ops_per_sec = 0;
    }
  }
  return report;
}

std::string WriteReportFile(
    const std::string& dir, const std::string& stem,
    const std::vector<telemetry::BenchReport>& reports) {
  if (!dir.empty() && dir != ".") {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best-effort; open reports
  }
  const std::string path =
      (dir.empty() || dir == "." ? std::string() : dir + "/") + "BENCH_" +
      stem + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return "";
  }
  telemetry::BenchReportFile file;
  file.reports = reports;
  file.WriteJson(out);
  return path;
}

}  // namespace grub::bench
