// Hot-path profiling probes: scoped nanosecond counters on the few code
// paths measurement has shown dominate runtime (Merkle rebuild and batched
// update, sha256, deliver codec). Each site exports count /
// total / max nanoseconds — the evidence base for choosing parallelization
// targets (ROADMAP item 2).
//
// Usage at a site:
//
//   GRUB_PROBE(ProbeSite::kMerkleRebuild);
//   ... the hot work ...                       // records on scope exit
//
// This table is the one in-program wall-clock instrument (perfbench times
// the layers from outside). Wall-clock only ever flows into reports, never
// into simulation state. Probes are off by default; a disabled probe costs
// one relaxed atomic load and never reads the clock.
//
// Timing is SAMPLED: every hit bumps the site's count (one relaxed
// fetch_add), but only one hit in kSampleEvery reads the clock — sha256
// fires for every Merkle node and leaf hash, several times per simulated op,
// and two steady_clock reads (~45 ns each on a VM clocksource) per ~150 ns
// node hash would dwarf the work being measured (bench_throughput gates the
// monitor+probe overhead at 5%). Snapshot() scales the sampled nanoseconds
// back up by count/samples, so `total_ns` is an estimate with ~1/64 of the
// clock cost; `max_ns` is the max over sampled hits. The first hit of every
// site is always sampled, so any exercised path shows nonzero time.
//
// Header-only on purpose: the probed crypto library (grub_crypto) gains no
// link dependency on grub_telemetry.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace grub::telemetry {

enum class ProbeSite : size_t {
  kMerkleRebuild = 0,
  kSha256Digest,
  kCodecEncode,
  kCodecDecode,
  kMerkleUpdate,
  kCount,
};

struct ProbeStats {
  const char* name = "";
  uint64_t count = 0;
  /// Estimated total: sampled nanoseconds scaled by count/samples.
  uint64_t total_ns = 0;
  uint64_t max_ns = 0;
};

/// Process-wide probe table. Atomics, not a mutex: sites are single-threaded
/// today but the relaxed counters keep the door open and the disabled-path
/// cost at one load.
class ProfileRegistry {
 public:
  static void Enable(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// One clock read per this many hits (power of two; first hit sampled).
  static constexpr uint64_t kSampleEvery = 64;

  static void Reset() {
    for (size_t i = 0; i < kSites; ++i) {
      count_[i].store(0, std::memory_order_relaxed);
      samples_[i].store(0, std::memory_order_relaxed);
      sampled_ns_[i].store(0, std::memory_order_relaxed);
      max_ns_[i].store(0, std::memory_order_relaxed);
    }
  }

  /// Counts one hit; returns whether this hit should read the clock.
  static bool BumpAndSample(ProbeSite site) {
    const size_t i = static_cast<size_t>(site);
    const uint64_t n = count_[i].fetch_add(1, std::memory_order_relaxed);
    return (n & (kSampleEvery - 1)) == 0;
  }

  static void RecordSample(ProbeSite site, uint64_t ns) {
    const size_t i = static_cast<size_t>(site);
    samples_[i].fetch_add(1, std::memory_order_relaxed);
    sampled_ns_[i].fetch_add(ns, std::memory_order_relaxed);
    uint64_t prev = max_ns_[i].load(std::memory_order_relaxed);
    while (ns > prev &&
           !max_ns_[i].compare_exchange_weak(prev, ns,
                                             std::memory_order_relaxed)) {
    }
  }

  static const char* Name(ProbeSite site) {
    static const char* kNames[kSites] = {
        "merkle.rebuild", "sha256.digest", "codec.encode",
        "codec.decode",   "merkle.update",
    };
    return kNames[static_cast<size_t>(site)];
  }

  /// All sites in enum order (including zero-count ones, so a report always
  /// shows which paths never ran).
  static std::vector<ProbeStats> Snapshot() {
    std::vector<ProbeStats> out(kSites);
    for (size_t i = 0; i < kSites; ++i) {
      out[i].name = Name(static_cast<ProbeSite>(i));
      out[i].count = count_[i].load(std::memory_order_relaxed);
      const uint64_t samples = samples_[i].load(std::memory_order_relaxed);
      const uint64_t sampled_ns =
          sampled_ns_[i].load(std::memory_order_relaxed);
      // Scale the sampled time back to the full hit count.
      out[i].total_ns =
          samples == 0 ? 0 : sampled_ns * (out[i].count / samples);
      out[i].max_ns = max_ns_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  static constexpr size_t kSites = static_cast<size_t>(ProbeSite::kCount);
  inline static std::atomic<bool> enabled_{false};
  inline static std::atomic<uint64_t> count_[kSites]{};
  inline static std::atomic<uint64_t> samples_[kSites]{};
  inline static std::atomic<uint64_t> sampled_ns_[kSites]{};
  inline static std::atomic<uint64_t> max_ns_[kSites]{};
};

class ScopedProbe {
 public:
  explicit ScopedProbe(ProbeSite site) : site_(site) {
    if (ProfileRegistry::Enabled() && ProfileRegistry::BumpAndSample(site)) {
      armed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedProbe() {
    if (!armed_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    ProfileRegistry::RecordSample(
        site_, static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                       .count()));
  }

  ScopedProbe(const ScopedProbe&) = delete;
  ScopedProbe& operator=(const ScopedProbe&) = delete;

 private:
  ProbeSite site_;
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace grub::telemetry

#define GRUB_PROBE(site) ::grub::telemetry::ScopedProbe grub_probe_scope_(site)
