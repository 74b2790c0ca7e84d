// The tracing contract, end to end over a driven GrubSystem:
//   1. determinism — same (seed, schedule, trace) emits byte-identical
//      Chrome JSON and JSONL exports, with and without faults firing;
//   2. fault propagation — every drop/retry/re-emit/replay lands under the
//      request span it starved, and the span still ends at the callback;
//   3. Gas identity — tracing on, telemetry-only, and plain runs meter
//      bit-identical Gas (observability never feeds back into simulation);
//   4. policy audit — every flip record carries a self-describing policy
//      name and the per-key counter state that justified the decision;
//   5. GrubSystem::Robustness() gathers fault/retry totals over every
//      replica and every adversary.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "grub/system.h"
#include "telemetry/trace_analyze.h"
#include "workload/synthetic.h"

namespace grub::core {
namespace {

using telemetry::SpanKind;
using telemetry::TraceSpan;
using workload::MakeKey;
using workload::Operation;
using workload::Trace;

SystemOptions Traced(const std::string& schedule = "", uint64_t seed = 42) {
  SystemOptions options;
  options.enable_tracing = true;
  options.fault_schedule = schedule;
  options.fault_seed = seed;
  return options;
}

std::vector<std::pair<Bytes, Bytes>> SmallFeed(size_t n = 4) {
  std::vector<std::pair<Bytes, Bytes>> records;
  for (uint64_t i = 0; i < n; ++i) {
    records.emplace_back(MakeKey(i), Bytes(32, uint8_t(i + 1)));
  }
  return records;
}

struct Exports {
  std::string chrome;
  std::string jsonl;
  uint64_t gas = 0;
};

/// One fixed mixed run under tracing; everything the caller needs to compare
/// two runs byte for byte.
Exports RunTraced(const std::string& schedule, uint64_t seed = 42) {
  GrubSystem system(Traced(schedule, seed),
                    std::make_unique<MemorizingPolicy>(2, 1));
  system.Preload(SmallFeed());
  auto trace = workload::FixedRatioTrace(/*ratio=*/4, /*ops=*/256, 32);
  system.Drive(trace);
  Exports out;
  std::ostringstream chrome, jsonl;
  system.Tracing()->WriteChromeJson(chrome);
  system.Tracing()->WriteJsonLines(jsonl);
  out.chrome = chrome.str();
  out.jsonl = jsonl.str();
  out.gas = system.TotalGas();
  return out;
}

// --- 1. determinism ---

TEST(TracingDeterminism, FaultFreeRunsAreByteIdentical) {
  const Exports a = RunTraced("");
  const Exports b = RunTraced("");
  ASSERT_FALSE(a.chrome.empty());
  ASSERT_FALSE(a.jsonl.empty());
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.gas, b.gas);
}

TEST(TracingDeterminism, FaultedRunsAreByteIdenticalUnderSameSeed) {
  // Deterministic points, a periodic reorg, AND a probabilistic drop — the
  // seed pins the whole failure-and-recovery sequence, so the trace (which
  // records every retry and replay) must reproduce exactly.
  const std::string schedule =
      "sp.deliver.drop~0.3,do.update.drop@1,chain.reorg%7x2";
  const Exports a = RunTraced(schedule, /*seed=*/1234);
  const Exports b = RunTraced(schedule, /*seed=*/1234);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.gas, b.gas);
}

// --- 2. fault propagation onto request spans ---

TEST(TracingFaults, DroppedDeliverShowsRetryChainOnRequestSpan) {
  GrubSystem system(Traced("sp.deliver.drop@1"), MakeBL1());
  system.Preload(SmallFeed());
  system.ReadNow(MakeKey(0));

  ASSERT_NE(system.Tracing(), nullptr);
  const TraceSpan* get = nullptr;
  const TraceSpan* deliver = nullptr;
  for (const auto& span : system.Tracing()->Spans()) {
    if (span.kind == SpanKind::kGet) get = &span;
    if (span.kind == SpanKind::kDeliver) deliver = &span;
  }
  ASSERT_NE(get, nullptr);
  ASSERT_NE(deliver, nullptr);

  // The deliver span owns the retry loop...
  EXPECT_TRUE(deliver->HasEvent("deliver.drop"));
  EXPECT_TRUE(deliver->HasEvent("deliver.retry"));
  // ...and the starved gGet carries the mirrored chain, ending at its
  // callback block.
  EXPECT_TRUE(get->HasEvent("deliver.drop"));
  EXPECT_TRUE(get->HasEvent("deliver.retry"));
  EXPECT_TRUE(get->closed);
  EXPECT_TRUE(get->completed);
  EXPECT_GE(get->end_block, get->begin_block);

  // The analyzer counts the resubmission once (on the deliver span), not
  // once per mirrored annotation.
  const auto summary = telemetry::Summarize(*system.Tracing());
  EXPECT_EQ(summary.total_retries, 1u);
  EXPECT_EQ(summary.deliver_drops, 1u);
  EXPECT_EQ(summary.gets, summary.completed_gets);
}

TEST(TracingFaults, WatchdogReemitLandsOnTheStarvedRequestSpan) {
  // SP down for 6 polls: reads starve, the watchdog re-emits them, the DO
  // degrades; each re-emit must appear under the request span it rescued.
  GrubSystem system(Traced("sp.crash*x6"), MakeBL1());
  system.Preload(SmallFeed());
  for (int i = 0; i < 12; ++i) system.ReadNow(MakeKey(i % 4));

  uint64_t reemits_on_gets = 0;
  for (const auto& span : system.Tracing()->Spans()) {
    if (span.kind == SpanKind::kGet) {
      reemits_on_gets += span.CountEvents("watchdog.reemit");
    }
  }
  EXPECT_GT(reemits_on_gets, 0u);
  EXPECT_EQ(reemits_on_gets, system.Do().watchdog_reemits());

  bool saw_crash = false, saw_degrade = false, saw_undegrade = false;
  for (const auto& event : system.Tracing()->GlobalEvents()) {
    saw_crash = saw_crash || event.name == "sp.crash";
    saw_degrade = saw_degrade || event.name == "do.degrade";
    saw_undegrade = saw_undegrade || event.name == "do.undegrade";
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_degrade);
  EXPECT_TRUE(saw_undegrade);  // backlog drained, degradation ended

  const auto summary = telemetry::Summarize(*system.Tracing());
  EXPECT_EQ(summary.watchdog_reemits, system.Do().watchdog_reemits());
}

TEST(TracingFaults, ReorgEmitsGlobalEventAndReplayAnnotations) {
  GrubSystem system(Traced("chain.reorg%5x2"), MakeBL1());
  system.Preload(SmallFeed());
  for (int i = 0; i < 10; ++i) {
    system.ReadNow(MakeKey(i % 4));
    if (i % 3 == 0) {
      system.Write(MakeKey(uint64_t(i % 4)), Bytes(32, uint8_t(0x40 + i)));
      system.EndEpoch();
    }
  }
  ASSERT_EQ(system.Faults()->Fires("chain.reorg"), 2u);

  uint64_t reorg_globals = 0;
  for (const auto& event : system.Tracing()->GlobalEvents()) {
    if (event.name == "chain.reorg") reorg_globals += 1;
  }
  EXPECT_EQ(reorg_globals, 2u);

  // Orphaned transactions re-executed: their owning spans carry replay
  // annotations rather than silently double-counting.
  uint64_t replay_events = 0;
  for (const auto& span : system.Tracing()->Spans()) {
    replay_events += span.CountEvents("tx.replayed");
  }
  EXPECT_GT(replay_events, 0u);

  const auto summary = telemetry::Summarize(*system.Tracing());
  EXPECT_EQ(summary.reorgs, 2u);
  EXPECT_GT(summary.reorg_replays, 0u);
}

TEST(TracingFaults, RangeScanSpanCompletesAtDeliver) {
  // A gScan gets its own span kind, closed when the range proof lands.
  SystemOptions options = Traced();
  options.scan_mode = ScanMode::kRangeProof;
  GrubSystem system(options, MakeBL1());
  system.Preload(SmallFeed());

  Trace trace;
  Operation op;
  op.type = workload::OpType::kScan;
  op.key = MakeKey(0);
  op.scan_len = 3;
  trace.push_back(op);
  system.Drive(trace);

  const TraceSpan* scan = nullptr;
  for (const auto& span : system.Tracing()->Spans()) {
    if (span.kind == SpanKind::kScan) scan = &span;
  }
  ASSERT_NE(scan, nullptr);
  EXPECT_TRUE(scan->completed);
  EXPECT_EQ(telemetry::Summarize(*system.Tracing()).completed_scans, 1u);
}

// --- 3. Gas identity ---

TEST(TracingGas, BitIdenticalWithTracingOnTelemetryOnlyOrPlain) {
  auto trace = workload::FixedRatioTrace(/*ratio=*/4, /*ops=*/512, 32);
  auto run = [&trace](bool telemetry, bool tracing) {
    SystemOptions options;
    options.enable_telemetry = telemetry;
    options.enable_tracing = tracing;
    GrubSystem system(options, std::make_unique<MemorizingPolicy>(2, 1));
    system.Preload(SmallFeed(16));
    system.Drive(trace);
    return system.TotalGas();
  };
  const uint64_t plain = run(false, false);
  EXPECT_GT(plain, 0u);
  EXPECT_EQ(run(true, false), plain);
  EXPECT_EQ(run(false, true), plain);
  EXPECT_EQ(run(true, true), plain);
}

TEST(TracingGas, BitIdenticalUnderFaultsToo) {
  // The retry/replay machinery is where an id leaking into calldata would
  // show up — identical Gas under an eventful schedule proves it does not.
  auto trace = workload::FixedRatioTrace(/*ratio=*/4, /*ops=*/256, 32);
  auto run = [&trace](bool tracing) {
    SystemOptions options =
        Traced("sp.deliver.drop@2,chain.reorg%6,do.update.drop@1");
    options.enable_tracing = tracing;
    options.enable_telemetry = true;
    GrubSystem system(options, std::make_unique<MemorizingPolicy>(2, 1));
    system.Preload(SmallFeed(16));
    system.Drive(trace);
    return system.TotalGas();
  };
  EXPECT_EQ(run(true), run(false));
}

// --- 4. policy audit records ---

TEST(TracingAudit, FlipRecordsCarryCounterStateAndParameters) {
  GrubSystem system(Traced(), std::make_unique<MemorizingPolicy>(2, 1));
  system.Preload(SmallFeed(16));
  auto trace = workload::FixedRatioTrace(/*ratio=*/4, /*ops=*/512, 32);
  system.Drive(trace);

  const auto& flips = system.Tracing()->Flips();
  ASSERT_FALSE(flips.empty());
  for (const auto& flip : flips) {
    // Self-describing policy name: family plus governing parameters.
    EXPECT_EQ(flip.policy, "memorizing(K'=2,D=1)");
    // The evidence behind the decision, captured around the observation.
    EXPECT_FALSE(flip.counters_before.empty());
    EXPECT_FALSE(flip.counters_after.empty());
    EXPECT_TRUE(flip.op == "read" || flip.op == "write") << flip.op;
    EXPECT_FALSE(flip.key.empty());
  }
  // Both directions occur under a mixed workload, and the analyzer's per-key
  // totals agree with the raw records.
  const auto summary = telemetry::Summarize(*system.Tracing());
  EXPECT_EQ(summary.total_flips, flips.size());
  EXPECT_EQ(summary.policy, "memorizing(K'=2,D=1)");
  uint64_t by_key = 0;
  for (const auto& [key, stats] : summary.flips_by_key) by_key += stats.Total();
  EXPECT_EQ(by_key, flips.size());
}

TEST(TracingAudit, PolicyNamesAreSelfDescribing) {
  EXPECT_EQ(MemorylessPolicy(3).Name(), "memoryless(K=3)");
  EXPECT_EQ(MemorizingPolicy(2.5, 1).Name(), "memorizing(K'=2.5,D=1)");
  const std::string k1 = AdaptiveK1Policy(2, 3).Name();
  EXPECT_NE(k1.find("adaptive-K1"), std::string::npos) << k1;
  EXPECT_NE(k1.find("threshold=2"), std::string::npos) << k1;
  EXPECT_NE(k1.find("window=3"), std::string::npos) << k1;
  const std::string k2 = AdaptiveK2Policy(4.5, 5).Name();
  EXPECT_NE(k2.find("adaptive-K2"), std::string::npos) << k2;
  EXPECT_NE(k2.find("threshold=4.5"), std::string::npos) << k2;
  EXPECT_NE(k2.find("window=5"), std::string::npos) << k2;
}

// --- 5. robustness totals ---

TEST(TelemetryRobustness, CachedHandlesStillGatherFaultTotals) {
  // Named for the retired registry handles: Robustness() sums the
  // components' own counters, and the totals must reflect what fired.
  {
    SCOPED_TRACE("one replica");
    GrubSystem system(Traced("sp.deliver.drop@1,do.update.drop@1"),
                      MakeBL1());
    system.Preload(SmallFeed());
    system.ReadNow(MakeKey(0));

    const auto totals = system.Robustness();
    EXPECT_EQ(totals.fault_fires, system.Faults()->TotalFires());
    EXPECT_GE(totals.fault_fires, 2u);  // the deliver drop and the update drop
    EXPECT_EQ(totals.retries, system.Daemon().deliver_retries() +
                                  system.Do().update_retries());
    EXPECT_GE(totals.retries, 2u);
    EXPECT_EQ(totals.degraded, 0);
  }
  {
    // Both replicas lie and both lose delivers, so a total that read only
    // the active replica, or only the schedule injector, falls short.
    SCOPED_TRACE("two replicas, adversaries and a fault schedule");
    SystemOptions options = Traced("sp.deliver.drop%2,do.update.drop@1");
    options.sp_replicas = 2;
    options.adversary_spec = "0:forge*;1:forge%2";
    GrubSystem system(options, MakeBL1());
    system.Preload(SmallFeed());
    for (int i = 0; i < 8; ++i) system.ReadNow(MakeKey(i % 4));
    system.Write(MakeKey(0), Bytes(32, 0x7A));
    system.EndEpoch();

    const SpQuorum& quorum = system.Quorum();
    uint64_t adversary_fires = 0;
    uint64_t deliver_retries = 0;
    uint64_t rejections = 0;
    for (size_t i = 0; i < quorum.ReplicaCount(); ++i) {
      SCOPED_TRACE("sp" + std::to_string(i));
      const SpDaemon& daemon = quorum.Replica(i);
      ASSERT_NE(daemon.Adversary(), nullptr);
      EXPECT_GT(daemon.Adversary()->TotalFires(), 0u);
      EXPECT_GT(daemon.deliver_retries(), 0u);
      EXPECT_GT(daemon.deliver_rejections(), 0u);
      adversary_fires += daemon.Adversary()->TotalFires();
      deliver_retries += daemon.deliver_retries();
      rejections += daemon.deliver_rejections();
    }
    EXPECT_GT(system.Faults()->TotalFires(), 0u);
    EXPECT_GT(system.Do().update_retries(), 0u);

    const auto totals = system.Robustness();
    EXPECT_EQ(totals.fault_fires,
              system.Faults()->TotalFires() + adversary_fires);
    EXPECT_EQ(totals.retries, deliver_retries + system.Do().update_retries());
    EXPECT_EQ(totals.deliver_rejections, rejections);
    EXPECT_EQ(totals.sp_failovers, quorum.Failovers());
  }
}

TEST(TelemetryRobustness, DisabledRegistryGathersZeros) {
  // Named for the retired disabled registry: a run with no telemetry, no
  // fault schedule and an honest SP gathers all-zero totals.
  GrubSystem system(SystemOptions{}, MakeBL1());
  system.Preload(SmallFeed());
  for (int i = 0; i < 4; ++i) system.ReadNow(MakeKey(i));
  ASSERT_EQ(system.Metrics(), nullptr);
  const auto totals = system.Robustness();
  EXPECT_EQ(totals.fault_fires, 0u);
  EXPECT_EQ(totals.retries, 0u);
  EXPECT_EQ(totals.watchdog_reemits, 0u);
  EXPECT_EQ(totals.degraded, 0);
  EXPECT_EQ(totals.deliver_rejections, 0u);
  EXPECT_EQ(totals.sp_failovers, 0u);
}

// --- request matching ---

// Requests on one key queue FIFO: a callback closes the oldest open span,
// and OpenRequestId names it. Keys arrive as views of calldata, so lookups
// take a span. The queue keeps its order while it grows and drains far
// past its first allocation; a callback after the last close annotates
// that span, and one for a key never requested counts as unmatched.
TEST(TracerMatching, RequestsOnOneKeyCloseOldestFirst) {
  telemetry::Tracer tracer;
  const Bytes key = MakeKey(7);
  const Bytes calldata = Concat({ToBytes("xx"), key});  // key read in place
  const ByteSpan view = ByteSpan(calldata).subspan(2);
  std::vector<uint64_t> opened;
  size_t closed = 0;
  for (int round = 0; round < 300; ++round) {
    opened.push_back(tracer.BeginRequest(key, false, Bytes{}, round));
    opened.push_back(tracer.BeginRequest(key, false, Bytes{}, round));
    ASSERT_EQ(tracer.OpenRequestId(view, false), opened[closed]);
    tracer.CompleteRequest(view, round, /*found=*/true);
    closed += 1;
  }
  while (closed < opened.size()) {
    ASSERT_EQ(tracer.OpenRequestId(view, false), opened[closed]);
    tracer.CompleteRequest(view, 400, /*found=*/closed % 2 == 0);
    closed += 1;
  }
  EXPECT_EQ(tracer.OpenRequestId(view, false), 0u);
  for (size_t i = 0; i < opened.size(); ++i) {
    const TraceSpan& span = tracer.Spans()[opened[i] - 1];
    ASSERT_TRUE(span.completed) << i;
    // The first 300 closed in their issue round, one per round.
    EXPECT_EQ(span.end_block, i < 300 ? i : 400u) << i;
  }

  tracer.CompleteRequest(view, 401, /*found=*/true);
  tracer.AnnotateRequest(view, false, "deliver.serve", 401);
  const TraceSpan& last = tracer.Spans()[opened.back() - 1];
  EXPECT_TRUE(last.HasEvent("callback.dup"));
  EXPECT_TRUE(last.HasEvent("deliver.serve"));
  tracer.CompleteRequest(MakeKey(8), 401, /*found=*/true);
  EXPECT_EQ(tracer.unmatched_callbacks(), 1u);
}

// --- analyzer arithmetic ---

TEST(TraceAnalyze, PercentileNearestRank) {
  std::vector<uint64_t> sample = {9, 1, 5, 3, 7, 2, 8, 4, 10, 6};
  EXPECT_EQ(telemetry::PercentileNearestRank(sample, 50), 5u);
  EXPECT_EQ(telemetry::PercentileNearestRank(sample, 90), 9u);
  EXPECT_EQ(telemetry::PercentileNearestRank(sample, 99), 10u);
  EXPECT_EQ(telemetry::PercentileNearestRank(sample, 0), 1u);
  EXPECT_EQ(telemetry::PercentileNearestRank(sample, 100), 10u);
  EXPECT_EQ(telemetry::PercentileNearestRank({}, 50), 0u);
  EXPECT_EQ(telemetry::PercentileNearestRank({42}, 99), 42u);
}

TEST(TraceAnalyze, SummaryCountsMatchADrivenRun) {
  GrubSystem system(Traced(), std::make_unique<MemorylessPolicy>(2));
  system.Preload(SmallFeed(8));
  auto trace = workload::FixedRatioTrace(/*ratio=*/4, /*ops=*/256, 32);
  system.Drive(trace);

  const auto summary = telemetry::Summarize(*system.Tracing());
  // Fault-free: every request answered, nothing starved, no recovery events.
  EXPECT_GT(summary.gets, 0u);
  EXPECT_EQ(summary.completed_gets, summary.gets);
  EXPECT_EQ(summary.open_gets, 0u);
  EXPECT_EQ(summary.total_retries, 0u);
  EXPECT_EQ(summary.deliver_drops, 0u);
  EXPECT_EQ(summary.watchdog_reemits, 0u);
  EXPECT_EQ(summary.reorgs, 0u);
  EXPECT_EQ(summary.unmatched_callbacks, 0u);
  EXPECT_EQ(summary.get_latency_blocks.count, summary.completed_gets);
  // Batch-size histogram covers every deliver span.
  uint64_t batches = 0;
  for (const auto& [size, count] : summary.deliver_batch_sizes) {
    batches += count;
  }
  EXPECT_EQ(batches, summary.delivers);
}

}  // namespace
}  // namespace grub::core
