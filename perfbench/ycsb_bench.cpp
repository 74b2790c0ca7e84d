// YCSB benchmark for GRuB: drives core::GrubSystem from outside, as one
// closed-loop caller in one thread, and prints one JSON object as the last
// line of standard output: the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). README.md in this directory
// explains the workloads, the metrics and the noise they carry.
//
//   perfbench_ycsb --workload ycsb-b --seed 1 --seconds 10 --trace 0
//
// Every run checks its own outputs and exits 1 without a result on any
// mismatch; usage errors exit 2.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ads/verify.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "grub/system.h"
#include "shard/forest.h"
#include "telemetry/percentile.h"
#include "workload/ycsb.h"

namespace grub::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using telemetry::PercentileNearestRankD;
using Records = std::vector<std::pair<Bytes, Bytes>>;

// §5.2's YCSB setup: 2^16 preloaded records. Record size and batching are
// grubctl's defaults (32 B values, 32 ops per tx, 1 tx per epoch), so Gas
// figures line up with `grubctl --workload ycsb:X --records 65536`.
constexpr uint64_t kRecords = 65536;
constexpr size_t kRecordBytes = 32;
// One step is one Drive call over an epoch-sized slice: one read group (the
// DU `run` tx and the SP's deliver) and one epoch update.
constexpr size_t kOpsPerStep = 32;
// Every percentile rests on at least this many samples.
constexpr size_t kMinSteps = 1000;
// setup_s is the median of this many constructions + preloads per run.
constexpr size_t kSetups = 5;
// The traced run alternates untraced and traced blocks of this many steps,
// so host drift hits both sides of bench.trace_overhead_frac alike.
constexpr size_t kTraceBlockSteps = 50;
// Ceiling on the traced steps' self time (the benchmark's own work between
// the spans), as a share of their wall time.
constexpr double kMaxSelfShare = 0.05;
// Size of the slice-vs-whole-trace self-check made before every run.
constexpr uint64_t kSelfCheckRecords = 4096;
constexpr size_t kSelfCheckSteps = 64;
// Fixed inputs of the after-pass probes.
constexpr size_t kProbeKeys = 1024;
constexpr size_t kHashBatches = 200;
constexpr size_t kHashBatchCalls = 1000;

struct Workload {
  const char* name;
  char ycsb_mix;        // YCSB core workload letter
  bool memorizing;      // memorizing:2,1, else memoryless:2
  size_t shards;        // range shards over the MakeKey keyspace
  // Each round is a fresh system that replays the run's trace: set-up, an
  // untimed warm-up so on-chain replicas converge (§5.1), then the timed
  // steps. A round's chain history, which the simulator never prunes, is
  // freed before the next.
  size_t rounds;
  size_t warmup_steps;
  // Whether the warm-up reaches the replicas' steady state. Then the timed
  // pass's two halves must cost the same Gas per op within
  // kConvergedGasFrac. memoryless:2 on YCSB-B keeps replicating the zipfian
  // tail for over 500K ops, past any warm-up a run can afford; there the
  // timed pass is the same stretch of that slow descent in every round.
  bool converges;
  // Timed Drive calls per second on the reference host. A run makes
  // --seconds x this many in all (at least kMinSteps per round): a fixed
  // count, so that Gas is exact for a seed.
  double steps_per_s;
};

// The two YCSB-B workloads share the policy and the trace, so the same
// warm-up leaves their replicas in the same state.
constexpr Workload kWorkloads[] = {
    {"ycsb-b", 'B', false, 1, 5, 1000, false, 1500},
    {"ycsb-b-16shard", 'B', false, 16, 1, 1000, false, 56},
    {"ycsb-a", 'A', true, 1, 3, 2000, true, 550},
};

// Seed noise alone puts converged halves up to 2.6% apart.
constexpr double kConvergedGasFrac = 0.04;

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string spans_path;  // traced runs: where the step spans go
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_ycsb: %s\n"
               "usage: perfbench_ycsb --workload ycsb-b|ycsb-b-16shard|ycsb-a"
               " --seed N --seconds S --trace 0|1 [--spans PATH]\n",
               why);
  std::exit(2);
}

[[noreturn]] void Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench_ycsb: FAILED: %s\n", why.c_str());
  std::exit(1);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing flag value");
      return argv[++i];
    };
    const std::string flag = argv[i];
    if (flag == "--workload") {
      const std::string name = next();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) Usage("unknown workload");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(next().c_str(), nullptr);
      if (!(args.seconds > 0 && args.seconds <= 600)) {
        Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--spans") {
      args.spans_path = next();
    } else {
      Usage("unknown flag");
    }
  }
  if (args.workload == nullptr) Usage("--workload is required");
  return args;
}

int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Shortest text that reads back as the same double: every measured digit.
std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

// --- run context ---

std::string CpuInfoField(const std::string& field) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

void PrintContext(const Args& args) {
  const std::string flags = " " + CpuInfoField("flags") + " ";
  std::printf("# workload %s, seed %llu, --seconds %s\n", args.workload->name,
              static_cast<unsigned long long>(args.seed),
              Num(args.seconds).c_str());
  std::printf("# host: %s, sha_ni %s, nproc %ld, load average %s\n",
              CpuInfoField("model name").c_str(),
              flags.find(" sha_ni ") != std::string::npos ? "yes" : "no",
              sysconf(_SC_NPROCESSORS_ONLN), LoadAverage().c_str());
  std::printf("# build: g++ %s, %s\n", __VERSION__, PERFBENCH_BUILD_TYPE);
}

// This thread's CPU time and the host's steal time beside wall time: a pass
// whose CPU time falls short of its wall time was descheduled or stolen from.
struct HostClocks {
  Clock::time_point wall;
  double thread_cpu_s = 0;
  uint64_t steal_ticks = 0;  // /proc/stat, all CPUs
  uint64_t all_ticks = 0;

  static HostClocks Now() {
    HostClocks c;
    c.wall = Clock::now();
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    c.thread_cpu_s = static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    for (int field = 0; field < 10; ++field) {
      uint64_t ticks = 0;
      in >> ticks;
      c.all_ticks += ticks;
      if (field == 7) c.steal_ticks = ticks;
    }
    return c;
  }

  static std::string Describe(const HostClocks& a, const HostClocks& b) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "thread CPU / wall %.3f, host steal %.2f%%",
                  (b.thread_cpu_s - a.thread_cpu_s) / Seconds(b.wall - a.wall),
                  100.0 * Ratio(b.steal_ticks - a.steal_ticks,
                                b.all_ticks - a.all_ticks));
    return buf;
  }
};

// --- inputs ---

// The operation stream of one round, generated step by step from the seed
// (the process never holds a whole trace) and folded into a digest that
// names the trace, so that a generator change reads as a new workload rather
// than as a speed change.
class TraceSource {
 public:
  TraceSource(const Workload& w, uint64_t records, uint64_t seed)
      : gen_(workload::YcsbConfig::ByName(w.ycsb_mix), records, kRecordBytes,
             seed) {}

  void Next(workload::Trace& slice) {
    slice.clear();
    gen_.Generate(kOpsPerStep, slice);
    for (const auto& op : slice) {
      const uint8_t type = static_cast<uint8_t>(op.type);
      digest_.Update(ByteSpan(&type, 1));
      digest_.Update(op.key);
      digest_.Update(op.value);
    }
  }

  // The digest of everything generated so far (ends the source).
  std::string DigestHex() { return digest_.Finish().Hex().substr(0, 16); }

 private:
  workload::YcsbGenerator gen_;
  Sha256 digest_;
};

// Every preloaded record holds the same value.
const Bytes& PreloadValue() {
  static const Bytes value(kRecordBytes, 0x11);
  return value;
}

// Built afresh for each Preload and freed after it, so peak_rss_mb holds
// no copy of the store beside the program's own.
Records PreloadRecords(uint64_t records) {
  Records preload;
  preload.reserve(records);
  for (uint64_t i = 0; i < records; ++i) {
    preload.emplace_back(workload::MakeKey(i), PreloadValue());
  }
  return preload;
}

std::unique_ptr<core::GrubSystem> MakeSystem(const Workload& w,
                                             uint64_t records) {
  core::SystemOptions options;  // instrumentation off: the defaults
  options.shard_boundaries = core::IndexedKeyBoundaries(records, w.shards);
  std::unique_ptr<core::ReplicationPolicy> policy;
  if (w.memorizing) {
    policy = std::make_unique<core::MemorizingPolicy>(2, 1);
  } else {
    policy = std::make_unique<core::MemorylessPolicy>(2);
  }
  return std::make_unique<core::GrubSystem>(options, std::move(policy));
}

// --- correctness ---

// Reference model of committed values. After every step it checks that
//  * each read's callback carried the value committed at the previous epoch
//    (a step's writes commit when its epoch closes), with no misses;
//  * each key written in the step is served by the SP under a proof that
//    verifies against the DO's root;
//  * the SP's root-of-roots equals the DO's.
// Any mismatch ends the run: exit 1, no result.
class Oracle {
 public:
  void CheckStep(core::GrubSystem& sys, const workload::Trace& slice) {
    core::ConsumerContract& consumer = sys.Consumer();
    std::vector<std::pair<Bytes, Bytes>> expected;
    for (const auto& op : slice) {
      if (op.type == workload::OpType::kRead) {
        expected.emplace_back(op.key, Committed(op.key));
      }
    }
    std::vector<std::pair<Bytes, Bytes>> received = consumer.received();
    std::sort(expected.begin(), expected.end());
    std::sort(received.begin(), received.end());
    if (received != expected || consumer.misses_received() != 0) {
      Fail("read callbacks differ from the committed values");
    }
    consumer.ClearReceived();

    std::set<Bytes> written;
    for (const auto& op : slice) {
      if (op.type == workload::OpType::kWrite) {
        written_[op.key] = op.value;
        written.insert(op.key);
      }
    }
    shard::ShardedAdsSp& sp = sys.ShardedSp();
    const Hash256 root = sys.Do().Root();
    if (sp.RootOfRoots() != root) {
      Fail("SP root-of-roots differs from the DO's");
    }
    if (!written.empty()) {
      std::vector<Hash256> shard_roots;
      for (size_t s = 0; s < sp.ShardCount(); ++s) {
        shard_roots.push_back(sp.ShardRoot(s));
      }
      for (const Bytes& key : written) {
        const auto proof = sp.Get(key);
        const uint32_t s = sys.Shards().ShardOf(key);
        if (!proof.ok() || proof->record.key != key ||
            proof->record.value != Committed(key) ||
            !shard::VerifyForestQuery(root, sp.ShardCount(), s,
                                      shard_roots[s],
                                      shard::RollupPath(shard_roots, s),
                                      *proof)) {
          Fail("a committed write is not served under a valid proof");
        }
      }
    }
    ok_ops_ += slice.size();
  }

  uint64_t ok_ops() const { return ok_ops_; }

 private:
  // The trace reads and writes only preloaded keys, so a key never written
  // still holds its preloaded value.
  const Bytes& Committed(const Bytes& key) const {
    const auto it = written_.find(key);
    return it == written_.end() ? PreloadValue() : it->second;
  }

  std::map<Bytes, Bytes> written_;  // committed values of written keys
  uint64_t ok_ops_ = 0;
};

// --- the traced step ---

// Layer boundaries of one step, each a public entry point of the program.
enum Layer : uint8_t {
  kPolicy,    // DoClient::NoteRead, GrubSystem::Write (once per op)
  kRunTx,     // Blockchain::SubmitAndMine of the DU `run` tx
  kServe,     // SpQuorum::PollAndServe until it returns 0
  kLiveness,  // DoClient::CheckReadLiveness
  kEpoch,     // DoClient::EndEpoch
  kNumLayers,
};

constexpr const char* kLayerNames[kNumLayers] = {
    "grub.policy", "chain.run_tx", "grub.sp.serve", "grub.do.liveness",
    "grub.do.epoch"};

struct Span {
  Layer layer;
  Clock::time_point start;
  Clock::time_point end;
};

// One traced step: its wall interval and each layer's busy time and calls.
struct StepTrace {
  Clock::time_point start;
  Clock::time_point end;
  std::array<int64_t, kNumLayers> busy_ns{};
  std::array<uint32_t, kNumLayers> calls{};
  uint64_t served = 0;  // requests the SP served (PollAndServe returns)

  int64_t wall_ns() const { return Nanos(end - start); }
  int64_t self_ns() const {
    int64_t busy = 0;
    for (int64_t b : busy_ns) busy += b;
    return wall_ns() - busy;
  }
};

// The calls GrubSystem::Drive makes for one slice, in the same order,
// through public entry points, with a span around each layer boundary.
// Valid for what this benchmark drives: no scans, a constant gas price, and
// a slice of exactly ops_per_tx ops with one tx per epoch, so the slice
// closes one read group and one epoch. The self-check pins the equivalence.
StepTrace TracedDrive(core::GrubSystem& sys, const workload::Trace& slice,
                      std::vector<Span>& spans) {
  spans.clear();
  auto timed = [&](Layer layer, auto&& call) {
    const auto a = Clock::now();
    call();
    spans.push_back(Span{layer, a, Clock::now()});
  };
  StepTrace step;
  step.start = Clock::now();
  for (const auto& op : slice) {
    if (op.type == workload::OpType::kWrite) {
      timed(kPolicy, [&] { sys.Write(op.key, op.value); });
    } else {
      timed(kPolicy, [&] { sys.Do().NoteRead(op.key); });
      sys.Consumer().QueueRead(op.key);
    }
  }
  if (sys.Consumer().QueuedCount() > 0) {
    chain::Transaction tx;
    tx.from = core::GrubSystem::kUserAccount;
    tx.to = sys.ConsumerAddress();
    tx.function = core::ConsumerContract::kRunFn;
    tx.cause = telemetry::GasCause::kGGetSync;
    tx.calldata =
        core::ConsumerContract::EncodeRun(sys.Consumer().QueuedCount());
    timed(kRunTx, [&] { sys.Chain().SubmitAndMine(std::move(tx)); });
    timed(kServe, [&] {
      while (const size_t served = sys.Quorum().PollAndServe()) {
        step.served += served;
      }
    });
    timed(kLiveness, [&] { sys.Do().CheckReadLiveness(); });
  }
  timed(kEpoch, [&] { sys.Do().EndEpoch(); });
  step.end = Clock::now();

  // The spans follow one another inside the step, so the layers' busy time
  // plus the step's self time is its wall time.
  for (const Span& s : spans) {
    step.busy_ns[s.layer] += Nanos(s.end - s.start);
    step.calls[s.layer] += 1;
  }
  return step;
}

// --- one measured system ---

uint64_t RetryCount(core::GrubSystem& sys) {
  uint64_t retries = sys.Do().update_retries() + sys.Do().watchdog_reemits();
  for (size_t i = 0; i < sys.Quorum().ReplicaCount(); ++i) {
    retries += sys.Quorum().Replica(i).deliver_retries();
  }
  return retries;
}

// What timed steps measured: one round's, or in a traced run all rounds'.
// Counts are exact and read from public accessors; times are wall-clock.
struct Tally {
  uint64_t ops = 0;
  uint64_t ok_ops = 0;
  uint64_t reads = 0;
  uint64_t gas = 0;
  uint64_t epochs = 0;
  uint64_t touched_shards = 0;
  uint64_t txs = 0;
  uint64_t delivers = 0;
  uint64_t deliver_bytes = 0;
  uint64_t update_bytes = 0;
  uint64_t requests = 0;  // gGet misses the SP had to answer
  uint64_t served = 0;    // traced runs: PollAndServe's own count
  uint64_t retries = 0;
  std::vector<double> step_us;
  std::vector<uint64_t> step_gas;
  std::vector<StepTrace> traced;

  double busy_s() const {
    double us = 0;
    for (double s : step_us) us += s;
    return us / 1e6;
  }

  // Runs of one trace must agree on every count.
  bool SameCounts(const Tally& o) const {
    return ops == o.ops && ok_ops == o.ok_ops && reads == o.reads &&
           gas == o.gas && epochs == o.epochs &&
           touched_shards == o.touched_shards && txs == o.txs &&
           delivers == o.delivers && deliver_bytes == o.deliver_bytes &&
           update_bytes == o.update_bytes && requests == o.requests &&
           retries == o.retries;
  }
};

// One system with its trace, oracle and pass counters.
class Runner {
 public:
  Runner(const Workload& w, uint64_t seed,
         std::unique_ptr<core::GrubSystem> sys)
      : sys_(std::move(sys)), source_(w, kRecords, seed) {}

  core::GrubSystem& sys() { return *sys_; }
  std::string TraceDigest() { return source_.DigestHex(); }

  void WarmUp(size_t steps) {
    for (size_t i = 0; i < steps; ++i) {
      source_.Next(slice_);
      sys_->Drive(slice_);
      oracle_.CheckStep(*sys_, slice_);
    }
    gas0_ = last_gas_ = sys_->TotalGas();
    block0_ = sys_->Chain().Blocks().size();
    log0_ = sys_->Chain().NextLogIndex();
    retries0_ = RetryCount(*sys_);
    ok0_ = oracle_.ok_ops();
  }

  // One timed Drive call over the next slice; checks run after the clock
  // stops.
  void Step(Tally& tally) {
    source_.Next(slice_);
    const auto t0 = Clock::now();
    const std::vector<core::EpochGas> epochs = sys_->Drive(slice_);
    const auto t1 = Clock::now();
    tally.step_us.push_back(Seconds(t1 - t0) * 1e6);
    tally.epochs += epochs.size();
    for (const auto& e : epochs) tally.touched_shards += e.touched_shards;
    Account(tally);
  }

  void TracedStep(Tally& tally) {
    source_.Next(slice_);
    StepTrace step = TracedDrive(*sys_, slice_, spans_);
    tally.step_us.push_back(static_cast<double>(step.wall_ns()) / 1e3);
    tally.served += step.served;
    tally.epochs += 1;
    tally.touched_shards += sys_->Do().LastEpochTouchedShards();
    tally.traced.push_back(step);
    Account(tally);
  }

  // Adds the pass's exact counters to the tally.
  void Finish(Tally& tally) const {
    const chain::Blockchain& chain = sys_->Chain();
    const auto& blocks = chain.Blocks();
    for (size_t b = block0_; b < blocks.size(); ++b) {
      for (const auto& tx : blocks[b].transactions) {
        tally.txs += 1;
        if (tx.function == core::StorageManagerContract::kDeliverFn) {
          tally.delivers += 1;
          tally.deliver_bytes += tx.calldata.size();
        } else if (tx.function == core::StorageManagerContract::kUpdateFn) {
          tally.update_bytes += tx.calldata.size();
        }
      }
    }
    for (const auto& ev : chain.EventsSince(log0_)) {
      if (ev.name == core::StorageManagerContract::kRequestEvent) {
        tally.requests += 1;
      }
    }
    tally.gas += sys_->TotalGas() - gas0_;
    tally.retries += RetryCount(*sys_) - retries0_;
    tally.ok_ops += oracle_.ok_ops() - ok0_;
  }

 private:
  void Account(Tally& tally) {
    oracle_.CheckStep(*sys_, slice_);
    const uint64_t gas = sys_->TotalGas();
    tally.step_gas.push_back(gas - last_gas_);
    last_gas_ = gas;
    tally.ops += slice_.size();
    for (const auto& op : slice_) {
      if (op.type == workload::OpType::kRead) tally.reads += 1;
    }
  }

  std::unique_ptr<core::GrubSystem> sys_;
  TraceSource source_;
  Oracle oracle_;
  workload::Trace slice_;
  std::vector<Span> spans_;
  uint64_t gas0_ = 0;
  uint64_t last_gas_ = 0;
  size_t block0_ = 0;
  uint64_t log0_ = 0;
  uint64_t retries0_ = 0;
  uint64_t ok0_ = 0;
};

// Every round replays the same steps, so each round times at least
// kMinSteps distinct ones.
size_t StepsPerRound(const Args& args) {
  const Workload& w = *args.workload;
  const double steps = std::ceil(args.seconds * w.steps_per_s /
                                 static_cast<double>(w.rounds));
  return std::max(kMinSteps, static_cast<size_t>(steps));
}

// --- self-check ---

bool SameOutcome(core::GrubSystem& a, core::GrubSystem& b) {
  const chain::GasBreakdown& x = a.TotalBreakdown();
  const chain::GasBreakdown& y = b.TotalBreakdown();
  return a.TotalGas() == b.TotalGas() && x.tx == y.tx &&
         x.storage_insert == y.storage_insert &&
         x.storage_update == y.storage_update &&
         x.storage_read == y.storage_read && x.hash == y.hash &&
         x.log == y.log && x.other == y.other &&
         a.Do().Root() == b.Do().Root() &&
         a.Consumer().received() == b.Consumer().received() &&
         a.Consumer().misses_received() == b.Consumer().misses_received();
}

// On a small store, Drive over epoch slices and the traced step's call
// sequence must each match one Drive over the whole trace exactly: Gas, the
// Gas breakdown, the DO root and the consumer's results. step_* relies on
// the first equality, the traced run on the second.
void SelfCheck(const Workload& w, uint64_t seed) {
  const Records preload = PreloadRecords(kSelfCheckRecords);
  TraceSource source(w, kSelfCheckRecords, seed);
  std::vector<workload::Trace> slices(kSelfCheckSteps);
  workload::Trace whole;
  for (auto& slice : slices) {
    source.Next(slice);
    whole.insert(whole.end(), slice.begin(), slice.end());
  }
  auto reference = MakeSystem(w, kSelfCheckRecords);
  reference->Preload(preload);
  reference->Drive(whole);

  auto sliced = MakeSystem(w, kSelfCheckRecords);
  sliced->Preload(preload);
  for (const auto& slice : slices) sliced->Drive(slice);
  if (!SameOutcome(*sliced, *reference)) {
    Fail("self-check: Drive over epoch slices differs from one Drive");
  }

  auto traced = MakeSystem(w, kSelfCheckRecords);
  traced->Preload(preload);
  std::vector<Span> spans;
  for (const auto& slice : slices) TracedDrive(*traced, slice, spans);
  if (!SameOutcome(*traced, *reference)) {
    Fail("self-check: the traced call sequence differs from Drive");
  }
}

// --- probes after the pass ---

// Median ns per call of `fn` over kHashBatches batches.
template <typename Fn>
double NsPerCall(Fn&& fn) {
  std::vector<double> batch_ns;
  for (size_t b = 0; b < kHashBatches; ++b) {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < kHashBatchCalls; ++i) fn();
    batch_ns.push_back(static_cast<double>(Nanos(Clock::now() - t0)) /
                       kHashBatchCalls);
  }
  return PercentileNearestRankD(batch_ns, 50);
}

struct Probes {
  double hash_node_ns = 0;
  double leaf_hash_ns = 0;
  double prove_us = 0;
  double verify_us = 0;
};

// Fixed inputs: a hash chain through HashNode / HashLeafData, and proofs of
// every 64th preloaded key against the system's final state.
Probes RunProbes(core::GrubSystem& sys) {
  Probes p;
  Hash256 h = MerkleTree::EmptyLeaf();
  p.hash_node_ns = NsPerCall([&] { h = MerkleTree::HashNode(h, h); });
  Bytes leaf(
      ads::FeedRecord{workload::MakeKey(0), PreloadValue(), ads::ReplState::kNR}
          .Serialize());
  p.leaf_hash_ns = NsPerCall([&] {
    h = MerkleTree::HashLeafData(leaf);
    leaf[0] ^= h.bytes[0] & 1;  // feeds each result into the next call
  });

  shard::ShardedAdsSp& sp = sys.ShardedSp();
  std::vector<double> prove_us, verify_us;
  for (size_t i = 0; i < kProbeKeys; ++i) {
    const Bytes key = workload::MakeKey(i * (kRecords / kProbeKeys));
    const auto t0 = Clock::now();
    const auto proof = sp.Get(key);
    const auto t1 = Clock::now();
    if (!proof.ok()) Fail("probe key has no proof");
    const Hash256 root = sp.ShardRoot(sys.Shards().ShardOf(key));
    const auto t2 = Clock::now();
    const bool ok = ads::VerifyQuery(root, *proof);
    const auto t3 = Clock::now();
    if (!ok) Fail("probe proof does not verify");
    prove_us.push_back(Seconds(t1 - t0) * 1e6);
    verify_us.push_back(Seconds(t3 - t2) * 1e6);
  }
  p.prove_us = PercentileNearestRankD(prove_us, 50);
  p.verify_us = PercentileNearestRankD(verify_us, 50);
  return p;
}

// --- output ---

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + name + "\": {\"value\": " + Num(value) + ", \"unit\": \"" +
             unit + "\"}";
  }

  void Print(uint64_t attempted, uint64_t ok) const {
    std::printf(
        "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(attempted - ok), body_.c_str());
  }

 private:
  std::string body_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- the two kinds of run ---

// Each step's fastest time over the round replays. The replays make the
// same calls on the same data, so the minimum strips what the host's
// scheduling added to a step.
std::vector<double> FastestReplay(const std::vector<Tally>& rounds) {
  std::vector<double> best = rounds.front().step_us;
  for (const Tally& t : rounds) {
    for (size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], t.step_us[i]);
    }
  }
  return best;
}

// Builds a system and preloads it with records made for this call and freed
// on return. `seconds`, if given, receives the time of the two.
std::unique_ptr<core::GrubSystem> SetUp(const Workload& w, double* seconds) {
  const Records preload = PreloadRecords(kRecords);
  const auto t0 = Clock::now();
  auto sys = MakeSystem(w, kRecords);
  sys->Preload(preload);
  if (seconds != nullptr) *seconds = Seconds(Clock::now() - t0);
  return sys;
}

// Gas per op of each half of a round's timed pass. A converging workload
// whose halves differ by more than kConvergedGasFrac is still in its
// transient, so the run fails.
void CheckConvergence(const Workload& w, const Tally& t) {
  const size_t half = t.step_gas.size() / 2;
  uint64_t gas[2] = {0, 0};
  for (size_t i = 0; i < t.step_gas.size(); ++i) {
    gas[i < half ? 0 : 1] += t.step_gas[i];
  }
  const double first = Ratio(gas[0], half * kOpsPerStep);
  const double second =
      Ratio(gas[1], (t.step_gas.size() - half) * kOpsPerStep);
  std::printf("# gas_per_op by half of the timed pass: %.1f, %.1f (%+.2f%%)\n",
              first, second, 100.0 * (second / first - 1));
  if (w.converges && std::abs(second - first) > kConvergedGasFrac * first) {
    Fail("Gas per op still moves after the warm-up: replicas not converged");
  }
}

void RunEndToEnd(const Args& args) {
  const Workload& w = *args.workload;
  const size_t steps = StepsPerRound(args);
  std::printf("# peak rss before the first full-size system: %.1f MB\n",
              PeakRssMb());
  std::vector<Tally> rounds;
  std::vector<double> setup_s;
  std::string digest;
  for (size_t r = 0; r < std::max(kSetups, w.rounds); ++r) {
    auto sys = SetUp(w, &setup_s.emplace_back());
    if (r >= w.rounds) continue;
    Runner runner(w, args.seed, std::move(sys));
    runner.WarmUp(w.warmup_steps);
    Tally& t = rounds.emplace_back();
    const HostClocks before = HostClocks::Now();
    for (size_t i = 0; i < steps; ++i) runner.Step(t);
    const HostClocks after = HostClocks::Now();
    runner.Finish(t);
    digest = runner.TraceDigest();
    if (t.ok_ops != t.ops) Fail("not every operation was verified");
    if (!t.SameCounts(rounds.front())) Fail("round replays differ in counts");
    std::printf("# round %zu: ops_per_s %.1f; %s\n", r,
                static_cast<double>(t.ops) / t.busy_s(),
                HostClocks::Describe(before, after).c_str());
  }
  CheckConvergence(w, rounds.front());

  const std::vector<double> best = FastestReplay(rounds);
  double best_s = 0;
  for (double us : best) best_s += us / 1e6;
  const Tally& first = rounds.front();
  const uint64_t attempted = first.ops * rounds.size();
  std::printf("# trace digest %s: %zu warm-up + %zu timed steps of %zu ops, "
              "replayed in %zu rounds\n",
              digest.c_str(), w.warmup_steps, steps, kOpsPerStep, w.rounds);
  std::printf("# ops_per_s, step_p50_us, step_p99_us: %zu steps, each the "
              "fastest of %zu replays; setup_s: median of %zu; load average "
              "%s\n",
              best.size(), rounds.size(), setup_s.size(),
              LoadAverage().c_str());
  MetricsJson m;
  m.Add("ops_per_s", static_cast<double>(first.ops) / best_s, "1/s");
  m.Add("step_p50_us", PercentileNearestRankD(best, 50), "us");
  m.Add("step_p99_us", PercentileNearestRankD(best, 99), "us");
  m.Add("gas_per_op", Ratio(first.gas, first.ops), "gas");
  m.Add("setup_s", PercentileNearestRankD(setup_s, 50), "s");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  m.Add("ok_ops_frac", Ratio(first.ok_ops, first.ops), "1");
  m.Print(attempted, attempted);
}

void WriteSpans(const std::string& path, const std::vector<StepTrace>& steps) {
  if (path.empty() || steps.empty()) return;
  std::ofstream out(path);
  const Clock::time_point origin = steps.front().start;
  for (size_t i = 0; i < steps.size(); ++i) {
    const StepTrace& s = steps[i];
    out << "{\"step\": " << i << ", \"start_ns\": " << Nanos(s.start - origin)
        << ", \"wall_ns\": " << s.wall_ns() << ", \"self_ns\": " << s.self_ns();
    for (size_t l = 0; l < kNumLayers; ++l) {
      out << ", \"" << kLayerNames[l] << "\": [" << s.busy_ns[l] << ", "
          << s.calls[l] << "]";
    }
    out << "}\n";
  }
  if (!out) Fail("cannot write " + path);
}

void RunTraced(const Args& args) {
  const Workload& w = *args.workload;
  const size_t steps = StepsPerRound(args);
  Tally plain, traced;  // summed over the rounds
  Probes probes;
  std::string digest;
  for (size_t r = 0; r < w.rounds; ++r) {
    auto a = std::make_unique<Runner>(w, args.seed, SetUp(w, nullptr));
    auto b = std::make_unique<Runner>(w, args.seed, SetUp(w, nullptr));
    a->WarmUp(w.warmup_steps);
    b->WarmUp(w.warmup_steps);
    for (size_t i = 0; i < steps; i += kTraceBlockSteps) {
      const size_t end = std::min(steps, i + kTraceBlockSteps);
      for (size_t j = i; j < end; ++j) a->Step(plain);
      for (size_t j = i; j < end; ++j) b->TracedStep(traced);
    }
    a->Finish(plain);
    b->Finish(traced);
    digest = b->TraceDigest();
    if (r + 1 == w.rounds) probes = RunProbes(b->sys());
  }

  // The traced run must be the same program run as the untraced one, down
  // to every count; PollAndServe's own count must match the chain's.
  if (!traced.SameCounts(plain) || traced.served != plain.requests ||
      traced.ok_ops != traced.ops) {
    Fail("traced run does not reproduce the untraced run");
  }
  std::array<int64_t, kNumLayers> busy{};
  int64_t wall = 0, self = 0;
  std::array<std::vector<double>, kNumLayers> per_step_us;
  for (const StepTrace& s : traced.traced) {
    wall += s.wall_ns();
    self += s.self_ns();
    for (size_t l = 0; l < kNumLayers; ++l) {
      busy[l] += s.busy_ns[l];
      if (s.calls[l] > 0) {
        per_step_us[l].push_back(static_cast<double>(s.busy_ns[l]) / 1e3);
      }
    }
  }
  // The spans must cover the step. Self time is the benchmark's own work
  // between the calls (queueing reads, building the run tx); a larger share
  // means the call sequence does work outside the layers it reports.
  if (static_cast<double>(self) >
      kMaxSelfShare * static_cast<double>(wall)) {
    Fail("the layer spans leave too much of the step's wall time uncovered");
  }
  WriteSpans(args.spans_path, traced.traced);

  const double ops = static_cast<double>(traced.ops);
  auto per_op = [&](int64_t ns) { return static_cast<double>(ns) / ops; };
  auto pct = [&](Layer l, double p) {
    return PercentileNearestRankD(per_step_us[l], p);
  };
  std::printf("# trace digest %s: %zu warm-up + %zu timed steps of %zu ops, "
              "replayed in %zu rounds; load average %s\n",
              digest.c_str(), w.warmup_steps, steps, kOpsPerStep, w.rounds,
              LoadAverage().c_str());
  auto row = [&](const char* name, int64_t ns) {
    std::printf("#   %-16s %5.1f%%  %.1f\n", name,
                100.0 * static_cast<double>(ns) / static_cast<double>(wall),
                per_op(ns));
  };
  std::printf("# layer            share  ns/op   (wall %.1f ns/op)\n",
              per_op(wall));
  for (size_t l = 0; l < kNumLayers; ++l) row(kLayerNames[l], busy[l]);
  row("bench.driver", self);
  std::printf("# percentiles: chain.run_tx %zu, grub.sp.serve %zu, "
              "grub.do.epoch %zu samples; probes: %zu keys, %zu x %zu hash "
              "calls\n",
              per_step_us[kRunTx].size(), per_step_us[kServe].size(),
              per_step_us[kEpoch].size(), kProbeKeys, kHashBatches,
              kHashBatchCalls);

  MetricsJson m;
  m.Add("grub.policy.ns_per_op", per_op(busy[kPolicy]), "ns");
  m.Add("chain.run_tx.ns_per_op", per_op(busy[kRunTx]), "ns");
  m.Add("chain.run_tx.p50_us", pct(kRunTx, 50), "us");
  m.Add("grub.sp.serve.ns_per_op", per_op(busy[kServe]), "ns");
  m.Add("grub.sp.serve.p50_us", pct(kServe, 50), "us");
  m.Add("grub.sp.serve.p99_us", pct(kServe, 99), "us");
  m.Add("grub.do.epoch.ns_per_op", per_op(busy[kEpoch]), "ns");
  m.Add("grub.do.epoch.p50_us", pct(kEpoch, 50), "us");
  m.Add("grub.do.epoch.p99_us", pct(kEpoch, 99), "us");
  m.Add("grub.do.liveness.ns_per_op", per_op(busy[kLiveness]), "ns");
  m.Add("bench.driver.ns_per_op", per_op(self), "ns");
  m.Add("bench.trace_overhead_frac", traced.busy_s() / plain.busy_s() - 1,
        "1");
  m.Add("crypto.hash_node_ns", probes.hash_node_ns, "ns");
  m.Add("crypto.leaf_hash_ns", probes.leaf_hash_ns, "ns");
  m.Add("ads.prove_us", probes.prove_us, "us");
  m.Add("ads.verify_us", probes.verify_us, "us");
  m.Add("grub.sp.requests_per_op", Ratio(traced.requests, traced.ops), "1/op");
  m.Add("grub.sp.delivers_per_op", Ratio(traced.delivers, traced.ops), "1/op");
  m.Add("chain.onchain_read_frac",
        1.0 - Ratio(traced.requests, traced.reads), "1");
  m.Add("chain.txs_per_op", Ratio(traced.txs, traced.ops), "1/op");
  m.Add("grub.codec.deliver_bytes_per_op",
        Ratio(traced.deliver_bytes, traced.ops), "B/op");
  m.Add("grub.codec.update_bytes_per_op",
        Ratio(traced.update_bytes, traced.ops), "B/op");
  m.Add("shard.touched_per_epoch",
        Ratio(traced.touched_shards, traced.epochs), "1/epoch");
  m.Add("grub.retries_per_op", Ratio(traced.retries, traced.ops), "1/op");
  m.Print(traced.ops, traced.ok_ops);
}

}  // namespace
}  // namespace grub::perfbench

int main(int argc, char** argv) {
  using namespace grub::perfbench;
  const Args args = ParseArgs(argc, argv);
  PrintContext(args);
  std::fflush(stdout);
  SelfCheck(*args.workload, args.seed);
  if (args.trace) {
    RunTraced(args);
  } else {
    RunEndToEnd(args);
  }
  return 0;
}
