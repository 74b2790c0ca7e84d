// grubctl — run a GRuB cost experiment from the command line.
//
// Examples:
//   grubctl --policy memoryless:2 --workload ratio:16 --ops 512
//   grubctl --policy memorizing:2,1 --workload oracle
//   grubctl --policy bl2 --workload ycsb:A,B --records 4096 ...
//           --record-bytes 256 --key-space 256 --ops 2048
//   grubctl --policy memoryless:4 --workload btcrelay --epoch-txs 4
//
// Prints the per-epoch Gas/op series, the aggregate Gas breakdown, and the
// replication activity — everything needed to eyeball a new policy or
// workload without writing a bench.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "chain/price.h"
#include "grub/system.h"
#include "lab/leaderboard.h"
#include "lab/scenario.h"
#include "telemetry/json.h"
#include "tier/cost.h"
#include "tier/placement.h"
#include "tier/tier.h"
#include "telemetry/profile.h"
#include "telemetry/report.h"
#include "telemetry/table.h"
#include "telemetry/trace_analyze.h"
#include "workload/synthetic.h"
#include "workload/ycsb.h"

namespace {

using namespace grub;

struct Args {
  std::string policy = "memoryless:2";
  bool policy_set = false;  // --policy given explicitly (leaderboard filter)
  std::string tier;  // empty = the binary --policy path
  std::string workload = "ratio:4";
  std::string price;     // GasPriceSchedule spec; empty = unit (constant)
  std::string scenario;  // scenario-lab condition; overrides workload/price
  bool leaderboard = false;  // run the policy x scenario matrix and exit
  bool scale_set = false;    // any scale flag given (leaderboard scale)
  size_t records = 1024;
  size_t record_bytes = 32;
  size_t key_space = 0;  // 0 = records
  size_t ops = 1024;
  size_t ops_per_tx = 32;
  size_t txs_per_epoch = 1;
  bool range_scans = false;
  bool converged = false;  // warm-up pass before measuring
  bool telemetry = false;
  bool gas_breakdown = false;
  std::string metrics_out;      // implies telemetry; .csv = CSV, else JSONL
  std::string trace_out;        // implies tracing; .json = Chrome, else JSONL
  bool trace_summary = false;   // implies tracing
  std::string faults;           // fault schedule (FaultInjector::Parse)
  uint64_t fault_seed = 42;
  size_t sps = 1;        // SP watchdog replicas (quorum; 1 = classic)
  std::string adversary;  // per-replica Byzantine spec (fault::ParseMulti)
  size_t shards = 1;     // Merkle-forest shard count (1 = legacy single tree)
  std::string feeds;     // comma-separated workload specs -> multi-feed run
  bool workload_report = false;  // bare --workload: observatory table
  uint64_t watch = 0;    // stream one observatory JSONL line every N blocks
  bool profile = false;  // hot-path probe table (wall-clock, text only)
  bool json = false;  // machine-readable summary instead of the text report
  bool help = false;
};

void PrintUsage() {
  std::puts(
      "usage: grubctl [options]\n"
      "  --policy P      bl1 | bl2 | memoryless:K | memorizing:K,D |\n"
      "                  adaptive-k1 | adaptive-k2 | windowed-k[:K0[,W]] |\n"
      "                  price-ewma[:K0[,A]] | offline\n"
      "                                                   (default memoryless:2)\n"
      "  --tier T        pin every key to one storage tier, or adapt:\n"
      "                  storage | log | calldata | offchain | adaptive —\n"
      "                  overrides --policy (storage ≡ bl2, offchain ≡ bl1\n"
      "                  Gas-exactly; adaptive picks per key by the 4-way\n"
      "                  cost argmin) and appends a placement: summary line\n"
      "  --workload [W]  ratio:R | ycsb:X | ycsb:X,Y | oracle | btcrelay\n"
      "                  (default ratio:4); BARE --workload (no value) keeps\n"
      "                  the default spec and appends the workload-observatory\n"
      "                  table (per-shard heat, hot keys, K estimates, flip\n"
      "                  regret, gas drift) to the text report\n"
      "  --price S       time-varying gas-price schedule applied at block\n"
      "                  granularity: constant[:E[,S]] | step:START,LEN,E,S |\n"
      "                  ramp:START,LEN,E,S | square:PERIOD,E,S |\n"
      "                  regime:SEED,PERIOD,E,S — E/S are exec/storage\n"
      "                  multipliers in milli (>= 1000; 1000 = 1.0x). The\n"
      "                  surcharge is attributed to cause price-shift; a\n"
      "                  unit schedule ('constant') is byte-identical to no\n"
      "                  --price at all. 'offline' under a non-unit schedule\n"
      "                  replays it price-aware (probe-calibrated)\n"
      "  --scenario N    run a registered scenario-lab condition: its trace,\n"
      "                  calibrated price schedule, adversary and quorum\n"
      "                  replace --workload/--price/--adversary/--sps; the\n"
      "                  scale flags below still size the run. With\n"
      "                  --leaderboard: restrict the matrix to scenario N.\n"
      "                  Incompatible with --feeds (both pick the workload)\n"
      "  --leaderboard   run the policy x scenario leaderboard (gas + regret\n"
      "                  vs the price-aware offline optimal per cell) and\n"
      "                  exit; --scenario / an explicit --policy filter the\n"
      "                  matrix. Bench quick scale (256 records / 512 ops)\n"
      "                  unless any scale flag is given. Text table, or a\n"
      "                  'leaderboard' JSON document under --json\n"
      "  --records N     preloaded store size              (default 1024)\n"
      "  --record-bytes N value size                       (default 32)\n"
      "  --key-space N   hot working subset for YCSB       (default = records)\n"
      "  --ops N         operations to drive (ratio/ycsb)  (default 1024)\n"
      "  --ops-per-tx N  operations per transaction        (default 32)\n"
      "  --epoch-txs N   transactions per epoch            (default 1)\n"
      "  --range-scans   serve scans with range proofs\n"
      "  --converged     measure a second pass after a warm-up pass\n"
      "  --telemetry     attach the telemetry subsystem (per-epoch Gas\n"
      "                  series)\n"
      "  --gas-breakdown print the chain's component x cause Gas matrix\n"
      "  --metrics-out F write the per-epoch attribution series to F —\n"
      "                  CSV if F ends in .csv, JSON-lines otherwise\n"
      "                  (implies --telemetry)\n"
      "  --trace-out F   write the request-scoped trace to F — Chrome\n"
      "                  trace-event JSON (Perfetto-loadable) if F ends in\n"
      "                  .json, JSON-lines otherwise (implies tracing)\n"
      "  --trace-summary print gGet latency-in-blocks percentiles, deliver\n"
      "                  batch sizes, retry chains, and per-key flip counts\n"
      "                  with regret vs the offline-optimal policy (implies\n"
      "                  tracing)\n"
      "  --faults S      fault schedule, e.g.\n"
      "                  'sp.deliver.drop@3,chain.reorg~0.05' — rules are\n"
      "                  point@N (Nth hit), point%%N (every Nth), point~P\n"
      "                  (probability P), point* (always); suffixes xM (max\n"
      "                  fires) and +S (skip first S hits)\n"
      "  --fault-seed N  seed for probabilistic fault rules  (default 42);\n"
      "                  same seed + schedule reproduces the run exactly\n"
      "  --sps N         SP watchdog replicas (1..8, default 1); the quorum\n"
      "                  coordinator blacklists a replica after verified\n"
      "                  proof rejections or a liveness stall and fails over\n"
      "                  deterministically. N=1 is Gas-identical to classic\n"
      "  --adversary S   per-replica Byzantine spec, e.g. 'forge@2' or\n"
      "                  '0:omit*;1:replay@1' — classes forge, truncate,\n"
      "                  stale-root, equivocate, omit, replay with the\n"
      "                  --faults rule grammar; '<i>:' prefixes bind a rule\n"
      "                  group to replica i (bare group = replica 0);\n"
      "                  seeded by --fault-seed\n"
      "  --shards N      partition the keyspace into N Merkle-forest shards\n"
      "                  (default 1 = the legacy single tree, Gas-identical);\n"
      "                  boundaries are the preloaded-key quantiles\n"
      "  --feeds LIST    comma-separated workload specs (--workload grammar);\n"
      "                  deploys one isolated feed per spec on a SHARED chain\n"
      "                  (own contracts/accounts/shards) and reports per-feed\n"
      "                  Gas. Each feed is built as a --workload run would be:\n"
      "                  --policy, --tier, --records, --shards, --price,\n"
      "                  --range-scans, --sps, --adversary and --faults apply.\n"
      "                  Flags whose output the multi-feed report lacks exit\n"
      "                  2: --converged, --telemetry, --gas-breakdown,\n"
      "                  --metrics-out, --trace-out, --trace-summary, --watch\n"
      "                  and --profile\n"
      "  --watch N       stream one deterministic workload-observatory JSONL\n"
      "                  snapshot line ('{\"block\":...') to stdout every N\n"
      "                  blocks while driving; same seed + flags reproduce\n"
      "                  the stream byte-for-byte. Incompatible with --json\n"
      "                  and --feeds\n"
      "  --profile       enable the hot-path profiling probes (Merkle\n"
      "                  rebuild and update, sha256, codec) and\n"
      "                  append the count/total/max ns table to the text\n"
      "                  report — wall-clock, so never part of --json or\n"
      "                  --watch output\n"
      "  --json          print one machine-readable JSON summary on stdout\n"
      "                  instead of the text report:\n"
      "                  gas totals, component x cause breakdown, per-epoch\n"
      "                  series, activity and robustness counters, and the\n"
      "                  pinned workload.observatory section\n");
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--policy")) {
      args.policy = next("--policy");
      args.policy_set = true;
    } else if (!std::strcmp(argv[i], "--price")) {
      args.price = next("--price");
    } else if (!std::strcmp(argv[i], "--scenario")) {
      args.scenario = next("--scenario");
    } else if (!std::strcmp(argv[i], "--leaderboard")) {
      args.leaderboard = true;
    } else if (!std::strcmp(argv[i], "--tier")) {
      args.tier = next("--tier");
    } else if (!std::strcmp(argv[i], "--workload")) {
      // Bare `--workload` (no value, or the next token is another flag)
      // requests the workload-observatory table; with a value it stays the
      // workload spec selector.
      if (i + 1 >= argc || !std::strncmp(argv[i + 1], "--", 2)) {
        args.workload_report = true;
      } else {
        args.workload = argv[++i];
      }
    } else if (!std::strcmp(argv[i], "--records")) {
      args.records = std::strtoull(next("--records"), nullptr, 10);
      args.scale_set = true;
    } else if (!std::strcmp(argv[i], "--record-bytes")) {
      args.record_bytes = std::strtoull(next("--record-bytes"), nullptr, 10);
      args.scale_set = true;
    } else if (!std::strcmp(argv[i], "--key-space")) {
      args.key_space = std::strtoull(next("--key-space"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--ops")) {
      args.ops = std::strtoull(next("--ops"), nullptr, 10);
      args.scale_set = true;
    } else if (!std::strcmp(argv[i], "--ops-per-tx")) {
      args.ops_per_tx = std::strtoull(next("--ops-per-tx"), nullptr, 10);
      args.scale_set = true;
    } else if (!std::strcmp(argv[i], "--epoch-txs")) {
      args.txs_per_epoch = std::strtoull(next("--epoch-txs"), nullptr, 10);
      args.scale_set = true;
    } else if (!std::strcmp(argv[i], "--range-scans")) {
      args.range_scans = true;
    } else if (!std::strcmp(argv[i], "--converged")) {
      args.converged = true;
    } else if (!std::strcmp(argv[i], "--telemetry")) {
      args.telemetry = true;
    } else if (!std::strcmp(argv[i], "--gas-breakdown")) {
      args.gas_breakdown = true;
    } else if (!std::strcmp(argv[i], "--metrics-out")) {
      args.metrics_out = next("--metrics-out");
    } else if (!std::strcmp(argv[i], "--trace-out")) {
      args.trace_out = next("--trace-out");
    } else if (!std::strcmp(argv[i], "--trace-summary")) {
      args.trace_summary = true;
    } else if (!std::strcmp(argv[i], "--faults")) {
      args.faults = next("--faults");
    } else if (!std::strcmp(argv[i], "--fault-seed")) {
      args.fault_seed = std::strtoull(next("--fault-seed"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--sps")) {
      args.sps = std::strtoull(next("--sps"), nullptr, 10);
      if (args.sps == 0) args.sps = 1;
    } else if (!std::strcmp(argv[i], "--adversary")) {
      args.adversary = next("--adversary");
    } else if (!std::strcmp(argv[i], "--shards")) {
      args.shards = std::strtoull(next("--shards"), nullptr, 10);
      if (args.shards == 0) args.shards = 1;
    } else if (!std::strcmp(argv[i], "--feeds")) {
      args.feeds = next("--feeds");
    } else if (!std::strcmp(argv[i], "--watch")) {
      args.watch = std::strtoull(next("--watch"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--profile")) {
      args.profile = true;
    } else if (!std::strcmp(argv[i], "--json")) {
      args.json = true;
    } else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      args.help = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

// `replay` is consulted by price-tracking specs only: an active model makes
// `offline` replay the schedule clairvoyantly; windowed-k / price-ewma get
// their price feed live from the control plane, so they only take K0 here.
std::unique_ptr<core::ReplicationPolicy> MakePolicy(
    const std::string& spec, const workload::Trace& trace,
    const chain::GasSchedule& gas,
    const core::PriceReplayModel& replay = core::PriceReplayModel()) {
  auto colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const std::string params =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (name == "bl1") return core::MakeBL1();
  if (name == "bl2") return core::MakeBL2();
  if (name == "memoryless") {
    const uint64_t k = params.empty() ? 2 : std::strtoull(params.c_str(), nullptr, 10);
    return std::make_unique<core::MemorylessPolicy>(k);
  }
  if (name == "memorizing") {
    double k = 2, d = 1;
    if (!params.empty()) {
      char* rest = nullptr;
      k = std::strtod(params.c_str(), &rest);
      if (rest && *rest == ',') d = std::strtod(rest + 1, nullptr);
    }
    return std::make_unique<core::MemorizingPolicy>(k, d);
  }
  if (name == "adaptive-k1") {
    return std::make_unique<core::AdaptiveK1Policy>(core::BreakEvenK(gas));
  }
  if (name == "adaptive-k2") {
    return std::make_unique<core::AdaptiveK2Policy>(core::BreakEvenK(gas));
  }
  if (name == "windowed-k") {
    double k = core::BreakEvenK(gas);
    size_t window = 8;
    if (!params.empty()) {
      char* rest = nullptr;
      k = std::strtod(params.c_str(), &rest);
      if (rest && *rest == ',') window = std::strtoull(rest + 1, nullptr, 10);
    }
    return std::make_unique<core::WindowedKPolicy>(k, window);
  }
  if (name == "price-ewma") {
    double k = core::BreakEvenK(gas), alpha = 0.25;
    if (!params.empty()) {
      char* rest = nullptr;
      k = std::strtod(params.c_str(), &rest);
      if (rest && *rest == ',') alpha = std::strtod(rest + 1, nullptr);
    }
    return std::make_unique<core::PriceEwmaPolicy>(k, alpha);
  }
  if (name == "offline") {
    return std::make_unique<core::OfflineOptimalPolicy>(
        trace, core::BreakEvenK(gas), replay);
  }
  std::fprintf(stderr, "unknown policy: %s\n", spec.c_str());
  std::exit(2);
}

// --tier: placement policies over the four storage tiers. `adaptive` prices
// tiers with the real gas schedule and the run's record size; anything else
// pins all keys statically (storage ≡ bl2, offchain ≡ bl1, Gas-exactly).
std::unique_ptr<core::ReplicationPolicy> MakeTierPolicy(
    const Args& args, const chain::GasSchedule& gas) {
  if (args.tier == "adaptive") {
    tier::AdaptiveTierPolicy::Options opts;
    opts.default_value_bytes = args.record_bytes;
    return std::make_unique<tier::AdaptiveTierPolicy>(tier::TierCostModel(gas),
                                                      opts);
  }
  tier::StorageTier t;
  if (!tier::ParseTier(args.tier, &t)) {
    std::fprintf(stderr, "unknown tier: %s\n", args.tier.c_str());
    std::exit(2);
  }
  return std::make_unique<tier::StaticTierPolicy>(t);
}

[[noreturn]] void UnknownWorkload(const std::string& spec) {
  std::fprintf(stderr, "unknown workload: %s\n", spec.c_str());
  std::exit(2);
}

workload::Trace MakeWorkloadSpec(const Args& args, const std::string& spec) {
  auto colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const std::string params =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (name == "ratio") {
    double ratio = 4;
    if (!params.empty()) {
      char* end = nullptr;
      ratio = std::strtod(params.c_str(), &end);
      if (*end != '\0' || !std::isfinite(ratio) || ratio < 0) {
        UnknownWorkload(spec);
      }
    }
    return workload::FixedRatioTrace(ratio, args.ops, args.record_bytes);
  }
  if (name == "oracle") {
    return workload::PriceOracleTrace({});
  }
  if (name == "btcrelay") {
    return workload::BtcRelayBenchmarkTrace({});
  }
  if (name == "ycsb") {
    // "X" or "X,Y" over the phases YcsbConfig::ByName knows.
    const auto known = [](char c) {
      return std::strchr("ABDEF", c) != nullptr && c != '\0';
    };
    const bool two_phases = params.size() == 3 && params[1] == ',';
    if (!params.empty() &&
        !(known(params[0]) &&
          (params.size() == 1 || (two_phases && known(params[2]))))) {
      UnknownWorkload(spec);
    }
    const char first = params.empty() ? 'A' : params[0];
    workload::YcsbGenerator gen_a(workload::YcsbConfig::ByName(first),
                                  args.records, args.record_bytes, 1,
                                  args.key_space);
    if (two_phases) {
      workload::YcsbGenerator gen_b(workload::YcsbConfig::ByName(params[2]),
                                    args.records, args.record_bytes, 2,
                                    args.key_space);
      return workload::MixPhases(gen_a, gen_b, args.ops / 4).trace;
    }
    workload::Trace trace;
    gen_a.Generate(args.ops, trace);
    return trace;
  }
  UnknownWorkload(spec);
}

workload::Trace MakeWorkload(const Args& args) {
  return MakeWorkloadSpec(args, args.workload);
}

// Per-key flips a clairvoyant policy would pay on the same trace — the
// baseline for the summary's regret column. Scans are skipped: the oracle
// only flips at writes, and scan expansion needs the live key set. An active
// `replay` makes the baseline price-aware (same model the leaderboard uses).
std::map<std::string, uint64_t> OracleFlips(const workload::Trace& trace,
                                            const chain::GasSchedule& gas,
                                            const core::PriceReplayModel& replay) {
  core::OfflineOptimalPolicy oracle(trace, core::BreakEvenK(gas), replay);
  std::map<std::string, uint64_t> flips;
  for (const auto& op : trace) {
    if (op.type == workload::OpType::kScan) continue;
    if (oracle.Observe(op).Flipped()) {
      flips[telemetry::Tracer::RenderKey(op.key)] += 1;
    }
  }
  return flips;
}

lab::ScenarioScale ScaleFromArgs(const Args& args) {
  lab::ScenarioScale scale;
  scale.records = args.records;
  scale.ops = args.ops;
  scale.value_bytes = args.record_bytes;
  scale.ops_per_tx = args.ops_per_tx;
  scale.txs_per_epoch = args.txs_per_epoch;
  return scale;
}

// --leaderboard: the full policy x scenario matrix (bench_leaderboard's
// runner) with optional --scenario / --policy filters, then exit.
int RunLeaderboardCmd(const Args& args) {
  lab::LeaderboardOptions options;
  if (args.scale_set) options.scale = ScaleFromArgs(args);
  if (!args.scenario.empty()) options.scenarios = {args.scenario};
  if (args.policy_set) options.policies = {args.policy};

  lab::Leaderboard board;
  try {
    board = lab::RunLeaderboard(options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::fprintf(stderr, "scenarios:");
    for (const auto& s : lab::AllScenarios()) {
      std::fprintf(stderr, " %s", s.name.c_str());
    }
    std::fprintf(stderr, "\npolicies: ");
    for (const auto& p : lab::LeaderboardPolicies()) {
      std::fprintf(stderr, " %s", p.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  if (args.json) {
    using telemetry::JsonValue;
    JsonValue root = JsonValue::Object();
    root.Set("leaderboard", lab::LeaderboardJson(board));
    std::printf("%s\n", root.ToString().c_str());
    return 0;
  }
  lab::PrintLeaderboardTable(board, std::cout);
  return 0;
}

// The SystemOptions the flags describe. The single-feed run and every
// --feeds feed are built from the same options.
core::SystemOptions MakeSystemOptions(const Args& args,
                                      const chain::GasPriceSchedule& price) {
  core::SystemOptions options;
  options.ops_per_tx = args.ops_per_tx;
  options.txs_per_epoch = args.txs_per_epoch;
  options.scan_mode = args.range_scans ? core::ScanMode::kRangeProof
                                       : core::ScanMode::kExpandPointReads;
  // Only --metrics-out reads the telemetry bundle (its epoch series); the
  // Gas matrix that --gas-breakdown and --json print is the chain's.
  options.enable_telemetry = args.telemetry || !args.metrics_out.empty();
  options.enable_tracing = !args.trace_out.empty() || args.trace_summary;
  options.fault_schedule = args.faults;
  options.fault_seed = args.fault_seed;
  options.sp_replicas = args.sps;
  options.adversary_spec = args.adversary;
  options.adversary_seed = args.fault_seed;
  options.shards = args.shards;
  // The observatory is on for the bare --workload table, the --watch stream,
  // and --json (which pins a workload.observatory section). Gas-invisible by
  // contract — the `identity` ctest pins Gas with the monitor on vs off.
  options.enable_workload_monitor =
      args.workload_report || args.watch > 0 || args.json;
  if (args.shards > 1) {
    // grubctl preloads MakeKey(0..records): use the key quantiles, not the
    // uniform u64-prefix split (ASCII keys collapse into one prefix bucket).
    options.shard_boundaries =
        core::IndexedKeyBoundaries(args.records, args.shards);
  }
  options.chain_params.price = price;
  return options;
}

// The price-aware replay model for `trace`'s clairvoyant baseline under a
// bare non-unit --price, calibrated by one probe run stored in `plan` (the
// model points into it, so it must outlive the run). Runs that consume no
// replay — a unit schedule, or neither `offline` nor --trace-summary — skip
// the probe and get the default model.
core::PriceReplayModel ProbePriceReplay(const Args& args,
                                        const workload::Trace& trace,
                                        const chain::GasPriceSchedule& price,
                                        lab::ScenarioPlan& plan) {
  if (price.IsUnit() ||
      (args.policy.rfind("offline", 0) != 0 && !args.trace_summary)) {
    return core::PriceReplayModel();
  }
  lab::Scenario adhoc;
  adhoc.name = "price";
  adhoc.make_trace = [&trace](const lab::ScenarioScale&) { return trace; };
  adhoc.make_price = [&price](uint64_t, uint64_t) { return price; };
  adhoc.adversary_spec = args.adversary;
  adhoc.sp_replicas = args.sps;
  plan = lab::PlanScenario(adhoc, ScaleFromArgs(args));
  return plan.ReplayModel();
}

// The run's replication policy: --tier's placement policy, else --policy.
std::unique_ptr<core::ReplicationPolicy> MakeRunPolicy(
    const Args& args, const workload::Trace& trace,
    const chain::GasSchedule& gas, const core::PriceReplayModel& replay) {
  return args.tier.empty() ? MakePolicy(args.policy, trace, gas, replay)
                           : MakeTierPolicy(args, gas);
}

std::vector<std::pair<Bytes, Bytes>> PreloadRecords(const Args& args) {
  std::vector<std::pair<Bytes, Bytes>> preload;
  preload.reserve(args.records);
  for (uint64_t i = 0; i < args.records; ++i) {
    preload.emplace_back(workload::MakeKey(i), Bytes(args.record_bytes, 0x11));
  }
  return preload;
}

// --feeds: one feed per workload spec on one shared chain, each built from
// the run's SystemOptions and driven round-robin by GrubSystem::DriveAll;
// per-feed Gas is exact.
int RunMultiFeed(const Args& args, const core::SystemOptions& options) {
  std::vector<std::string> specs;
  for (size_t pos = 0; pos < args.feeds.size();) {
    size_t comma = args.feeds.find(',', pos);
    if (comma == std::string::npos) comma = args.feeds.size();
    if (comma > pos) specs.push_back(args.feeds.substr(pos, comma - pos));
    pos = comma + 1;
  }
  if (specs.empty()) {
    std::fprintf(stderr, "--feeds: no workload specs\n");
    return 2;
  }

  std::vector<workload::Trace> traces;
  traces.reserve(specs.size());
  std::vector<lab::ScenarioPlan> plans(specs.size());  // replay models' targets
  std::unique_ptr<core::GrubSystem> system;
  for (size_t i = 0; i < specs.size(); ++i) {
    traces.push_back(MakeWorkloadSpec(args, specs[i]));
    const core::PriceReplayModel replay = ProbePriceReplay(
        args, traces[i], options.chain_params.price, plans[i]);
    auto policy =
        MakeRunPolicy(args, traces[i], options.chain_params.gas, replay);
    try {
      if (system == nullptr) {
        system = std::make_unique<core::GrubSystem>(options, std::move(policy));
      } else {
        system->AddFeed(options, std::move(policy));
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  const auto preload = PreloadRecords(args);
  for (size_t i = 0; i < specs.size(); ++i) system->Preload(i, preload);
  for (size_t i = 0; i < specs.size(); ++i) {
    system->EnableWorkloadOracle(traces[i], i);
  }
  const auto epochs = system->DriveAll(traces);

  const chain::Blockchain& chain = system->Chain();
  const auto ops_of = [&](size_t feed) {
    size_t ops = 0;
    for (const auto& e : epochs[feed]) ops += e.ops;
    return ops;
  };
  const auto per_op = [](uint64_t gas, size_t ops) {
    return ops == 0 ? 0.0 : static_cast<double>(gas) / static_cast<double>(ops);
  };

  if (args.json) {
    using telemetry::JsonValue;
    JsonValue root = JsonValue::Object();
    root.Set("policy", JsonValue::String(args.policy));
    root.Set("total_gas", JsonValue::NumberU64(system->TotalGas()));
    JsonValue feeds = JsonValue::Array();
    for (size_t fi = 0; fi < specs.size(); ++fi) {
      core::Feed& f = system->FeedAt(fi);
      JsonValue feed = JsonValue::Object();
      feed.Set("name", JsonValue::String(specs[fi]));
      feed.Set("gas", JsonValue::NumberU64(system->FeedGas(fi)));
      feed.Set("manager_gas",
               JsonValue::NumberU64(chain.GasUsedBy(f.ManagerAddress())));
      feed.Set("consumer_gas",
               JsonValue::NumberU64(chain.GasUsedBy(f.ConsumerAddress())));
      feed.Set("ops", JsonValue::NumberU64(ops_of(fi)));
      feed.Set("per_op",
               JsonValue::NumberDouble(per_op(system->FeedGas(fi), ops_of(fi))));
      feed.Set("epochs", JsonValue::NumberU64(epochs[fi].size()));
      feed.Set("shards", JsonValue::NumberU64(f.ShardedSp().ShardCount()));
      JsonValue per_shard = JsonValue::Array();
      for (uint64_t g : f.Do().PerShardUpdateGas()) {
        per_shard.Append(JsonValue::NumberU64(g));
      }
      feed.Set("per_shard_update_gas", std::move(per_shard));
      if (f.Workload() != nullptr) {
        feed.Set("observatory",
                 f.Workload()->ToJson(chain.CurrentBlockNumber()));
      }
      feeds.Append(std::move(feed));
    }
    root.Set("feeds", std::move(feeds));
    std::printf("%s\n", root.ToString().c_str());
    return 0;
  }

  std::printf("multi-feed: %zu feeds on one chain, %zu shard(s) each\n\n",
              specs.size(), static_cast<size_t>(args.shards));
  for (size_t fi = 0; fi < specs.size(); ++fi) {
    core::Feed& f = system->FeedAt(fi);
    std::printf("  %-16s %10llu Gas / %6zu ops (%.0f Gas/op), "
                "%zu epochs  [manager %llu + consumer %llu]\n",
                specs[fi].c_str(),
                static_cast<unsigned long long>(system->FeedGas(fi)),
                ops_of(fi), per_op(system->FeedGas(fi), ops_of(fi)),
                epochs[fi].size(),
                static_cast<unsigned long long>(
                    chain.GasUsedBy(f.ManagerAddress())),
                static_cast<unsigned long long>(
                    chain.GasUsedBy(f.ConsumerAddress())));
  }
  std::printf("\n  total: %llu Gas\n",
              static_cast<unsigned long long>(system->TotalGas()));
  if (args.workload_report) {
    for (size_t fi = 0; fi < specs.size(); ++fi) {
      if (system->FeedAt(fi).Workload() == nullptr) continue;
      std::printf("feed %zu (%s):\n", fi, specs[fi].c_str());
      system->FeedAt(fi).Workload()->PrintTable(chain.CurrentBlockNumber());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    PrintUsage();
    return 2;
  }
  if (args.help) {
    PrintUsage();
    return 0;
  }

  if (args.watch > 0 && args.json) {
    std::fprintf(stderr, "--watch is incompatible with --json\n");
    return 2;
  }
  if (args.leaderboard) {
    if (!args.feeds.empty() || !args.tier.empty() || !args.faults.empty() ||
        !args.adversary.empty() || args.watch > 0) {
      std::fprintf(stderr,
                   "--leaderboard is incompatible with --feeds/--tier/"
                   "--faults/--adversary/--watch\n");
      return 2;
    }
    return RunLeaderboardCmd(args);
  }
  if (!args.scenario.empty() && !args.feeds.empty()) {
    std::fprintf(stderr, "--scenario is incompatible with --feeds\n");
    return 2;
  }
  // The multi-feed report prints none of these flags' output.
  if (!args.feeds.empty() &&
      (args.converged || args.telemetry || args.gas_breakdown ||
       !args.metrics_out.empty() || !args.trace_out.empty() ||
       args.trace_summary || args.watch > 0 || args.profile)) {
    std::fprintf(stderr,
                 "--feeds is incompatible with --converged/--telemetry/"
                 "--gas-breakdown/--metrics-out/--trace-out/--trace-summary/"
                 "--watch/--profile\n");
    return 2;
  }

  // --scenario / --price: resolve the effective price schedule up front.
  // A scenario plan replaces the workload, schedule, adversary and quorum
  // (the scale flags still size it); a bare --price only sets the schedule.
  const lab::Scenario* scenario = nullptr;
  lab::ScenarioPlan plan;  // outlives the run: the replay model points into it
  chain::GasPriceSchedule price;
  if (!args.scenario.empty()) {
    scenario = lab::FindScenario(args.scenario);
    if (scenario == nullptr) {
      std::fprintf(stderr, "unknown scenario: %s\nscenarios:",
                   args.scenario.c_str());
      for (const auto& s : lab::AllScenarios()) {
        std::fprintf(stderr, " %s", s.name.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    plan = lab::PlanScenario(*scenario, ScaleFromArgs(args));
    price = plan.price;
  } else if (!args.price.empty()) {
    auto parsed = chain::GasPriceSchedule::Parse(args.price);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--price: %s\n", parsed.status().message().c_str());
      return 2;
    }
    price = std::move(parsed).value();
  }

  core::SystemOptions options = MakeSystemOptions(args, price);
  if (!args.feeds.empty()) return RunMultiFeed(args, options);

  // With --json, stdout carries exactly one JSON document; the usual text
  // report is suppressed (auxiliary file writes still happen).
  const bool text = !args.json;
  if (scenario != nullptr) {
    // Explicit --adversary/--sps flags still win over the scenario's.
    if (args.adversary.empty()) options.adversary_spec = scenario->adversary_spec;
    if (args.sps == 1) options.sp_replicas = scenario->sp_replicas;
  }

  auto trace = scenario != nullptr ? plan.trace : MakeWorkload(args);
  auto stats = workload::ComputeStats(trace);
  const std::string workload_desc =
      scenario != nullptr ? "scenario:" + scenario->name : args.workload;
  if (text) {
    std::printf("workload: %s  (%llu writes, %llu reads, %llu scans; "
                "%.2f reads/write)\n",
                workload_desc.c_str(),
                static_cast<unsigned long long>(stats.writes),
                static_cast<unsigned long long>(stats.reads),
                static_cast<unsigned long long>(stats.scans),
                stats.ReadWriteRatio());
    if (scenario != nullptr) {
      std::printf("scenario: %s — %s\n", scenario->name.c_str(),
                  scenario->title.c_str());
    }
    // Unit schedules stay silent: a `--price constant` run's report is
    // byte-identical to a run with no --price at all (ci.sh gates on it).
    if (!options.chain_params.price.IsUnit()) {
      std::printf("price:    %s\n",
                  options.chain_params.price.Describe().c_str());
    }
  }

  // Replay model for the price-aware clairvoyant baseline: scenario plans
  // are probe-calibrated already; a bare non-unit --price run probes one
  // here, but only when something consumes it (offline / --trace-summary).
  lab::ScenarioPlan adhoc_plan;
  const core::PriceReplayModel replay =
      scenario != nullptr ? plan.ReplayModel()
                          : ProbePriceReplay(args, trace, price, adhoc_plan);

  std::unique_ptr<core::GrubSystem> system_ptr;
  try {
    system_ptr = std::make_unique<core::GrubSystem>(
        options,
        MakeRunPolicy(args, trace, options.chain_params.gas, replay));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  core::GrubSystem& system = *system_ptr;
  if (text) {
    std::printf("policy:   %s\n", system.Do().Policy().Name().c_str());
    if (args.shards > 1) {
      std::printf("shards:   %zu\n", system.ShardedSp().ShardCount());
    }
    if (system.Faults() != nullptr) {
      std::printf("faults:   %s (seed %llu)\n", args.faults.c_str(),
                  static_cast<unsigned long long>(args.fault_seed));
    }
    if (args.sps > 1 || !args.adversary.empty()) {
      std::printf("quorum:   %zu SP replicas%s%s%s\n",
                  system.Quorum().ReplicaCount(),
                  args.adversary.empty() ? "" : ", adversary '",
                  args.adversary.c_str(), args.adversary.empty() ? "" : "'");
    }
  }

  system.Preload(PreloadRecords(args));
  if (text) {
    std::printf("preload:  %zu records x %zu bytes\n\n", args.records,
                args.record_bytes);
  }

  if (args.profile) telemetry::ProfileRegistry::Enable(true);
  if (system.Workload() != nullptr) system.EnableWorkloadOracle(trace);
  if (args.converged) {
    system.Drive(trace);
    system.Chain().ResetGasCounters();
    // Drop warm-up epochs so the exported series covers the measured pass.
    if (system.Metrics() != nullptr) system.Metrics()->Epochs().Clear();
    if (system.Tracing() != nullptr) system.Tracing()->Clear();
    // Re-arm the clairvoyant replay so regret keeps tracking the monitor
    // (the oracle is consumed per pass).
    if (system.Workload() != nullptr) system.EnableWorkloadOracle(trace);
  }
  // The watch stream covers the measured pass only.
  if (args.watch > 0) system.SetWatch(args.watch, &std::cout);
  auto epochs = system.Drive(trace);

  size_t ops = 0;
  for (const auto& e : epochs) ops += e.ops;

  if (text) {
    std::printf("Gas/op per epoch:");
    const size_t stride = std::max<size_t>(1, epochs.size() / 24);
    for (size_t i = 0; i < epochs.size(); i += stride) {
      std::printf(" %.0f", epochs[i].PerOp());
    }
    std::printf("\n\n");

    std::printf("total:     %llu Gas over %zu ops  (%.0f Gas/op)\n",
                static_cast<unsigned long long>(system.TotalGas()), ops,
                ops ? static_cast<double>(system.TotalGas()) /
                          static_cast<double>(ops)
                    : 0.0);
    std::printf("breakdown: %s\n", system.TotalBreakdown().ToString().c_str());
    std::printf("activity:  %llu delivers, %zu replicas on chain, "
                "%llu values / %llu misses delivered\n",
                static_cast<unsigned long long>(
                    system.Daemon().delivers_sent()),
                system.Do().OnChainReplicas().size(),
                static_cast<unsigned long long>(
                    system.Consumer().values_received()),
                static_cast<unsigned long long>(
                    system.Consumer().misses_received()));
  }

  if (text && !args.tier.empty()) {
    const auto census = system.Do().TierCensus();
    uint64_t digest_delivers = 0;
    for (size_t i = 0; i < system.Quorum().ReplicaCount(); ++i) {
      digest_delivers += system.Quorum().Replica(i).digest_entries_served();
    }
    std::printf("placement: offchain %zu / storage %zu / log %zu / "
                "calldata %zu keys; %llu tier flips, %llu pins / %llu "
                "unpins, %llu digest delivers\n",
                census[0], census[1], census[2], census[3],
                static_cast<unsigned long long>(system.Do().tier_flips()),
                static_cast<unsigned long long>(system.Do().log_pins()),
                static_cast<unsigned long long>(system.Do().log_unpins()),
                static_cast<unsigned long long>(digest_delivers));
  }

  if (text && (args.sps > 1 || !args.adversary.empty())) {
    const core::SpQuorum& quorum = system.Quorum();
    std::printf("quorum:   %llu failovers, %llu blacklists, active sp%zu\n",
                static_cast<unsigned long long>(quorum.Failovers()),
                static_cast<unsigned long long>(quorum.Blacklists()),
                quorum.ActiveIndex());
    for (size_t i = 0; i < quorum.ReplicaCount(); ++i) {
      const core::SpDaemon& daemon = quorum.Replica(i);
      std::printf("  sp%zu: %-11s %llu delivers, %llu rejected, "
                  "blacklisted x%llu\n",
                  i, core::Name(quorum.TrustOf(i)),
                  static_cast<unsigned long long>(daemon.delivers_sent()),
                  static_cast<unsigned long long>(quorum.RejectionsOf(i)),
                  static_cast<unsigned long long>(
                      quorum.BlacklistedCountOf(i)));
    }
  }

  if (text && system.Faults() != nullptr) {
    std::printf("injected: ");
    bool first = true;
    for (const auto& [point, fires] : system.Faults()->FireCounts()) {
      if (fires == 0) continue;
      std::printf("%s%s x%llu", first ? "" : ", ", point.c_str(),
                  static_cast<unsigned long long>(fires));
      first = false;
    }
    if (first) std::printf("(no fault fired)");
    std::printf("\n");
    std::printf("recovery: %llu deliver retries, %llu update retries, "
                "%llu watchdog re-emits%s\n",
                static_cast<unsigned long long>(
                    system.Daemon().deliver_retries()),
                static_cast<unsigned long long>(system.Do().update_retries()),
                static_cast<unsigned long long>(
                    system.Do().watchdog_reemits()),
                system.Do().degraded() ? " (still degraded)" : "");
  }

  if (args.json) {
    using telemetry::JsonValue;
    JsonValue root = JsonValue::Object();
    {
      JsonValue workload = JsonValue::Object();
      workload.Set("spec", JsonValue::String(workload_desc));
      workload.Set("writes", JsonValue::NumberU64(stats.writes));
      workload.Set("reads", JsonValue::NumberU64(stats.reads));
      workload.Set("scans", JsonValue::NumberU64(stats.scans));
      // Pinned observatory section (--json turns the monitor on); the
      // schema golden test locks the field order.
      workload.Set("observatory", system.Workload()->ToJson(
                                      system.Chain().CurrentBlockNumber()));
      root.Set("workload", std::move(workload));
    }
    // New sections are appended conditionally so legacy (no --scenario, unit
    // price) documents stay byte-identical; the schema golden test pins the
    // field order of both.
    if (scenario != nullptr) {
      root.Set("scenario", lab::ScenarioPlanJson(plan));
    } else if (!options.chain_params.price.IsUnit()) {
      root.Set("price",
               JsonValue::String(options.chain_params.price.Describe()));
    }
    root.Set("policy", JsonValue::String(system.Do().Policy().Name()));
    root.Set("shards",
             JsonValue::NumberU64(system.ShardedSp().ShardCount()));
    {
      JsonValue gas = JsonValue::Object();
      gas.Set("total", JsonValue::NumberU64(system.TotalGas()));
      gas.Set("ops", JsonValue::NumberU64(ops));
      gas.Set("per_op",
              JsonValue::NumberDouble(
                  ops ? static_cast<double>(system.TotalGas()) /
                            static_cast<double>(ops)
                      : 0.0));
      // Sparse component x cause attribution, same cell naming as the
      // BENCH_*.json schema ("component/cause": amount, zero cells absent).
      JsonValue matrix = JsonValue::Object();
      const telemetry::GasMatrix& snapshot = system.Chain().TotalGasMatrix();
      for (size_t c = 0; c < telemetry::kNumGasComponents; ++c) {
        for (size_t w = 0; w < telemetry::kNumGasCauses; ++w) {
          if (snapshot.cells[c][w] == 0) continue;
          matrix.Set(
              std::string(
                  telemetry::Name(static_cast<telemetry::GasComponent>(c))) +
                  "/" +
                  telemetry::Name(static_cast<telemetry::GasCause>(w)),
              JsonValue::NumberU64(snapshot.cells[c][w]));
        }
      }
      gas.Set("breakdown", std::move(matrix));
      if (system.ShardedSp().ShardCount() > 1) {
        JsonValue per_shard = JsonValue::Array();
        for (uint64_t g : system.Do().PerShardUpdateGas()) {
          per_shard.Append(JsonValue::NumberU64(g));
        }
        gas.Set("per_shard_update", std::move(per_shard));
      }
      root.Set("gas", std::move(gas));
    }
    {
      JsonValue rows = JsonValue::Array();
      for (const auto& e : epochs) {
        JsonValue row = JsonValue::Object();
        row.Set("ops", JsonValue::NumberU64(e.ops));
        row.Set("gas", JsonValue::NumberU64(e.gas));
        if (system.ShardedSp().ShardCount() > 1) {
          row.Set("touched_shards", JsonValue::NumberU64(e.touched_shards));
        }
        rows.Append(std::move(row));
      }
      root.Set("epochs", std::move(rows));
    }
    {
      JsonValue activity = JsonValue::Object();
      activity.Set("delivers",
                   JsonValue::NumberU64(system.Daemon().delivers_sent()));
      activity.Set("replicas_on_chain",
                   JsonValue::NumberU64(system.Do().OnChainReplicas().size()));
      activity.Set("values_received",
                   JsonValue::NumberU64(system.Consumer().values_received()));
      activity.Set("misses_received",
                   JsonValue::NumberU64(system.Consumer().misses_received()));
      root.Set("activity", std::move(activity));
    }
    {
      const telemetry::RobustnessTotals totals = system.Robustness();
      JsonValue robustness = JsonValue::Object();
      robustness.Set("fault_fires", JsonValue::NumberU64(totals.fault_fires));
      robustness.Set("retries", JsonValue::NumberU64(totals.retries));
      robustness.Set("watchdog_reemits",
                     JsonValue::NumberU64(totals.watchdog_reemits));
      robustness.Set("deliver_rejections",
                     JsonValue::NumberU64(totals.deliver_rejections));
      robustness.Set("sp_failovers",
                     JsonValue::NumberU64(totals.sp_failovers));
      robustness.Set("degraded", JsonValue::Bool(totals.degraded != 0));
      if (system.Faults() != nullptr) {
        JsonValue fires = JsonValue::Object();
        for (const auto& [point, count] : system.Faults()->FireCounts()) {
          if (count != 0) fires.Set(point, JsonValue::NumberU64(count));
        }
        robustness.Set("fault_schedule", JsonValue::String(args.faults));
        robustness.Set("fault_seed", JsonValue::NumberU64(args.fault_seed));
        robustness.Set("fires_by_point", std::move(fires));
      }
      root.Set("robustness", std::move(robustness));
    }
    if (args.sps > 1 || !args.adversary.empty()) {
      // SpQuorum::ToJson is already a JSON document; parse-and-embed keeps
      // one serializer (field order preserved — the golden test pins it).
      auto quorum = telemetry::ParseJson(system.Quorum().ToJson());
      if (quorum.ok()) root.Set("quorum", std::move(quorum).value());
    }
    {
      // Same parse-and-embed as the quorum section; the placement golden
      // test pins GrubSystem::PlacementJson's field order.
      auto placement = telemetry::ParseJson(system.PlacementJson());
      if (placement.ok()) root.Set("placement", std::move(placement).value());
    }
    std::printf("%s\n", root.ToString().c_str());
  }

  if (args.gas_breakdown && text) {
    std::printf("\n");
    telemetry::PrintGasBreakdown(system.Chain().TotalGasMatrix());
  }
  if (!args.metrics_out.empty()) {
    std::ofstream out(args.metrics_out, std::ios::trunc);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", args.metrics_out.c_str());
      return 1;
    }
    const auto& series = system.Metrics()->Epochs();
    const bool csv = args.metrics_out.size() >= 4 &&
                     args.metrics_out.rfind(".csv") ==
                         args.metrics_out.size() - 4;
    if (csv) {
      series.WriteCsv(out);
    } else {
      series.WriteJsonLines(out);
    }
    if (text) {
      std::printf("metrics:   wrote %zu epoch rows to %s (%s)\n",
                  series.Rows().size(), args.metrics_out.c_str(),
                  csv ? "csv" : "jsonl");
    }
  }
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out, std::ios::trunc);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", args.trace_out.c_str());
      return 1;
    }
    const telemetry::Tracer& tracer = *system.Tracing();
    const bool chrome = args.trace_out.size() >= 5 &&
                        args.trace_out.rfind(".json") ==
                            args.trace_out.size() - 5;
    if (chrome) {
      tracer.WriteChromeJson(out);
    } else {
      tracer.WriteJsonLines(out);
    }
    if (text) {
      std::printf("trace: wrote %zu spans, %zu events, %zu flips to %s (%s)\n",
                  tracer.Spans().size(), tracer.GlobalEvents().size(),
                  tracer.Flips().size(), args.trace_out.c_str(),
                  chrome ? "chrome-json" : "jsonl");
    }
  }
  if (args.trace_summary && text) {
    std::printf("\n");
    const auto summary = telemetry::Summarize(*system.Tracing());
    telemetry::PrintSummary(summary);
    telemetry::PrintFlipRegret(
        summary, OracleFlips(trace, options.chain_params.gas, replay));
  }
  if (args.profile && text) {
    std::printf("\nhot-path probes (wall-clock, ns):\n");
    std::printf("  %-16s %10s %14s %12s\n", "site", "count", "total_ns",
                "max_ns");
    for (const auto& p : telemetry::ProfileRegistry::Snapshot()) {
      std::printf("  %-16s %10llu %14llu %12llu\n", p.name,
                  static_cast<unsigned long long>(p.count),
                  static_cast<unsigned long long>(p.total_ns),
                  static_cast<unsigned long long>(p.max_ns));
    }
  }
  // Kept last so scripts can strip everything from this header down.
  if (args.workload_report && text) {
    system.Workload()->PrintTable(system.Chain().CurrentBlockNumber());
  }
  return 0;
}
