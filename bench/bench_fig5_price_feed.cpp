// Figure 5 + Table 3 (§4.1): the ethPriceOracle trace driving a price feed
// with the SCoin stablecoin on top.
//
// Setup mirrors the paper: a 4096-record store of assets; each poke() is a
// gPuts batching price updates of 10 assets (duplicates of the Ether price);
// each peek() is an SCoinIssuer issue() or redeem() transaction (equal
// chance) whose callback consumes the Ether price. Gas per operation is
// reported per epoch of 32 transactions; a poke counts as 10 operations.
//
// Paper: GRuB (memoryless K=1) lowest throughout; Table 3 feed-layer totals
// BL1 83M (+64%), BL2 55M (+11%), GRuB 50.6M; SCoinIssuer adds ~1-2%.
#include <cstdio>

#include "apps/scoin.h"
#include "bench_registry.h"
#include "bench_util.h"

namespace {

using namespace grub;

struct Fig5Result {
  std::vector<double> per_epoch_gas_per_op;
  std::vector<std::pair<uint64_t, uint64_t>> per_epoch_ops_gas;
  uint64_t total_gas = 0;
  uint64_t total_ops = 0;
};

/// Drives the oracle trace. `with_app` routes every peek through the
/// SCoinIssuer (the end application); otherwise peeks hit the generic
/// consumer contract, measuring the data-feed layer alone (Table 3's two
/// columns).
Fig5Result RunFig5(const bench::PolicyFactory& policy,
                   const workload::Trace& oracle_trace, bool with_app,
                   size_t asset_count) {
  core::SystemOptions options;
  options.enable_telemetry = true;  // epochs/totals read from the registry
  core::GrubSystem system(options, policy());

  // SCoin application on top of the feed.
  apps::SCoinIssuer::Config issuer_config;
  issuer_config.storage_manager = system.ManagerAddress();
  issuer_config.price_key = workload::MakeKey(0);
  auto issuer_ptr = std::make_unique<apps::SCoinIssuer>(issuer_config);
  auto* issuer = issuer_ptr.get();
  chain::Address issuer_address =
      system.Chain().Deploy(std::move(issuer_ptr));
  auto token_ptr = std::make_unique<apps::Erc20Token>(issuer_address);
  chain::Address token_address = system.Chain().Deploy(std::move(token_ptr));
  issuer->SetToken(token_address);

  // `asset_count` assets; asset 0 is Ether.
  std::vector<std::pair<Bytes, Bytes>> assets;
  for (uint64_t i = 0; i < asset_count; ++i) {
    Bytes value = U64ToBytes(150);
    value.resize(32, 0);
    assets.emplace_back(workload::MakeKey(i), std::move(value));
  }
  system.Preload(assets);

  // Seed collateral so redeems succeed, then zero the counters.
  {
    chain::Transaction tx;
    tx.from = 9001;
    tx.to = issuer_address;
    tx.function = apps::SCoinIssuer::kIssueFn;
    tx.calldata = apps::SCoinIssuer::EncodeIssue(9001, 1000000);
    system.Chain().SubmitAndMine(std::move(tx));
    system.Daemon().PollAndServe();
    system.Do().EndEpoch();
    system.Chain().ResetGasCounters();
  }

  Fig5Result result;
  Rng coin(17);
  uint64_t txs_in_epoch = 0;
  uint64_t ops_in_epoch = 0;

  // The bench drives transactions by hand (no GrubSystem::Drive), so it
  // closes telemetry epochs itself; each row's matrix delta is the epoch's
  // Gas.
  auto close_epoch = [&] {
    const auto& row = system.Metrics()->Epochs().Close(
        ops_in_epoch, system.Chain().TotalGasMatrix(), system.Robustness());
    result.per_epoch_gas_per_op.push_back(row.GasPerOp());
    result.per_epoch_ops_gas.emplace_back(row.ops, row.GasTotal());
    result.total_ops += row.ops;
    txs_in_epoch = 0;
    ops_in_epoch = 0;
  };

  for (const auto& op : oracle_trace) {
    if (op.type == workload::OpType::kWrite) {
      // poke(): gPuts batching 10 asset updates (Ether + 9 companions).
      for (uint64_t a = 0; a < 10; ++a) {
        system.Write(workload::MakeKey(a), op.value);
      }
      system.EndEpoch();  // one gPuts (update transaction) per poke
      txs_in_epoch += 1;
      ops_in_epoch += 10;
    } else if (with_app) {
      // peek(): an SCoin issuance or redemption reads the Ether price.
      system.Do().NoteRead(workload::MakeKey(0));
      const bool is_issue = coin.NextBool(0.5);
      chain::Transaction tx;
      tx.from = 9001;
      tx.to = issuer_address;
      tx.function = is_issue ? apps::SCoinIssuer::kIssueFn
                             : apps::SCoinIssuer::kRedeemFn;
      tx.calldata = is_issue ? apps::SCoinIssuer::EncodeIssue(9001, 10)
                             : apps::SCoinIssuer::EncodeRedeem(9001, 10);
      system.Chain().SubmitAndMine(std::move(tx));
      system.Daemon().PollAndServe();
      system.Do().EndEpochIfDirty();  // time-based epoch boundary
      txs_in_epoch += 1;
      ops_in_epoch += 1;
    } else {
      // Feed layer only: the peek lands in the generic consumer.
      system.ReadNow(workload::MakeKey(0));
      system.Do().EndEpochIfDirty();
      txs_in_epoch += 1;
      ops_in_epoch += 1;
    }
    if (txs_in_epoch >= 32) close_epoch();
  }
  if (ops_in_epoch > 0) close_epoch();

  result.total_gas = system.TotalGas();
  return result;
}

telemetry::BenchReport Run(const grub::bench::BenchOptions& opts) {
  using namespace grub::bench;

  workload::PriceOracleOptions oracle_options;
  if (opts.quick) oracle_options.write_count = 200;
  const size_t asset_count = opts.quick ? 512 : 4096;
  auto oracle_trace = workload::PriceOracleTrace(oracle_options);
  auto stats = workload::ComputeStats(oracle_trace);
  std::printf("ethPriceOracle synthesized trace: %llu pokes, %llu peeks "
              "(%.2f reads/write)\n",
              static_cast<unsigned long long>(stats.writes),
              static_cast<unsigned long long>(stats.reads),
              stats.ReadWriteRatio());

  telemetry::BenchReport report;
  report.title = "Figure 5 + Table 3: ethPriceOracle price feed with SCoin";
  report.SetConfig("workload", "oracle");
  report.SetConfig("pokes", stats.writes);
  report.SetConfig("peeks", stats.reads);
  report.SetConfig("assets", static_cast<uint64_t>(asset_count));

  struct Variant {
    std::string label;
    PolicyFactory policy;
    double paper_feed_m;  // Table 3 feed-layer totals, millions of Gas
    double paper_app_m;
  };
  const std::vector<Variant> variants = {
      {"No replica (BL1)", BL1(), 83.0, 86.0},
      {"Always with replica (BL2)", BL2(), 55.0, 56.0},
      {"GRuB-memoryless (K=1)", Memoryless(1), 50.6, 51.7},
  };

  std::printf("\n=== Figure 5: Gas per op per epoch (32 txs), first 20 epochs "
              "(end application) ===\n");
  std::vector<Fig5Result> feed_results, app_results;
  for (const auto& variant : variants) {
    feed_results.push_back(
        RunFig5(variant.policy, oracle_trace, false, asset_count));
    auto result = RunFig5(variant.policy, oracle_trace, true, asset_count);
    auto& series = report.AddSeries(variant.label + " (epochs)");
    std::printf("%-28s", variant.label.c_str());
    for (size_t i = 0; i < 20 && i < result.per_epoch_gas_per_op.size(); ++i) {
      std::printf("%7.0f", result.per_epoch_gas_per_op[i]);
      series.Add("epoch " + std::to_string(i), static_cast<double>(i))
          .Ops(result.per_epoch_ops_gas[i].first,
               result.per_epoch_ops_gas[i].second);
    }
    std::printf("\n");
    app_results.push_back(std::move(result));
  }

  std::printf("\n=== Table 3: aggregated Gas (M = million) ===\n");
  std::printf("%-28s %14s %14s\n", "", "Price feed", "SCoinIssuer");
  auto& feed_series = report.AddSeries("Table 3: price feed total Gas");
  auto& app_series = report.AddSeries("Table 3: SCoinIssuer total Gas");
  const double grub_feed = static_cast<double>(feed_results[2].total_gas);
  const double grub_total = static_cast<double>(app_results[2].total_gas);
  for (size_t i = 0; i < variants.size(); ++i) {
    const double feed = static_cast<double>(feed_results[i].total_gas);
    const double total = static_cast<double>(app_results[i].total_gas);
    std::printf("%-28s %9.1fM (%+.0f%%) %9.1fM (%+.0f%%)\n",
                variants[i].label.c_str(), feed / 1e6,
                (feed / grub_feed - 1) * 100, total / 1e6,
                (total / grub_total - 1) * 100);
    feed_series.Add(variants[i].label, static_cast<double>(i))
        .Ops(feed_results[i].total_ops, feed_results[i].total_gas)
        .Paper(variants[i].paper_feed_m * 1e6);
    app_series.Add(variants[i].label, static_cast<double>(i))
        .Ops(app_results[i].total_ops, app_results[i].total_gas)
        .Paper(variants[i].paper_app_m * 1e6);
  }
  report.notes.push_back(
      "Paper: BL1 83M (+64%) / 86M (+67%); BL2 55M (+11%) / 56M (+8.7%); "
      "GRuB 50.6M / 51.7M.");
  std::printf("\n%s\n", report.notes.back().c_str());
  return report;
}

[[maybe_unused]] const int kRegistered = grub::bench::RegisterBench(
    "fig5_price_feed", "Figure 5 + Table 3: ethPriceOracle feed with SCoin",
    Run);

}  // namespace
