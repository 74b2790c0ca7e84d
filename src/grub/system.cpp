#include "grub/system.h"

#include <algorithm>
#include <stdexcept>

#include "workload/trace.h"

namespace grub::core {

double BreakEvenK(const chain::GasSchedule& gas) {
  return static_cast<double>(gas.sstore_update_per_word) /
         static_cast<double>(gas.OffchainReadPerWord());
}

shard::ShardMap MakeShardMap(const FeedOptions& options) {
  if (!options.shard_boundaries.empty()) {
    return shard::ShardMap(options.shard_boundaries);
  }
  if (options.shards > 1) return shard::ShardMap::Uniform(options.shards);
  return shard::ShardMap();
}

std::vector<Bytes> IndexedKeyBoundaries(uint64_t key_count, size_t shards) {
  std::vector<Bytes> boundaries;
  if (shards <= 1 || key_count == 0) return boundaries;
  boundaries.reserve(shards - 1);
  for (size_t s = 1; s < shards; ++s) {
    // Quantile start keys; MakeKey is order-preserving (fixed width), so
    // these partition the indexed keyspace into near-equal ranges.
    boundaries.push_back(workload::MakeKey(key_count * s / shards));
  }
  // Degenerate splits (more shards than keys) can repeat a quantile; the
  // ShardMap constructor requires distinct boundaries.
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());
  return boundaries;
}

Feed::Feed(const FeedOptions& options)
    : options_(options), sp_(MakeShardMap(options), options.sp_db_path) {}

GrubSystem::GrubSystem(SystemOptions options,
                       std::unique_ptr<ReplicationPolicy> policy)
    : options_(std::move(options)), chain_(options_.chain_params) {
  if (options_.enable_telemetry || options_.enable_tracing) {
    telemetry_ = std::make_unique<telemetry::Telemetry>();
    chain_.SetTelemetry(telemetry_.get());
  }
  if (options_.enable_tracing) telemetry_->EnableTracing();
  if (!options_.fault_schedule.empty()) {
    auto injector = fault::FaultInjector::Parse(options_.fault_schedule,
                                               options_.fault_seed);
    if (!injector.ok()) {
      throw std::invalid_argument("fault schedule: " +
                                  injector.status().ToString());
    }
    faults_ = std::move(injector).value();
    if (telemetry_ != nullptr) faults_->SetMetrics(&telemetry_->Registry());
    chain_.SetFaultInjector(faults_.get());
  }
  AddFeed(options_, std::move(policy));
}

size_t GrubSystem::AddFeed(const FeedOptions& options,
                           std::unique_ptr<ReplicationPolicy> policy) {
  auto feed = std::unique_ptr<Feed>(new Feed(options));
  const chain::Address shift = 3 * static_cast<chain::Address>(feeds_.size());
  const chain::Address do_account = kDoAccount + shift;
  feed->user_account_ = kUserAccount + shift;

  StorageManagerContract::Config config;
  config.do_address = do_account;
  config.shard_map = feed->sp_.Map();
  config.trace_reads_on_chain =
      options.trace_reads_on_chain || options.trace_writes_on_chain;
  config.trace_writes_on_chain = options.trace_writes_on_chain;
  // The reference deployment always arms the pending-request ledger: it is
  // unmetered (no Gas drift) and makes replayed delivers provably rejected.
  config.enforce_request_ledger = true;
  auto manager = std::make_unique<StorageManagerContract>(config);
  feed->manager_ = manager.get();
  feed->manager_address_ = chain_.Deploy(std::move(manager));

  auto consumer = std::make_unique<ConsumerContract>(feed->manager_address_);
  feed->consumer_ = consumer.get();
  feed->consumer_address_ = chain_.Deploy(std::move(consumer));

  DoClient::Options do_options;
  do_options.do_account = do_account;
  do_options.storage_manager = feed->manager_address_;
  feed->do_client_ = std::make_unique<DoClient>(chain_, feed->sp_, do_options,
                                                std::move(policy));

  QuorumOptions quorum_options;
  quorum_options.replicas = options.sp_replicas;
  quorum_options.adversary_spec = options.adversary_spec;
  quorum_options.adversary_seed = options.adversary_seed;
  quorum_options.blacklist_after_rejections =
      options.blacklist_after_rejections;
  quorum_options.liveness_timeout_polls = options.liveness_timeout_polls;
  feed->quorum_ = std::make_unique<SpQuorum>(
      chain_, feed->sp_, feed->manager_address_, kSpAccount + shift,
      quorum_options, options.dedup_deliver_batch);

  if (telemetry_ != nullptr) {
    feed->sp_.SetMetrics(&telemetry_->Registry());
    feed->do_client_->SetMetrics(&telemetry_->Registry());
    feed->quorum_->SetMetrics(&telemetry_->Registry());
  }
  if (telemetry::Tracer* tracer = Tracing()) {
    feed->consumer_->SetTracer(tracer);
    feed->quorum_->SetTracer(tracer);
    feed->do_client_->SetTracer(tracer);
  }
  if (options.enable_workload_monitor) {
    telemetry::WorkloadMonitor::Options monitor_options;
    const shard::ShardMap shard_map = feed->sp_.Map();
    monitor_options.shard_count = static_cast<uint32_t>(shard_map.Count());
    monitor_options.shard_of = [shard_map](const Bytes& key) {
      return shard_map.ShardOf(key);
    };
    feed->workload_ =
        std::make_unique<telemetry::WorkloadMonitor>(std::move(monitor_options));
    feed->do_client_->SetWorkloadMonitor(feed->workload_.get());
    feed->quorum_->SetWorkloadMonitor(feed->workload_.get());
    feed->manager_->SetWorkloadMonitor(feed->workload_.get());
  }
  if (faults_ != nullptr) {
    feed->sp_.SetFaultInjector(faults_.get());
    feed->quorum_->SetFaultInjector(faults_.get());
    feed->do_client_->SetFaultInjector(faults_.get());
  }
  feeds_.push_back(std::move(feed));
  return feeds_.size() - 1;
}

uint64_t GrubSystem::FeedGas(size_t feed) const {
  const Feed& f = FeedAt(feed);
  return chain_.GasUsedBy(f.manager_address_) +
         chain_.GasUsedBy(f.consumer_address_);
}

void GrubSystem::Preload(const std::vector<std::pair<Bytes, Bytes>>& records) {
  Preload(0, records);
}

void GrubSystem::Preload(size_t feed,
                         const std::vector<std::pair<Bytes, Bytes>>& records) {
  Feed& f = FeedAt(feed);
  f.do_client_->Preload(records);
  for (const auto& [key, value] : records) f.live_keys_.insert(key);
  chain_.ResetGasCounters();
}

std::vector<Bytes> GrubSystem::ExpandScan(const Feed& feed, const Bytes& start,
                                          uint32_t len) const {
  std::vector<Bytes> keys;
  keys.reserve(len);
  for (auto it = feed.live_keys_.lower_bound(start);
       it != feed.live_keys_.end() && keys.size() < len; ++it) {
    keys.push_back(*it);
  }
  return keys;
}

std::string GrubSystem::PlacementJson() const {
  const DoClient& do_client = *feeds_[0]->do_client_;
  const SpQuorum& quorum = Quorum();
  const auto census = do_client.TierCensus();
  uint64_t digest_delivers = 0;
  for (size_t i = 0; i < quorum.ReplicaCount(); ++i) {
    digest_delivers += quorum.Replica(i).digest_entries_served();
  }
  std::string json = "{";
  json += "\"policy\":\"" + do_client.Policy().Name() + "\"";
  json += ",\"tiers\":{";
  for (size_t t = 0; t < tier::kNumStorageTiers; ++t) {
    if (t > 0) json += ',';
    json += "\"" +
            std::string(tier::Name(static_cast<tier::StorageTier>(t))) +
            "\":" + std::to_string(census[t]);
  }
  json += "}";
  json += ",\"tier_flips\":" + std::to_string(do_client.tier_flips());
  json += ",\"log_pins\":" + std::to_string(do_client.log_pins());
  json += ",\"log_unpins\":" + std::to_string(do_client.log_unpins());
  json += ",\"digest_delivers\":" + std::to_string(digest_delivers);
  json += "}";
  return json;
}

PriceReplayModel GrubSystem::OracleReplayModel(size_t feed) const {
  const size_t ops_per_tx = FeedAt(feed).options_.ops_per_tx;
  PriceReplayModel model;
  model.schedule = &options_.chain_params.price;
  model.start_block = chain_.CurrentBlockNumber();
  // ~3 mined blocks per driven group: consumer run + deliver + the epoch
  // update amortized over its groups.
  model.blocks_per_op =
      3.0 / static_cast<double>(ops_per_tx == 0 ? 1 : ops_per_tx);
  return model;
}

void GrubSystem::EnableWorkloadOracle(const workload::Trace& trace,
                                      size_t feed) {
  Feed& f = FeedAt(feed);
  if (f.workload_ == nullptr) return;
  f.oracle_ = std::make_unique<OfflineOptimalPolicy>(
      trace, BreakEvenK(options_.chain_params.gas), OracleReplayModel(feed));
}

void GrubSystem::SetWatch(uint64_t every_blocks, std::ostream* out) {
  watch_every_blocks_ = every_blocks;
  watch_out_ = out;
  watch_windows_emitted_ = 0;
}

void GrubSystem::ObserveOracle(Feed& feed, const workload::Operation& op) {
  if (feed.oracle_ == nullptr || feed.workload_ == nullptr) return;
  const ads::ReplState before = feed.oracle_->StateOf(op.key);
  feed.oracle_->Observe(op);
  if (feed.oracle_->StateOf(op.key) != before) feed.workload_->OnOracleFlip();
}

void GrubSystem::MaybeEmitWatch() {
  telemetry::WorkloadMonitor* monitor = Workload();
  if (watch_out_ == nullptr || watch_every_blocks_ == 0 || monitor == nullptr) {
    return;
  }
  // One snapshot per crossed window; a burst of blocks emits only the latest
  // window (the stream samples state, it does not replay history).
  const uint64_t window = chain_.CurrentBlockNumber() / watch_every_blocks_;
  if (window < watch_windows_emitted_) return;
  *watch_out_ << monitor->SnapshotJsonLine(chain_.CurrentBlockNumber())
              << "\n";
  watch_windows_emitted_ = window + 1;
}

void GrubSystem::FlushReadGroup(Feed& feed) {
  if (feed.consumer_->QueuedCount() == 0) return;
  chain::Transaction tx;
  tx.from = feed.user_account_;
  tx.to = feed.consumer_address_;
  tx.function = ConsumerContract::kRunFn;
  tx.cause = telemetry::GasCause::kGGetSync;
  tx.calldata = ConsumerContract::EncodeRun(feed.consumer_->QueuedCount());
  chain_.SubmitAndMine(std::move(tx));
  // Drain, don't single-shot: a deliver batch that would cross the Ctx(X)
  // calldata bound is split, so one poll may serve only a prefix of the
  // group. Re-poll while the SP makes progress; a faulty/omitting SP serves
  // nothing and exits the loop immediately, keeping the watchdog honest.
  // Only the owning feed's quorum polls: another feed's watchdog ignores
  // these request events (contract filter).
  while (feed.quorum_->PollAndServe() > 0) {
  }
  // After the SP had its chance: re-emit starved reads, degrade/un-degrade.
  // Fault-free runs find nothing pending and spend no Gas here.
  feed.do_client_->CheckReadLiveness();
  MaybeEmitWatch();
}

void GrubSystem::ReadNow(const Bytes& key) {
  Feed& feed = *feeds_[0];
  feed.do_client_->NoteRead(key);
  feed.consumer_->QueueRead(key);
  FlushReadGroup(feed);
}

void GrubSystem::Write(Bytes key, Bytes value) {
  BufferWrite(*feeds_[0], std::move(key), std::move(value));
}

void GrubSystem::BufferWrite(Feed& feed, Bytes key, Bytes value) {
  feed.live_keys_.insert(key);
  feed.do_client_->BufferPut(std::move(key), std::move(value));
}

void GrubSystem::EndEpoch() {
  FlushReadGroup(*feeds_[0]);
  feeds_[0]->do_client_->EndEpoch();
}

GrubSystem::DriveState GrubSystem::StartDrive(
    const workload::Trace& trace) const {
  DriveState state;
  state.trace = &trace;
  state.epoch_start_gas = chain_.TotalGasUsed();
  state.epoch_start_breakdown = chain_.TotalBreakdown();
  return state;
}

std::vector<EpochGas> GrubSystem::Drive(const workload::Trace& trace) {
  DriveState state = StartDrive(trace);
  while (state.next < trace.size()) DriveGroup(*feeds_[0], state);
  return std::move(state.epochs);
}

std::vector<std::vector<EpochGas>> GrubSystem::DriveAll(
    const std::vector<workload::Trace>& traces) {
  if (traces.size() > feeds_.size()) {
    throw std::out_of_range("DriveAll: more traces than feeds");
  }
  std::vector<DriveState> states;
  states.reserve(traces.size());
  for (const auto& trace : traces) states.push_back(StartDrive(trace));
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (size_t i = 0; i < states.size(); ++i) {
      if (states[i].next == traces[i].size()) continue;
      DriveGroup(*feeds_[i], states[i]);
      progressed = true;
    }
  }
  std::vector<std::vector<EpochGas>> epochs;
  epochs.reserve(states.size());
  for (DriveState& state : states) epochs.push_back(std::move(state.epochs));
  return epochs;
}

void GrubSystem::DriveGroup(Feed& feed, DriveState& state) {
  const workload::Trace& trace = *state.trace;
  size_t ops_in_group = 0;
  do {
    const workload::Operation& op = trace[state.next++];
    size_t op_weight = 1;
    // The armed oracle replays point observations alongside the online
    // policy (scans are skipped, matching the trace-summary regret
    // baseline), so the monitor's regret counter streams instead of waiting
    // for the post-run analyzer.
    if (op.type != workload::OpType::kScan) ObserveOracle(feed, op);
    switch (op.type) {
      case workload::OpType::kWrite:
        BufferWrite(feed, op.key, op.value);
        break;
      case workload::OpType::kRead:
        feed.do_client_->NoteRead(op.key);
        feed.consumer_->QueueRead(op.key);
        break;
      case workload::OpType::kScan: {
        auto keys = ExpandScan(feed, op.key, op.scan_len);
        op_weight = keys.empty() ? 1 : keys.size();
        for (const auto& key : keys) feed.do_client_->NoteRead(key);
        if (feed.options_.scan_mode == ScanMode::kExpandPointReads) {
          for (auto& key : keys) feed.consumer_->QueueRead(std::move(key));
        } else if (!keys.empty()) {
          // Exclusive upper bound: the successor of the last matched key.
          auto it = feed.live_keys_.upper_bound(keys.back());
          Bytes end = it == feed.live_keys_.end() ? Bytes{} : *it;
          feed.consumer_->QueueScan(op.key, std::move(end));
        }
        break;
      }
    }
    ops_in_group += op_weight;
  } while (state.next < trace.size() &&
           ops_in_group < feed.options_.ops_per_tx);
  state.ops_in_epoch += ops_in_group;

  FlushReadGroup(feed);
  // Under a non-unit schedule the policy hears the going price once per read
  // group (its online view of the chain's fee market). Constant-price runs
  // never take this branch — byte-identical to the pre-scenario driver.
  const chain::GasPriceSchedule& price = options_.chain_params.price;
  if (!price.IsUnit()) {
    const uint64_t block = chain_.CurrentBlockNumber();
    const chain::PricePoint p = price.At(block);
    feed.do_client_->MutablePolicy().ObservePrice(p.exec_milli,
                                                  p.storage_milli, block);
  }
  state.groups_in_epoch += 1;
  if (state.groups_in_epoch >= feed.options_.txs_per_epoch ||
      state.next == trace.size()) {
    CloseEpoch(feed, state);
  }
}

void GrubSystem::CloseEpoch(Feed& feed, DriveState& state) {
  // Saturating deltas: a reorg can roll the cumulative counters below the
  // values captured at the epoch start.
  auto sat_sub = [](uint64_t a, uint64_t b) { return a >= b ? a - b : 0; };
  feed.do_client_->EndEpoch();
  const chain::GasBreakdown& start = state.epoch_start_breakdown;
  EpochGas epoch;
  epoch.gas = sat_sub(chain_.TotalGasUsed(), state.epoch_start_gas);
  epoch.ops = state.ops_in_epoch;
  epoch.breakdown = chain_.TotalBreakdown();
  epoch.breakdown.tx = sat_sub(epoch.breakdown.tx, start.tx);
  epoch.breakdown.storage_insert =
      sat_sub(epoch.breakdown.storage_insert, start.storage_insert);
  epoch.breakdown.storage_update =
      sat_sub(epoch.breakdown.storage_update, start.storage_update);
  epoch.breakdown.storage_read =
      sat_sub(epoch.breakdown.storage_read, start.storage_read);
  epoch.breakdown.hash = sat_sub(epoch.breakdown.hash, start.hash);
  epoch.breakdown.log = sat_sub(epoch.breakdown.log, start.log);
  epoch.breakdown.other = sat_sub(epoch.breakdown.other, start.other);
  epoch.touched_shards = feed.do_client_->LastEpochTouchedShards();
  std::vector<double> shard_heat;
  if (feed.workload_ != nullptr) {
    const uint64_t block = chain_.CurrentBlockNumber();
    feed.workload_->OnEpochClose(state.ops_in_epoch, epoch.gas, block);
    shard_heat = feed.workload_->ShardHeat(block);
  }
  if (telemetry_ != nullptr) {
    const chain::GasPriceSchedule& price = options_.chain_params.price;
    telemetry::EpochPrice epoch_price;
    if (!price.IsUnit()) {
      const chain::PricePoint p = price.At(chain_.CurrentBlockNumber());
      epoch_price.valid = true;
      epoch_price.exec_milli = p.exec_milli;
      epoch_price.storage_milli = p.storage_milli;
    }
    telemetry_->CloseEpoch(state.ops_in_epoch, epoch.touched_shards,
                           std::move(shard_heat), epoch_price);
  }
  state.epochs.push_back(epoch);
  state.epoch_start_gas = chain_.TotalGasUsed();
  state.epoch_start_breakdown = chain_.TotalBreakdown();
  state.groups_in_epoch = 0;
  state.ops_in_epoch = 0;
}

}  // namespace grub::core
