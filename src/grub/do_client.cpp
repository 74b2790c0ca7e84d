#include "grub/do_client.h"

#include <algorithm>
#include <stdexcept>

#include "chain/abi.h"
#include "shard/forest.h"

namespace grub::core {

DoClient::DoClient(chain::Blockchain& chain, shard::ShardedAdsSp& sp,
                   Options options, std::unique_ptr<ReplicationPolicy> policy)
    : chain_(chain),
      sp_(sp),
      options_(options),
      policy_(std::move(policy)),
      ads_do_(sp.Map(), ToBytes("grub-do-signing-key")),
      tracker_(options.storage_manager) {
  auto db = kv::KVStore::Open(kv::Options{}, "");
  if (!db.ok()) throw std::runtime_error("DoClient: value cache open failed");
  value_cache_ = std::move(db).value();
  per_shard_update_gas_.assign(sp_.ShardCount(), 0);
}

void DoClient::SetMetrics(telemetry::MetricsRegistry* registry) {
  if (registry == nullptr) {
    flips_nr_to_r_ = flips_r_to_nr_ = nullptr;
    update_retries_counter_ = reemits_counter_ = nullptr;
    degraded_gauge_ = nullptr;
    return;
  }
  flips_nr_to_r_ = &registry->GetCounter(
      "do.replication_flips",
      {{"policy", policy_->Name()}, {"direction", "nr_to_r"}});
  flips_r_to_nr_ = &registry->GetCounter(
      "do.replication_flips",
      {{"policy", policy_->Name()}, {"direction", "r_to_nr"}});
  update_retries_counter_ = &registry->GetCounter("do.update_retries");
  reemits_counter_ = &registry->GetCounter("do.watchdog_reemits");
  degraded_gauge_ = &registry->GetGauge("do.degraded");
}

void DoClient::NoteFlip(ads::ReplState before, ads::ReplState after) {
  if (before == after) return;
  if (workload_ != nullptr) workload_->OnFlip(after == ads::ReplState::kR);
  if (flips_nr_to_r_ == nullptr) return;
  if (after == ads::ReplState::kR) {
    flips_nr_to_r_->Increment();
  } else {
    flips_r_to_nr_->Increment();
  }
}

void DoClient::EnsureEpochSpan() {
  if (tracer_ == nullptr || epoch_span_ != 0) return;
  epoch_span_ = tracer_->BeginSpan(telemetry::SpanKind::kEpoch,
                                   chain_.CurrentBlockNumber());
  tracer_->SetAttr(epoch_span_, "epoch", std::to_string(epoch_));
}

void DoClient::RecordFlipAudit(const Bytes& key, ads::ReplState before,
                               ads::ReplState after, const char* op) {
  if (tracer_ == nullptr) return;
  if (before == after) return;
  // Name() concatenates the parameter list on every call; flips are frequent
  // enough under write-heavy feeds that the audit path uses the cached copy.
  if (policy_name_.empty()) policy_name_ = policy_->Name();
  tracer_->RecordFlip(policy_name_, key, after == ads::ReplState::kR, op,
                      policy_->AuditBefore(), policy_->AuditAfter(),
                      chain_.CurrentBlockNumber(), epoch_);
}

void DoClient::BufferPut(Bytes key, Bytes value) {
  // The monitor observes local writes as they arrive (§3.2); the decision
  // propagates to the SP as an advisory tier immediately (Gas-free), while
  // the authenticated state bit syncs with the next update() transaction.
  // Binary policies round-trip through the tier view losslessly
  // (R ≡ storage, NR ≡ off-chain), so one TierOf pair covers both worlds.
  const tier::StorageTier t_before = policy_->TierOf(key);
  policy_->Observe(workload::Operation::Write(key, {}));
  const tier::StorageTier t_after = policy_->TierOf(key);
  if (t_before != t_after) tier_flips_ += 1;
  const ads::ReplState before = tier::ToReplState(t_before);
  const ads::ReplState after = tier::ToReplState(t_after);
  NoteFlip(before, after);
  if (workload_ != nullptr) {
    workload_->OnWrite(key, chain_.CurrentBlockNumber());
  }
  RecordFlipAudit(key, before, after, "write");
  // Opening the span is all a buffered put records: the span's begin block IS
  // the first put, and EndEpoch summarizes the batch ("puts" attr). A
  // per-write event here would put an allocation on the feed's write path.
  if (tracer_ != nullptr) EnsureEpochSpan();
  sp_.SetAdvisoryTier(key, t_after);
  touched_.insert(key);
  pending_writes_.push_back(BufferedWrite{std::move(key), std::move(value)});
}

void DoClient::NoteRead(const Bytes& key) {
  // Reads are federated from the chain's call history; NoteRead models the
  // continuous, timestamp-merged view of that monitor (the history remains
  // the integrity source — see MonitorChainHistory).
  const tier::StorageTier t_before = policy_->TierOf(key);
  policy_->Observe(workload::Operation::Read(key));
  const tier::StorageTier t_after = policy_->TierOf(key);
  if (t_before != t_after) tier_flips_ += 1;
  const ads::ReplState before = tier::ToReplState(t_before);
  const ads::ReplState after = tier::ToReplState(t_after);
  NoteFlip(before, after);
  if (workload_ != nullptr) {
    workload_->OnRead(key, chain_.CurrentBlockNumber());
  }
  RecordFlipAudit(key, before, after, "read");
  sp_.SetAdvisoryTier(key, t_after);
  touched_.insert(key);
}

Result<Bytes> DoClient::CachedValue(const Bytes& key) const {
  return value_cache_->Get(key);
}

void DoClient::Preload(const std::vector<std::pair<Bytes, Bytes>>& records) {
  auto& genesis = chain_.MutableStorageOf(options_.storage_manager);
  std::vector<ads::FeedRecord> feed_records;
  feed_records.reserve(records.size());
  for (const auto& [key, value] : records) {
    const ads::ReplState state = policy_->StateOf(key);
    feed_records.push_back(ads::FeedRecord{key, value, state});
    (void)value_cache_->Put(key, value);
    // Genesis-warm the contract slots (converged-cost methodology: the
    // measured run charges update-rate re-replication, never the one-time
    // cold inserts). Always-R policies start with live replicas, matching
    // the paper's BL2 where the dataset is on chain before the experiment.
    const bool live = state == ads::ReplState::kR;
    StorageManagerContract::PreloadReplica(genesis, key, value, live);
    if (live) replicas_on_chain_.insert(key);
  }
  // Bulk-load the forest: one O(n) tree build per shard. Every tree equals
  // a from-scratch build over its sorted leaves (same bit_ceil capacity), so
  // the published digest does not depend on how the records were loaded.
  ads_do_.BulkLoad(sp_, feed_records);
  const std::vector<uint32_t> touched_shards = ads_do_.TakeTouchedShards();
  last_epoch_touched_shards_ = touched_shards.size();
  // One genesis update. Above one shard it carries every populated shard
  // root: the contract verifies the rollup against unset (zero ==
  // empty-tree) slots plus these, then stores them all.
  std::vector<std::pair<uint64_t, Hash256>> roots;
  roots.reserve(touched_shards.size());
  for (uint32_t s : touched_shards) {
    roots.emplace_back(s, ads_do_.ShardRoot(s));
  }
  SubmitUpdate(StorageManagerContract::EncodeUpdate(
                   sp_.ShardCount(), ads_do_.RootOfRoots(), epoch_, roots, {},
                   {}),
               telemetry::GasCause::kUpdateRoot);
  epoch_ += 1;
  // Skip monitor processing of history up to now (preload is not workload).
  call_history_cursor_ = chain_.CallHistory().size();
}

void DoClient::MonitorChainHistory() {
  const auto& history = chain_.CallHistory();
  // A reorg can rewind the history below our cursor; the orphaned delivers
  // re-execute in later blocks and are folded when they land again.
  if (call_history_cursor_ > history.size()) {
    call_history_cursor_ = history.size();
  }
  for (; call_history_cursor_ < history.size(); ++call_history_cursor_) {
    const auto& call = history[call_history_cursor_];
    if (call.contract != options_.storage_manager) continue;
    if (call.internal || call.function != StorageManagerContract::kDeliverFn) {
      continue;
    }
    // A rejected deliver changed nothing on chain.
    if (!call.ok) continue;
    // Track lazy replica materialization: entries delivered with the
    // replicate instruction were inserted into contract storage.
    chain::AbiReader r(call.calldata);
    const uint64_t n = r.U64();
    for (uint64_t i = 0; i < n; ++i) {
      auto entry = DecodeDeliverEntry(r);
      if (!entry.ok()) break;
      if (entry->present() && entry->replicate_hint) {
        replicas_on_chain_.insert(entry->query.record.key);
      }
    }
  }
}

bool DoClient::EndEpochIfDirty() {
  // A time-based epoch boundary with nothing buffered publishes nothing:
  // advisory state already steers deliver-time replication, and evictions
  // can ride the next real update. (Replication decisions cost no extra
  // transactions — the design point of §3.3's write path.)
  if (pending_writes_.empty()) return false;
  EndEpoch();
  return true;
}

chain::Receipt DoClient::EndEpoch() {
  // 1. Monitor the chain history (replica tracking; reads were already
  // observed continuously).
  MonitorChainHistory();

  std::set<Bytes> touched = std::move(touched_);
  touched_.clear();

  // 2. Actuate on the ADS: apply writes carrying their decided state (the
  // authenticated state bit syncs here), one verified batch per touched
  // shard — the same protocol at every shard count.
  const size_t shard_count = sp_.ShardCount();
  std::vector<Hash256> pre_roots(shard_count);
  std::vector<std::vector<ads::FeedRecord>> batches(shard_count);
  for (uint32_t s = 0; s < shard_count; ++s) {
    pre_roots[s] = ads_do_.ShardRoot(s);
  }
  for (auto& write : pending_writes_) {
    const ads::ReplState state = policy_->StateOf(write.key);
    batches[sp_.Map().ShardOf(write.key)].push_back(
        ads::FeedRecord{write.key, write.value, state});
    (void)value_cache_->Put(write.key, write.value);
  }
  for (uint32_t s = 0; s < shard_count; ++s) {
    if (batches[s].empty()) continue;
    Status st = ads_do_.VerifiedBatchPut(sp_, s, batches[s]);
    if (!st.ok()) {
      throw std::runtime_error("DoClient: verified batch put failed: " +
                               st.ToString());
    }
  }

  // 3. Build the update() transaction. Written records route by their
  // decided tier: storage-tier records ride with full values ("KV records
  // with replicated state (R) are included in the update() call") — the
  // contract inserts or refreshes the replica; log-tier records ride the
  // tier suffix (digest pin + `grub_data` receipt, the cheap write path);
  // calldata-tier records ride the suffix for availability only.
  // Off-chain writes ship nothing (digest only). R->NR transitions evict.
  // Read-promoted records not written this epoch materialize lazily through
  // the next deliver (replicate instruction).
  std::vector<ads::FeedRecord> replicated_updates;
  std::vector<Bytes> evictions;
  TierSuffix tiered;
  for (auto& write : pending_writes_) {
    switch (policy_->TierOf(write.key)) {
      case tier::StorageTier::kStorage:
        replicated_updates.push_back(
            ads::FeedRecord{write.key, write.value, ads::ReplState::kR});
        replicas_on_chain_.insert(write.key);
        break;
      case tier::StorageTier::kLog:
        tiered.entries.push_back(TierEntry{
            tier::StorageTier::kLog,
            ads::FeedRecord{write.key, write.value, ads::ReplState::kNR}});
        log_pins_on_chain_.insert(write.key);
        log_pins_ += 1;
        break;
      case tier::StorageTier::kCalldata:
        tiered.entries.push_back(TierEntry{
            tier::StorageTier::kCalldata,
            ads::FeedRecord{write.key, write.value, ads::ReplState::kNR}});
        break;
      case tier::StorageTier::kOffchain:
        break;
    }
  }
  // Keys whose pin is live but whose placement left the log tier: drop the
  // pin (and tell replaying SPs) with this epoch's update.
  for (const auto& key : touched) {
    if (!log_pins_on_chain_.count(key)) continue;
    if (policy_->TierOf(key) == tier::StorageTier::kLog) continue;
    tiered.unpins.push_back(key);
    log_pins_on_chain_.erase(key);
    log_unpins_ += 1;
  }
  for (const auto& key : touched) {
    if (!replicas_on_chain_.count(key)) continue;
    // Degradation pins its forced replicas: reads must keep being served
    // from chain while the SP is out, whatever the policy thinks.
    if (degraded_ && forced_replicas_.count(key)) continue;
    if (policy_->StateOf(key) == ads::ReplState::kNR) {
      evictions.push_back(key);
      replicas_on_chain_.erase(key);
    }
  }
  const size_t puts_this_epoch = pending_writes_.size();
  pending_writes_.clear();

  if (tracer_ != nullptr) {
    // EndEpoch can fire with nothing buffered (driver-forced close); the
    // span then covers just the update() transaction.
    EnsureEpochSpan();
    tracer_->SetAttr(epoch_span_, "puts", std::to_string(puts_this_epoch));
    tracer_->SetAttr(epoch_span_, "replicated",
                     std::to_string(replicated_updates.size()));
    tracer_->SetAttr(epoch_span_, "evictions",
                     std::to_string(evictions.size()));
  }
  std::vector<uint32_t> tree_touched = ads_do_.TakeTouchedShards();
  last_epoch_touched_shards_ = tree_touched.size();
  chain::Receipt receipt = SubmitEpochUpdates(
      std::move(pre_roots), tree_touched, std::move(replicated_updates),
      std::move(evictions), std::move(tiered));
  if (tracer_ != nullptr) {
    tracer_->EndSpan(epoch_span_, chain_.CurrentBlockNumber(),
                     receipt.ok() || chain::IsDelayedReceipt(receipt));
    epoch_span_ = 0;
  }
  epoch_ += 1;
  return receipt;
}

chain::Receipt DoClient::SubmitEpochUpdates(
    std::vector<Hash256> pre_roots, const std::vector<uint32_t>& tree_touched,
    std::vector<ads::FeedRecord> replicated, std::vector<Bytes> evictions,
    TierSuffix tiered) {
  const size_t shard_count = sp_.ShardCount();
  // Partition the replica/eviction/tier suffixes by shard (arrival order is
  // preserved within each shard, matching the single-tx ordering).
  std::vector<std::vector<ads::FeedRecord>> rep_by_shard(shard_count);
  for (auto& record : replicated) {
    rep_by_shard[sp_.Map().ShardOf(record.key)].push_back(std::move(record));
  }
  std::vector<std::vector<Bytes>> evict_by_shard(shard_count);
  for (auto& key : evictions) {
    evict_by_shard[sp_.Map().ShardOf(key)].push_back(std::move(key));
  }
  std::vector<TierSuffix> tier_by_shard(shard_count);
  for (auto& entry : tiered.entries) {
    tier_by_shard[sp_.Map().ShardOf(entry.record.key)].entries.push_back(
        std::move(entry));
  }
  for (auto& key : tiered.unpins) {
    tier_by_shard[sp_.Map().ShardOf(key)].unpins.push_back(std::move(key));
  }

  // A shard is involved if its tree changed or it carries replica traffic.
  // A one-shard deployment's shard is involved in every epoch: its update
  // is the epoch's update, digest-only or not.
  std::vector<bool> has_root(shard_count, false);
  for (uint32_t s : tree_touched) has_root[s] = true;
  std::vector<uint32_t> involved;
  for (uint32_t s = 0; s < shard_count; ++s) {
    if (shard_count == 1 || has_root[s] || !rep_by_shard[s].empty() ||
        !evict_by_shard[s].empty() || !tier_by_shard[s].empty()) {
      involved.push_back(s);
    }
  }

  if (involved.empty()) {
    // Nothing changed in any shard; publish the (unchanged) digest alone so
    // the epoch boundary is still visible on chain.
    return SubmitUpdate(
        StorageManagerContract::EncodeUpdate(
            shard_count, ads_do_.RootOfRoots(), epoch_, {}, {}, {}),
        telemetry::GasCause::kUpdateRoot, epoch_span_);
  }

  // One update() per involved shard, each carrying the INCREMENTAL
  // root-of-roots: the digest after that transaction's shard root lands,
  // computed over the roots the contract will hold at that point. Every tx
  // therefore verifies on its own, the final stored digest equals the
  // post-epoch root-of-roots, and receipts meter per-shard Gas exactly.
  // This is why the epoch's Gas scales with TOUCHED shards, not keyspace.
  std::vector<Hash256> chain_roots = std::move(pre_roots);
  chain::Receipt receipt;
  for (uint32_t s : involved) {
    std::vector<std::pair<uint64_t, Hash256>> roots;
    if (has_root[s]) {
      chain_roots[s] = ads_do_.ShardRoot(s);
      roots.emplace_back(s, chain_roots[s]);
    }
    const Hash256 digest = shard::ComputeRootOfRoots(chain_roots);
    for (Bytes& calldata :
         EncodeUpdateChunks(digest, roots, rep_by_shard[s], evict_by_shard[s],
                            tier_by_shard[s])) {
      receipt = SubmitUpdate(std::move(calldata),
                             telemetry::GasCause::kUpdateRoot, epoch_span_);
      if (receipt.ok() || chain::IsDelayedReceipt(receipt)) {
        per_shard_update_gas_[s] += receipt.gas_used;
      }
    }
  }
  return receipt;
}

std::vector<Bytes> DoClient::EncodeUpdateChunks(
    const Hash256& digest,
    const std::vector<std::pair<uint64_t, Hash256>>& shard_roots,
    const std::vector<ads::FeedRecord>& replicated,
    const std::vector<Bytes>& evictions, const TierSuffix& tiered) const {
  // Greedy packing against the Ctx(X) validity bound. Sizes are the update
  // layout's own size functions (StorageManagerContract::Update*Bytes,
  // checked against EncodeUpdate in codec_test), accumulated incrementally
  // so chunking stays O(items).
  using Contract = StorageManagerContract;
  struct Chunk {
    std::vector<ads::FeedRecord> replicated;
    std::vector<Bytes> evictions;
    TierSuffix tiered;
    bool empty() const {
      return replicated.empty() && evictions.empty() && tiered.empty();
    }
  };
  const size_t shard_count = sp_.ShardCount();
  const uint64_t limit = chain::GasSchedule::kMaxCalldataBytes;
  std::vector<Chunk> chunks(1);
  uint64_t used = Contract::UpdateBaseBytes(shard_count, shard_roots.size());
  bool tier_counted = false;  // the tier suffix's two count words, once
  // Flushes when `item_bytes` more would cross the bound. A single item too
  // large for an empty chunk is unsplittable: it ships alone, and TxCost
  // aborts loudly instead of pricing an invalid formula.
  const auto make_room = [&](uint64_t item_bytes, bool tier_item) {
    uint64_t need = item_bytes;
    if (tier_item && !tier_counted) need += Contract::kUpdateTierCountBytes;
    if (used + need >= limit && !chunks.back().empty()) {
      chunks.emplace_back();
      used = Contract::UpdateBaseBytes(shard_count, 0);
      tier_counted = false;
      need = item_bytes + (tier_item ? Contract::kUpdateTierCountBytes : 0);
    }
    used += need;
    if (tier_item) tier_counted = true;
  };
  for (const auto& record : replicated) {
    make_room(EncodedRecordBytes(record), /*tier_item=*/false);
    chunks.back().replicated.push_back(record);
  }
  for (const auto& key : evictions) {
    make_room(Contract::UpdateKeyBytes(key), /*tier_item=*/false);
    chunks.back().evictions.push_back(key);
  }
  for (const auto& entry : tiered.entries) {
    make_room(Contract::UpdateTierEntryBytes(entry), /*tier_item=*/true);
    chunks.back().tiered.entries.push_back(entry);
  }
  for (const auto& key : tiered.unpins) {
    make_room(Contract::UpdateKeyBytes(key), /*tier_item=*/true);
    chunks.back().tiered.unpins.push_back(key);
  }

  std::vector<Bytes> payloads;
  payloads.reserve(chunks.size());
  const std::vector<std::pair<uint64_t, Hash256>> no_roots;
  for (size_t c = 0; c < chunks.size(); ++c) {
    const Chunk& chunk = chunks[c];
    payloads.push_back(Contract::EncodeUpdate(
        shard_count, digest, epoch_, c == 0 ? shard_roots : no_roots,
        chunk.replicated, chunk.evictions, chunk.tiered));
  }
  return payloads;
}

std::array<size_t, tier::kNumStorageTiers> DoClient::TierCensus() const {
  std::array<size_t, tier::kNumStorageTiers> census{};
  for (size_t s = 0; s < sp_.ShardCount(); ++s) {
    for (const Bytes& key : ads_do_.ShardKeys(s)) {
      census[static_cast<size_t>(policy_->TierOf(key))] += 1;
    }
  }
  return census;
}

chain::Receipt DoClient::SubmitUpdate(Bytes calldata,
                                      telemetry::GasCause cause,
                                      uint64_t trace_span) {
  // A lost update is resubmitted with the IDENTICAL calldata — the epoch
  // digest was signed once; a retry is the same update, not a new epoch.
  chain::Receipt receipt;
  receipt.status = Status::Unavailable(chain::kDroppedTxMessage);
  for (uint64_t attempt = 1; attempt <= kMaxUpdateAttempts; ++attempt) {
    if (attempt > 1) {
      update_retries_ += 1;
      if (update_retries_counter_ != nullptr) {
        update_retries_counter_->Increment();
      }
      if (tracer_ != nullptr && trace_span != 0) {
        tracer_->Annotate(trace_span, "update.retry",
                          chain_.CurrentBlockNumber(),
                          "attempt=" + std::to_string(attempt));
      }
      chain_.AdvanceTime(kRetryBackoffSec << (attempt - 2));
    }
    if (GRUB_FAULT_POINT(faults_, "do.update.drop")) {
      if (tracer_ != nullptr && trace_span != 0) {
        tracer_->Annotate(trace_span, "update.drop",
                          chain_.CurrentBlockNumber(),
                          "attempt=" + std::to_string(attempt));
      }
      continue;  // lost before reaching the mempool
    }
    chain::Transaction tx;
    tx.from = options_.do_account;
    tx.to = options_.storage_manager;
    tx.function = StorageManagerContract::kUpdateFn;
    tx.cause = cause;
    tx.calldata = calldata;
    tx.trace_id = trace_span;
    receipt = chain_.SubmitAndMine(std::move(tx));
    if (chain::IsDroppedReceipt(receipt)) continue;  // lost in the mempool
    break;
  }
  return receipt;
}

void DoClient::CheckReadLiveness() {
  tracker_.CatchUp(chain_);
  const auto& pending = tracker_.Pending();
  const uint64_t head = chain_.CurrentBlockNumber();
  std::vector<PendingRequest> stale;
  for (const auto& [log_index, req] : pending) {
    if (req.block_number + kWatchdogTimeoutBlocks <= head) {
      stale.push_back(req);
    }
  }
  if (stale.empty()) {
    stale_rounds_ = 0;
    // The SP is answering again (or nothing is outstanding): leave degraded
    // mode once the backlog has fully drained.
    if (degraded_ && pending.empty()) Undegrade();
    return;
  }

  stale_rounds_ += 1;
  if (!degraded_ && stale_rounds_ >= kDegradeAfterRounds) {
    Degrade(stale);
  }

  // Re-emit each starved request from the DO's own account. A replica hit
  // (guaranteed for keys just force-replicated) serves the consumer callback
  // synchronously; a miss emits a fresh request event whose staleness clock
  // starts now.
  for (const auto& req : stale) {
    chain::Transaction tx;
    tx.from = options_.do_account;
    tx.to = options_.storage_manager;
    tx.cause = telemetry::GasCause::kRecovery;
    if (req.is_scan) {
      tx.function = StorageManagerContract::kGScanFn;
      tx.calldata = StorageManagerContract::EncodeGScan(
          req.key, req.end_key, req.callback_contract, req.callback_function);
    } else {
      tx.function = StorageManagerContract::kGGetFn;
      tx.calldata = StorageManagerContract::EncodeGGet(
          req.key, req.callback_contract, req.callback_function);
    }
    if (tracer_ != nullptr) {
      // Tag the transaction with the starved request's span so the chain
      // annotates it at execution, and record the re-emission itself before
      // submitting — a replica hit closes the span synchronously inside
      // SubmitAndMine.
      tx.trace_id = tracer_->OpenRequestId(req.key, req.is_scan);
      tracer_->AnnotateRequest(req.key, req.is_scan, "watchdog.reemit",
                               chain_.CurrentBlockNumber(),
                               "pending_since=" +
                                   std::to_string(req.block_number));
    }
    chain::Receipt receipt = chain_.SubmitAndMine(std::move(tx));
    if (chain::IsDroppedReceipt(receipt)) {
      // The re-emission itself was lost; keep the original pending entry so
      // the next liveness round tries again.
      continue;
    }
    tracker_.Erase(req.log_index);
    watchdog_reemits_ += 1;
    if (reemits_counter_ != nullptr) reemits_counter_->Increment();
  }
}

void DoClient::Degrade(const std::vector<PendingRequest>& stale) {
  // Force-replicate the starved point-read keys with their current values
  // and the CURRENT epoch digest (the root is unchanged — this publishes
  // replicas, not data). Reads then serve from chain without the SP: the
  // BL2 fallback. Scans have no per-key replica to pin; their re-emission
  // keeps retrying until the SP returns.
  std::vector<ads::FeedRecord> forced;
  for (const auto& req : stale) {
    if (req.is_scan) continue;
    if (replicas_on_chain_.count(req.key)) continue;
    auto value = CachedValue(req.key);
    if (!value.ok()) continue;  // absent key: nothing to replicate
    forced.push_back(
        ads::FeedRecord{req.key, std::move(value).value(), ads::ReplState::kR});
  }
  degraded_ = true;
  if (degraded_gauge_ != nullptr) degraded_gauge_->Set(1);
  if (tracer_ != nullptr) {
    tracer_->GlobalEvent("do.degrade", chain_.CurrentBlockNumber(),
                         "forced=" + std::to_string(forced.size()));
  }
  if (forced.empty()) return;

  // Roots are unchanged mid-epoch (batches apply at EndEpoch), so the
  // current digest verifies; the transactions only publish replicas. The
  // SP decides how many reads starve, so the forced set is chunked against
  // the Ctx(X) bound like any epoch update; a set that fits ships as the
  // one unchunked transaction. Recovery Gas stays out of the per-shard
  // epoch-update totals.
  bool landed = false;
  for (Bytes& calldata :
       EncodeUpdateChunks(ads_do_.RootOfRoots(), {}, forced, {}, {})) {
    const chain::Receipt receipt =
        SubmitUpdate(std::move(calldata), telemetry::GasCause::kRecovery);
    landed |= receipt.ok() || chain::IsDelayedReceipt(receipt);
  }
  if (!landed) return;
  for (const auto& record : forced) {
    forced_replicas_.insert(record.key);
    replicas_on_chain_.insert(record.key);
  }
}

void DoClient::Undegrade() {
  degraded_ = false;
  stale_rounds_ = 0;
  if (degraded_gauge_ != nullptr) degraded_gauge_->Set(0);
  if (tracer_ != nullptr) {
    tracer_->GlobalEvent("do.undegrade", chain_.CurrentBlockNumber());
  }
  // Hand the forced keys back to the policy: mark them touched so the next
  // epoch close evicts any the policy wants off chain.
  for (const auto& key : forced_replicas_) touched_.insert(key);
  forced_replicas_.clear();
}

}  // namespace grub::core
