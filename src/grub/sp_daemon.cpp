#include "grub/sp_daemon.h"

#include <map>
#include <tuple>

#include "chain/abi.h"
#include "chain/gas.h"
#include "crypto/sha256.h"

namespace grub::core {

void SpDaemon::RecoverCursor() {
  // The in-memory cursor is disposable: the chain itself records which
  // requests are still unanswered. Resume at the oldest pending one — or at
  // the log tail when nothing is pending (never re-serve answered history).
  tracker_.CatchUp(chain_);
  const auto& pending = tracker_.Pending();
  cursor_ = pending.empty() ? chain_.NextLogIndex() : pending.begin()->first;
}

void SpDaemon::FoldLogEvents() {
  if (log_fold_cursor_ > chain_.NextLogIndex()) {
    // A reorg rewound the log below the fold: folded values may be orphaned.
    // The receipts are the storage — refold them all.
    log_values_.clear();
    log_fold_cursor_ = 0;
  }
  const auto events = chain_.EventsSince(log_fold_cursor_);
  if (!events.empty()) log_fold_cursor_ = events.back().log_index + 1;
  for (const auto& event : events) {
    if (event.contract != manager_) continue;
    if (event.name == StorageManagerContract::kDataEvent) {
      chain::AbiReader r(event.data);
      const ByteSpan key = r.BlobView();
      log_values_[key] = r.Blob();
    } else if (event.name == StorageManagerContract::kUnpinEvent) {
      chain::AbiReader r(event.data);
      log_values_.Erase(r.BlobView());
    }
  }
}

namespace {

// Flip one byte of the first provable entry — the SP "serving" a proof that
// no longer verifies (bit rot, or a proof built against a stale root). The
// on-chain verifier must reject the whole deliver.
void CorruptFirstProof(std::vector<DeliverEntry>& entries) {
  for (auto& entry : entries) {
    if (entry.kind != DeliverEntry::Kind::kQuery) continue;
    if (!entry.query.path.siblings.empty()) {
      entry.query.path.siblings[0].bytes[0] ^= 0xFF;
    } else if (!entry.query.record.value.empty()) {
      entry.query.record.value[0] ^= 0xFF;
    } else {
      entry.query.index ^= 1;
    }
    return;
  }
  // No point-query entry: perturb a scan/absence window index instead.
  for (auto& entry : entries) {
    if (entry.kind == DeliverEntry::Kind::kScan) {
      entry.scan.lo ^= 1;
      return;
    }
    if (entry.kind == DeliverEntry::Kind::kAbsence) {
      entry.absence.lo ^= 1;
      return;
    }
  }
}

}  // namespace

void SpDaemon::MutateEntries(std::vector<DeliverEntry>& entries) {
  if (adversary_->Fire(fault::AdversaryClass::kStaleRoot)) {
    // Re-serve the oldest proof this daemon ever built for a batched key. If
    // the root has moved since, the contract's root comparison catches it; if
    // nothing was cached (or nothing moved) the attack fizzles — still a
    // counted fire, still deterministic.
    for (auto& entry : entries) {
      if (entry.kind != DeliverEntry::Kind::kQuery) continue;
      if (const ads::QueryProof* stale = stale_proofs_.Find(entry.key)) {
        entry.query = *stale;
        break;
      }
    }
  }
  if (adversary_->Fire(fault::AdversaryClass::kEquivocate)) {
    // Equivocation: a self-consistent FORK — a one-leaf tree holding a
    // forged record. Internally coherent (every structural check passes,
    // unlike a bit-flip), so only the comparison against the DO-committed
    // root can expose it.
    for (auto& entry : entries) {
      if (entry.kind != DeliverEntry::Kind::kQuery) continue;
      if (entry.query.record.value.empty()) {
        entry.query.record.value = ToBytes("forked-value");
      } else {
        for (auto& b : entry.query.record.value) b ^= 0xA5;
      }
      entry.query.index = 0;
      entry.query.capacity = 1;
      entry.query.path.siblings.clear();
      break;
    }
  }
  if (adversary_->Fire(fault::AdversaryClass::kTruncate)) {
    // Truncated Merkle path: drop the topmost sibling.
    for (auto& entry : entries) {
      if (entry.kind == DeliverEntry::Kind::kQuery &&
          !entry.query.path.siblings.empty()) {
        entry.query.path.siblings.pop_back();
        break;
      }
    }
  }
  if (adversary_->Fire(fault::AdversaryClass::kForge)) {
    CorruptFirstProof(entries);
  }
}

size_t SpDaemon::PollAndServe() {
  last_outcome_ = DeliverOutcome::kIdle;
  if (GRUB_FAULT_POINT(faults_, "sp.crash")) {
    // Crash/restart: the process dies between polls and comes back with no
    // in-memory state. Nothing is served this cycle; the cursor re-derives
    // from the chain's pending-request set.
    RecoverCursor();
    consecutive_failures_ += 1;
    last_outcome_ = DeliverOutcome::kCrashed;
    if (tracer_ != nullptr) {
      tracer_->GlobalEvent("sp.crash", chain_.CurrentBlockNumber());
    }
    return 0;
  }
  // A reorg can rewind the event log below our cursor; re-derive rather
  // than tailing indices that no longer exist.
  if (cursor_ > chain_.NextLogIndex()) RecoverCursor();

  // Bring the receipt-replay store up to date first: a request in this very
  // poll window may read a log-tier value whose `grub_data` receipt landed
  // earlier in the same window.
  FoldLogEvents();

  const uint64_t batch_start = cursor_;
  // A view of the log: read only while building the batch, before the
  // deliver below runs a transaction.
  const auto events = chain_.EventsSince(cursor_);
  if (!events.empty()) cursor_ = events.back().log_index + 1;

  // Dedup a read burst: identical (key, callback) requests in one poll share
  // a single proof; the callback fires once per original request.
  std::vector<DeliverEntry> entries;
  std::map<std::tuple<Bytes, chain::Address, std::string>, size_t> index_of;
  // The batch must stay inside the Ctx(X) calldata validity bound. When the
  // next entry would cross it, stop building and roll the request cursor
  // back to that event: the remaining requests are still pending on chain
  // and the next poll serves them — the cursor IS the chunking state.
  uint64_t batch_bytes = 8;  // the entry-count word
  for (const auto& event : events) {
    if (event.contract != manager_) continue;
    if (event.name == StorageManagerContract::kRequestScanEvent) {
      chain::AbiReader r(event.data);
      const ByteSpan start = r.BlobView();
      const ByteSpan end = r.BlobView();
      const chain::Address callback_contract = r.U64();
      const std::string_view callback_function = AsChars(r.BlobView());
      // A scan crossing shard boundaries is answered with one entry per
      // shard part (each proven against its own shard root); the contract
      // rejects entries that straddle a boundary. Single-shard deployments
      // get exactly one part covering the requested range.
      auto parts = sp_.ScanSharded(start, end);
      if (!parts.ok()) continue;
      std::vector<DeliverEntry> part_entries;
      for (auto& part : parts.value()) {
        DeliverEntry part_entry;
        part_entry.kind = DeliverEntry::Kind::kScan;
        part_entry.key = part.start;
        part_entry.end_key = part.end;
        part_entry.callback_contract = callback_contract;
        part_entry.callback_function = callback_function;
        part_entry.scan = std::move(part.proof);
        part_entries.push_back(std::move(part_entry));
      }
      uint64_t add = 0;
      for (const auto& pe : part_entries) add += DeliverEntryBytes(pe);
      if (!entries.empty() &&
          batch_bytes + add >= chain::GasSchedule::kMaxCalldataBytes) {
        cursor_ = event.log_index;
        break;
      }
      batch_bytes += add;
      for (auto& pe : part_entries) entries.push_back(std::move(pe));
      continue;
    }
    if (event.name != StorageManagerContract::kRequestEvent) {
      continue;
    }
    // The request is read in place from the event; the entry copies the
    // key and callback name once.
    chain::AbiReader r(event.data);
    const ByteSpan key = r.BlobView();
    const chain::Address callback_contract = r.U64();
    const std::string_view callback_function = AsChars(r.BlobView());

    if (dedup_batch_) {
      if (auto it = index_of.find(std::make_tuple(
              Bytes(key.begin(), key.end()), callback_contract,
              std::string(callback_function)));
          it != index_of.end()) {
        entries[it->second].repeats += 1;
        continue;
      }
    }

    DeliverEntry entry;
    entry.key.assign(key.begin(), key.end());
    entry.callback_contract = callback_contract;
    entry.callback_function = callback_function;

    const tier::StorageTier placement = sp_.EffectiveTier(key);
    const Bytes* folded = placement == tier::StorageTier::kLog
                              ? log_values_.Find(key)
                              : nullptr;
    if (folded != nullptr) {
      // Log-tier serve: replay the receipt value; the contract verifies it
      // against the digest pin (no Merkle path, no replicate hint — the
      // value never materializes in contract storage).
      entry.kind = DeliverEntry::Kind::kDigest;
      entry.value = *folded;
      digest_entries_served_ += 1;
    } else {
      auto proof = sp_.Get(key);
      if (proof.ok()) {
        entry.kind = DeliverEntry::Kind::kQuery;
        entry.query = std::move(proof).value();
        entry.replicate_hint = placement == tier::StorageTier::kStorage;
      } else {
        entry.kind = DeliverEntry::Kind::kAbsence;
        auto absence = sp_.ProveAbsent(key);
        if (!absence.ok()) continue;  // cannot serve: not present, not absent
        entry.absence = std::move(absence).value();
      }
    }
    const uint64_t add = DeliverEntryBytes(entry);
    if (!entries.empty() &&
        batch_bytes + add >= chain::GasSchedule::kMaxCalldataBytes) {
      cursor_ = event.log_index;
      break;
    }
    batch_bytes += add;
    if (dedup_batch_) {
      index_of.emplace(std::make_tuple(entry.key, callback_contract,
                                       entry.callback_function),
                       entries.size());
    }
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) return 0;
  size_t served = 0;
  for (const auto& entry : entries) served += entry.repeats;

  // One span per deliver batch; drops/retries also annotate each request
  // span the batch carries, so a starved gGet shows its own retry chain.
  uint64_t deliver_span = 0;
  auto annotate_entries = [&](const char* name, uint64_t block) {
    if (tracer_ == nullptr) return;
    for (const auto& entry : entries) {
      tracer_->AnnotateRequest(entry.key,
                               entry.kind == DeliverEntry::Kind::kScan, name,
                               block);
    }
  };
  if (tracer_ != nullptr) {
    deliver_span = tracer_->BeginSpan(telemetry::SpanKind::kDeliver,
                                      chain_.CurrentBlockNumber());
    tracer_->SetAttr(deliver_span, "batch", std::to_string(entries.size()));
    tracer_->SetAttr(deliver_span, "served", std::to_string(served));
  }

  Bytes calldata;
  if (adversary_ != nullptr) {
    // Stock pre-mutation ammunition: the first proof ever served per key —
    // it goes genuinely stale once the root moves on.
    for (const auto& entry : entries) {
      if (entry.kind == DeliverEntry::Kind::kQuery) {
        auto [proof, first] = stale_proofs_.FindOrInsert(entry.key);
        if (first) *proof = entry.query;
      }
    }
    if (adversary_->Fire(fault::AdversaryClass::kOmit)) {
      // Selective omission: swallow the batch but keep the cursor advanced —
      // the daemon PRETENDS it served. The requests starve until the DO's
      // liveness watchdog or the quorum's stall detector notices.
      last_outcome_ = DeliverOutcome::kOmitted;
      if (tracer_ != nullptr) {
        tracer_->Annotate(deliver_span, "adv.omit",
                          chain_.CurrentBlockNumber());
        tracer_->EndSpan(deliver_span, chain_.CurrentBlockNumber(),
                         /*completed=*/false);
      }
      return 0;
    }
    if (!last_good_calldata_.empty() &&
        adversary_->Fire(fault::AdversaryClass::kReplay)) {
      // Replay: resubmit the last ACCEPTED deliver verbatim. Every proof in
      // it still verifies against the current root — only the contract's
      // pending-request ledger can tell it was already answered.
      calldata = last_good_calldata_;
    } else {
      MutateEntries(entries);
    }
  }
  if (GRUB_FAULT_POINT(faults_, "sp.proof.corrupt")) {
    CorruptFirstProof(entries);
    if (tracer_ != nullptr) {
      tracer_->Annotate(deliver_span, "proof.corrupt",
                        chain_.CurrentBlockNumber());
    }
  }
  if (calldata.empty()) {
    calldata = StorageManagerContract::EncodeDeliver(entries);
  }

  if (last_rejected_digest_.has_value() &&
      Sha256::Digest(calldata) == *last_rejected_digest_) {
    // The contract already rejected this exact deliver, and its verdict is
    // deterministic in (calldata, on-chain roots): re-sending burns Gas for
    // a foregone rejection. Count it without submitting; the quarantine
    // lifts as soon as state movement changes the rebuilt batch (or a
    // failover hands the requests to a replica with clean proofs).
    cursor_ = batch_start;
    consecutive_failures_ += 1;
    deliver_rejections_ += 1;
    last_outcome_ = DeliverOutcome::kRejected;
    if (tracer_ != nullptr) {
      tracer_->Annotate(deliver_span, "deliver.quarantined",
                        chain_.CurrentBlockNumber());
      tracer_->EndSpan(deliver_span, chain_.CurrentBlockNumber(),
                       /*completed=*/false);
    }
    return 0;
  }

  // Submit, resubmitting with deterministic exponential backoff when the
  // transaction is lost (daemon-side or in the mempool). The calldata is
  // identical across attempts — a retry is the same deliver.
  chain::Receipt receipt;
  bool included = false;
  for (uint64_t attempt = 1; attempt <= kMaxDeliverAttempts; ++attempt) {
    if (attempt > 1) {
      deliver_retries_ += 1;
      if (tracer_ != nullptr) {
        tracer_->Annotate(deliver_span, "deliver.retry",
                          chain_.CurrentBlockNumber(),
                          "attempt=" + std::to_string(attempt));
        annotate_entries("deliver.retry", chain_.CurrentBlockNumber());
      }
      chain_.AdvanceTime(kRetryBackoffSec << (attempt - 2));
    }
    if (GRUB_FAULT_POINT(faults_, "sp.deliver.drop")) {
      if (tracer_ != nullptr) {
        tracer_->Annotate(deliver_span, "deliver.drop",
                          chain_.CurrentBlockNumber(),
                          "attempt=" + std::to_string(attempt));
        annotate_entries("deliver.drop", chain_.CurrentBlockNumber());
      }
      continue;  // lost before reaching the mempool
    }
    chain::Transaction tx;
    tx.from = sp_account_;
    tx.to = manager_;
    tx.function = StorageManagerContract::kDeliverFn;
    tx.cause = telemetry::GasCause::kDeliver;
    tx.calldata = calldata;
    tx.trace_id = deliver_span;
    receipt = chain_.SubmitAndMine(std::move(tx));
    if (chain::IsDroppedReceipt(receipt)) continue;  // lost in the mempool
    included = true;
    break;
  }

  if (!included) {
    // Every attempt was lost: roll the cursor back so the next poll re-reads
    // (and re-serves) the same requests — they are still pending on chain.
    cursor_ = batch_start;
    consecutive_failures_ += 1;
    last_outcome_ = DeliverOutcome::kLost;
    if (tracer_ != nullptr) {
      tracer_->Annotate(deliver_span, "deliver.lost",
                        chain_.CurrentBlockNumber());
      tracer_->EndSpan(deliver_span, chain_.CurrentBlockNumber(),
                       /*completed=*/false);
    }
    return 0;
  }
  if (!receipt.ok() && !chain::IsDelayedReceipt(receipt)) {
    // Included but rejected (a proof failed verification — corrupt, forged,
    // stale, or a replayed batch). The requests remain unanswered; re-prove
    // from current state on the next poll, but quarantine this calldata so
    // the retry path can never re-send the provably-bad proof.
    cursor_ = batch_start;
    consecutive_failures_ += 1;
    deliver_rejections_ += 1;
    last_outcome_ = DeliverOutcome::kRejected;
    last_rejected_digest_ = Sha256::Digest(calldata);
    if (tracer_ != nullptr) {
      tracer_->Annotate(deliver_span, "deliver.rejected",
                        chain_.CurrentBlockNumber());
      annotate_entries("deliver.rejected", chain_.CurrentBlockNumber());
      tracer_->EndSpan(deliver_span, chain_.CurrentBlockNumber(),
                       /*completed=*/false);
    }
    return 0;
  }
  // A delayed deliver sits in the mempool and executes in an upcoming block;
  // its requests are served then, but the daemon's work is done either way.
  consecutive_failures_ = 0;
  delivers_sent_ += 1;
  last_outcome_ = DeliverOutcome::kServed;
  last_rejected_digest_.reset();
  if (adversary_ != nullptr) last_good_calldata_ = calldata;
  if (workload_ != nullptr) {
    workload_->OnDeliver(entries.size(), chain_.CurrentBlockNumber());
  }
  if (tracer_ != nullptr) {
    const uint64_t now_block = chain_.CurrentBlockNumber();
    if (chain::IsDelayedReceipt(receipt)) {
      // Still in the mempool; the chain annotates the span again at actual
      // execution via the transaction's trace id.
      tracer_->Annotate(deliver_span, "deliver.delayed", now_block);
    } else {
      // Executed: gGet callbacks already closed their spans during
      // SubmitAndMine (the serve annotation lands on the just-closed span);
      // scans close here, at proof delivery.
      for (const auto& entry : entries) {
        if (entry.kind == DeliverEntry::Kind::kScan) {
          tracer_->CompleteScan(entry.key, entry.end_key, now_block);
        } else if (entry.repeats > 1) {
          // The aggregation fact is the only thing the span can't already
          // tell: its synthesized callback instant records the serve block,
          // so single-repeat serves (the hot path) stay annotation-free.
          tracer_->AnnotateRequest(entry.key, /*is_scan=*/false,
                                   "deliver.serve", now_block,
                                   "repeats=" + std::to_string(entry.repeats));
        }
      }
    }
    tracer_->EndSpan(deliver_span, now_block, /*completed=*/true);
  }
  return served;
}

}  // namespace grub::core
