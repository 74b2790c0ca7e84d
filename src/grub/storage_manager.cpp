#include "grub/storage_manager.h"

#include <cstring>
#include <map>
#include <string_view>

#include "crypto/sha256.h"
#include "shard/forest.h"
#include "telemetry/telemetry.h"

namespace grub::core {

using chain::AbiReader;
using chain::AbiWriter;

Word StorageManagerContract::RootSlot() {
  static const Word slot = Sha256::Digest(BytesOf("grub.root"));
  return slot;
}

Word StorageManagerContract::LenSlot(ByteSpan key) {
  return Sha256::Digest2(BytesOf("grub.len"), key);
}

Word StorageManagerContract::ValueBase(ByteSpan key) {
  return Sha256::Digest2(BytesOf("grub.kv"), key);
}

Word StorageManagerContract::CounterSlot(ByteSpan key) {
  return Sha256::Digest2(BytesOf("grub.cnt"), key);
}

Word StorageManagerContract::PendingSlot(ByteSpan key,
                                         chain::Address callback_contract,
                                         std::string_view callback_function) {
  // Fingerprint of one outstanding point request: the ledger guarding
  // deliver() against replayed or unsolicited entries counts per identity,
  // exactly the identity the SP daemon's dedup and the request tracker use.
  // The identity is encoded as gGet's calldata is.
  return Sha256::Digest2(
      BytesOf("grub.pending"),
      EncodeGGet(key, callback_contract, callback_function));
}

void StorageManagerContract::NotePendingRequest(
    chain::CallContext& ctx, ByteSpan key, chain::Address callback_contract,
    std::string_view callback_function) {
  // Unmetered bookkeeping: the ledger is a detection aid, not part of the
  // paper's protocol, so it must not move a single Gas number. It lives in
  // the backing ContractStorage (snapshotted across reorgs), never in C++
  // member state.
  chain::ContractStorage& backing = ctx.Storage().Backing();
  const Word slot = PendingSlot(key, callback_contract, callback_function);
  backing.Store(slot, Word::FromU64(backing.Load(slot).ToU64() + 1));
}

Word StorageManagerContract::DigestSlot(ByteSpan key) {
  return Sha256::Digest2(BytesOf("grub.digest"), key);
}

Word StorageManagerContract::ShardRootSlot(uint32_t s) {
  uint8_t index[8];
  for (size_t b = 0; b < 8; ++b) {
    index[b] = static_cast<uint8_t>(static_cast<uint64_t>(s) >> (56 - 8 * b));
  }
  return Sha256::Digest2(BytesOf("grub.shard.root"), index);
}

Status StorageManagerContract::Call(chain::CallContext& ctx,
                                    const std::string& function,
                                    ByteSpan args) {
  if (function == kUpdateFn) return HandleUpdate(ctx, args);
  if (function == kGGetFn) return HandleGGet(ctx, args);
  if (function == kGScanFn) return HandleGScan(ctx, args);
  if (function == kDeliverFn) return HandleDeliver(ctx, args);
  return Status::NotFound("StorageManager: unknown function " + function);
}

void StorageManagerContract::PreloadReplica(chain::ContractStorage& storage,
                                            ByteSpan key, ByteSpan value,
                                            bool live) {
  const Word base = ValueBase(key);
  const uint64_t words = WordsForBytes(value.size());
  for (uint64_t w = 0; w < words; ++w) {
    Word slot{};
    const size_t offset = static_cast<size_t>(w) * kWordSize;
    const size_t take = std::min(kWordSize, value.size() - offset);
    std::memcpy(slot.bytes.data(), value.data() + offset, take);
    storage.Store(chain::MeteredStorage::SlotKey(base, w), slot);
  }
  if (live) {
    storage.Store(LenSlot(key), Word::FromU64(value.size() + 1));
  }
}

// --- calldata builders ---

Bytes StorageManagerContract::EncodeUpdate(
    size_t shard_count, const Hash256& digest, uint64_t epoch,
    const std::vector<std::pair<uint64_t, Hash256>>& shard_roots,
    const std::vector<ads::FeedRecord>& replicated,
    const std::vector<Bytes>& evictions, const TierSuffix& tiered) {
  uint64_t size = UpdateBaseBytes(shard_count, shard_roots.size());
  for (const auto& record : replicated) size += EncodedRecordBytes(record);
  for (const auto& key : evictions) size += UpdateKeyBytes(key);
  if (!tiered.empty()) {
    size += kUpdateTierCountBytes;
    for (const auto& entry : tiered.entries) {
      size += UpdateTierEntryBytes(entry);
    }
    for (const auto& key : tiered.unpins) size += UpdateKeyBytes(key);
  }
  AbiWriter w(size);
  w.Hash(digest);
  w.U64(epoch);
  if (shard_count > 1) {
    w.U64(shard_roots.size());
    for (const auto& [shard, root] : shard_roots) {
      w.U64(shard);
      w.Hash(root);
    }
  }
  w.U64(replicated.size());
  for (const auto& record : replicated) EncodeRecord(w, record);
  w.U64(evictions.size());
  for (const auto& key : evictions) w.Blob(key);
  if (!tiered.empty()) {
    w.U64(tiered.entries.size());
    for (const auto& entry : tiered.entries) {
      w.U64(static_cast<uint64_t>(entry.tier));
      EncodeRecord(w, entry.record);
    }
    w.U64(tiered.unpins.size());
    for (const auto& key : tiered.unpins) w.Blob(key);
  }
  return w.Take();
}

uint64_t StorageManagerContract::UpdateBaseBytes(size_t shard_count,
                                                 size_t shard_roots) {
  uint64_t bytes = 32 + 8 + 8 + 8;  // digest, epoch, replication counts
  if (shard_count > 1) bytes += 8 + 40 * shard_roots;
  return bytes;
}

Bytes StorageManagerContract::EncodeGGet(ByteSpan key,
                                         chain::Address callback_contract,
                                         std::string_view callback_function) {
  AbiWriter w(8 + key.size() + 8 + 8 + callback_function.size());
  w.Blob(key);
  w.U64(callback_contract);
  w.Blob(BytesOf(callback_function));
  return w.Take();
}

Bytes StorageManagerContract::EncodeGScan(ByteSpan start, ByteSpan end,
                                          chain::Address callback_contract,
                                          std::string_view callback_function) {
  AbiWriter w(8 + start.size() + 8 + end.size() + 8 + 8 +
              callback_function.size());
  w.Blob(start);
  w.Blob(end);
  w.U64(callback_contract);
  w.Blob(BytesOf(callback_function));
  return w.Take();
}

Bytes StorageManagerContract::EncodeDeliver(
    const std::vector<DeliverEntry>& entries) {
  uint64_t size = 8;
  for (const auto& entry : entries) size += DeliverEntryBytes(entry);
  AbiWriter w(size);
  w.U64(entries.size());
  for (const auto& entry : entries) EncodeDeliverEntry(w, entry);
  return w.Take();
}

// --- handlers ---

void StorageManagerContract::ChargeTraceCounter(chain::CallContext& ctx,
                                                ByteSpan key) {
  // BL3: maintain a per-key operation counter in contract storage. One read
  // (the current count) and one write (the increment).
  telemetry::GasSpan span(telemetry::GasCause::kBl3Trace);
  const Word slot = CounterSlot(key);
  Word count = ctx.Storage().SLoad(slot);
  ctx.Storage().SStore(slot, Word::FromU64(count.ToU64() + 1));
}

Status StorageManagerContract::HandleUpdate(chain::CallContext& ctx,
                                            ByteSpan args) {
  if (ctx.Sender() != config_.do_address) {
    return Status::FailedPrecondition("update: caller is not an authorized DO");
  }
  AbiReader r(args);
  const Hash256 digest = r.Hash();
  const uint64_t epoch = r.U64();
  (void)epoch;
  // At one shard the digest is the tree's root: no shard-root section, no
  // rollup. With more, the section lists the shard roots that changed.
  const size_t shard_count = config_.shard_map.Count();
  std::vector<std::pair<uint64_t, Hash256>> provided;
  if (shard_count > 1) {
    const uint64_t n_roots = r.U64();
    for (uint64_t i = 0; i < n_roots; ++i) {
      const uint64_t shard = r.U64();
      const Hash256 root = r.Hash();
      if (shard >= shard_count) {
        return Status::InvalidArgument("update: shard index out of range");
      }
      provided.emplace_back(shard, root);
    }
    // Verify the digest is the rollup of the stored shard roots merged with
    // the provided ones, BEFORE storing anything — a failed call does not
    // roll storage back in this model, so nothing may be written until the
    // digest checks out. O(shard count) sloads + hashes, independent of the
    // keyspace size. (An unset shard-root slot reads as the zero word, which
    // IS the empty tree's root — genesis verifies without special cases.)
    telemetry::GasSpan rollup_span(telemetry::GasCause::kRootRollup);
    std::vector<Hash256> roots(shard_count);
    for (size_t shard = 0; shard < shard_count; ++shard) {
      roots[shard] =
          ctx.Storage().SLoad(ShardRootSlot(static_cast<uint32_t>(shard)));
    }
    for (const auto& [shard, root] : provided) roots[shard] = root;
    const Hash256 recomputed = shard::ComputeRootOfRootsMetered(
        roots, [&ctx](size_t bytes_hashed) {
          ctx.Meter().ChargeHash(WordsForBytes(bytes_hashed));
        });
    if (recomputed != digest) {
      return Status::IntegrityViolation("update: root-of-roots mismatch");
    }
  }

  telemetry::GasSpan update_span(telemetry::GasCause::kUpdateRoot);
  ctx.Storage().SStore(RootSlot(), digest);
  for (const auto& [shard, root] : provided) {
    ctx.Storage().SStore(ShardRootSlot(static_cast<uint32_t>(shard)), root);
  }
  Status s = ApplyReplicationSuffix(ctx, r);
  if (!s.ok()) return s;
  return ApplyTierSuffix(ctx, r);
}

Status StorageManagerContract::ApplyReplicationSuffix(chain::CallContext& ctx,
                                                      AbiReader& r) {
  // Full-value updates for records whose replica lives on chain.
  const uint64_t n_updates = r.U64();
  for (uint64_t i = 0; i < n_updates; ++i) {
    auto record = ads::FeedRecord::Deserialize(r.BlobView());
    if (!record.ok()) return record.status();
    if (config_.trace_writes_on_chain) ChargeTraceCounter(ctx, record->key);

    telemetry::GasSpan span(telemetry::GasCause::kReplicaInsert);
    // Solidity mapping access hashes the key to derive the slot.
    ctx.Meter().ChargeHash(WordsForBytes(record->key.size() + 32));
    const Word len_slot = LenSlot(record->key);
    const uint64_t old_len_tag = ctx.Storage().SLoad(len_slot).ToU64();
    const size_t old_len = old_len_tag == 0 ? 0 : old_len_tag - 1;
    ctx.Storage().SStoreBytes(ValueBase(record->key), record->value, old_len);
    if (old_len != record->value.size()) {
      ctx.Storage().SStore(len_slot, Word::FromU64(record->value.size() + 1));
    }
  }

  // Evictions: R -> NR transitions invalidate the replica by zeroing only
  // the length slot. Value slots stay warm ("reusable storage upon
  // replicating a record", Â§4.2): re-replication then charges updates
  // (5000/word) instead of fresh inserts (20000/word), and eviction itself
  // is one cheap slot write.
  const uint64_t n_evictions = r.U64();
  for (uint64_t i = 0; i < n_evictions; ++i) {
    const ByteSpan key = r.BlobView();
    telemetry::GasSpan span(telemetry::GasCause::kReplicaEvict);
    ctx.Meter().ChargeHash(WordsForBytes(key.size() + 32));
    const Word len_slot = LenSlot(key);
    const uint64_t len_tag = ctx.Storage().SLoad(len_slot).ToU64();
    if (len_tag == 0) continue;  // nothing replicated
    ctx.Storage().SStore(len_slot, Word{});
  }
  return Status::Ok();
}

Status StorageManagerContract::ApplyTierSuffix(chain::CallContext& ctx,
                                               AbiReader& r) {
  if (r.AtEnd()) return Status::Ok();  // pre-tier calldata layout
  const uint64_t n_entries = r.U64();
  for (uint64_t i = 0; i < n_entries; ++i) {
    const uint64_t tier_tag = r.U64();
    if (tier_tag >= tier::kNumStorageTiers) {
      return Status::InvalidArgument("update: bad tier tag");
    }
    auto record = ads::FeedRecord::Deserialize(r.BlobView());
    if (!record.ok()) return record.status();
    const auto t = static_cast<tier::StorageTier>(tier_tag);
    if (t == tier::StorageTier::kLog) {
      // Pin the content digest (Solidity mapping access + metered hash of
      // the value), then emit the value as LOG data — the receipt is the
      // read-path storage, at 8 gas/byte instead of sstore prices.
      telemetry::GasSpan span(telemetry::GasCause::kLogPin);
      ctx.Meter().ChargeHash(WordsForBytes(record->key.size() + 32));
      ctx.Meter().ChargeHash(WordsForBytes(record->value.size()));
      ctx.Storage().SStore(DigestSlot(record->key),
                           Sha256::Digest(record->value));
      AbiWriter w(8 + record->key.size() + 8 + record->value.size());
      w.Blob(record->key);
      w.Blob(record->value);
      ctx.EmitEvent(kDataEvent, w.Take());
    }
    // kCalldata: the record already rode (and was charged as) calldata —
    // availability only, nothing stored. kStorage/kOffchain records never
    // appear here; they ride the replication suffix / the root alone.
  }

  // Unpins: keys leaving the log tier. Zero the pin and tell replaying SPs.
  const uint64_t n_unpins = r.U64();
  for (uint64_t i = 0; i < n_unpins; ++i) {
    const ByteSpan key = r.BlobView();
    telemetry::GasSpan span(telemetry::GasCause::kLogPin);
    ctx.Meter().ChargeHash(WordsForBytes(key.size() + 32));
    const Word slot = DigestSlot(key);
    if (ctx.Storage().SLoad(slot) == Word{}) continue;  // no pin to drop
    ctx.Storage().SStore(slot, Word{});
    AbiWriter w(8 + key.size());
    w.Blob(key);
    ctx.EmitEvent(kUnpinEvent, w.Take());
  }
  return Status::Ok();
}

Status StorageManagerContract::HandleGGet(chain::CallContext& ctx,
                                          ByteSpan args) {
  telemetry::GasSpan span(telemetry::GasCause::kGGetSync);
  // Read in place: the views point into this call's calldata, which its
  // call record owns for the whole run.
  AbiReader r(args);
  const ByteSpan key = r.BlobView();
  const chain::Address callback_contract = r.U64();
  const std::string_view callback_function = AsChars(r.BlobView());

  if (config_.trace_reads_on_chain) ChargeTraceCounter(ctx, key);

  ctx.Meter().ChargeHash(WordsForBytes(key.size() + 32));
  const uint64_t len_tag = ctx.Storage().SLoad(LenSlot(key)).ToU64();
  if (workload_ != nullptr) workload_->OnChainRead(len_tag != 0);
  if (len_tag != 0) {
    // Replica hit: serve from contract storage.
    Bytes value = ctx.Storage().SLoadBytes(ValueBase(key), len_tag - 1);
    return InvokeCallback(ctx, callback_contract,
                          std::string(callback_function), key, value,
                          /*found=*/true);
  }

  // Miss: emit the request event for the SP watchdog.
  ctx.EmitEvent(kRequestEvent,
                EncodeGGet(key, callback_contract, callback_function));
  NotePendingRequest(ctx, key, callback_contract, callback_function);
  return Status::Ok();
}

Status StorageManagerContract::HandleGScan(chain::CallContext& ctx,
                                           ByteSpan args) {
  // Range reads are always served off-chain with a completeness proof
  // (B.2.2 r2): an EVM mapping cannot enumerate its keys, so even records
  // with on-chain replicas ride the proven range response.
  telemetry::GasSpan span(telemetry::GasCause::kGGetSync);
  AbiReader r(args);
  const ByteSpan start = r.BlobView();
  const ByteSpan end = r.BlobView();
  const chain::Address callback_contract = r.U64();
  const std::string_view callback_function = AsChars(r.BlobView());
  if (config_.trace_reads_on_chain) ChargeTraceCounter(ctx, start);

  ctx.EmitEvent(kRequestScanEvent,
                EncodeGScan(start, end, callback_contract, callback_function));
  return Status::Ok();
}

Status StorageManagerContract::HandleDeliver(chain::CallContext& ctx,
                                             ByteSpan args) {
  telemetry::GasSpan deliver_span(telemetry::GasCause::kDeliver);
  AbiReader r(args);
  // Single-shard: the legacy behavior, one eager root sload. Sharded: proofs
  // verify against the entry's shard root, each sloaded at most once per
  // call on first reference — deliver Gas scales with the shards a batch
  // touches, not with the shard count.
  const size_t shard_count = config_.shard_map.Count();
  std::vector<Hash256> roots(shard_count);
  std::vector<bool> loaded(shard_count, false);
  if (shard_count == 1) {
    roots[0] = ctx.Storage().SLoad(RootSlot());
    loaded[0] = true;
  }
  const auto root_for = [&](ByteSpan key) -> const Hash256& {
    const uint32_t shard = config_.shard_map.ShardOf(key);
    if (!loaded[shard]) {
      roots[shard] = ctx.Storage().SLoad(ShardRootSlot(shard));
      loaded[shard] = true;
    }
    return roots[shard];
  };

  // Verification hashes are buffered and settled after the verdict so a
  // rejected proof's hash work books under kProofReject while the honest
  // path replays the exact legacy charge sequence under the ambient
  // kDeliver span — attribution moves, Gas totals never do.
  std::vector<size_t> pending_hashes;
  const auto buffered_cost = [&pending_hashes](size_t bytes_hashed) {
    pending_hashes.push_back(bytes_hashed);
  };
  const auto settle_hashes = [&](ads::ProofReject verdict,
                                 telemetry::GasCause ok_cause) {
    telemetry::GasSpan span(verdict == ads::ProofReject::kNone
                                ? ok_cause
                                : telemetry::GasCause::kProofReject);
    for (size_t bytes : pending_hashes) {
      ctx.Meter().ChargeHash(WordsForBytes(bytes));
    }
    pending_hashes.clear();
  };

  // Replay guard: every point entry must answer an outstanding gGet miss,
  // so a replayed or unsolicited delivery reverts instead of re-invoking
  // callbacks. Claims against the unmetered pending ledger accumulate here
  // and are written back only after the whole batch verifies — a failed
  // call does not roll storage back in this chain model, so partial
  // decrements would leak counts.
  chain::ContractStorage& backing = ctx.Storage().Backing();
  std::map<Word, uint64_t> claimed;

  const uint64_t n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    auto entry = DecodeDeliverEntry(r);
    if (!entry.ok()) return entry.status();

    // `repeats` is SP input that sets how many times the callbacks run, so
    // it is bounded before anything runs: a point entry by the requests
    // still pending for its identity, a scan entry (no ledger; the daemon
    // never merges scans) to exactly one.
    if (entry->kind != DeliverEntry::Kind::kScan) {
      // Checked before any verification is paid for: a replayed delivery is
      // detectable from the ledger alone. Compared by subtraction, so an
      // inflated count cannot wrap `taken` back under the pending count.
      const Word slot = PendingSlot(entry->key, entry->callback_contract,
                                    entry->callback_function);
      uint64_t& taken = claimed[slot];
      const uint64_t pending = backing.Load(slot).ToU64();
      if (taken > pending || entry->repeats > pending - taken) {
        return Status::IntegrityViolation(
            "deliver: replayed or unsolicited point request");
      }
      taken += entry->repeats;
    } else if (entry->repeats != 1) {
      return Status::IntegrityViolation(
          "deliver: a scan entry answers exactly one request");
    }

    if (entry->kind == DeliverEntry::Kind::kScan) {
      if (shard_count > 1) {
        // The scan subrange must stay inside its shard — its completeness
        // proof only covers that shard's tree. The daemon splits cross-shard
        // scans into per-shard entries.
        const uint32_t shard = config_.shard_map.ShardOf(entry->key);
        const Bytes upper = config_.shard_map.UpperBoundOf(shard);
        if (!upper.empty() &&
            (entry->end_key.empty() || Compare(entry->end_key, upper) > 0)) {
          return Status::IntegrityViolation(
              "deliver: scan crosses a shard boundary");
        }
      }
      const ads::ProofReject verdict =
          ads::CheckScan(root_for(entry->key), entry->key, entry->end_key,
                         entry->scan, buffered_cost);
      settle_hashes(verdict, telemetry::GasCause::kDeliver);
      if (verdict != ads::ProofReject::kNone) {
        return ads::RejectStatus(verdict, "deliver: scan");
      }
      for (uint64_t rep = 0; rep < entry->repeats; ++rep) {
        for (const auto& record : entry->scan.records) {
          Status s = InvokeCallback(ctx, entry->callback_contract,
                                    entry->callback_function, record.key,
                                    record.value, /*found=*/true);
          if (!s.ok()) return s;
        }
      }
      continue;
    }
    if (entry->kind == DeliverEntry::Kind::kDigest) {
      // Log-tier read: no Merkle path. The value replayed from the
      // `grub_data` receipt verifies against its digest pin — one mapping
      // hash, one sload, one value hash.
      Word pinned;
      {
        telemetry::GasSpan span(telemetry::GasCause::kLogDeliver);
        ctx.Meter().ChargeHash(WordsForBytes(entry->key.size() + 32));
        pinned = ctx.Storage().SLoad(DigestSlot(entry->key));
      }
      buffered_cost(entry->value.size());
      const Hash256 digest = Sha256::Digest(entry->value);
      const ads::ProofReject verdict =
          (pinned != Word{} && pinned == digest)
              ? ads::ProofReject::kNone
              : ads::ProofReject::kDigestMismatch;
      settle_hashes(verdict, telemetry::GasCause::kLogDeliver);
      if (verdict != ads::ProofReject::kNone) {
        return ads::RejectStatus(verdict, "deliver: digest");
      }
      for (uint64_t rep = 0; rep < entry->repeats; ++rep) {
        Status s = InvokeCallback(ctx, entry->callback_contract,
                                  entry->callback_function, entry->key,
                                  entry->value, /*found=*/true);
        if (!s.ok()) return s;
      }
      continue;
    }
    if (entry->present()) {
      const ads::QueryProof& proof = entry->query;
      if (Compare(proof.record.key, entry->key) != 0) {
        return Status::IntegrityViolation("deliver: key mismatch");
      }
      const ads::ProofReject verdict =
          ads::CheckQuery(root_for(entry->key), proof, buffered_cost);
      settle_hashes(verdict, telemetry::GasCause::kDeliver);
      if (verdict != ads::ProofReject::kNone) {
        return ads::RejectStatus(verdict, "deliver: query");
      }
      // Lazy replication: materialize the replica iff the SP's replicate
      // instruction says R (Listing 2; Gas-only trust).
      if (entry->replicate_hint) {
        telemetry::GasSpan span(telemetry::GasCause::kReplicaInsert);
        ctx.Meter().ChargeHash(WordsForBytes(proof.record.key.size() + 32));
        const Word len_slot = LenSlot(proof.record.key);
        const uint64_t old_tag = ctx.Storage().SLoad(len_slot).ToU64();
        const size_t old_len = old_tag == 0 ? 0 : old_tag - 1;
        // Skip the expensive stores when the replica already holds this
        // value (a read burst delivers the same record repeatedly; sloads at
        // 200/word are far cheaper than 5000/word rewrites).
        bool fresh = old_tag != 0 && old_len == proof.record.value.size();
        if (fresh) {
          Bytes current = ctx.Storage().SLoadBytes(
              ValueBase(proof.record.key), old_len);
          fresh = Compare(current, proof.record.value) == 0;
        }
        if (!fresh) {
          ctx.Storage().SStoreBytes(ValueBase(proof.record.key),
                                    proof.record.value, old_len);
          ctx.Storage().SStore(len_slot,
                               Word::FromU64(proof.record.value.size() + 1));
        }
      }
      for (uint64_t rep = 0; rep < entry->repeats; ++rep) {
        Status s = InvokeCallback(ctx, entry->callback_contract,
                                  entry->callback_function, proof.record.key,
                                  proof.record.value, /*found=*/true);
        if (!s.ok()) return s;
      }
    } else {
      const ads::ProofReject verdict = ads::CheckAbsence(
          root_for(entry->key), entry->key, entry->absence, buffered_cost);
      settle_hashes(verdict, telemetry::GasCause::kDeliver);
      if (verdict != ads::ProofReject::kNone) {
        return ads::RejectStatus(verdict, "deliver: absence");
      }
      for (uint64_t rep = 0; rep < entry->repeats; ++rep) {
        Status s = InvokeCallback(ctx, entry->callback_contract,
                                  entry->callback_function, entry->key,
                                  ByteSpan{}, /*found=*/false);
        if (!s.ok()) return s;
      }
    }
  }
  // Whole batch verified and every callback ran: consume the answered
  // requests from the ledger (unmetered, like the increments).
  for (const auto& [slot, taken] : claimed) {
    backing.Store(slot, Word::FromU64(backing.Load(slot).ToU64() - taken));
  }
  return Status::Ok();
}

Status StorageManagerContract::InvokeCallback(chain::CallContext& ctx,
                                              chain::Address contract,
                                              const std::string& function,
                                              ByteSpan key, ByteSpan value,
                                              bool found) {
  if (contract == chain::kNullAddress) return Status::Ok();
  AbiWriter w(8 + key.size() + 8 + value.size() + 8);
  w.Blob(key);
  w.Blob(value);
  w.U64(found ? 1 : 0);
  auto result = ctx.InternalCall(contract, function, w.Take());
  if (!result.ok()) return result.status();
  return Status::Ok();
}

}  // namespace grub::core
