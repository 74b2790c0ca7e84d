// GRuB's on-chain storage-manager smart contract (Listing 2).
//
// Storage layout (word-addressed, per the EVM model):
//   SHA256("grub.root")          -> current ADS root digest
//   SHA256("grub.len"  || key)   -> value byte length + 1 (0 = no replica)
//   SHA256("grub.kv"   || key)+i -> i-th value word of the replica
//   SHA256("grub.cnt"  || key)   -> BL3-only on-chain trace counter
//   SHA256("grub.digest" || key) -> log-tier content digest pin (0 = no pin)
//   SHA256("grub.shard.root" || s) -> shard s's root (more than one shard)
//
// Functions:
//   update(digest, epoch, [shard_roots[]], replicated_updates[],
//          evictions[], [tiered[], unpins[]])                 [DO only]
//     — with more than one shard, `shard_roots` lists the (shard, root)
//       pairs whose trees changed and the digest must be the rollup of the
//       stored roots merged with them; at one shard the digest IS the
//       tree's root and the section is absent (the single-tree layout).
//       The optional tier suffix carries log-tier records (digest pin +
//       `grub_data` event with the value as LOG data) and calldata-tier
//       records (availability only); `unpins` zero digest pins of keys
//       leaving the log tier and emit `grub_unpin` (so SPs replaying
//       receipts track pin liveness). An absent suffix is the pre-tier
//       calldata layout, byte for byte.
//   gGet(key, callback)      — replica hit: sload + callback; miss: emit
//                              `request` (the SP watchdog answers)
//   deliver(entries[])       — verify proofs against the on-chain root;
//                              insert replica when the record state is R;
//                              invoke callbacks. kDigest entries skip the
//                              Merkle path: hash(value) must equal the
//                              pinned digest (one sload + one hash)
//
// BL3 flags charge on-chain trace maintenance (§5.1's dynamic-replication
// baselines that keep the read / read+write trace on chain).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "ads/verify.h"
#include "chain/blockchain.h"
#include "grub/codec.h"
#include "shard/shard_map.h"
#include "telemetry/workload_monitor.h"

namespace grub::core {

class StorageManagerContract : public chain::Contract {
 public:
  struct Config {
    chain::Address do_address = chain::kNullAddress;
    /// Additional accounts authorized to call update() — real feeds are
    /// multi-poster (ethPriceOracle "allows 14 off-chain accounts to update
    /// the price feed", §2.1).
    std::vector<chain::Address> additional_do_accounts;
    bool trace_reads_on_chain = false;   // BL3 variants
    bool trace_writes_on_chain = false;
    /// The keyspace partition this deployment commits to. The contract holds
    /// its own copy (determinism: DO, SP and contract must agree on
    /// ShardOf). A single-shard map (the default) keeps the legacy layout
    /// and calldata formats bit-identical: one root slot, no shard-root
    /// section in update(). With more shards the contract keeps one root
    /// slot per shard plus the root-of-roots, and update() carries the
    /// changed shard roots (see EncodeUpdate).
    shard::ShardMap shard_map;
    /// Harden deliver() with the unmetered pending-request ledger: every
    /// point entry must answer an outstanding gGet miss (counted per
    /// key/callback identity in backing storage), so a replayed or
    /// unsolicited delivery reverts instead of re-invoking callbacks. Off by
    /// default — handcrafted-deliver unit fixtures stay valid, and the
    /// ledger never touches Gas either way — but GrubSystem switches it on
    /// for every feed it deploys.
    bool enforce_request_ledger = false;

    bool IsAuthorizedDo(chain::Address sender) const {
      if (sender == do_address) return true;
      for (chain::Address account : additional_do_accounts) {
        if (sender == account) return true;
      }
      return false;
    }
  };

  explicit StorageManagerContract(Config config) : config_(config) {}

  Status Call(chain::CallContext& ctx, const std::string& function,
              ByteSpan args) override;

  /// Genesis preload (unmetered): warms a record's value slots in contract
  /// storage so the measured run reflects converged costs (re-replication
  /// charges updates, not first-ever inserts — "reusable storage"). When
  /// `live`, the length slot is set too: the replica serves reads
  /// immediately (the BL2 "data stored both on SP and blockchain" start
  /// state).
  static void PreloadReplica(chain::ContractStorage& storage, ByteSpan key,
                             ByteSpan value, bool live);

  // Calldata builders (used by the DO client and the SP daemon).
  /// One update() at a deployment of `shard_count` shards: digest, epoch,
  /// the shard-root section, the replicated records and evictions, then the
  /// tier suffix. The shard-root section (a count, then the new root of
  /// every shard whose tree changed; untouched shards keep their stored
  /// roots) is written only when `shard_count` > 1 — at one shard `digest`
  /// is the tree's root, so `shard_roots` is ignored and the calldata is
  /// the single-tree layout byte for byte. An empty tier suffix appends
  /// nothing, so binary-policy deployments produce the pre-tier calldata.
  static Bytes EncodeUpdate(
      size_t shard_count, const Hash256& digest, uint64_t epoch,
      const std::vector<std::pair<uint64_t, Hash256>>& shard_roots,
      const std::vector<ads::FeedRecord>& replicated,
      const std::vector<Bytes>& evictions, const TierSuffix& tiered = {});
  // Exact calldata bytes of EncodeUpdate's parts (the DO's chunker packs an
  // epoch against GasSchedule::kMaxCalldataBytes with them; codec_test
  // checks their sum against EncodeUpdate at one and four shards). A
  // replicated record costs EncodedRecordBytes.
  /// Digest, epoch, the shard-root section carrying `shard_roots` roots
  /// (none at one shard) and the replicated/eviction counts.
  static uint64_t UpdateBaseBytes(size_t shard_count, size_t shard_roots);
  /// One eviction or unpin.
  static uint64_t UpdateKeyBytes(ByteSpan key) { return 8 + key.size(); }
  /// One tier-suffix entry: the tier tag plus the record.
  static uint64_t UpdateTierEntryBytes(const TierEntry& entry) {
    return 8 + EncodedRecordBytes(entry.record);
  }
  /// The tier suffix's two counts, written only when the suffix is not empty.
  static constexpr uint64_t kUpdateTierCountBytes = 8 + 8;

  static Bytes EncodeGGet(ByteSpan key, chain::Address callback_contract,
                          const std::string& callback_function);
  static Bytes EncodeGScan(ByteSpan start, ByteSpan end,
                           chain::Address callback_contract,
                           const std::string& callback_function);
  static Bytes EncodeDeliver(const std::vector<DeliverEntry>& entries);

  static constexpr const char* kUpdateFn = "update";
  static constexpr const char* kGGetFn = "gGet";
  static constexpr const char* kGScanFn = "gScan";
  static constexpr const char* kDeliverFn = "deliver";
  static constexpr const char* kRequestEvent = "request";
  static constexpr const char* kRequestScanEvent = "request_scan";
  /// Log-tier data event: Blob(key) + Blob(value) as LOG data. An SP can
  /// reconstruct every live log-tier value by replaying these receipts.
  static constexpr const char* kDataEvent = "grub_data";
  /// Log-tier unpin event: Blob(key); the replayed pin is dead.
  static constexpr const char* kUnpinEvent = "grub_unpin";

  /// Storage slot of shard `s`'s root (sharded deployments only; the
  /// single-shard layout keeps the legacy RootSlot). Exposed for tests.
  static Word ShardRootSlot(uint32_t s);

  /// Storage slot of `key`'s log-tier digest pin. Exposed for tests.
  static Word DigestSlot(ByteSpan key);

  /// Storage slot of `key`'s replica length tag (value size + 1; zero = no
  /// live replica). Exposed for tests.
  static Word LenSlot(ByteSpan key);

  /// Streams gGet replica hit/miss outcomes into the workload observatory.
  /// Observation-only — recorded after the Gas-metered serve/emit decision,
  /// so chain Gas is untouched. Null (the default) skips recording.
  void SetWorkloadMonitor(telemetry::WorkloadMonitor* monitor) {
    workload_ = monitor;
  }

 private:
  Status HandleUpdate(chain::CallContext& ctx, ByteSpan args);
  Status HandleGGet(chain::CallContext& ctx, ByteSpan args);
  Status HandleGScan(chain::CallContext& ctx, ByteSpan args);
  Status HandleDeliver(chain::CallContext& ctx, ByteSpan args);

  /// The replicated-values + evictions suffix every update carries.
  Status ApplyReplicationSuffix(chain::CallContext& ctx, chain::AbiReader& r);
  /// The optional tier suffix after it: log-tier digest pins + data events,
  /// and unpins. A reader at end-of-calldata is the legacy layout — no-op.
  Status ApplyTierSuffix(chain::CallContext& ctx, chain::AbiReader& r);

  void ChargeTraceCounter(chain::CallContext& ctx, ByteSpan key);
  Status InvokeCallback(chain::CallContext& ctx, chain::Address contract,
                        const std::string& function, ByteSpan key,
                        ByteSpan value, bool found);

  static Word RootSlot();
  static Word ValueBase(ByteSpan key);
  static Word CounterSlot(ByteSpan key);
  static Word PendingSlot(ByteSpan key, chain::Address callback_contract,
                          const std::string& callback_function);

  /// Counts an emitted gGet miss in the pending ledger (unmetered; only when
  /// enforce_request_ledger is on).
  void NotePendingRequest(chain::CallContext& ctx, ByteSpan key,
                          chain::Address callback_contract,
                          const std::string& callback_function);

  Config config_;
  telemetry::WorkloadMonitor* workload_ = nullptr;  // not owned; may be null
};

}  // namespace grub::core
