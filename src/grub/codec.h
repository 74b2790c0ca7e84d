// Wire codecs for GRuB messages that ride in transaction calldata.
//
// Byte-exact encodings matter: calldata Gas (2176/word) is the dominant cost
// of the read path, so proofs and records are serialized compactly and the
// benches charge the real encoded length.
#pragma once

#include <vector>

#include "ads/proofs.h"
#include "chain/abi.h"
#include "chain/types.h"
#include "common/status.h"
#include "tier/tier.h"

namespace grub::core {

/// One entry of a (possibly batched) deliver transaction: a record with a
/// membership proof, an absence proof for a missing key, a whole range
/// scan with a completeness proof (B.2.2's r2/r3), or a log-tier value
/// verified against its on-chain digest pin (no Merkle path).
struct DeliverEntry {
  enum class Kind : uint8_t {
    kQuery = 0,
    kAbsence = 1,
    kScan = 2,
    kDigest = 3,
  };

  Kind kind = Kind::kQuery;
  ads::QueryProof query;      // kQuery
  ads::AbsenceProof absence;  // kAbsence
  ads::ScanProof scan;        // kScan
  Bytes key;                  // queried key, or the scan's start key
  Bytes end_key;              // kScan: exclusive upper bound
  Bytes value;                // kDigest: the raw value (replayed from the
                              // log); hash(value) must match the pinned digest
  chain::Address callback_contract = chain::kNullAddress;
  std::string callback_function;
  /// Identical requests in one batch share a single proof; the callback is
  /// invoked `repeats` times (SP-side dedup of a read burst on one key).
  uint64_t repeats = 1;
  /// SP-asserted replication instruction (Listing 2's `replicate` argument).
  /// Trusted for Gas only: a lying SP can waste replication Gas or forgo
  /// replica savings, never break integrity.
  bool replicate_hint = false;

  // Compatibility helper for the common point-query case.
  bool present() const { return kind == Kind::kQuery; }
};

void EncodeQueryProof(chain::AbiWriter& w, const ads::QueryProof& proof);
Result<ads::QueryProof> DecodeQueryProof(chain::AbiReader& r);

void EncodeAbsenceProof(chain::AbiWriter& w, const ads::AbsenceProof& proof);
Result<ads::AbsenceProof> DecodeAbsenceProof(chain::AbiReader& r);

void EncodeScanProof(chain::AbiWriter& w, const ads::ScanProof& proof);
Result<ads::ScanProof> DecodeScanProof(chain::AbiReader& r);

void EncodeDeliverEntry(chain::AbiWriter& w, const DeliverEntry& entry);
Result<DeliverEntry> DecodeDeliverEntry(chain::AbiReader& r);
/// Exact bytes EncodeDeliverEntry writes for `entry` (deliver calldata is
/// sized with it, and the SP daemon packs batches against the Ctx(X) bound
/// with it).
uint64_t DeliverEntryBytes(const DeliverEntry& entry);

// ---- update-calldata parts (StorageManagerContract::EncodeUpdate writes
// them, and its Update*Bytes functions size them) ----

/// One log/calldata-tier update entry: the record rides the update tx under
/// an explicit tier tag (kStorage entries ride the replication suffix
/// instead, and kOffchain entries don't ride at all).
struct TierEntry {
  tier::StorageTier tier = tier::StorageTier::kLog;
  ads::FeedRecord record;
};

/// Tier suffix of an update tx: tagged records plus digest unpins (keys
/// leaving the log tier). An empty suffix appends NOTHING, which is what
/// keeps pre-tier update calldata byte-identical.
struct TierSuffix {
  std::vector<TierEntry> entries;
  std::vector<Bytes> unpins;

  bool empty() const { return entries.empty() && unpins.empty(); }
};

/// Writes `record` as one blob, its canonical encoding serialized straight
/// into the calldata.
void EncodeRecord(chain::AbiWriter& w, const ads::FeedRecord& record);
/// Bytes EncodeRecord writes: the u64 blob length plus the record
/// encoding. THE shared size unit — every calldata size function routes
/// through it.
uint64_t EncodedRecordBytes(const ads::FeedRecord& record);

}  // namespace grub::core
