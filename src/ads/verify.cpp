#include "ads/verify.h"

#include <bit>
#include <string>

namespace grub::ads {

namespace {

/// Leaf hash with cost accounting (1 prefix byte + record encoding).
Hash256 CostedLeafHash(const FeedRecord& record, const HashCostFn& cost) {
  cost(record.SerializedBytes() + 1);
  return record.LeafHash();
}

/// Charges the inner-node hashes a range/audit verification performs.
void ChargeInnerHashes(size_t count, const HashCostFn& cost) {
  for (size_t i = 0; i < count; ++i) cost(65);  // 1 prefix + 2×32 bytes
}

bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

const char* Name(ProofReject reason) {
  switch (reason) {
    case ProofReject::kNone: return "none";
    case ProofReject::kMalformedPath: return "malformed-path";
    case ProofReject::kIndexOutOfRange: return "index-out-of-range";
    case ProofReject::kRootMismatch: return "root-mismatch";
    case ProofReject::kWindowShape: return "window-shape";
    case ProofReject::kOrdering: return "ordering";
    case ProofReject::kKeyPresent: return "key-present";
    case ProofReject::kWindowPlacement: return "window-placement";
    case ProofReject::kRangeStraddle: return "range-straddle";
    case ProofReject::kOmission: return "omission";
    case ProofReject::kDigestMismatch: return "digest-mismatch";
  }
  return "?";
}

Status RejectStatus(ProofReject reason, const char* what) {
  if (reason == ProofReject::kNone) return Status::Ok();
  return Status::IntegrityViolation(std::string(what) +
                                    " proof rejected: " + Name(reason));
}

ProofReject CheckQuery(const Hash256& root, const QueryProof& proof,
                       const HashCostFn& cost) {
  // Structural pre-checks reject before any hash is paid for: the committed
  // tree shape fixes the path length exactly, so a truncated (or padded)
  // sibling list can never reach root recomputation.
  if (!IsPowerOfTwo(proof.capacity)) return ProofReject::kMalformedPath;
  if (proof.index >= proof.capacity) return ProofReject::kIndexOutOfRange;
  const size_t depth =
      static_cast<size_t>(std::bit_width(proof.capacity) - 1);
  if (proof.path.siblings.size() != depth) return ProofReject::kMalformedPath;

  const Hash256 leaf = CostedLeafHash(proof.record, cost);
  ChargeInnerHashes(proof.path.siblings.size(), cost);
  return MerkleTree::VerifyLeaf(root, leaf, proof.index, proof.capacity,
                                proof.path)
             ? ProofReject::kNone
             : ProofReject::kRootMismatch;
}

ProofReject CheckAbsence(const Hash256& root, ByteSpan key,
                         const AbsenceProof& proof, const HashCostFn& cost) {
  if (!IsPowerOfTwo(proof.capacity)) return ProofReject::kMalformedPath;
  if (proof.lo >= proof.capacity) return ProofReject::kIndexOutOfRange;

  // Assemble the claimed window leaves.
  std::vector<Hash256> leaves;
  leaves.reserve(proof.boundary.size() + 1);
  for (const auto& r : proof.boundary) {
    leaves.push_back(CostedLeafHash(r, cost));
  }
  if (proof.empty_tail) leaves.push_back(MerkleTree::EmptyLeaf());
  if (leaves.empty()) return ProofReject::kWindowShape;

  // Structural check against the committed root.
  ChargeInnerHashes(proof.range.complement.size() + leaves.size(), cost);
  if (!MerkleTree::VerifyRange(root, proof.capacity, proof.lo, leaves,
                               proof.range)) {
    return ProofReject::kRootMismatch;
  }

  // Ordering / straddle checks.
  for (size_t i = 1; i < proof.boundary.size(); ++i) {
    if (Compare(proof.boundary[i - 1].key, proof.boundary[i].key) >= 0) {
      return ProofReject::kOrdering;
    }
  }
  for (const auto& r : proof.boundary) {
    if (Compare(r.key, key) == 0) return ProofReject::kKeyPresent;
  }

  if (proof.boundary.empty()) {
    // Empty-store case: the window is the single padding leaf at index 0.
    return proof.empty_tail && proof.lo == 0 ? ProofReject::kNone
                                             : ProofReject::kWindowPlacement;
  }

  const auto& first = proof.boundary.front();
  const auto& last = proof.boundary.back();

  if (Compare(key, first.key) < 0) {
    // Absent before the first record: window must start at index 0.
    return proof.lo == 0 && proof.boundary.size() == 1
               ? ProofReject::kNone
               : ProofReject::kWindowPlacement;
  }
  if (Compare(key, last.key) > 0) {
    // Absent after the last record: either the padding leaf right after it
    // is in the window, or the window ends exactly at capacity (full tree).
    if (proof.boundary.size() != 1 && proof.boundary.size() != 2) {
      return ProofReject::kWindowShape;
    }
    // The last boundary record must be the final live record.
    const uint64_t window_end = proof.lo + leaves.size();
    return proof.empty_tail || window_end == proof.capacity
               ? ProofReject::kNone
               : ProofReject::kWindowPlacement;
  }
  // Strictly between two adjacent records.
  return proof.boundary.size() == 2 && Compare(first.key, key) < 0 &&
                 Compare(key, last.key) < 0
             ? ProofReject::kNone
             : ProofReject::kWindowPlacement;
}

ProofReject CheckScan(const Hash256& root, ByteSpan start, ByteSpan end,
                      const ScanProof& proof, const HashCostFn& cost) {
  if (!IsPowerOfTwo(proof.capacity)) return ProofReject::kMalformedPath;
  if (proof.lo >= proof.capacity) return ProofReject::kIndexOutOfRange;

  // Assemble window leaves: [left_neighbor] records... [right_neighbor|empty].
  std::vector<Hash256> leaves;
  std::vector<const FeedRecord*> window;
  if (proof.left_neighbor) window.push_back(&*proof.left_neighbor);
  for (const auto& r : proof.records) window.push_back(&r);
  if (proof.right_neighbor) window.push_back(&*proof.right_neighbor);
  for (const auto* r : window) leaves.push_back(CostedLeafHash(*r, cost));
  if (proof.empty_tail) leaves.push_back(MerkleTree::EmptyLeaf());
  if (leaves.empty()) return ProofReject::kWindowShape;

  ChargeInnerHashes(proof.range.complement.size() + leaves.size(), cost);
  if (!MerkleTree::VerifyRange(root, proof.capacity, proof.lo, leaves,
                               proof.range)) {
    return ProofReject::kRootMismatch;
  }

  // Keys strictly ascending across the whole window.
  for (size_t i = 1; i < window.size(); ++i) {
    if (Compare(window[i - 1]->key, window[i]->key) >= 0) {
      return ProofReject::kOrdering;
    }
  }

  // Matching records all inside [start, end).
  for (const auto& r : proof.records) {
    if (Compare(r.key, start) < 0) return ProofReject::kRangeStraddle;
    if (!end.empty() && Compare(r.key, end) >= 0) {
      return ProofReject::kRangeStraddle;
    }
  }

  // Left completeness: nothing below `start` is missing.
  if (proof.left_neighbor) {
    if (Compare(proof.left_neighbor->key, start) >= 0) {
      return ProofReject::kOmission;
    }
  } else if (proof.lo != 0) {
    return ProofReject::kOmission;
  }

  // Right completeness: nothing at/above the last match up to `end` missing.
  if (proof.right_neighbor) {
    if (!end.empty() && Compare(proof.right_neighbor->key, end) < 0) {
      return ProofReject::kOmission;  // a record in range was presented as
                                      // the out-of-range right neighbour
    }
    if (end.empty()) return ProofReject::kOmission;  // unbounded scan cannot
                                                     // have a neighbour
  } else {
    // Window must run to the end of live records: next leaf is padding or
    // the window hits capacity.
    const uint64_t window_end = proof.lo + leaves.size();
    if (!proof.empty_tail && window_end != proof.capacity) {
      return ProofReject::kOmission;
    }
  }

  return ProofReject::kNone;
}

}  // namespace grub::ads
