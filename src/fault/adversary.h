// Byzantine SP adversary model.
//
// The plain fault injector models ACCIDENTS (lost transactions, crashes,
// bit rot). An SpAdversary models a MALICIOUS service provider: it decides,
// per poll, whether to mutate the daemon's outgoing deliver according to one
// of six attack classes, each mapped to the detection surface that provably
// rejects it (see DESIGN.md's threat-model table):
//
//   forge       bit-flip a served proof/value        -> root mismatch
//   truncate    drop a sibling from a Merkle path    -> malformed path
//   stale-root  re-serve a proof from an old epoch   -> root mismatch
//   equivocate  self-consistent forked single-leaf   -> root mismatch
//   omit        swallow requests without serving     -> liveness watchdog
//   replay      resubmit an already-answered deliver -> pending-ledger revert
//
// Triggers reuse the fault-schedule grammar verbatim ("forge@2,omit%3"
// internally becomes the fail points "adv.forge", "adv.omit"), so adversary
// behaviour inherits the injector's determinism guarantee: one (seed, spec)
// reproduces the identical attack — and the identical detection/failover
// sequence — on every run. Like every fault point, a null adversary is the
// off switch, and honest replicas leave Gas bit-identical (the `identity`
// ctest enforces it).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "fault/injector.h"

namespace grub::fault {

enum class AdversaryClass {
  kForge = 0,
  kTruncate,
  kStaleRoot,
  kEquivocate,
  kOmit,
  kReplay,
};

inline constexpr size_t kNumAdversaryClasses = 6;

/// Stable slug ("forge", "stale-root", ...) — the spec token and the label
/// used in summaries and JSON.
const char* Name(AdversaryClass c);

/// The injector fail-point name backing a class ("adv.forge", ...).
std::string PointName(AdversaryClass c);

/// One SP replica's adversarial behaviour. A null SpAdversary* everywhere
/// means an honest replica.
class SpAdversary {
 public:
  /// Parses a comma-separated attack spec. Each rule is a class slug plus
  /// any fault-grammar trigger suffix: "forge@2", "omit%3x2", "replay*",
  /// "stale-root~0.1+5". An empty spec is invalid (use a null adversary for
  /// honest replicas).
  static Result<std::unique_ptr<SpAdversary>> Parse(std::string_view spec,
                                                    uint64_t seed);

  /// Consulted once per opportunity; counts the hit and answers whether the
  /// attack fires (deterministic in (seed, spec, hit index)).
  bool Fire(AdversaryClass c) { return injector_->Fire(PointName(c)); }

  uint64_t Fires(AdversaryClass c) const {
    return injector_->Fires(PointName(c));
  }
  /// Attack fires across all classes; GrubSystem::Robustness() adds them
  /// to the run's fault_fires total.
  uint64_t TotalFires() const { return injector_->TotalFires(); }

  const std::string& Spec() const { return spec_; }

 private:
  SpAdversary(std::string spec, std::unique_ptr<FaultInjector> injector)
      : spec_(std::move(spec)), injector_(std::move(injector)) {}

  std::string spec_;
  std::unique_ptr<FaultInjector> injector_;
};

/// Parses a multi-replica attack spec for a quorum of `replicas` SPs:
/// semicolon-separated groups, each optionally prefixed "<replica>:".
/// "forge@2" targets replica 0; "1:omit*;2:replay@1" arms replicas 1 and 2.
/// Returns one slot per replica, null = honest. Out-of-range replica
/// indices and duplicate groups for one replica are errors.
Result<std::vector<std::unique_ptr<SpAdversary>>> ParseMulti(
    std::string_view spec, uint64_t seed, size_t replicas);

}  // namespace grub::fault
