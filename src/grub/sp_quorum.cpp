#include "grub/sp_quorum.h"

#include <stdexcept>

namespace grub::core {

const char* Name(SpTrust trust) {
  switch (trust) {
    case SpTrust::kActive: return "active";
    case SpTrust::kStandby: return "standby";
    case SpTrust::kBlacklisted: return "blacklisted";
  }
  return "?";
}

SpQuorum::SpQuorum(chain::Blockchain& chain, shard::ShardedAdsSp& sp,
                   chain::Address storage_manager, chain::Address sp_account,
                   QuorumOptions options, bool dedup_batch)
    : chain_(chain), tracker_(storage_manager) {
  if (options.replicas < 1 || options.replicas > kMaxReplicas) {
    throw std::invalid_argument("quorum: replicas must be in 1.." +
                                std::to_string(kMaxReplicas));
  }
  auto adversaries = fault::ParseMulti(options.adversary_spec,
                                       options.adversary_seed,
                                       options.replicas);
  if (!adversaries.ok()) {
    throw std::invalid_argument(adversaries.status().ToString());
  }
  replicas_.reserve(options.replicas);
  for (size_t i = 0; i < options.replicas; ++i) {
    ReplicaState rep;
    // Replica 0 keeps the feed's canonical SP account — a single-replica
    // quorum submits byte-identical transactions to a bare daemon. Standbys
    // get deterministic accounts clear of the 1001.. feed account range
    // (the deliver path never checks the sender, only the proofs).
    rep.account = i == 0 ? sp_account
                         : kStandbyAccountBase + sp_account * kMaxReplicas +
                               static_cast<chain::Address>(i);
    rep.daemon = std::make_unique<SpDaemon>(chain, sp, storage_manager,
                                            rep.account, dedup_batch);
    rep.adversary = std::move(adversaries.value()[i]);
    rep.daemon->SetAdversary(rep.adversary.get());
    rep.trust = i == 0 ? SpTrust::kActive : SpTrust::kStandby;
    replicas_.push_back(std::move(rep));
  }
}

void SpQuorum::SetFaultInjector(fault::FaultInjector* faults) {
  for (ReplicaState& rep : replicas_) rep.daemon->SetFaultInjector(faults);
}

void SpQuorum::SetTracer(telemetry::Tracer* tracer) {
  tracer_ = tracer;
  for (ReplicaState& rep : replicas_) rep.daemon->SetTracer(tracer);
}

void SpQuorum::SetWorkloadMonitor(telemetry::WorkloadMonitor* monitor) {
  for (ReplicaState& rep : replicas_) rep.daemon->SetWorkloadMonitor(monitor);
}

void SpQuorum::Blacklist(const char* reason) {
  ReplicaState& rep = replicas_[active_];
  rep.trust = SpTrust::kBlacklisted;
  rep.blacklisted_count += 1;
  blacklists_ += 1;
  if (tracer_ != nullptr) {
    tracer_->GlobalEvent("quorum.blacklist", chain_.CurrentBlockNumber(),
                         "sp=" + std::to_string(active_) +
                             " reason=" + reason);
  }
}

bool SpQuorum::Failover() {
  if (replicas_.size() == 1) {
    // Nobody to fail over to: parole the lone replica immediately.
    replicas_[0].trust = SpTrust::kActive;
    return false;
  }
  size_t next = replicas_.size();
  for (size_t step = 1; step <= replicas_.size(); ++step) {
    const size_t candidate = (active_ + step) % replicas_.size();
    if (replicas_[candidate].trust == SpTrust::kStandby) {
      next = candidate;
      break;
    }
  }
  if (next == replicas_.size()) {
    // Every replica is blacklisted: parole the least-incriminated one —
    // availability beats purity when the only alternative is a dead feed.
    next = active_;
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (replicas_[i].rejections < replicas_[next].rejections) next = i;
    }
    for (ReplicaState& rep : replicas_) {
      if (rep.trust == SpTrust::kBlacklisted) rep.trust = SpTrust::kStandby;
    }
  }
  if (replicas_[active_].trust == SpTrust::kActive) {
    replicas_[active_].trust = SpTrust::kStandby;
  }
  active_ = next;
  replicas_[active_].trust = SpTrust::kActive;
  replicas_[active_].daemon->Reactivate();
  failovers_ += 1;
  if (tracer_ != nullptr) {
    tracer_->GlobalEvent("quorum.failover", chain_.CurrentBlockNumber(),
                         "sp=" + std::to_string(active_));
  }
  return true;
}

void SpQuorum::CheckLiveness(size_t& served) {
  tracker_.CatchUp(chain_);
  const auto& pending = tracker_.Pending();
  if (pending.empty()) {
    stall_polls_ = 0;
    last_oldest_pending_ = 0;
    return;
  }
  const uint64_t oldest = pending.begin()->first;
  if (oldest != last_oldest_pending_) {
    // The backlog head moved (something was served or re-emitted): progress.
    last_oldest_pending_ = oldest;
    stall_polls_ = 1;
    return;
  }
  stall_polls_ += 1;
  if (stall_polls_ < kLivenessTimeoutPolls) return;
  // The oldest request survived the timeout untouched — the active SP is
  // omitting, crash-looping, or losing everything. Replace it.
  Blacklist("liveness");
  stall_polls_ = 0;
  if (Failover()) served += replicas_[active_].daemon->PollAndServe();
}

size_t SpQuorum::PollAndServe() {
  size_t served = 0;
  for (size_t polls = 0; polls < replicas_.size(); ++polls) {
    ReplicaState& rep = replicas_[active_];
    served += rep.daemon->PollAndServe();
    if (replicas_.size() == 1) return served;  // pass-through: no coordinator
    if (rep.daemon->last_outcome() != DeliverOutcome::kRejected) break;
    rep.rejections += 1;
    if (rep.rejections < kBlacklistAfterRejections) break;
    Blacklist("rejections");
    if (!Failover()) break;
    // The promoted replica polls in the same cycle: a detected attack costs
    // the reader at most the rejected transaction, not a full round.
  }
  CheckLiveness(served);
  return served;
}

std::string SpQuorum::ToJson() const {
  std::string json = "{";
  json += "\"replicas\":" + std::to_string(replicas_.size());
  json += ",\"active\":" + std::to_string(active_);
  json += ",\"failovers\":" + std::to_string(failovers_);
  json += ",\"blacklists\":" + std::to_string(blacklists_);
  json += ",\"sps\":[";
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const ReplicaState& rep = replicas_[i];
    if (i > 0) json += ',';
    json += "{\"index\":" + std::to_string(i);
    json += ",\"account\":" + std::to_string(rep.account);
    json += ",\"trust\":\"" + std::string(Name(rep.trust)) + "\"";
    json += ",\"rejections\":" + std::to_string(rep.rejections);
    json += ",\"delivers_sent\":" + std::to_string(rep.daemon->delivers_sent());
    json += ",\"deliver_rejections\":" +
            std::to_string(rep.daemon->deliver_rejections());
    json += ",\"blacklisted_count\":" + std::to_string(rep.blacklisted_count);
    json += ",\"adversary\":\"" +
            (rep.adversary == nullptr ? std::string() : rep.adversary->Spec()) +
            "\"}";
  }
  json += "]}";
  return json;
}

}  // namespace grub::core
