#include "grub/policy.h"

#include <cstdio>

namespace grub::core {

using workload::OpType;

namespace {

// %g keeps integral parameters terse ("2" not "2.000000") while preserving
// fractional ones — names feed metric labels and audit records.
std::string FormatParam(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// The step of a binary policy whose key went from `before` to `after`.
TierStep StepOf(ads::ReplState before, ads::ReplState after) {
  return {tier::FromReplState(before), tier::FromReplState(after)};
}

}  // namespace

// --- MemorylessPolicy (Algorithm 1) ---

TierStep MemorylessPolicy::Observe(const workload::Operation& op) {
  State& s = states_[op.key];
  const uint64_t old_reads = s.consecutive_reads;
  const ads::ReplState old_state = s.state;
  if (op.type == OpType::kWrite) {
    s.consecutive_reads = 0;
    s.state = ads::ReplState::kNR;
  } else {
    if (s.consecutive_reads < k_) s.consecutive_reads += 1;
    s.state =
        s.consecutive_reads >= k_ ? ads::ReplState::kR : ads::ReplState::kNR;
  }
  if (audit_ && s.state != old_state) {
    audit_before_ = "consecutive_reads=" + std::to_string(old_reads);
    audit_after_ = "consecutive_reads=" + std::to_string(s.consecutive_reads);
  }
  return StepOf(old_state, s.state);
}

ads::ReplState MemorylessPolicy::StateOf(const Bytes& key) const {
  const State* s = states_.Find(key);
  return s == nullptr ? ads::ReplState::kNR : s->state;
}

std::string MemorylessPolicy::CounterState(const Bytes& key) const {
  const State* s = states_.Find(key);
  const uint64_t reads = s == nullptr ? 0 : s->consecutive_reads;
  return "consecutive_reads=" + std::to_string(reads);
}

// --- MemorizingPolicy (Algorithm 2) ---

std::string MemorizingPolicy::Name() const {
  return "memorizing(K'=" + FormatParam(k_prime_) + ",D=" + FormatParam(d_) +
         ")";
}

std::string MemorizingPolicy::CounterState(const Bytes& key) const {
  const State* s = states_.Find(key);
  const double r = s == nullptr ? 0 : s->r_count;
  const double w = s == nullptr ? 0 : s->w_count;
  return "r=" + FormatParam(r) + ",w=" + FormatParam(w);
}

TierStep MemorizingPolicy::Observe(const workload::Operation& op) {
  State& s = states_[op.key];
  const double old_r = s.r_count;
  const double old_w = s.w_count;
  const ads::ReplState old_state = s.state;
  if (op.type == OpType::kWrite) {
    s.w_count += 1;
  } else {
    s.r_count += 1;
  }
  // NR -> R: accumulated reads outweigh writes by the hysteresis margin.
  if (s.state == ads::ReplState::kNR &&
      s.w_count * k_prime_ + d_ <= s.r_count) {
    s.state = ads::ReplState::kR;
    // Reset per §3.1: wCount = 0, rCount = D.
    s.w_count = 0;
    s.r_count = d_;
  }
  // R -> NR: writes outweigh reads by the margin.
  if (s.state == ads::ReplState::kR && s.w_count * k_prime_ - d_ >= s.r_count) {
    s.state = ads::ReplState::kNR;
    // Reset per §3.1: rCount = 0, wCount = D / K'.
    s.r_count = 0;
    s.w_count = k_prime_ > 0 ? d_ / k_prime_ : 0;
  }
  if (audit_ && s.state != old_state) {
    audit_before_ = "r=" + FormatParam(old_r) + ",w=" + FormatParam(old_w);
    audit_after_ =
        "r=" + FormatParam(s.r_count) + ",w=" + FormatParam(s.w_count);
  }
  return StepOf(old_state, s.state);
}

ads::ReplState MemorizingPolicy::StateOf(const Bytes& key) const {
  const State* s = states_.Find(key);
  return s == nullptr ? ads::ReplState::kNR : s->state;
}

// --- AdaptiveKPolicy (Appendix C.3) ---

namespace {

std::string RenderAdaptiveState(const std::vector<uint64_t>& runs,
                                uint64_t reads_since_write) {
  std::string out = "runs=[";
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(runs[i]);
  }
  out += "],reads_since_write=" + std::to_string(reads_since_write);
  if (!runs.empty()) {
    double sum = 0;
    for (uint64_t run : runs) sum += static_cast<double>(run);
    out += ",predicted_k=" +
           FormatParam(sum / static_cast<double>(runs.size()));
  }
  return out;
}

}  // namespace

TierStep AdaptiveKPolicy::Observe(const workload::Operation& op) {
  State& s = states_[op.key];
  if (op.type != OpType::kWrite) {
    s.reads_since_write += 1;
    return StepOf(s.state, s.state);
  }
  // Only writes can flip (below); reads on the hot path above pay nothing
  // for audit mode.
  const ads::ReplState old_state = s.state;
  std::string before;
  if (audit_) {
    before = RenderAdaptiveState(s.recent_read_runs, s.reads_since_write);
  }

  // Close the read-run of the previous write and keep the trailing window.
  s.recent_read_runs.push_back(s.reads_since_write);
  if (s.recent_read_runs.size() > window_) {
    s.recent_read_runs.erase(s.recent_read_runs.begin());
  }
  s.reads_since_write = 0;

  double sum = 0;
  for (uint64_t run : s.recent_read_runs) sum += static_cast<double>(run);
  const double predicted_k =
      sum / static_cast<double>(s.recent_read_runs.size());

  const bool prediction_clears = predicted_k >= threshold_;
  const bool replicate =
      repeat_hypothesis_ ? prediction_clears : !prediction_clears;
  s.state = replicate ? ads::ReplState::kR : ads::ReplState::kNR;
  if (audit_ && s.state != old_state) {
    audit_before_ = std::move(before);
    audit_after_ = RenderAdaptiveState(s.recent_read_runs, s.reads_since_write);
  }
  return StepOf(old_state, s.state);
}

ads::ReplState AdaptiveKPolicy::StateOf(const Bytes& key) const {
  const State* s = states_.Find(key);
  return s == nullptr ? ads::ReplState::kNR : s->state;
}

std::string AdaptiveKPolicy::Name() const {
  return std::string(repeat_hypothesis_ ? "adaptive-K1" : "adaptive-K2") +
         "(threshold=" + FormatParam(threshold_) +
         ",window=" + std::to_string(window_) + ")";
}

std::string AdaptiveKPolicy::CounterState(const Bytes& key) const {
  const State* s = states_.Find(key);
  if (s == nullptr) return "runs=[],reads_since_write=0";
  return RenderAdaptiveState(s->recent_read_runs, s->reads_since_write);
}

// --- WindowedKPolicy / PriceEwmaPolicy shared chassis ---

namespace {

/// One Algorithm-2 step with the threshold re-read per decision: cumulative
/// counters, hysteresis D=1, and the §3.1 counter resets on each flip so a
/// price regime costs one flip per key at its boundary, not per write.
/// Returns true when the key's state flipped.
template <typename State>
bool PricedMemorizingStep(State& s, OpType type, double k_eff) {
  const ads::ReplState old_state = s.state;
  if (type == OpType::kWrite) {
    s.w_count += 1;
  } else {
    s.r_count += 1;
  }
  if (s.state == ads::ReplState::kNR &&
      s.w_count * k_eff + 1.0 <= s.r_count) {
    s.state = ads::ReplState::kR;
    s.w_count = 0;
    s.r_count = 1.0;
  } else if (s.state == ads::ReplState::kR &&
             s.w_count * k_eff - 1.0 >= s.r_count) {
    s.state = ads::ReplState::kNR;
    s.r_count = 0;
    s.w_count = k_eff > 0 ? 1.0 / k_eff : 0;
  }
  return s.state != old_state;
}

template <typename State>
std::string RenderPricedCounters(const State& s, double k_eff) {
  return "r=" + FormatParam(s.r_count) + ",w=" + FormatParam(s.w_count) +
         ",K_eff=" + FormatParam(k_eff);
}

}  // namespace

// --- WindowedKPolicy ---

double WindowedKPolicy::CurrentK() const {
  if (recent_ratios_.empty()) return base_k_;
  double sum = 0;
  for (double r : recent_ratios_) sum += r;
  return base_k_ * (sum / static_cast<double>(recent_ratios_.size()));
}

void WindowedKPolicy::ObservePrice(uint64_t exec_milli, uint64_t storage_milli,
                                   uint64_t block) {
  (void)block;
  recent_ratios_.push_back(static_cast<double>(storage_milli) /
                           static_cast<double>(exec_milli));
  if (recent_ratios_.size() > window_) recent_ratios_.pop_front();
}

TierStep WindowedKPolicy::Observe(const workload::Operation& op) {
  State& s = states_[op.key];
  const State before = s;
  const double k_eff = CurrentK();
  if (PricedMemorizingStep(s, op.type, k_eff) && audit_) {
    audit_before_ = RenderPricedCounters(before, k_eff);
    audit_after_ = RenderPricedCounters(s, k_eff);
  }
  return StepOf(before.state, s.state);
}

ads::ReplState WindowedKPolicy::StateOf(const Bytes& key) const {
  const State* s = states_.Find(key);
  return s == nullptr ? ads::ReplState::kNR : s->state;
}

std::string WindowedKPolicy::Name() const {
  return "windowed-K(K0=" + FormatParam(base_k_) +
         ",window=" + std::to_string(window_) + ")";
}

std::string WindowedKPolicy::CounterState(const Bytes& key) const {
  const State* s = states_.Find(key);
  return RenderPricedCounters(s == nullptr ? State{} : *s, CurrentK());
}

// --- PriceEwmaPolicy ---

double PriceEwmaPolicy::CurrentK() const {
  if (detector_.Samples() == 0) return base_k_;
  return base_k_ * detector_.Ewma();
}

void PriceEwmaPolicy::ObservePrice(uint64_t exec_milli, uint64_t storage_milli,
                                   uint64_t block) {
  (void)block;
  detector_.Update(static_cast<double>(storage_milli) /
                   static_cast<double>(exec_milli));
}

TierStep PriceEwmaPolicy::Observe(const workload::Operation& op) {
  State& s = states_[op.key];
  const State before = s;
  const double k_eff = CurrentK();
  if (PricedMemorizingStep(s, op.type, k_eff) && audit_) {
    audit_before_ = RenderPricedCounters(before, k_eff);
    audit_after_ = RenderPricedCounters(s, k_eff);
  }
  return StepOf(before.state, s.state);
}

ads::ReplState PriceEwmaPolicy::StateOf(const Bytes& key) const {
  const State* s = states_.Find(key);
  return s == nullptr ? ads::ReplState::kNR : s->state;
}

std::string PriceEwmaPolicy::Name() const {
  return "price-ewma(K0=" + FormatParam(base_k_) +
         ",alpha=" + FormatParam(alpha_) + ")";
}

std::string PriceEwmaPolicy::CounterState(const Bytes& key) const {
  const State* s = states_.Find(key);
  return RenderPricedCounters(s == nullptr ? State{} : *s, CurrentK());
}

// --- OfflineOptimalPolicy ---

OfflineOptimalPolicy::OfflineOptimalPolicy(const workload::Trace& trace,
                                           double break_even_reads)
    : OfflineOptimalPolicy(trace, break_even_reads, PriceReplayModel{}) {}

OfflineOptimalPolicy::OfflineOptimalPolicy(const workload::Trace& trace,
                                           double break_even_reads,
                                           const PriceReplayModel& model) {
  priced_ = model.Active();

  // First pass: per key, the reads following each write — as a count AND as
  // an exec-price-weighted sum (each read weighted by exec_milli/1000 at its
  // replayed block), plus the write's own op index so the decision can price
  // its replication cost at the write block's storage multiplier. With an
  // inactive model weight == count and every storage ratio is 1, so the
  // priced decision degenerates to `reads >= break_even_reads` exactly.
  struct OpenRun {
    uint64_t reads = 0;
    double exec_weight = 0.0;
  };
  struct WriteRun {
    uint64_t reads = 0;
    double exec_weight = 0.0;
    size_t write_index = 0;
  };
  struct KeyRuns {
    std::vector<WriteRun> runs;  // one per write, in order
    OpenRun open;                // reads since the last write
    void CloseLast() {
      runs.back().reads = open.reads;
      runs.back().exec_weight = open.exec_weight;
    }
  };
  KeyMap<KeyRuns> per_key;

  for (size_t i = 0; i < trace.size(); ++i) {
    const auto& op = trace[i];
    KeyRuns& k = per_key[op.key];
    if (op.type == OpType::kWrite) {
      if (!k.runs.empty()) k.CloseLast();
      k.open = OpenRun{};
      k.runs.push_back(WriteRun{.write_index = i});
    } else {
      k.open.reads += 1;
      k.open.exec_weight +=
          priced_ ? static_cast<double>(
                        model.schedule->At(model.BlockOf(i)).exec_milli) /
                        1000.0
                  : 1.0;
    }
  }

  // Decision per write: replicate iff the following reads (at their prices)
  // repay the replication cost (at the write's price). Keys never written
  // keep no state (StateOf defaults to NR).
  per_key.ForEach([&](ByteSpan key, KeyRuns& k) {
    if (k.runs.empty()) return;
    k.CloseLast();
    const std::vector<WriteRun>& runs = k.runs;
    State s;
    s.decisions.reserve(runs.size());
    for (const WriteRun& run : runs) {
      const double storage_ratio =
          priced_ ? static_cast<double>(
                        model.schedule->At(model.BlockOf(run.write_index))
                            .storage_milli) /
                        1000.0
                  : 1.0;
      s.decisions.push_back(
          run.exec_weight >= break_even_reads * storage_ratio
              ? ads::ReplState::kR
              : ads::ReplState::kNR);
    }
    states_[key] = std::move(s);
  });
}

TierStep OfflineOptimalPolicy::Observe(const workload::Operation& op) {
  State* found = states_.Find(op.key);
  if (found == nullptr) return {};  // never written in the trace: NR
  State& s = *found;
  const ads::ReplState old_state = s.state;
  if (op.type != OpType::kWrite) return StepOf(old_state, old_state);
  const size_t old_next = s.next_write;
  if (s.next_write < s.decisions.size()) {
    s.state = s.decisions[s.next_write];
    s.next_write += 1;
  }
  if (audit_ && s.state != old_state) {
    const std::string total = "/" + std::to_string(s.decisions.size());
    audit_before_ = "next_write=" + std::to_string(old_next) + total;
    audit_after_ = "next_write=" + std::to_string(s.next_write) + total;
  }
  return StepOf(old_state, s.state);
}

ads::ReplState OfflineOptimalPolicy::StateOf(const Bytes& key) const {
  const State* s = states_.Find(key);
  return s == nullptr ? ads::ReplState::kNR : s->state;
}

std::string OfflineOptimalPolicy::CounterState(const Bytes& key) const {
  const State* s = states_.Find(key);
  if (s == nullptr) return "next_write=0/0";
  return "next_write=" + std::to_string(s->next_write) + "/" +
         std::to_string(s->decisions.size());
}

}  // namespace grub::core
