#include "fault/injector.h"

#include <cstdlib>

namespace grub::fault {

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

// Parse an unsigned decimal starting at `pos`; advances `pos` past it.
bool ParseU64(std::string_view s, size_t& pos, uint64_t& out) {
  size_t start = pos;
  uint64_t v = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
    v = v * 10 + static_cast<uint64_t>(s[pos] - '0');
    ++pos;
  }
  out = v;
  return pos > start;
}

bool ParseDouble(std::string_view s, size_t& pos, double& out) {
  // strtod needs NUL-termination; rules are short so a copy is fine.
  std::string buf(s.substr(pos));
  char* end = nullptr;
  out = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str()) return false;
  pos += static_cast<size_t>(end - buf.c_str());
  return true;
}

Status ParseRule(std::string_view rule, FaultRule& out) {
  const size_t trigger = rule.find_first_of("@%~*");
  if (trigger == std::string_view::npos) {
    return Status::InvalidArgument("fault rule '" + std::string(rule) +
                                   "' has no trigger (@N, %N, ~P or *)");
  }
  if (trigger == 0) {
    return Status::InvalidArgument("fault rule '" + std::string(rule) +
                                   "' has an empty point name");
  }
  out.point = std::string(rule.substr(0, trigger));
  size_t pos = trigger + 1;
  switch (rule[trigger]) {
    case '@':
      if (!ParseU64(rule, pos, out.on_hit) || out.on_hit == 0) {
        return Status::InvalidArgument("fault rule '" + std::string(rule) +
                                       "': @ needs a hit index >= 1");
      }
      break;
    case '%':
      if (!ParseU64(rule, pos, out.every) || out.every == 0) {
        return Status::InvalidArgument("fault rule '" + std::string(rule) +
                                       "': % needs a period >= 1");
      }
      break;
    case '~':
      if (!ParseDouble(rule, pos, out.probability) || out.probability < 0.0 ||
          out.probability > 1.0) {
        return Status::InvalidArgument("fault rule '" + std::string(rule) +
                                       "': ~ needs a probability in [0,1]");
      }
      break;
    case '*':
      out.always = true;
      break;
  }
  // Optional suffixes, in either order: xM (max fires), +S (window start).
  while (pos < rule.size()) {
    const char c = rule[pos];
    ++pos;
    if (c == 'x') {
      if (!ParseU64(rule, pos, out.max_fires) || out.max_fires == 0) {
        return Status::InvalidArgument("fault rule '" + std::string(rule) +
                                       "': x needs a fire cap >= 1");
      }
    } else if (c == '+') {
      if (!ParseU64(rule, pos, out.from_hit)) {
        return Status::InvalidArgument("fault rule '" + std::string(rule) +
                                       "': + needs a hit offset");
      }
    } else {
      return Status::InvalidArgument("fault rule '" + std::string(rule) +
                                     "': trailing garbage at '" +
                                     std::string(rule.substr(pos - 1)) + "'");
    }
  }
  return Status::Ok();
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

Result<std::unique_ptr<FaultInjector>> FaultInjector::Parse(
    std::string_view spec, uint64_t seed) {
  auto injector = std::make_unique<FaultInjector>(seed);
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view rule = Trim(spec.substr(pos, comma - pos));
    if (!rule.empty()) {
      FaultRule parsed;
      Status s = ParseRule(rule, parsed);
      if (!s.ok()) return s;
      injector->AddRule(std::move(parsed));
    }
    pos = comma + 1;
  }
  return injector;
}

void FaultInjector::AddRule(FaultRule rule) { rules_.push_back(std::move(rule)); }

FaultInjector::PointState& FaultInjector::StateOf(std::string_view point) {
  auto it = points_.find(point);
  if (it == points_.end()) {
    it = points_.emplace(std::string(point), PointState{}).first;
  }
  return it->second;
}

bool FaultInjector::Fire(std::string_view point) {
  PointState& state = StateOf(point);
  state.hits += 1;
  if (state.rule_fires.size() < rules_.size()) {
    state.rule_fires.resize(rules_.size(), 0);
  }
  bool fired = false;
  for (size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& rule = rules_[i];
    if (rule.point != point) continue;
    if (state.hits <= rule.from_hit) continue;
    if (rule.max_fires != 0 && state.rule_fires[i] >= rule.max_fires) continue;
    const uint64_t idx = state.hits - rule.from_hit;  // 1-based in-window hit
    bool match = false;
    if (rule.always) {
      match = true;
    } else if (rule.on_hit != 0) {
      match = idx == rule.on_hit;
    } else if (rule.every != 0) {
      match = idx % rule.every == 0;
    } else if (rule.probability > 0.0) {
      // Per-point stream: draws depend only on this point's eligible hits,
      // never on other points' traffic.
      if (state.rng == nullptr) {
        state.rng = std::make_unique<Rng>(seed_ ^ Fnv1a(point));
      }
      match = state.rng->NextBool(rule.probability);
    }
    if (match) {
      fired = true;
      state.rule_fires[i] += 1;
    }
  }
  if (fired) state.fires += 1;
  return fired;
}

uint64_t FaultInjector::Hits(std::string_view point) const {
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::Fires(std::string_view point) const {
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fires;
}

uint64_t FaultInjector::TotalFires() const {
  uint64_t total = 0;
  for (const auto& [name, state] : points_) total += state.fires;
  return total;
}

std::map<std::string, uint64_t> FaultInjector::FireCounts() const {
  std::map<std::string, uint64_t> counts;
  for (const auto& [name, state] : points_) {
    if (state.fires > 0) counts[name] = state.fires;
  }
  return counts;
}

}  // namespace grub::fault
