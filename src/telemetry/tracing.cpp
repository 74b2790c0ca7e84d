#include "telemetry/tracing.h"

#include <algorithm>

#include "telemetry/table.h"

namespace grub::telemetry {

const char* Name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kGet:
      return "gGet";
    case SpanKind::kScan:
      return "gScan";
    case SpanKind::kDeliver:
      return "deliver";
    case SpanKind::kEpoch:
      return "epoch";
  }
  return "?";
}

bool TraceSpan::HasEvent(const std::string& name) const {
  for (const auto& event : events) {
    if (event.name == name) return true;
  }
  return false;
}

uint64_t TraceSpan::CountEvents(const std::string& name) const {
  uint64_t n = 0;
  for (const auto& event : events) {
    if (event.name == name) n += 1;
  }
  return n;
}

std::string Tracer::RenderKey(ByteSpan key) {
  bool printable = !key.empty();
  for (uint8_t b : key) {
    if (b < 0x20 || b > 0x7e) {
      printable = false;
      break;
    }
  }
  if (printable) return std::string(key.begin(), key.end());
  static const char* kHex = "0123456789abcdef";
  std::string out = "0x";
  for (uint8_t b : key) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

TraceSpan* Tracer::Find(uint64_t span_id) {
  if (span_id == 0 || span_id > spans_.size()) return nullptr;
  return &spans_[span_id - 1];
}

uint64_t Tracer::OldestOpen(ByteSpan key, bool is_scan) const {
  if (is_scan) {
    for (uint64_t id : open_scans_) {
      if (Compare(spans_[id - 1].key, key) == 0) return id;
    }
    return 0;
  }
  const KeyState* state = gets_.Find(key);
  if (state == nullptr || !state->HasOpen()) return 0;
  return state->Oldest();
}

uint64_t Tracer::BeginRequest(const Bytes& key, bool is_scan,
                              const Bytes& end_key, uint64_t block) {
  // Hot path: fill the span in place (no temporary, no container moves
  // beyond vector growth) and touch the matching map exactly once.
  if (spans_.size() == spans_.capacity()) {
    spans_.reserve(spans_.empty() ? 1024 : spans_.size() * 2);
  }
  spans_.emplace_back();
  TraceSpan& span = spans_.back();
  span.id = spans_.size();
  span.kind = is_scan ? SpanKind::kScan : SpanKind::kGet;
  span.key = key;
  span.end_key = end_key;
  span.begin_block = block;
  span.end_block = block;
  span.begin_seq = NextSeq();
  if (is_scan) {
    open_scans_.push_back(span.id);
  } else {
    gets_[key].open.push_back(span.id);
  }
  return span.id;
}

void Tracer::CompleteRequest(ByteSpan key, uint64_t block, bool found) {
  KeyState* state = gets_.Find(key);
  if (state != nullptr && state->HasOpen()) {
    const uint64_t id = state->Oldest();
    state->PopOldest();
    state->last_closed = id;
    TraceSpan& span = spans_[id - 1];
    // No "callback" event here — this is the per-read hot path, and the
    // exports synthesize the instant from the span fields.
    span.end_block = block;
    span.closed = true;
    span.completed = true;
    span.found = found;
    return;
  }
  // No open gGet: a record callback from an open scan whose window covers the
  // key (deliver invokes the callback once per record in the range).
  for (uint64_t id : open_scans_) {
    const TraceSpan& span = spans_[id - 1];
    if (Compare(span.key, key) <= 0 &&
        (span.end_key.empty() || Compare(key, span.end_key) < 0)) {
      spans_[id - 1].events.push_back(TraceEvent{
          NextSeq(), block, "scan.record",
          "key=" + RenderKey(key) + (found ? ",found=1" : ",found=0")});
      return;
    }
  }
  // A callback for an already-closed span: reorg replays re-execute delivers
  // and re-fire callbacks. Annotate rather than mis-attach.
  if (state != nullptr && state->last_closed != 0) {
    spans_[state->last_closed - 1].events.push_back(
        TraceEvent{NextSeq(), block, "callback.dup",
                   found ? "found=1" : "found=0"});
    return;
  }
  unmatched_callbacks_ += 1;
}

void Tracer::CompleteScan(const Bytes& start, const Bytes& end,
                          uint64_t block) {
  for (auto it = open_scans_.begin(); it != open_scans_.end(); ++it) {
    TraceSpan& span = spans_[*it - 1];
    if (span.key != start || span.end_key != end) continue;
    span.events.push_back(TraceEvent{NextSeq(), block, "delivered", ""});
    span.end_block = block;
    span.closed = true;
    span.completed = true;
    open_scans_.erase(it);
    return;
  }
}

void Tracer::AnnotateRequest(ByteSpan key, bool is_scan,
                             const std::string& name, uint64_t block,
                             const std::string& detail) {
  uint64_t id = OldestOpen(key, is_scan);
  if (id == 0 && !is_scan) {
    if (const KeyState* state = gets_.Find(key)) id = state->last_closed;
  }
  if (id == 0) return;
  TraceSpan& span = spans_[id - 1];
  span.events.push_back(TraceEvent{NextSeq(), block, name, detail});
  if (!span.closed && block > span.end_block) span.end_block = block;
}

uint64_t Tracer::OpenRequestId(ByteSpan key, bool is_scan) const {
  return OldestOpen(key, is_scan);
}

uint64_t Tracer::BeginSpan(SpanKind kind, uint64_t block) {
  TraceSpan span;
  span.id = spans_.size() + 1;
  span.kind = kind;
  span.begin_block = block;
  span.end_block = block;
  span.begin_seq = NextSeq();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::Annotate(uint64_t span_id, const std::string& name,
                      uint64_t block, const std::string& detail) {
  TraceSpan* span = Find(span_id);
  if (span == nullptr) return;
  span->events.push_back(TraceEvent{NextSeq(), block, name, detail});
  if (!span->closed && block > span->end_block) span->end_block = block;
}

void Tracer::SetAttr(uint64_t span_id, const std::string& key,
                     const std::string& value) {
  TraceSpan* span = Find(span_id);
  if (span == nullptr) return;
  for (auto& [k, v] : span->attrs) {
    if (k == key) {
      v = value;
      return;
    }
  }
  span->attrs.emplace_back(key, value);
}

void Tracer::EndSpan(uint64_t span_id, uint64_t block, bool completed) {
  TraceSpan* span = Find(span_id);
  if (span == nullptr || span->closed) return;
  span->end_block = std::max(span->begin_block, block);
  span->closed = true;
  span->completed = completed;
}

void Tracer::GlobalEvent(const std::string& name, uint64_t block,
                         const std::string& detail) {
  globals_.push_back(TraceEvent{NextSeq(), block, name, detail});
}

void Tracer::RecordFlip(const std::string& policy, const Bytes& key,
                        bool to_replicated, const char* op,
                        const std::string& counters_before,
                        const std::string& counters_after, uint64_t block,
                        uint64_t epoch) {
  PolicyAuditRecord record;
  record.seq = NextSeq();
  record.block = block;
  record.epoch = epoch;
  record.policy = policy;
  record.key = key;
  record.to_replicated = to_replicated;
  record.op = op;
  record.counters_before = counters_before;
  record.counters_after = counters_after;
  flips_.push_back(std::move(record));
}

void Tracer::Clear() {
  spans_.clear();
  globals_.clear();
  flips_.clear();
  seq_ = 0;
  unmatched_callbacks_ = 0;
  gets_.clear();
  open_scans_.clear();
}

namespace {

// Per-layer tracks in the Chrome view (tid values; pid is always 1).
constexpr int kTidChain = 1;
constexpr int kTidRequests = 2;
constexpr int kTidDaemon = 3;
constexpr int kTidEpochs = 4;
constexpr int kTidPolicy = 5;

int TidOf(SpanKind kind) {
  switch (kind) {
    case SpanKind::kGet:
    case SpanKind::kScan:
      return kTidRequests;
    case SpanKind::kDeliver:
      return kTidDaemon;
    case SpanKind::kEpoch:
      return kTidEpochs;
  }
  return kTidChain;
}

void WriteThreadName(std::ostream& os, int tid, const char* name,
                     bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"ph":"M","pid":1,"tid":)" << tid
     << R"(,"name":"thread_name","args":{"name":")" << name << R"("}})";
}

std::string SpanDisplayName(const TraceSpan& span) {
  std::string name = Name(span.kind);
  if (!span.key.empty()) name += " " + Tracer::RenderKey(span.key);
  return name;
}

}  // namespace

void Tracer::WriteChromeJson(std::ostream& os) const {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  WriteThreadName(os, kTidChain, "chain", first);
  WriteThreadName(os, kTidRequests, "requests (consumer)", first);
  WriteThreadName(os, kTidDaemon, "sp-daemon delivers", first);
  WriteThreadName(os, kTidEpochs, "do epochs", first);
  WriteThreadName(os, kTidPolicy, "policy flips", first);

  for (const auto& span : spans_) {
    const uint64_t ts = span.begin_block * 1000;
    const uint64_t dur =
        std::max<uint64_t>(1, span.LatencyBlocks()) * 1000;
    os << ",\n";
    os << R"({"ph":"X","pid":1,"tid":)" << TidOf(span.kind) << R"(,"name":")"
       << JsonEscape(SpanDisplayName(span)) << R"(","ts":)" << ts
       << R"(,"dur":)" << dur << R"(,"args":{"span":)" << span.id
       << R"(,"begin_block":)" << span.begin_block << R"(,"end_block":)"
       << span.end_block << R"(,"completed":)"
       << (span.completed ? "true" : "false") << R"(,"open":)"
       << (span.closed ? "false" : "true");
    if (span.kind == SpanKind::kGet && span.completed) {
      os << R"(,"found":)" << (span.found ? "true" : "false");
    }
    for (const auto& [k, v] : span.attrs) {
      os << ",\"" << JsonEscape(k) << "\":\"" << JsonEscape(v) << "\"";
    }
    os << "}}";
    // The callback instant, synthesized from the span fields (the hot-path
    // CompleteRequest stores no event).
    if (span.kind == SpanKind::kGet && span.completed) {
      os << ",\n";
      os << R"({"ph":"i","pid":1,"tid":)" << TidOf(span.kind)
         << R"(,"name":"callback","ts":)" << span.end_block * 1000
         << R"(,"s":"t","args":{"span":)" << span.id << R"(,"detail":"found=)"
         << (span.found ? 1 : 0) << R"("}})";
    }
    for (const auto& event : span.events) {
      os << ",\n";
      os << R"({"ph":"i","pid":1,"tid":)" << TidOf(span.kind)
         << R"(,"name":")" << JsonEscape(event.name) << R"(","ts":)"
         << event.block * 1000 << R"(,"s":"t","args":{"span":)" << span.id
         << R"(,"seq":)" << event.seq << R"(,"detail":")"
         << JsonEscape(event.detail) << R"("}})";
    }
  }
  for (const auto& event : globals_) {
    os << ",\n";
    os << R"({"ph":"i","pid":1,"tid":)" << kTidChain << R"(,"name":")"
       << JsonEscape(event.name) << R"(","ts":)" << event.block * 1000
       << R"(,"s":"g","args":{"seq":)" << event.seq << R"(,"detail":")"
       << JsonEscape(event.detail) << R"("}})";
  }
  for (const auto& flip : flips_) {
    os << ",\n";
    os << R"({"ph":"i","pid":1,"tid":)" << kTidPolicy << R"(,"name":"flip )"
       << JsonEscape(RenderKey(flip.key)) << " "
       << (flip.to_replicated ? "NR->R" : "R->NR") << R"(","ts":)"
       << flip.block * 1000 << R"(,"s":"t","args":{"seq":)" << flip.seq
       << R"(,"policy":")" << JsonEscape(flip.policy) << R"(","epoch":)"
       << flip.epoch << R"(,"op":")" << flip.op << R"(","before":")"
       << JsonEscape(flip.counters_before) << R"(","after":")"
       << JsonEscape(flip.counters_after) << R"("}})";
  }
  os << "\n]}\n";
}

void Tracer::WriteJsonLines(std::ostream& os) const {
  for (const auto& span : spans_) {
    os << R"({"type":"span","id":)" << span.id << R"(,"kind":")"
       << Name(span.kind) << "\"";
    if (!span.key.empty()) {
      os << R"(,"key":")" << JsonEscape(RenderKey(span.key)) << "\"";
    }
    if (!span.end_key.empty()) {
      os << R"(,"end_key":")" << JsonEscape(RenderKey(span.end_key)) << "\"";
    }
    os << R"(,"begin_block":)" << span.begin_block << R"(,"end_block":)"
       << span.end_block << R"(,"begin_seq":)" << span.begin_seq
       << R"(,"closed":)" << (span.closed ? "true" : "false")
       << R"(,"completed":)" << (span.completed ? "true" : "false");
    if (span.kind == SpanKind::kGet && span.completed) {
      os << R"(,"found":)" << (span.found ? "true" : "false");
    }
    if (!span.attrs.empty()) {
      os << R"(,"attrs":{)";
      bool first = true;
      for (const auto& [k, v] : span.attrs) {
        if (!first) os << ",";
        first = false;
        os << "\"" << JsonEscape(k) << "\":\"" << JsonEscape(v) << "\"";
      }
      os << "}";
    }
    os << R"(,"events":[)";
    bool first = true;
    for (const auto& event : span.events) {
      if (!first) os << ",";
      first = false;
      os << R"({"seq":)" << event.seq << R"(,"block":)" << event.block
         << R"(,"name":")" << JsonEscape(event.name) << R"(","detail":")"
         << JsonEscape(event.detail) << R"("})";
    }
    os << "]}\n";
  }
  for (const auto& event : globals_) {
    os << R"({"type":"global_event","seq":)" << event.seq << R"(,"block":)"
       << event.block << R"(,"name":")" << JsonEscape(event.name)
       << R"(","detail":")" << JsonEscape(event.detail) << "\"}\n";
  }
  for (const auto& flip : flips_) {
    os << R"({"type":"flip","seq":)" << flip.seq << R"(,"block":)"
       << flip.block << R"(,"epoch":)" << flip.epoch << R"(,"policy":")"
       << JsonEscape(flip.policy) << R"(","key":")"
       << JsonEscape(RenderKey(flip.key)) << R"(","direction":")"
       << (flip.to_replicated ? "nr_to_r" : "r_to_nr") << R"(","op":")"
       << flip.op << R"(","before":")" << JsonEscape(flip.counters_before)
       << R"(","after":")" << JsonEscape(flip.counters_after) << "\"}\n";
  }
}

}  // namespace grub::telemetry
