// Request-scoped tracing: a deterministic, block-height-timestamped span and
// event trace threaded through all four layers.
//
// The trace answers the questions the aggregate metrics cannot: what happened
// to THIS gGet (issued at which block, retried how often, re-emitted by the
// watchdog, replayed after a reorg, answered at which block), and WHY the
// policy flipped THIS key (the per-key counter state that justified the
// decision, as a PolicyAuditRecord).
//
// Determinism contract: trace content carries no wall clock — timestamps are
// block heights, ordering is a monotone sequence counter, and every string is
// a pure function of simulation state. Two runs with the same (seed,
// schedule, trace) emit byte-identical exports; this is what the CI
// trace-determinism stage diffs.
//
// Id propagation: trace ids never ride in calldata or event data (that would
// change the Gas the paper measures). Matching is off-chain and mirrors the
// chain's own FIFO-per-identity semantics (RequestTracker): the consumer
// opens a span per issued gGet/gScan, and the oldest open span for a key is
// the one a callback completes or a deliver/retry/re-emit annotates.
// Transactions carry a telemetry-only `trace_id` field (never metered) so the
// chain can annotate the owning span when the transaction executes or
// replays.
//
// Like EpochSeries, the Tracer is single-threaded by design: the simulator
// drives one operation stream. A null Tracer* is the off switch at every call
// site, and tracing never feeds back into simulation state — a null tracer
// changes no Gas, and the `identity` ctest enforces it.
#pragma once

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/key_map.h"

namespace grub::telemetry {

enum class SpanKind : uint8_t {
  kGet = 0,  // one gGet request: issuance -> callback
  kScan,     // one gScan request: issuance -> deliver
  kDeliver,  // one SP poll's deliver batch: build -> inclusion
  kEpoch,    // one DO epoch: first buffered put -> update() inclusion
};

const char* Name(SpanKind kind);

/// One timestamped event inside a span (or at chain scope). `detail` is a
/// deterministic "k=v,..." string — free-form, but derived only from
/// simulation state.
struct TraceEvent {
  uint64_t seq = 0;    // global emission order
  uint64_t block = 0;  // block height when emitted
  std::string name;
  std::string detail;
};

struct TraceSpan {
  uint64_t id = 0;  // 1-based; 0 means "no span" everywhere
  SpanKind kind = SpanKind::kGet;
  Bytes key;      // request key / scan start; empty for deliver and epoch
  Bytes end_key;  // scans only
  uint64_t begin_block = 0;
  uint64_t end_block = 0;
  uint64_t begin_seq = 0;
  bool closed = false;
  bool completed = false;  // callback fired / transaction included
  /// gGet callback outcome (valid when completed). Kept as a span field, not
  /// an event: the per-read completion is the tracer's hottest path, and the
  /// exports synthesize the "callback" instant from (end_block, found).
  bool found = false;
  std::vector<TraceEvent> events;
  std::vector<std::pair<std::string, std::string>> attrs;

  /// Latency in blocks (end - begin; 0 for same-block completion).
  uint64_t LatencyBlocks() const {
    return end_block >= begin_block ? end_block - begin_block : 0;
  }
  bool HasEvent(const std::string& name) const;
  uint64_t CountEvents(const std::string& name) const;
};

/// One replication-policy decision: which policy flipped which key in which
/// direction, at which block, and the per-key counter state before and after
/// the triggering observation — enough to explain (or dispute) the flip
/// against OfflineOptimalPolicy after the fact.
struct PolicyAuditRecord {
  uint64_t seq = 0;
  uint64_t block = 0;
  uint64_t epoch = 0;
  std::string policy;  // self-describing name (includes parameters)
  Bytes key;
  bool to_replicated = false;  // true: NR -> R, false: R -> NR
  std::string op;              // "read" | "write" — the triggering operation
  std::string counters_before;
  std::string counters_after;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- request lifecycle (consumer side) ---

  /// Opens a span for one issued gGet (or gScan when `is_scan`). Requests on
  /// the same key queue FIFO, mirroring the chain's matching semantics.
  uint64_t BeginRequest(const Bytes& key, bool is_scan, const Bytes& end_key,
                        uint64_t block);
  /// Closes the oldest open gGet span for `key` (the callback fired). A
  /// callback with no open span annotates the last closed span for the key
  /// as "callback.dup" (reorg replays re-fire callbacks) — never an error.
  void CompleteRequest(ByteSpan key, uint64_t block, bool found);
  /// Closes the oldest open gScan span matching (start, end) — called by the
  /// daemon when the deliver carrying the range proof is included.
  void CompleteScan(const Bytes& start, const Bytes& end, uint64_t block);
  /// Appends an event to the oldest open span for the key (or, if none is
  /// open, to the last closed one): deliver serve/drop/retry, watchdog
  /// re-emits, reorg replays.
  void AnnotateRequest(ByteSpan key, bool is_scan, const std::string& name,
                       uint64_t block, const std::string& detail = "");
  /// Id of the oldest open request span for the key (0 = none) — used to tag
  /// re-emitted transactions so the chain can annotate the right span.
  uint64_t OpenRequestId(ByteSpan key, bool is_scan) const;

  // --- generic spans (deliver batches, DO epochs) ---

  uint64_t BeginSpan(SpanKind kind, uint64_t block);
  void Annotate(uint64_t span_id, const std::string& name, uint64_t block,
                const std::string& detail = "");
  void SetAttr(uint64_t span_id, const std::string& key,
               const std::string& value);
  void EndSpan(uint64_t span_id, uint64_t block, bool completed);

  // --- chain scope ---

  /// Records an event owned by no span (reorgs, degradation transitions).
  void GlobalEvent(const std::string& name, uint64_t block,
                   const std::string& detail = "");

  // --- policy audit ---

  void RecordFlip(const std::string& policy, const Bytes& key,
                  bool to_replicated, const char* op,
                  const std::string& counters_before,
                  const std::string& counters_after, uint64_t block,
                  uint64_t epoch);

  // --- inspection ---

  const std::vector<TraceSpan>& Spans() const { return spans_; }
  const std::vector<TraceEvent>& GlobalEvents() const { return globals_; }
  const std::vector<PolicyAuditRecord>& Flips() const { return flips_; }
  /// Callbacks that matched neither an open span, an open scan window, nor a
  /// previously closed span (should stay 0; surfaced by the analyzer).
  uint64_t unmatched_callbacks() const { return unmatched_callbacks_; }

  /// Drops everything recorded so far (e.g. warm-up before a converged
  /// measurement). Open spans are discarded too.
  void Clear();

  // --- export ---

  /// Chrome trace-event JSON ("traceEvents" array) — loadable in Perfetto /
  /// chrome://tracing. ts = block * 1000 (1 block = 1ms on the viewer's
  /// axis); spans are complete ("X") events on per-layer tracks, span events
  /// and flips are instants.
  void WriteChromeJson(std::ostream& os) const;
  /// Native JSONL: one object per span / global event / flip, in
  /// deterministic order (spans by id, then globals, then flips).
  void WriteJsonLines(std::ostream& os) const;

  /// Printable rendering of a key: raw ASCII when printable, 0x-hex
  /// otherwise. Deterministic; shared by exports and audit consumers.
  static std::string RenderKey(ByteSpan key);

 private:
  TraceSpan* Find(uint64_t span_id);
  /// Oldest open span id for the key: gets queue per key; scans match the
  /// start key FIFO. Returns 0 when none is open.
  uint64_t OldestOpen(ByteSpan key, bool is_scan) const;
  uint64_t NextSeq() { return seq_++; }

  std::vector<TraceSpan> spans_;  // id == index + 1
  std::vector<TraceEvent> globals_;
  std::vector<PolicyAuditRecord> flips_;
  uint64_t seq_ = 0;
  uint64_t unmatched_callbacks_ = 0;

  /// Per-key matching state, fused so the hot path (open at issue, close at
  /// callback) costs one hash lookup per side.
  struct KeyState {
    /// Open gGet span ids, FIFO from `head`. A vector with a read index
    /// allocates nothing per request once grown (a deque allocates a chunk
    /// per key, and another every 64 requests on a hot key); it compacts
    /// when the consumed prefix is half of it.
    std::vector<uint64_t> open;
    size_t head = 0;
    uint64_t last_closed = 0;  // last closed get span (0 = none)

    bool HasOpen() const { return head < open.size(); }
    uint64_t Oldest() const { return open[head]; }
    void PopOldest() {
      head += 1;
      if (head == open.size()) {
        open.clear();
        head = 0;
      } else if (head * 2 >= open.size()) {
        open.erase(open.begin(), open.begin() + static_cast<long>(head));
        head = 0;
      }
    }
  };

  /// The request-matching table sits on the per-read path: opening and
  /// closing a request each cost one probe.
  KeyMap<KeyState> gets_;
  std::deque<uint64_t> open_scans_;
};

}  // namespace grub::telemetry
