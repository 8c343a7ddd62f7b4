#ifndef ORION_OBS_TRACE_H_
#define ORION_OBS_TRACE_H_

// Causal tracing (DESIGN.md §13).
//
// Spans carry a `TraceContext` (trace id + span id) and a parent span id,
// so one cross-cell transaction reconstructs as a single tree: the session
// root opens a trace and installs it as the thread's ambient context;
// every layer the transaction crosses (lock waits, 2PC prepares, WAL
// waits, fence drains) records its span as a child of whatever context is
// ambient at that moment.  Completed spans of an open trace accumulate in
// a per-trace scratch collector owned by the root; at root close the
// whole tree is retained verbatim in the flight recorder (slow / aborted
// transactions), sampled into the ring, or dropped — tail-based
// retention, so the interesting trees survive wrap-around.
//
// Code with no ambient context (standalone subsystems, background
// threads) keeps the PR 3 behaviour: flat spans recorded straight into
// the lock-free ring.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/latch.h"

namespace orion::obs {

class Counter;
class MetricsRegistry;

/// Microseconds on the steady clock since a process-wide anchor (first
/// call).  Monotonic; shared by spans and the wait-time histograms so
/// timestamps are comparable across subsystems.
uint64_t NowMicros();

/// Small dense id of the calling thread (1-based, assigned on first use);
/// cheaper and stabler across platforms than hashing std::thread::id.
uint32_t ThisThreadTraceId();

/// The causal identity a span records under: which trace it belongs to and
/// which span id its children parent to.  trace_id == 0 means "not
/// tracing" everywhere.  Ids are process-wide sequential (NextTraceId /
/// NextSpanId), so they are small and survive a JSON round-trip as plain
/// numbers.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

/// Fresh process-unique ids (sequential, starting at 1).
uint64_t NextTraceId();
uint64_t NextSpanId();

/// One completed span as read back out of the ring or a retained tree.
struct TraceEvent {
  const char* name = nullptr;  ///< static-lifetime label, e.g. "txn.commit"
  uint64_t start_us = 0;       ///< NowMicros() at span open
  uint64_t duration_us = 0;
  uint64_t tag = 0;            ///< span-defined payload (txn id, uid, count)
  uint32_t thread_id = 0;
  uint64_t trace_id = 0;   ///< 0 = flat span (no causal context)
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 = root (or flat)
};

/// Sizing and retention policy for one TraceBuffer, surfaced as a
/// `Database` / `Cluster` construction option.
struct TraceOptions {
  /// Ring capacity (rounded up to a power of two, minimum 8).
  size_t capacity = 8192;
  /// Complete span trees the flight recorder keeps (oldest evicted).
  size_t flight_capacity = 128;
  /// A trace at least this long is retained in the flight recorder even
  /// when it ended cleanly.
  uint64_t slow_us = 50000;
  /// 1 = every closed trace is sampled into the ring; N samples every Nth
  /// trace id; 0 disables sampling (flight retention still applies).
  uint64_t sample_period = 1;
};

/// A fixed-size lock-free ring of completed spans plus a tail-based flight
/// recorder of complete span trees.  `Record` takes a ticket with one
/// relaxed fetch-add, claims the ticket's slot exclusively with a CAS on
/// the slot's sequence word, and fills it with relaxed atomic stores
/// bracketed by that word (a seqlock), so it is cheap enough to leave
/// enabled under TSan and never blocks.  Old ring events are overwritten
/// once the ring wraps; when the ring laps a slot whose writer is still
/// filling it, the newer event is dropped instead.  `Snapshot` returns
/// only slots it could read consistently (a slot being overwritten
/// mid-read is skipped, never returned torn).  The flight recorder is latched (kTraceFlight, a
/// leaf) but touched once per trace close, never per span.
class TraceBuffer {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8).
  explicit TraceBuffer(size_t capacity = 8192);
  explicit TraceBuffer(const TraceOptions& options);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Resolves trace.* counters (dropped, sampled, retained) from
  /// `registry`.  Call once at setup, before concurrent use.
  void AttachMetrics(MetricsRegistry* registry);

  /// Records a flat span (no causal context).  `name` must have static
  /// lifetime (string literals).
  void Record(const char* name, uint64_t start_us, uint64_t duration_us,
              uint64_t tag);

  /// Records a span with explicit causal identity.
  void Record(const char* name, uint64_t start_us, uint64_t duration_us,
              uint64_t tag, TraceContext ctx, uint64_t parent_id);

  /// Closes one trace: `events` is the complete tree (root last).  Retained
  /// verbatim in the flight recorder when `error` or `root_duration_us` >=
  /// slow_us; else replayed into the ring when the trace id hits the
  /// sampling period; else discarded.  Called by TraceRoot.
  void CloseTrace(std::vector<TraceEvent> events, bool error,
                  uint64_t root_duration_us);

  /// Consistent events currently in the ring, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  /// The flight recorder's retained trees, oldest first.
  std::vector<std::vector<TraceEvent>> FlightSnapshot() const;

  /// Chrome-trace ("Trace Event Format") JSON of the flight recorder plus
  /// the current ring — loadable in Perfetto / chrome://tracing, and the
  /// input of tools/orion_trace.
  std::string ToChromeTraceJson() const;

  /// Total events ever recorded into the ring (>= capacity means the ring
  /// has wrapped).
  uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  /// Ring events lost to wraparound so far.
  uint64_t dropped() const {
    const uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }

  size_t capacity() const { return capacity_; }
  const TraceOptions& options() const { return options_; }

 private:
  /// seq == 0: slot empty; seq == (ticket + 1) | kWriting: that ticket's
  /// writer owns the slot and is filling it; seq == ticket + 1 with both
  /// reads equal: the payload belongs to that ticket and is consistent.
  static constexpr uint64_t kWriting = uint64_t{1} << 63;
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> start_us{0};
    std::atomic<uint64_t> duration_us{0};
    std::atomic<uint64_t> tag{0};
    std::atomic<uint32_t> thread_id{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_id{0};
  };

  TraceOptions options_;
  size_t capacity_;
  size_t mask_;
  std::atomic<uint64_t> next_{0};
  std::unique_ptr<Slot[]> slots_;

  /// Flight recorder: complete trees of slow / failed traces (§13
  /// tail-based retention).  A leaf latch, taken once per trace close.
  mutable Latch flight_mu_{"obs.trace.flight", LatchRank::kTraceFlight};
  std::deque<std::vector<TraceEvent>> flight_;

  Counter* dropped_counter_ = nullptr;   // trace.dropped
  Counter* sampled_counter_ = nullptr;   // trace.sampled
  Counter* retained_counter_ = nullptr;  // trace.retained
};

/// Records a completed leaf span: appended as a child of this thread's
/// ambient trace context when one is active, else recorded flat into
/// `buffer` (null buffer: the span is lost).  The call sites are the
/// engine's interior wait points — lock waits, WAL waits, fence drains —
/// which cannot know whether a traced session is above them.
void RecordSpan(TraceBuffer* buffer, const char* name, uint64_t start_us,
                uint64_t duration_us, uint64_t tag);

/// Records a completed span under an explicit identity (long-lived objects
/// that captured their context at construction): appended to the ambient
/// collector when it belongs to the ambient trace, else recorded flat-ish
/// into `buffer` with the ids preserved.
void EmitSpan(TraceBuffer* buffer, const char* name, uint64_t start_us,
              uint64_t duration_us, uint64_t tag, TraceContext ctx,
              uint64_t parent_id);

/// Captures the ambient context as a fresh child identity: returns
/// {ambient trace id, fresh span id} and writes the ambient span id to
/// `parent_id`.  Zero context (and parent 0) when no trace is active —
/// callers store the result and pass it to EmitSpan / TraceContextScope
/// unconditionally.
TraceContext CaptureChildContext(uint64_t* parent_id);

/// Re-installs a captured context as the thread's ambient one for a scope
/// — the propagation primitive for objects whose methods run under the
/// root but whose spans must parent to the object's own span (2PC
/// participants).  A no-op when `ctx` is zero or belongs to a trace that
/// is not the ambient one.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext ctx);
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  bool installed_ = false;
  TraceContext prev_{};
};

/// RAII root of one trace: opens the root span, installs the trace as the
/// thread's ambient context, collects every child span recorded under it,
/// and hands the completed tree to `buffer->CloseTrace` at destruction.
/// A null buffer makes the whole trace free (no ids, no clock reads, and
/// every span recorded below falls back to its own buffer).
///
/// Nesting: a TraceRoot constructed while this thread already has an
/// ambient trace open does NOT fork a second tree — it degrades to a
/// child span of the ambient trace (same contract as `Span`), so a
/// session root opened inside an RPC handler's root lands in the
/// handler's tree instead of splitting the causal chain (§13, §14).
class TraceRoot {
 public:
  TraceRoot(TraceBuffer* buffer, const char* name, uint64_t tag = 0);

  /// Adopting root (§14): continues a trace whose upper half lives in
  /// another process.  A nonzero `remote_parent` supplies the trace id
  /// this root joins and the span id it parents to; the tree exported
  /// here is remote-parented — its root names a parent span that is not
  /// in this process's export (tools/orion_trace treats such a root as
  /// connected).  A zero `remote_parent` behaves exactly like the plain
  /// constructor.
  TraceRoot(TraceBuffer* buffer, const char* name, uint64_t tag,
            TraceContext remote_parent);

  ~TraceRoot();

  TraceRoot(const TraceRoot&) = delete;
  TraceRoot& operator=(const TraceRoot&) = delete;

  /// Marks the trace failed (deadlock, abort, retry exhaustion): the tree
  /// is retained in the flight recorder regardless of duration.
  void MarkError() { error_ = true; }

  TraceContext context() const { return ctx_; }

 private:
  TraceBuffer* buffer_;
  const char* name_;
  uint64_t tag_;
  uint64_t start_us_ = 0;
  TraceContext ctx_{};
  std::vector<TraceEvent> events_;
  bool error_ = false;
  TraceContext prev_ctx_{};
  std::vector<TraceEvent>* prev_collector_ = nullptr;
  /// Root parent: 0 for a locally rooted trace, the remote span id for an
  /// adopting root.
  uint64_t parent_id_ = 0;
  /// Nested mode (ambient trace already open at construction): append the
  /// root event to the outer collector instead of closing a trace.
  std::vector<TraceEvent>* nested_collector_ = nullptr;
};

/// RAII span: opens at construction, records at destruction.  Under an
/// ambient trace the span becomes a child node (and is itself the ambient
/// parent for anything recorded inside it); otherwise it records flat into
/// the buffer.  A null buffer with no ambient trace makes the span free
/// (no clock reads).
class Span {
 public:
  explicit Span(TraceBuffer* buffer, const char* name, uint64_t tag = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_tag(uint64_t tag) { tag_ = tag; }

  uint64_t elapsed_us() const {
    return inert_ ? 0 : NowMicros() - start_us_;
  }

 private:
  TraceBuffer* buffer_;
  const char* name_;
  uint64_t tag_;
  uint64_t start_us_ = 0;
  bool inert_ = false;
  /// Collector mode (ambient trace active at construction): this span's
  /// own identity, its parent, and the collector to append to.
  std::vector<TraceEvent>* collector_ = nullptr;
  TraceContext ctx_{};
  uint64_t parent_id_ = 0;
};

}  // namespace orion::obs

#endif  // ORION_OBS_TRACE_H_
