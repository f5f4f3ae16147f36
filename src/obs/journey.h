#pragma once

/// \file journey.h
/// Request-journey tracing: the per-request layer on top of the aggregate
/// sensors in metrics.h/trace.h. A *journey* is the span tree of one request
/// — request span, queue-wait child, step child, phase grandchildren — tied
/// together by a 128-bit trace id that can cross the wire (see the
/// CreateSession trace-context extension in net/protocol.h), so a client's
/// spans and the server's share one tree.
///
/// Spans land in a process-wide lock-free bounded ring (JourneyRing): Push
/// is a ticket fetch_add, a CAS claim and ~25 relaxed atomic word stores
/// guarded by a per-slot seqlock, so the serving hot path never takes a
/// lock and readers (Snapshot, the --trace-export dump) skip slots they
/// catch mid-write. Under extreme wrap contention (more concurrent writers
/// than ring capacity apart) a span can be abandoned — acceptable for a
/// diagnostic ring, and the seqlock keeps every *returned* span internally
/// consistent.
///
/// Trace context flows through a thread-local JourneyContext installed by
/// the layer that knows the request boundary (the server's pool-job wrapper,
/// or a bench/test harness) and filled in by the layers below it: the
/// SessionManager contributes the session's stored trace id, the session's
/// RecordStep emits the step span with its PhaseAccum breakdown attached as
/// child spans and copies the step's totals back into the context so the
/// wrapper can make slow-step exemplar decisions (see event_log.h).

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace setdisc::obs {

// ---------------------------------------------------------------------------
// Identifiers
// ---------------------------------------------------------------------------

/// 128-bit trace id. {0, 0} means "no trace" everywhere (never generated).
struct TraceId {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool valid() const { return (hi | lo) != 0; }
  friend bool operator==(const TraceId& a, const TraceId& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
};

/// A fresh random-ish 128-bit id: a per-thread splitmix64 stream seeded from
/// std::random_device plus a process counter. Never returns {0, 0}.
TraceId MakeTraceId();

/// Process-unique nonzero span id (plain atomic counter).
uint64_t NextSpanId();

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

inline constexpr size_t kMaxSpanName = 16;        // incl. NUL
inline constexpr size_t kMaxSpanAnnotations = 4;
inline constexpr size_t kMaxAnnotationKey = 12;   // incl. NUL
inline constexpr size_t kMaxAnnotationValue = 20; // incl. NUL

/// One span, fixed-size and trivially copyable so the ring can move it with
/// relaxed word stores. Strings are NUL-terminated and silently truncated to
/// their field size; annotations beyond kMaxSpanAnnotations are dropped.
struct alignas(8) Span {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 = root span of its trace
  uint64_t start_ns = 0;   ///< obs::NowNanos() timebase
  uint64_t duration_ns = 0;
  char name[kMaxSpanName] = {};
  uint8_t num_annotations = 0;
  uint8_t pad_[7] = {};
  char ann_key[kMaxSpanAnnotations][kMaxAnnotationKey] = {};
  char ann_value[kMaxSpanAnnotations][kMaxAnnotationValue] = {};

  void SetName(std::string_view n);
  void Annotate(std::string_view key, std::string_view value);
  void AnnotateU64(std::string_view key, uint64_t value);
};

static_assert(std::is_trivially_copyable_v<Span>);
static_assert(sizeof(Span) % sizeof(uint64_t) == 0);

// ---------------------------------------------------------------------------
// JourneyRing — lock-free overwrite-oldest span ring
// ---------------------------------------------------------------------------

class JourneyRing {
 public:
  /// Capacity is clamped to >= 1. Memory is allocated once here; Push never
  /// allocates.
  explicit JourneyRing(size_t capacity);

  JourneyRing(const JourneyRing&) = delete;
  JourneyRing& operator=(const JourneyRing&) = delete;

  /// Records a span, overwriting the oldest when full. Lock-free: one
  /// fetch_add ticket, then a CAS claim of the slot and relaxed word stores
  /// under its seqlock. A slot another writer holds mid-copy, or that a
  /// newer ticket already filled, is abandoned (the span is dropped).
  void Push(const Span& span);

  /// Every readable span, oldest-ticket first. Slots caught mid-write (or
  /// overwritten while being read) are skipped, never returned torn.
  std::vector<Span> Snapshot() const;

  /// Total spans ever pushed (>= capacity means the ring has wrapped).
  uint64_t total() const { return next_.load(std::memory_order_relaxed); }

  size_t capacity() const { return slots_.size(); }

 private:
  static constexpr size_t kSpanWords = sizeof(Span) / sizeof(uint64_t);

  struct Slot {
    /// Seqlock: odd while a writer is copying, even when stable. Writers
    /// stamp ticket-derived values so a reader also detects overwrites that
    /// completed entirely within its read.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[kSpanWords];
  };

  std::vector<Slot> slots_;
  std::atomic<uint64_t> next_{0};
};

/// The process-wide journey ring (capacity 8192) — what --trace-export
/// dumps and the server/session layers push into.
JourneyRing& Journey();

/// Journey kill switch, default off: nothing records spans until a serving
/// entry point (CLI --trace-export/--slow-ms/--event-log, bench_obs, tests)
/// turns it on. Independent of the metrics switch, but span emission also
/// requires obs::Enabled() on the server path.
bool JourneyEnabled();
void SetJourneyEnabled(bool enabled);

// ---------------------------------------------------------------------------
// JourneyContext — per-request trace context
// ---------------------------------------------------------------------------

/// Thread-local context installed for the duration of one request. The
/// installer (server pool job, bench loop) sets `trace` (possibly invalid)
/// and `request_span`; the layers underneath fill the rest:
///  * SessionManager copies the session's stored trace id into `trace` when
///    the request didn't carry one, and stamps `session_id`;
///  * DiscoverySession::RecordStep emits the step + phase spans and
///    copies the step's totals back for exemplar decisions.
struct JourneyContext {
  TraceId trace;
  uint64_t request_span = 0;
  uint64_t session_id = 0;

  // Filled by the step that ran under this context (last one wins).
  bool have_step = false;
  uint8_t step_kind = 0;  ///< 0 = answer, 1 = verify (TraceEvent convention)
  uint32_t step_index = 0;
  uint64_t step_span = 0;
  uint64_t step_total_ns = 0;
  PhaseAccum step_accum;
};

namespace internal {
inline thread_local JourneyContext* t_journey = nullptr;
}  // namespace internal

inline JourneyContext* CurrentJourney() { return internal::t_journey; }

/// Installs `ctx` (may be nullptr = detach) for the current scope; restores
/// the previous context on destruction. Nests.
class JourneyScope {
 public:
  explicit JourneyScope(JourneyContext* ctx) : prev_(internal::t_journey) {
    internal::t_journey = ctx;
  }
  ~JourneyScope() { internal::t_journey = prev_; }

  JourneyScope(const JourneyScope&) = delete;
  JourneyScope& operator=(const JourneyScope&) = delete;

 private:
  JourneyContext* prev_;
};

// ---------------------------------------------------------------------------
// Emission helpers
// ---------------------------------------------------------------------------

/// Emits the step span for the active context into Journey(), with one child
/// span per phase that consumed >= 1us (tinier phases are noise and ring
/// pressure; their time is still in the step span). Phases have durations
/// but not absolute offsets, so children are laid out back-to-back from the
/// step's start — the breakdown is exact, the overlap approximate. Ensures
/// ctx.trace is valid (generates an id if the whole stack had none) and
/// copies kind/total/accum back into ctx for the exemplar decision upstream.
void EmitStepSpans(JourneyContext& ctx, uint8_t kind, uint32_t step_index,
                   uint32_t entity, uint64_t total_ns, const PhaseAccum& accum);

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Renders spans as a complete Chrome trace-event JSON document (loadable in
/// Perfetto / chrome://tracing): one "X" (complete) event per span, ts/dur
/// in microseconds, tid derived from the trace id so one request's spans
/// share a track, span/parent ids and annotations in "args".
std::string SpansToChromeJson(const std::vector<Span>& spans);

/// SpansToChromeJson over the global ring's snapshot.
std::string JourneyChromeJson();

/// Writes JourneyChromeJson() to `path` (truncating). Returns false on I/O
/// failure.
bool WriteJourneyTrace(const std::string& path);

}  // namespace setdisc::obs
