#pragma once

/// \file trace.h
/// Per-step phase attribution and per-session trace rings.
///
/// The question "why was this step slow?" needs latencies attributed to the
/// stages of a step — counting, candidate ordering, the partition/emit on
/// answer, the selection-cache lookup — but those stages
/// live deep inside selectors, counters, and cache decorators whose APIs
/// should not grow a context parameter. Instead the session installs a
/// thread-local PhaseAccum around each step (PhaseScope), and instrumented
/// code records into it through PhaseTimer / NoteServePath. When no scope
/// is installed (metrics disabled, or code driven outside a session step),
/// a PhaseTimer is a thread-local load and a branch — no clock read.
///
/// A TraceRing is the bounded per-session journal of completed steps —
/// off by default, enabled per session (CreateSession trace flag). It is
/// written and read under the session's entry mutex (SessionManager
/// serializes steps), so it needs no locking of its own.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace setdisc::obs {

/// The step stages a PhaseTimer can charge.
enum class Phase : uint8_t {
  kCacheLookup = 0,  ///< selection-cache probe (and insert on miss)
  kCount = 1,        ///< counting pass (full, delta-derived, or re-emit)
  kOrder = 2,        ///< candidate ordering / scoring pass
  // 3 is reserved: kTraceReply and stats-v2 exemplars ship phases by position.
  kEmit = 4,         ///< partition-on-answer + counting-state handoff
  kSelect = 5,       ///< the whole selector Select() call (spans 0-2)
};
inline constexpr size_t kNumPhases = 6;

/// The phase's metric/span name; nullptr for the reserved slot.
const char* PhaseName(Phase phase);

/// How the step's top-level counting pass was served (mirrors
/// DeltaCounterStats plus the cache short-circuit).
enum class ServePath : uint8_t {
  kUnknown = 0,
  kFull = 1,      ///< full recount
  kDelta = 2,     ///< derived from the parent's counts
  kReemit = 3,    ///< identical view re-served from retained counts
  kCacheHit = 4,  ///< selection cache hit — no counting at all
};

const char* ServePathName(ServePath path);

/// Shape of a k-LP step's top lookahead node: |C|, its informative
/// candidates, how many had their k-step bound completed, and how many
/// were skipped as duplicate splits. All zero when the step ran no k-LP
/// Select.
struct LookaheadNote {
  uint64_t sets = 0;
  uint64_t candidates = 0;
  uint64_t evaluated = 0;
  uint64_t duplicates = 0;
};

/// Per-step scratch the timers accumulate into.
struct PhaseAccum {
  uint64_t ns[kNumPhases] = {};
  uint8_t serve_path = 0;  // ServePath
  LookaheadNote lookahead;
};

namespace internal {
inline thread_local PhaseAccum* t_phase_accum = nullptr;
}  // namespace internal

/// Installs `accum` as this thread's active step context for the scope
/// (nullptr = leave instrumentation dormant). Nests correctly.
class PhaseScope {
 public:
  explicit PhaseScope(PhaseAccum* accum)
      : prev_(internal::t_phase_accum) {
    internal::t_phase_accum = accum;
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope() { internal::t_phase_accum = prev_; }

 private:
  PhaseAccum* prev_;
};

/// Charges the scope's wall time to `phase` of the active step context.
/// `armed = false` (e.g. a non-top-level recursion) or no active context
/// skips the clock reads entirely.
class PhaseTimer {
 public:
  explicit PhaseTimer(Phase phase, bool armed = true)
      : phase_(phase),
        start_(armed && internal::t_phase_accum != nullptr ? NowNanos() : 0) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() {
    if (start_ != 0) {
      internal::t_phase_accum->ns[static_cast<size_t>(phase_)] +=
          NowNanos() - start_;
    }
  }

 private:
  Phase phase_;
  uint64_t start_;
};

/// Tags the active step with how its counting pass was served. Later calls
/// win only when the current tag is kUnknown — the first decisive path
/// (cache hit, delta, full) describes the step.
inline void NoteServePath(ServePath path) {
  PhaseAccum* accum = internal::t_phase_accum;
  if (accum != nullptr && accum->serve_path == 0) {
    accum->serve_path = static_cast<uint8_t>(path);
  }
}

/// Records the top lookahead node of the active step's Select. A step that
/// selects more than once (a don't-know re-select) keeps the last, which is
/// the one that chose its question.
inline void NoteLookahead(const LookaheadNote& note) {
  PhaseAccum* accum = internal::t_phase_accum;
  if (accum != nullptr) accum->lookahead = note;
}

/// Records each nonzero phase of `accum` into the process-wide
/// `setdisc_step_phase_ns{phase=...}` histograms (no-op when metrics are
/// disabled).
void RecordStepPhases(const PhaseAccum& accum);

/// One completed step of a traced session.
struct TraceEvent {
  uint32_t step = 0;      ///< 0-based index among this session's steps
  uint32_t entity = 0;    ///< entity answered (kNoEntity for verify steps)
  uint8_t kind = 0;       ///< 0 = answer step, 1 = verify step
  uint8_t serve_path = 0; ///< ServePath
  uint32_t candidates_before = 0;
  uint32_t candidates_after = 0;
  uint64_t phase_ns[kNumPhases] = {};
  uint64_t total_ns = 0;  ///< wall time of the whole step
};

/// Fixed-capacity overwrite-oldest journal of TraceEvents. Not internally
/// synchronized: callers (the session, via its entry mutex) serialize
/// Push() against Events().
class TraceRing {
 public:
  explicit TraceRing(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    events_.reserve(capacity_);
  }

  void Push(const TraceEvent& event) {
    if (events_.size() < capacity_) {
      events_.push_back(event);
    } else {
      events_[head_] = event;
      head_ = (head_ + 1) % capacity_;
    }
    ++total_;
  }

  /// Retained events, oldest first.
  std::vector<TraceEvent> Events() const {
    std::vector<TraceEvent> out;
    out.reserve(events_.size());
    for (size_t i = 0; i < events_.size(); ++i) {
      out.push_back(events_[(head_ + i) % events_.size()]);
    }
    return out;
  }

  size_t capacity() const { return capacity_; }
  /// Total events ever pushed (>= Events().size(); the difference was
  /// overwritten).
  uint64_t total() const { return total_; }

 private:
  size_t capacity_;
  size_t head_ = 0;  // oldest retained event once full
  uint64_t total_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace setdisc::obs
