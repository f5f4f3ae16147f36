#pragma once

/// \file event_log.h
/// The diagnostic side of request-journey tracing (journey.h):
///
///  * FlightRecorder — a process-wide fixed overwrite-oldest ring of
///    structured events (admission flips, effort-ladder moves, evictions,
///    protocol errors, server lifecycle). Each event is pre-rendered to a
///    text line at Record time, so the fatal-signal handler can dump the
///    tail with nothing but write(2) — no malloc, no locks, no formatting.
///    Dumpable as Chrome-trace instant events on SIGUSR1.
///
///  * ExemplarStore — a bounded ring of slow-step exemplars: the full
///    journey of any step whose service time (queue wait + execution)
///    crossed the --slow-ms threshold, kept for the versioned kStatsReply
///    and appended as JSONL to the --event-log file.
///
///  * Signal plumbing — SIGUSR1 sets a flag a serving loop polls
///    (ConsumeFlightDumpRequest); fatal signals write the pre-rendered
///    flight tail to stderr and re-raise.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journey.h"
#include "obs/trace.h"

namespace setdisc::obs {

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

enum class FlightEventKind : uint8_t {
  kServerStart = 0,
  kServerDrain,
  kServerStop,
  kProtocolError,
  kAdmissionReject,
  kAdmissionClosed,
  kAdmissionResumed,
  kEffortDegrade,
  kEffortRecover,
  kPressureReap,
  kSessionEvicted,
  kSessionError,
  kSlowStep,
  kSessionSpilled,   ///< evicted/reaped with its store record retained
  kSessionResumed,   ///< rehydrated from the store (a=id, b=events replayed)
  kStoreDegraded,    ///< session store hit an I/O error and stopped logging
  kCustom,
};

/// Stable lowercase name ("admission_reject", ...); never nullptr.
const char* FlightEventKindName(FlightEventKind kind);

struct FlightEvent {
  uint64_t ts_ns = 0;
  FlightEventKind kind = FlightEventKind::kCustom;
  int64_t a = 0;  ///< kind-specific (queue depth, old level, port, ...)
  int64_t b = 0;  ///< kind-specific (new level, count, ...)
  char detail[40] = {};
  /// Line rendered at Record time ("+123.456s admission_reject a=9 b=0\n"),
  /// what the fatal-signal tail writes verbatim.
  char text[96] = {};
};

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder (capacity 1024). Always on — events are rare
  /// (state transitions, not per-step) and the ring is fixed memory.
  static FlightRecorder& Global();

  void Record(FlightEventKind kind, int64_t a = 0, int64_t b = 0,
              std::string_view detail = {});

  /// Oldest first.
  std::vector<FlightEvent> Snapshot() const;

  uint64_t total() const { return total_.load(std::memory_order_relaxed); }

  /// Writes the newest `max_events` pre-rendered lines to `fd` using only
  /// write(2) and relaxed atomic loads — async-signal-safe. Lines from a
  /// slot being overwritten at that instant may be garbled; acceptable in a
  /// crash dump.
  void DumpTail(int fd, size_t max_events) const;

 private:
  mutable std::mutex mu_;
  std::vector<FlightEvent> ring_;  // sized once in the constructor
  std::atomic<uint64_t> total_{0};
};

/// Chrome trace-event JSON of Global()'s snapshot: one instant event
/// ("ph":"i") per flight event, loadable in Perfetto next to the journey
/// spans.
std::string FlightChromeJson();

/// Writes FlightChromeJson() to `path` (truncating); false on I/O failure.
bool WriteFlightDump(const std::string& path);

// ---------------------------------------------------------------------------
// EventLog — JSONL sink
// ---------------------------------------------------------------------------

/// Append-only JSONL file (--event-log). Thread-safe; each Append is one
/// line, flushed so a crash loses at most the line being written.
class EventLog {
 public:
  static EventLog& Global();

  /// Opens (truncating) `path`; false if the file can't be created.
  bool Open(const std::string& path);
  void Close();
  bool is_open() const;

  /// Writes `json` (one object, no trailing newline) as one line. No-op
  /// when closed.
  void Append(std::string_view json);

 private:
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
};

// ---------------------------------------------------------------------------
// Slow-step exemplars
// ---------------------------------------------------------------------------

struct StepExemplar {
  TraceId trace;
  uint64_t session_id = 0;
  uint64_t ts_ns = 0;  ///< completion time (NowNanos timebase)
  uint32_t step = 0;
  uint8_t kind = 0;        ///< 0 = answer, 1 = verify, 2 = create
  uint8_t serve_path = 0;  ///< ServePath
  uint64_t total_ns = 0;   ///< step execution time
  uint64_t queue_wait_ns = 0;
  uint64_t phase_ns[kNumPhases] = {};
  char request[16] = {};  ///< wire request name ("answer", ...)
};

/// One exemplar as a single-line JSON object (the --event-log format).
std::string ExemplarJson(const StepExemplar& ex);

class ExemplarStore {
 public:
  static constexpr size_t kCapacity = 64;

  /// The process-wide store.
  static ExemplarStore& Global();

  /// Keeps the most recent kCapacity exemplars and appends each to
  /// EventLog::Global() when that is open.
  void Add(const StepExemplar& ex);

  /// Oldest first.
  std::vector<StepExemplar> Snapshot() const;

  uint64_t total() const { return total_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mu_;
  std::vector<StepExemplar> ring_;
  std::atomic<uint64_t> total_{0};
};

// ---------------------------------------------------------------------------
// Request-journey completion
// ---------------------------------------------------------------------------

/// Closes out one request's journey after it ran under `ctx`
/// (JourneyScope): emits the request span (decode_ns .. now), annotated
/// with the path that served it, and — for a `pooled` request — its
/// queue-wait child (decode_ns .. start_ns) into Journey(); a request the
/// event loop served in place has no queue wait and no such span. When
/// `slow_ns` > 0 and the step's service time (queue wait + execution)
/// reached it, captures a StepExemplar. `name` is the wire request name.
void FinishRequestJourney(JourneyContext& ctx, const char* name,
                          uint64_t decode_ns, uint64_t start_ns,
                          uint64_t slow_ns, bool pooled = true);

// ---------------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------------

/// SIGUSR1 handler that just sets a flag; a serving loop polls
/// ConsumeFlightDumpRequest() and performs the (non-signal-safe) JSON dump
/// itself.
void InstallFlightDumpSignalHandler();
bool ConsumeFlightDumpRequest();

/// SIGSEGV/SIGBUS/SIGFPE/SIGABRT handler: writes the pre-rendered flight
/// tail to stderr with write(2) only, then restores the default handler and
/// re-raises so the process still dies (and dumps core) normally.
void InstallFatalTailHandler();

}  // namespace setdisc::obs
