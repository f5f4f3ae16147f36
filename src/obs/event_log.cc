#include "obs/event_log.h"

#include <csignal>
#include <cstring>

#include <unistd.h>

#include <algorithm>

namespace setdisc::obs {

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kServerStart: return "server_start";
    case FlightEventKind::kServerDrain: return "server_drain";
    case FlightEventKind::kServerStop: return "server_stop";
    case FlightEventKind::kProtocolError: return "protocol_error";
    case FlightEventKind::kAdmissionReject: return "admission_reject";
    case FlightEventKind::kAdmissionClosed: return "admission_closed";
    case FlightEventKind::kAdmissionResumed: return "admission_resumed";
    case FlightEventKind::kEffortDegrade: return "effort_degrade";
    case FlightEventKind::kEffortRecover: return "effort_recover";
    case FlightEventKind::kPressureReap: return "pressure_reap";
    case FlightEventKind::kSessionEvicted: return "session_evicted";
    case FlightEventKind::kSessionError: return "session_error";
    case FlightEventKind::kSlowStep: return "slow_step";
    case FlightEventKind::kSessionSpilled: return "session_spilled";
    case FlightEventKind::kSessionResumed: return "session_resumed";
    case FlightEventKind::kStoreDegraded: return "store_degraded";
    case FlightEventKind::kCustom: return "custom";
  }
  return "custom";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : ring_(std::max<size_t>(capacity, 1)) {}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder(1024);
  return *recorder;
}

void FlightRecorder::Record(FlightEventKind kind, int64_t a, int64_t b,
                            std::string_view detail) {
  FlightEvent ev;
  ev.ts_ns = NowNanos();
  ev.kind = kind;
  ev.a = a;
  ev.b = b;
  const size_t dn = std::min(detail.size(), sizeof(ev.detail) - 1);
  if (dn != 0) std::memcpy(ev.detail, detail.data(), dn);
  ev.detail[dn] = '\0';
  // Pre-render the crash-tail line now, where snprintf is safe.
  std::snprintf(ev.text, sizeof(ev.text), "+%llu.%03llus %s a=%lld b=%lld %s\n",
                static_cast<unsigned long long>(ev.ts_ns / 1000000000ULL),
                static_cast<unsigned long long>((ev.ts_ns / 1000000ULL) % 1000),
                FlightEventKindName(kind), static_cast<long long>(a),
                static_cast<long long>(b), ev.detail);
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t ticket = total_.fetch_add(1, std::memory_order_relaxed);
  ring_[ticket % ring_.size()] = ev;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t n = total_.load(std::memory_order_relaxed);
  const size_t cap = ring_.size();
  const uint64_t count = std::min<uint64_t>(n, cap);
  std::vector<FlightEvent> out;
  out.reserve(count);
  for (uint64_t i = n - count; i < n; ++i) out.push_back(ring_[i % cap]);
  return out;
}

void FlightRecorder::DumpTail(int fd, size_t max_events) const {
  // Deliberately lock-free: this runs from a fatal-signal handler. The
  // ring_ vector never reallocates after construction, so indexing is safe;
  // a line being overwritten right now may print garbled — fine in a crash.
  const uint64_t n = total_.load(std::memory_order_relaxed);
  const size_t cap = ring_.size();
  const uint64_t count = std::min<uint64_t>(std::min<uint64_t>(n, cap),
                                            max_events);
  for (uint64_t i = n - count; i < n; ++i) {
    const char* line = ring_[i % cap].text;
    size_t len = 0;
    while (len < sizeof(FlightEvent{}.text) && line[len] != '\0') ++len;
    ssize_t ignored = ::write(fd, line, len);
    (void)ignored;
  }
}

std::string FlightChromeJson() {
  const std::vector<FlightEvent> events = FlightRecorder::Global().Snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[192];
  for (const FlightEvent& ev : events) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,"
                  "\"tid\":0,\"ts\":%.3f,\"args\":{\"a\":%lld,\"b\":%lld}}",
                  FlightEventKindName(ev.kind),
                  static_cast<double>(ev.ts_ns) / 1000.0,
                  static_cast<long long>(ev.a), static_cast<long long>(ev.b));
    out += buf;
  }
  out += "]}";
  return out;
}

bool WriteFlightDump(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = FlightChromeJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return (std::fclose(f) == 0) && ok;
}

// ---------------------------------------------------------------------------
// EventLog
// ---------------------------------------------------------------------------

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog();
  return *log;
}

bool EventLog::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = f;
  return true;
}

void EventLog::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

bool EventLog::is_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_ != nullptr;
}

void EventLog::Append(std::string_view json) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fwrite(json.data(), 1, json.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

// ---------------------------------------------------------------------------
// Exemplars
// ---------------------------------------------------------------------------

std::string ExemplarJson(const StepExemplar& ex) {
  char buf[512];
  int n = std::snprintf(
      buf, sizeof(buf),
      "{\"trace_id\":\"%016llx%016llx\",\"session\":%llu,\"request\":\"%s\","
      "\"step\":%u,\"kind\":%u,\"path\":\"%s\",\"ts_ns\":%llu,"
      "\"total_ns\":%llu,\"queue_wait_ns\":%llu,\"phases\":{",
      static_cast<unsigned long long>(ex.trace.hi),
      static_cast<unsigned long long>(ex.trace.lo),
      static_cast<unsigned long long>(ex.session_id), ex.request, ex.step,
      ex.kind,
      ServePathName(static_cast<ServePath>(ex.serve_path <= 4 ? ex.serve_path
                                                              : 0)),
      static_cast<unsigned long long>(ex.ts_ns),
      static_cast<unsigned long long>(ex.total_ns),
      static_cast<unsigned long long>(ex.queue_wait_ns));
  std::string out(buf, n > 0 ? static_cast<size_t>(n) : 0);
  for (size_t i = 0; i < kNumPhases; ++i) {
    const char* name = PhaseName(static_cast<Phase>(i));
    if (name == nullptr) continue;
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", i == 0 ? "" : ",", name,
                  static_cast<unsigned long long>(ex.phase_ns[i]));
    out += buf;
  }
  out += "}}";
  return out;
}

ExemplarStore& ExemplarStore::Global() {
  static ExemplarStore* store = new ExemplarStore();
  return *store;
}

void ExemplarStore::Add(const StepExemplar& ex) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.empty()) ring_.resize(kCapacity);
    const uint64_t ticket = total_.fetch_add(1, std::memory_order_relaxed);
    ring_[ticket % kCapacity] = ex;
  }
  EventLog& log = EventLog::Global();
  if (log.is_open()) log.Append(ExemplarJson(ex));
}

std::vector<StepExemplar> ExemplarStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t n = total_.load(std::memory_order_relaxed);
  const uint64_t count = std::min<uint64_t>(n, kCapacity);
  std::vector<StepExemplar> out;
  out.reserve(count);
  for (uint64_t i = n - count; i < n; ++i) {
    out.push_back(ring_[i % kCapacity]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Request-journey completion
// ---------------------------------------------------------------------------

void FinishRequestJourney(JourneyContext& ctx, const char* name,
                          uint64_t decode_ns, uint64_t start_ns,
                          uint64_t slow_ns, bool pooled) {
  const uint64_t end_ns = NowNanos();
  if (!ctx.trace.valid()) ctx.trace = MakeTraceId();
  if (ctx.request_span == 0) ctx.request_span = NextSpanId();
  const uint64_t queue_wait_ns = start_ns >= decode_ns ? start_ns - decode_ns : 0;

  JourneyRing& ring = Journey();
  Span req;
  req.trace_hi = ctx.trace.hi;
  req.trace_lo = ctx.trace.lo;
  req.span_id = ctx.request_span;
  req.parent_id = 0;
  req.start_ns = decode_ns;
  req.duration_ns = end_ns >= decode_ns ? end_ns - decode_ns : 0;
  char req_name[kMaxSpanName];
  std::snprintf(req_name, sizeof(req_name), "req:%s", name);
  req.SetName(req_name);
  if (ctx.session_id != 0) req.AnnotateU64("session", ctx.session_id);
  req.Annotate("path", pooled ? "pool" : "inline");
  ring.Push(req);

  if (pooled) {
    Span wait;
    wait.trace_hi = ctx.trace.hi;
    wait.trace_lo = ctx.trace.lo;
    wait.span_id = NextSpanId();
    wait.parent_id = ctx.request_span;
    wait.start_ns = decode_ns;
    wait.duration_ns = queue_wait_ns;
    wait.SetName("queue_wait");
    ring.Push(wait);
  }

  if (slow_ns > 0 && ctx.have_step &&
      ctx.step_total_ns + queue_wait_ns >= slow_ns) {
    StepExemplar ex;
    ex.trace = ctx.trace;
    ex.session_id = ctx.session_id;
    ex.ts_ns = end_ns;
    ex.step = ctx.step_index;
    ex.kind = ctx.step_kind;
    ex.serve_path = ctx.step_accum.serve_path;
    ex.total_ns = ctx.step_total_ns;
    ex.queue_wait_ns = queue_wait_ns;
    for (size_t i = 0; i < kNumPhases; ++i) ex.phase_ns[i] = ctx.step_accum.ns[i];
    const size_t rn = std::min(std::strlen(name), sizeof(ex.request) - 1);
    std::memcpy(ex.request, name, rn);
    ex.request[rn] = '\0';
    ExemplarStore::Global().Add(ex);
    FlightRecorder::Global().Record(
        FlightEventKind::kSlowStep,
        static_cast<int64_t>((ctx.step_total_ns + queue_wait_ns) / 1000000),
        static_cast<int64_t>(ctx.session_id), name);
  }
}

// ---------------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------------

namespace {

volatile std::sig_atomic_t g_dump_requested = 0;

void HandleDumpSignal(int) { g_dump_requested = 1; }

void HandleFatalSignal(int sig) {
  static const char kBanner[] = "\n--- setdisc flight recorder tail ---\n";
  ssize_t ignored = ::write(STDERR_FILENO, kBanner, sizeof(kBanner) - 1);
  (void)ignored;
  FlightRecorder::Global().DumpTail(STDERR_FILENO, 32);
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void InstallFlightDumpSignalHandler() { std::signal(SIGUSR1, HandleDumpSignal); }

bool ConsumeFlightDumpRequest() {
  if (g_dump_requested == 0) return false;
  g_dump_requested = 0;
  return true;
}

void InstallFatalTailHandler() {
  // Force the static recorder into existence now; its lazy construction is
  // not async-signal-safe, the handler's use of it afterwards is.
  FlightRecorder::Global();
  std::signal(SIGSEGV, HandleFatalSignal);
  std::signal(SIGBUS, HandleFatalSignal);
  std::signal(SIGFPE, HandleFatalSignal);
  std::signal(SIGABRT, HandleFatalSignal);
}

}  // namespace setdisc::obs
