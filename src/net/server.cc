#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <deque>
#include <fcntl.h>
#include <optional>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "net/socket.h"
#include "obs/event_log.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "service/load_controller.h"

namespace setdisc::net {

namespace {

using Clock = std::chrono::steady_clock;

struct PollerEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool hangup = false;
};

/// Readiness-notification backend: epoll on Linux, poll(2) everywhere (and
/// as the tested fallback). Level-triggered in both backends — the loop
/// re-arms nothing and simply reacts to what is still ready.
class Poller {
 public:
  virtual ~Poller() = default;
  /// Read interest is explicit so backpressured connections can stop
  /// polling for input (hangup/error events are always delivered).
  virtual void Add(int fd, bool want_read, bool want_write) = 0;
  virtual void Update(int fd, bool want_read, bool want_write) = 0;
  virtual void Remove(int fd) = 0;
  virtual void Wait(int timeout_ms, std::vector<PollerEvent>* out) = 0;
};

class PollPoller : public Poller {
 public:
  void Add(int fd, bool want_read, bool want_write) override {
    Update(fd, want_read, want_write);
  }

  void Update(int fd, bool want_read, bool want_write) override {
    want_[fd] = static_cast<short>((want_read ? POLLIN : 0) |
                                   (want_write ? POLLOUT : 0));
  }

  void Remove(int fd) override { want_.erase(fd); }

  void Wait(int timeout_ms, std::vector<PollerEvent>* out) override {
    out->clear();
    pfds_.clear();
    pfds_.reserve(want_.size());
    for (const auto& [fd, events] : want_) {
      pfds_.push_back(pollfd{fd, events, 0});
    }
    int n = ::poll(pfds_.data(), pfds_.size(), timeout_ms);
    if (n <= 0) return;  // timeout or EINTR: both mean "nothing ready"
    for (const pollfd& p : pfds_) {
      if (p.revents == 0) continue;
      PollerEvent ev;
      ev.fd = p.fd;
      ev.readable = (p.revents & POLLIN) != 0;
      ev.writable = (p.revents & POLLOUT) != 0;
      ev.hangup = (p.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
      out->push_back(ev);
    }
  }

 private:
  std::unordered_map<int, short> want_;
  std::vector<pollfd> pfds_;
};

#ifdef __linux__
class EpollPoller : public Poller {
 public:
  EpollPoller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {}

  bool ok() const { return epfd_.valid(); }

  void Add(int fd, bool want_read, bool want_write) override {
    Ctl(EPOLL_CTL_ADD, fd, want_read, want_write);
  }
  void Update(int fd, bool want_read, bool want_write) override {
    Ctl(EPOLL_CTL_MOD, fd, want_read, want_write);
  }

  void Remove(int fd) override {
    epoll_event ev{};
    ::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, &ev);
  }

  void Wait(int timeout_ms, std::vector<PollerEvent>* out) override {
    out->clear();
    epoll_event events[64];
    int n = ::epoll_wait(epfd_.get(), events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      PollerEvent ev;
      ev.fd = events[i].data.fd;
      ev.readable = (events[i].events & EPOLLIN) != 0;
      ev.writable = (events[i].events & EPOLLOUT) != 0;
      ev.hangup = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
      out->push_back(ev);
    }
  }

 private:
  void Ctl(int op, int fd, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = (want_read ? static_cast<uint32_t>(EPOLLIN) : 0u) |
                (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epfd_.get(), op, fd, &ev);
  }

  UniqueFd epfd_;
};
#endif  // __linux__

std::unique_ptr<Poller> MakePoller(bool use_epoll) {
#ifdef __linux__
  if (use_epoll) {
    auto poller = std::make_unique<EpollPoller>();
    if (poller->ok()) return poller;
  }
#else
  (void)use_epoll;
#endif
  return std::make_unique<PollPoller>();
}

obs::Counter* BytesReadCounter() {
  static obs::Counter* const c = obs::MetricsRegistry::Default().GetCounter(
      "setdisc_net_bytes_read_total");
  return c;
}

obs::Counter* BytesWrittenCounter() {
  static obs::Counter* const c = obs::MetricsRegistry::Default().GetCounter(
      "setdisc_net_bytes_written_total");
  return c;
}

/// Bytes sitting in connection write buffers, process-wide. A sustained
/// nonzero value means clients are not keeping up with their replies.
obs::Gauge* WriteBacklogGauge() {
  static obs::Gauge* const g = obs::MetricsRegistry::Default().GetGauge(
      "setdisc_net_write_backlog_bytes");
  return g;
}

/// The time from the poller reporting a connection readable to the loop
/// turning to it: the wait behind the events ahead of it in the batch,
/// which is where in-place (inline) requests would show as a stalled loop.
obs::Histogram* LoopLagHistogram() {
  static obs::Histogram* const h =
      obs::MetricsRegistry::Default().GetHistogram("setdisc_loop_lag_ns");
  return h;
}

/// One wire request kind and its setdisc_request_ns{op, path} histograms:
/// the request's time in the server, from its dispatch to its reply landing
/// in the connection's write buffer. path="inline" when the loop served it
/// in place; path="pool" when it rode the manager's pool (queue wait, the
/// job, and the completion hop back to the loop). Requests the loop always
/// serves itself (`pooled` false) have no pool histogram.
struct RequestOp {
  explicit RequestOp(const char* op, bool pooled = true)
      : name(op),
        inline_ns(Histogram(op, "inline")),
        pool_ns(pooled ? Histogram(op, "pool") : nullptr) {}

  const char* name;
  obs::Histogram* inline_ns;
  obs::Histogram* pool_ns;

 private:
  static obs::Histogram* Histogram(const char* op, const char* path) {
    return obs::MetricsRegistry::Default().GetHistogram(
        "setdisc_request_ns", {{"op", op}, {"path", path}});
  }
};

/// Start of a request's server time; 0 (nothing to time) with metrics off.
uint64_t RequestStartNs() {
  return obs::Enabled() ? obs::NowNanos() : 0;
}

void RecordRequest(obs::Histogram* h, uint64_t start_ns) {
  if (start_ns != 0) h->Record(obs::NowNanos() - start_ns);
}

WireStatus ToWireStatus(SessionStatus status) {
  switch (status) {
    case SessionStatus::kOk: return WireStatus::kOk;
    case SessionStatus::kNotFound: return WireStatus::kNotFound;
    case SessionStatus::kWrongState: return WireStatus::kWrongState;
  }
  return WireStatus::kMalformed;
}

/// One client connection. Owned and touched exclusively by the event-loop
/// thread; pool jobs refer to connections only by id through the completion
/// queue, so a connection that dies mid-request simply drops the reply.
struct Conn {
  UniqueFd fd;
  uint64_t id = 0;
  FrameDecoder decoder;
  std::deque<Frame> pending;  ///< decoded requests awaiting their turn
  std::string outbuf;
  size_t outpos = 0;
  Clock::time_point last_active;
  bool inflight = false;   ///< a request of this connection is on the pool
  bool closing = false;    ///< poisoned / draining: close once flushed
  bool saw_eof = false;    ///< peer half-closed; serve what arrived, then close
  bool want_read = true;   ///< poller interest as last registered
  bool want_write = false;
  /// Error frame held back until the in-flight request's reply is out —
  /// replies are strictly in request order, and the poisoning input arrived
  /// after that request.
  std::string deferred_error;

  explicit Conn(size_t max_body) : decoder(max_body) {}

  bool FullyDrained() const {
    return !inflight && pending.empty() && deferred_error.empty() &&
           outpos == outbuf.size();
  }
};

/// One metrics-HTTP connection: read until the blank line (or EOF), write
/// one response, close. No keep-alive, no routing — every request gets the
/// registry snapshot.
struct MetricsConn {
  UniqueFd fd;
  std::string in;
  std::string out;
  size_t outpos = 0;
  bool responding = false;
};

}  // namespace

struct DiscoveryServer::Impl {
  UniqueFd listener;
  UniqueFd metrics_listener;
  UniqueFd wake_read, wake_write;
  std::unique_ptr<Poller> poller;
  std::unordered_map<int, MetricsConn> metrics_conns;

  // Event-loop-thread state.
  std::unordered_map<int, std::shared_ptr<Conn>> by_fd;
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> by_id;
  uint64_t next_conn_id = 1;
  bool draining = false;
  Clock::time_point drain_deadline;

  /// Sum of unflushed reply bytes across all connections. Loop-thread only;
  /// mirrored into the setdisc_net_write_backlog_bytes gauge.
  int64_t write_backlog = 0;

  // Pool-thread -> loop-thread handoff.
  struct Completion {
    uint64_t conn_id = 0;
    std::string frame;
    const RequestOp* op = nullptr;
    uint64_t dispatch_ns = 0;  ///< RequestStartNs() at dispatch
  };
  std::mutex completions_mu;
  std::vector<Completion> completions;
  std::atomic<int64_t> outstanding_jobs{0};

  /// Every Offload()ed job resolves in exactly one PostCompletion; the
  /// wake and the counter decrement must happen even if enqueueing the
  /// reply fails, or Shutdown() would wait on the counter forever.
  void PostCompletion(Completion done) {
    try {
      std::lock_guard<std::mutex> lock(completions_mu);
      completions.push_back(std::move(done));
    } catch (...) {
      // Allocation failure posting the reply: the connection idles out,
      // but the loop still wakes and the job still counts as finished.
    }
    char byte = 1;
    // Best-effort: a full pipe already guarantees a pending wakeup.
    (void)!::write(wake_write.get(), &byte, 1);
    outstanding_jobs.fetch_sub(1, std::memory_order_release);
  }
};

DiscoveryServer::DiscoveryServer(SessionManager& manager, ServerOptions options)
    : manager_(manager),
      options_(std::move(options)),
      impl_(std::make_unique<Impl>()) {}

DiscoveryServer::~DiscoveryServer() { Shutdown(); }

Status DiscoveryServer::Start() {
  if (running_.load()) return Status::Error("server already running");

  Result<UniqueFd> listener =
      TcpListen(options_.bind_address, options_.port, options_.listen_backlog);
  if (!listener.ok()) return listener.status();
  impl_->listener = std::move(listener.value());
  Status nb = SetNonBlocking(impl_->listener.get());
  if (!nb.ok()) return nb;
  port_ = LocalPort(impl_->listener.get());

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return Status::IoError("pipe failed");
  impl_->wake_read = UniqueFd(pipe_fds[0]);
  impl_->wake_write = UniqueFd(pipe_fds[1]);
  SetNonBlocking(impl_->wake_read.get());
  SetNonBlocking(impl_->wake_write.get());

  if (options_.enable_metrics_http) {
    Result<UniqueFd> metrics_listener = TcpListen(
        options_.bind_address, options_.metrics_port, options_.listen_backlog);
    if (!metrics_listener.ok()) return metrics_listener.status();
    impl_->metrics_listener = std::move(metrics_listener.value());
    Status mnb = SetNonBlocking(impl_->metrics_listener.get());
    if (!mnb.ok()) return mnb;
    metrics_port_ = LocalPort(impl_->metrics_listener.get());
  }

  impl_->poller = MakePoller(options_.use_epoll);
  impl_->poller->Add(impl_->listener.get(), /*want_read=*/true,
                     /*want_write=*/false);
  if (impl_->metrics_listener.valid()) {
    impl_->poller->Add(impl_->metrics_listener.get(), /*want_read=*/true,
                       /*want_write=*/false);
  }
  impl_->poller->Add(impl_->wake_read.get(), /*want_read=*/true,
                     /*want_write=*/false);

  stats_probe_ = obs::MetricsRegistry::Default().AddProbe(
      [this](obs::SampleSink& sink) {
        ServerStats s = stats();
        sink.Counter("setdisc_server_connections_total", s.connections_total);
        sink.Gauge("setdisc_server_connections_open",
                   static_cast<int64_t>(s.connections_open));
        sink.Counter("setdisc_server_frames_received_total",
                     s.frames_received);
        sink.Counter("setdisc_server_frames_sent_total", s.frames_sent);
        sink.Counter("setdisc_server_protocol_errors_total",
                     s.protocol_errors);
        sink.Counter("setdisc_server_idle_closed_total", s.idle_closed);
      });

  // A restarted server (Start after Shutdown) must not inherit the old
  // drain state or stale replies for long-gone connection ids.
  impl_->draining = false;
  {
    std::lock_guard<std::mutex> lock(impl_->completions_mu);
    impl_->completions.clear();
  }

  stop_requested_.store(false);
  running_.store(true, std::memory_order_release);
  obs::FlightRecorder::Global().Record(obs::FlightEventKind::kServerStart,
                                       port_, metrics_port_);
  loop_thread_ = std::thread(&DiscoveryServer::Loop, this);
  return Status::OK();
}

void DiscoveryServer::Shutdown() {
  // Released before the join so a Snapshot() racing the teardown cannot
  // sample a dying server. (Release blocks out in-flight invocations.)
  stats_probe_.Release();
  if (loop_thread_.joinable()) {
    stop_requested_.store(true);
    char byte = 1;
    (void)!::write(impl_->wake_write.get(), &byte, 1);
    loop_thread_.join();
  }
  // Pool jobs posted by the loop may still be running; they touch only the
  // completion queue and the wake pipe, both alive until ~Impl. Wait them
  // out so destruction is safe even if the drain deadline cut them off.
  while (impl_->outstanding_jobs.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  running_.store(false, std::memory_order_release);
}

ServerStats DiscoveryServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Event loop. Everything below runs on loop_thread_ only.
// ---------------------------------------------------------------------------

namespace {

HistogramSummary Summarize(const obs::HistogramSnapshot& snap) {
  HistogramSummary h;
  h.count = snap.count;
  h.sum = snap.sum;
  h.p50 = snap.ValueAtQuantile(0.50);
  h.p90 = snap.ValueAtQuantile(0.90);
  h.p99 = snap.ValueAtQuantile(0.99);
  h.p999 = snap.ValueAtQuantile(0.999);
  return h;
}

/// Assembles the versioned rich section of a kStats reply: the merged
/// latency histograms, the serve-path mix, the cache hit rate, the k-LP
/// pruning totals, and a name->value dump of every counter/gauge the
/// registry (including its probes) knows.
void FillRichStats(SessionManager& manager, StatsReplyMsg* msg) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  msg->has_rich = true;
  msg->rich_version = 1;
  msg->step_latency = Summarize(reg.MergedHistogram("setdisc_step_latency_ns"));
  msg->pool_queue_wait =
      Summarize(reg.MergedHistogram("setdisc_pool_queue_wait_ns"));
  msg->pool_queue_depth = manager.pool().queue_depth();
  if (SelectionCache* cache = manager.selection_cache()) {
    const SelectionCacheStats cs = cache->stats();
    msg->cache_lookups = cs.lookups;
    msg->cache_hits = cs.hits;
  }
  msg->delta_full =
      reg.GetCounter("setdisc_delta_serves_total", {{"path", "full"}})->Value();
  msg->delta_delta =
      reg.GetCounter("setdisc_delta_serves_total", {{"path", "delta"}})
          ->Value();
  msg->delta_reemit =
      reg.GetCounter("setdisc_delta_serves_total", {{"path", "reemit"}})
          ->Value();
  msg->klp_candidates = reg.CounterTotal("setdisc_klp_candidates_total");
  msg->klp_evaluated = reg.CounterTotal("setdisc_klp_fully_evaluated_total");
  msg->klp_pruned = reg.CounterTotal("setdisc_klp_pruned_total");
  const obs::RegistrySnapshot snap = reg.Snapshot();
  msg->registry.reserve(
      std::min<size_t>(snap.samples.size(), kMaxWireRegistryEntries));
  for (const obs::MetricSample& sample : snap.samples) {
    if (msg->registry.size() >= kMaxWireRegistryEntries) break;
    std::string key = sample.name;
    if (!sample.labels.empty()) {
      key += "{" + obs::FormatLabels(sample.labels) + "}";
    }
    msg->registry.emplace_back(std::move(key),
                               static_cast<uint64_t>(sample.value));
  }
  // v2: ship the slow-step exemplars (possibly none) so a remote operator
  // sees which traces were slow and where the time went.
  msg->rich_version = 2;
  msg->has_exemplars = true;
  for (const obs::StepExemplar& ex : obs::ExemplarStore::Global().Snapshot()) {
    WireExemplar w;
    w.trace_hi = ex.trace.hi;
    w.trace_lo = ex.trace.lo;
    w.session_id = ex.session_id;
    w.ts_ns = ex.ts_ns;
    w.step = ex.step;
    w.kind = ex.kind;
    w.serve_path = ex.serve_path;
    w.total_ns = ex.total_ns;
    w.queue_wait_ns = ex.queue_wait_ns;
    for (size_t ph = 0; ph < obs::kNumPhases; ++ph) {
      w.phase_ns[ph] = ex.phase_ns[ph];
    }
    msg->exemplars.push_back(w);
  }
}

/// Encodes the reply for one offloaded session step: the new state on
/// success, an Error frame otherwise.
std::string StepReply(SessionStatus status, const SessionView& view,
                      const char* what) {
  if (status == SessionStatus::kOk) return Encode(ToWire(view));
  WireStatus wire = ToWireStatus(status);
  return Encode(ErrorMsg{wire, std::string(what) + ": " + WireStatusName(wire)});
}

/// Loop-side machinery that needs access to the server's members; kept as a
/// free-function toolkit over explicit state to keep server.h implementation
/// -free. (Defined as a class for brevity of the many small steps.)
struct LoopCtx {
  DiscoveryServer::Impl& im;
  SessionManager& manager;
  const ServerOptions& options;
  std::mutex& stats_mu;
  ServerStats& stats;
  /// Next time the idle sweep actually scans the connection table (the scan
  /// is O(connections); running it every event batch would tax the loop).
  Clock::time_point next_sweep = Clock::now();

  /// Accept backoff under fd exhaustion: EMFILE/ENFILE leaves the pending
  /// connection queued, and a level-triggered poller would report the
  /// listener readable forever — a zero-timeout busy spin. Read interest on
  /// the listener is dropped until this deadline instead.
  bool listener_paused = false;
  Clock::time_point resume_accepts{};

  void Bump(uint64_t ServerStats::* counter, uint64_t by = 1) {
    std::lock_guard<std::mutex> lock(stats_mu);
    stats.*counter += by;
  }

  void NoteBacklog(int64_t delta) {
    im.write_backlog += delta;
    if (obs::Enabled()) WriteBacklogGauge()->Set(im.write_backlog);
  }

  void SendFrame(Conn& conn, std::string frame) {
    NoteBacklog(static_cast<int64_t>(frame.size()));
    conn.outbuf += frame;
    Bump(&ServerStats::frames_sent);
  }

  void SendError(Conn& conn, WireStatus status, std::string message) {
    SendFrame(conn, Encode(ErrorMsg{status, std::move(message)}));
  }

  /// Unrecoverable stream error: stop reading this connection, but first
  /// finish what arrived intact BEFORE the poison — requests already in
  /// flight or decoded into the queue get their replies in order, then the
  /// Error frame goes out (the n-th reply answers the n-th request even on
  /// a dying stream), then the connection closes once flushed.
  ///
  /// `drop_queued` distinguishes where the poison sits relative to the
  /// queue: a malformed PAYLOAD (Dispatch-level, the default) poisons the
  /// frame being dispatched, so everything still queued arrived after it
  /// and must be dropped, not answered; a decoder-level error (bad header
  /// mid-stream) arrived after everything in the queue, which keeps its
  /// replies.
  void ProtocolError(Conn& conn, WireStatus status, bool drop_queued = true) {
    if (drop_queued) conn.pending.clear();
    if (conn.closing) return;
    Bump(&ServerStats::protocol_errors);
    obs::FlightRecorder::Global().Record(
        obs::FlightEventKind::kProtocolError, static_cast<int64_t>(status),
        static_cast<int64_t>(conn.id), WireStatusName(status));
    conn.closing = true;
    conn.deferred_error = Encode(ErrorMsg{status, WireStatusName(status)});
  }

  void CloseConn(Conn& conn) {
    NoteBacklog(-static_cast<int64_t>(conn.outbuf.size() - conn.outpos));
    im.poller->Remove(conn.fd.get());
    Bump(&ServerStats::connections_open, static_cast<uint64_t>(-1));
    uint64_t id = conn.id;
    int fd = conn.fd.get();
    im.by_id.erase(id);
    im.by_fd.erase(fd);  // destroys conn — must be the last touch
  }

  std::shared_ptr<Conn> Find(int fd) {
    auto it = im.by_fd.find(fd);
    return it == im.by_fd.end() ? nullptr : it->second;
  }

  void Accept() {
    // Bounded per event: an unexpectedly persistent accept errno must fall
    // back to the event loop (which re-reports readiness) rather than spin
    // here forever.
    for (int attempts = 0; attempts < 1024; ++attempts) {
      int raw = ::accept(im.listener.get(), nullptr, nullptr);
      if (raw < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          // Resource exhaustion: the pending connection stays queued, so
          // back off the listener instead of spinning on its readability.
          listener_paused = true;
          resume_accepts = Clock::now() + std::chrono::milliseconds(100);
          im.poller->Update(im.listener.get(), /*want_read=*/false,
                            /*want_write=*/false);
          return;
        }
        // EINTR, ECONNABORTED (peer RST while queued), and kin are
        // per-attempt transients: skip and keep accepting.
        continue;
      }
      UniqueFd fd(raw);
      if (options.max_connections > 0 &&
          im.by_fd.size() >= options.max_connections) {
        continue;  // over capacity: fd closes on scope exit
      }
      SetNonBlocking(fd.get());
      SetNoDelay(fd.get());
      auto conn = std::make_shared<Conn>(options.max_frame_body);
      conn->id = im.next_conn_id++;
      conn->last_active = Clock::now();
      int key = fd.get();
      conn->fd = std::move(fd);
      im.poller->Add(key, /*want_read=*/true, /*want_write=*/false);
      im.by_fd.emplace(key, conn);
      im.by_id.emplace(conn->id, conn);
      Bump(&ServerStats::connections_total);
      Bump(&ServerStats::connections_open);
    }
  }

  /// Backpressure bound: a client that pipelines requests without reading
  /// replies stops being read once this much work is queued for it, so one
  /// connection cannot grow pending/outbuf without limit (TCP then pushes
  /// back on the sender). Reading resumes as the backlog drains.
  bool Backlogged(const Conn& conn) const {
    constexpr size_t kMaxPendingFrames = 128;
    const size_t max_outbuf_bytes =
        std::max<size_t>(4 << 20, 4 * options.max_frame_body);
    return conn.pending.size() >= kMaxPendingFrames ||
           conn.outbuf.size() - conn.outpos >= max_outbuf_bytes;
  }

  /// Re-registers poller interest from the connection's current state:
  /// read while healthy and not backlogged, write while bytes are owed.
  void UpdateInterest(Conn& conn) {
    bool want_read = !conn.closing && !conn.saw_eof && !Backlogged(conn);
    bool want_write = conn.outpos < conn.outbuf.size();
    if (want_read != conn.want_read || want_write != conn.want_write) {
      conn.want_read = want_read;
      conn.want_write = want_write;
      im.poller->Update(conn.fd.get(), want_read, want_write);
    }
  }

  /// Writes as much of the backlog as the socket accepts; returns false when
  /// the connection died mid-write (and was closed).
  bool FlushWrites(Conn& conn) {
    while (conn.outpos < conn.outbuf.size()) {
      ssize_t written = SendSome(conn.fd.get(), conn.outbuf.data() + conn.outpos,
                                 conn.outbuf.size() - conn.outpos);
      if (written > 0) {
        conn.outpos += static_cast<size_t>(written);
        NoteBacklog(-written);
        if (obs::Enabled()) {
          BytesWrittenCounter()->Add(static_cast<uint64_t>(written));
        }
        // Write progress is activity too: a client slowly draining a big
        // reply backlog must not be idle-swept mid-stream.
        conn.last_active = Clock::now();
        continue;
      }
      if (written == 0) break;  // EAGAIN: poll for writability
      CloseConn(conn);
      return false;
    }
    if (conn.outpos == conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.outpos = 0;
    }
    return true;
  }

  /// Closes a connection whose conversation is over (poisoned, draining, or
  /// the peer half-closed) once every pending byte is on the wire.
  void MaybeClose(Conn& conn) {
    if ((conn.closing || conn.saw_eof || im.draining) && conn.FullyDrained()) {
      CloseConn(conn);
    }
  }

  void Dispatch(Conn& conn, Frame frame) {
    const uint64_t start_ns = RequestStartNs();
    switch (frame.type) {
      case MsgType::kCloseSession: {
        static const RequestOp kOp("close", /*pooled=*/false);
        SessionRefMsg msg;
        if (!Decode(frame.body, &msg)) return ProtocolError(conn, WireStatus::kMalformed);
        SessionStatus status = manager.Close(msg.session_id, msg.token);
        if (status == SessionStatus::kOk) {
          SendFrame(conn, Encode(MsgType::kClosed, msg));
        } else {
          SendError(conn, ToWireStatus(status), "close: unknown session");
        }
        RecordRequest(kOp.inline_ns, start_ns);
        return;
      }
      case MsgType::kStats: {
        static const RequestOp kOp("stats", /*pooled=*/false);
        if (!frame.body.empty()) return ProtocolError(conn, WireStatus::kMalformed);
        StatsReplyMsg msg;
        msg.active_sessions = manager.num_active();
        msg.created_sessions = manager.num_created();
        {
          std::lock_guard<std::mutex> lock(stats_mu);
          msg.connections_open = stats.connections_open;
          msg.connections_total = stats.connections_total;
          msg.frames_received = stats.frames_received;
          msg.frames_sent = stats.frames_sent;
        }
        FillRichStats(manager, &msg);
        SendFrame(conn, Encode(msg));
        RecordRequest(kOp.inline_ns, start_ns);
        return;
      }
      // The session-stepping requests run Select() (Create / Answer /
      // Verify) or may block on a session mutex behind someone else's
      // Select() (Get / Resume), so they are offloaded and the loop never
      // stalls — except that a Create, Answer, Get or Resume the manager
      // can serve without waiting or selecting (TryCreateInline /
      // TryStepInline / TryGetInline) is served in place (ServeInline),
      // saving the pool and wake-pipe hops.
      //
      // The job lambdas must NOT capture the LoopCtx (`this`): it lives on
      // the Loop() stack, and a slow job can outlive the loop (Shutdown
      // joins the loop thread first, then waits the jobs out). They capture
      // SessionManager* instead (alive until every job finished) and just
      // return the reply frame; Offload's wrapper owns delivery.
      case MsgType::kCreateSession: {
        static const RequestOp kOp("create");
        CreateSessionMsg msg;
        if (!Decode(frame.body, &msg)) return ProtocolError(conn, WireStatus::kMalformed);
        if (RefuseWhileDraining(conn)) return;
        // Admission gate: shed the conversation before it costs a pool slot.
        // Unlike draining or a protocol error, a busy refusal does NOT close
        // the connection — the client is expected to back off and retry on
        // the same stream. The retry hint rides only to clients that
        // advertised busy_capable; legacy decoders demand exact exhaustion.
        if (options.load_controller != nullptr) {
          uint32_t retry_ms = 0;
          if (!options.load_controller->AdmitCreate(&retry_ms)) {
            ErrorMsg busy{WireStatus::kBusy, WireStatusName(WireStatus::kBusy)};
            if (msg.busy_capable) {
              busy.retry_after_ms = retry_ms;
              busy.has_retry_after = true;
            }
            SendFrame(conn, Encode(busy));
            return;
          }
        }
        // The wire trace id (or a fresh one, when journey tracing is on) is
        // stored with the session so every later step of the conversation
        // lands in the same trace.
        obs::TraceId trace{msg.trace_hi, msg.trace_lo};
        if (!trace.valid() && obs::JourneyEnabled() && obs::Enabled()) {
          trace = obs::MakeTraceId();
        }
        // The token rides the wire exactly once — in this reply, and only
        // because the client opted in with want_token.
        auto create_reply = [want_token = msg.want_token](SessionView view) {
          SessionStateMsg reply = ToWire(view);
          reply.has_token = want_token && reply.token != 0;
          return Encode(reply);
        };
        if (ServeInline(conn, kOp, start_ns, trace,
                        [&]() -> std::optional<std::string> {
                          std::optional<SessionView> view =
                              manager.TryCreateInline(msg.initial,
                                                      msg.enable_trace, trace,
                                                      msg.want_token);
                          if (!view.has_value()) return std::nullopt;
                          return create_reply(std::move(*view));
                        })) {
          return;
        }
        Offload(conn, kOp, start_ns, trace,
                [mgr = &manager, msg = std::move(msg), trace,
                 create_reply]() mutable {
                  return create_reply(mgr->Create(msg.initial, msg.enable_trace,
                                                  trace, msg.want_token));
                });
        return;
      }
      case MsgType::kAnswer: {
        static const RequestOp kOp("answer");
        AnswerMsg msg;
        if (!Decode(frame.body, &msg)) return ProtocolError(conn, WireStatus::kMalformed);
        if (RefuseWhileDraining(conn)) return;
        DiscoverySession::PreparedAnswer prepared;
        if (ServeStepInline(conn, kOp, start_ns, [&](SessionView* view) {
              return manager.TryStepInline(msg.session_id, msg.answer, view,
                                           msg.token, &prepared);
            })) {
          return;
        }
        Offload(conn, kOp, start_ns, obs::TraceId{},
                [mgr = &manager, msg, prepared = std::move(prepared)]() mutable {
                  SessionView view;
                  SessionStatus status = mgr->SubmitAnswer(
                      msg.session_id, msg.answer, &view, msg.token, &prepared);
                  return StepReply(status, view, "answer");
                });
        return;
      }
      case MsgType::kVerify: {
        static const RequestOp kOp("verify");
        VerifyMsg msg;
        if (!Decode(frame.body, &msg)) return ProtocolError(conn, WireStatus::kMalformed);
        if (RefuseWhileDraining(conn)) return;
        Offload(conn, kOp, start_ns, obs::TraceId{}, [mgr = &manager, msg] {
          SessionView view;
          SessionStatus status =
              mgr->Verify(msg.session_id, msg.confirmed, &view, msg.token);
          return StepReply(status, view, "verify");
        });
        return;
      }
      case MsgType::kGetSession: {
        static const RequestOp kOp("get");
        SessionRefMsg msg;
        if (!Decode(frame.body, &msg)) return ProtocolError(conn, WireStatus::kMalformed);
        if (RefuseWhileDraining(conn)) return;
        if (ServeStepInline(conn, kOp, start_ns, [&](SessionView* view) {
              return manager.TryGetInline(msg.session_id, view, msg.token);
            })) {
          return;
        }
        Offload(conn, kOp, start_ns, obs::TraceId{}, [mgr = &manager, msg] {
          SessionView view;
          SessionStatus status = mgr->Get(msg.session_id, &view, msg.token);
          return StepReply(status, view, "get");
        });
        return;
      }
      // Resume is Get by another name on the wire, but it reaches sessions a
      // Get cannot: the manager consults its durable store on a miss and
      // rehydrates spilled (or restart-survived) conversations. The token is
      // mandatory in the message; a mismatch answers kNotFound, exactly like
      // an unknown id, so probing ids leaks nothing.
      case MsgType::kResumeSession: {
        static const RequestOp kOp("resume");
        ResumeSessionMsg msg;
        if (!Decode(frame.body, &msg)) return ProtocolError(conn, WireStatus::kMalformed);
        if (RefuseWhileDraining(conn)) return;
        if (ServeStepInline(conn, kOp, start_ns, [&](SessionView* view) {
              return manager.TryGetInline(msg.session_id, view, msg.token);
            })) {
          return;
        }
        Offload(conn, kOp, start_ns, obs::TraceId{}, [mgr = &manager, msg] {
          SessionView view;
          SessionStatus status = mgr->Get(msg.session_id, &view, msg.token);
          return StepReply(status, view, "resume");
        });
        return;
      }
      // GetTrace can wait on the session mutex behind a Select, so it rides
      // the pool like the stepping requests.
      case MsgType::kGetTrace: {
        static const RequestOp kOp("trace");
        SessionRefMsg msg;
        if (!Decode(frame.body, &msg)) return ProtocolError(conn, WireStatus::kMalformed);
        if (RefuseWhileDraining(conn)) return;
        Offload(conn, kOp, start_ns, obs::TraceId{}, [mgr = &manager, msg] {
          TraceReplyMsg reply;
          reply.session_id = msg.session_id;
          SessionStatus status =
              mgr->GetTrace(msg.session_id, &reply.events, msg.token);
          if (status != SessionStatus::kOk) {
            WireStatus wire = ToWireStatus(status);
            return Encode(ErrorMsg{
                wire, std::string("trace: ") + WireStatusName(wire)});
          }
          return Encode(reply);
        });
        return;
      }
      default:
        return ProtocolError(conn, WireStatus::kBadType);
    }
  }

  bool RefuseWhileDraining(Conn& conn) {
    if (!im.draining) return false;
    SendError(conn, WireStatus::kShuttingDown, WireStatusName(WireStatus::kShuttingDown));
    // Queued pipelined requests will never be served either; leaving them
    // would keep FullyDrained() false and stall Shutdown until its deadline.
    conn.pending.clear();
    conn.closing = true;
    return true;
  }

  /// Serves a request on the loop thread when `try_reply()` — a
  /// non-blocking manager call — produces its reply frame, appending it
  /// straight to the connection's write buffer; returns false, having sent
  /// nothing, when it returns nullopt ("would block"), and the caller
  /// offloads instead. Under journey tracing the attempt runs under a
  /// JourneyScope like a pool job (`trace` as in Offload), so a served
  /// request leaves the same request + step + phase spans, without the
  /// queue-wait span; a declined attempt leaves none.
  template <typename TryReply>
  bool ServeInline(Conn& conn, const RequestOp& op, uint64_t start_ns,
                   obs::TraceId trace, TryReply try_reply) {
    const bool journey = obs::JourneyEnabled() && obs::Enabled();
    obs::JourneyContext jc;
    jc.trace = trace;
    if (journey) jc.request_span = obs::NextSpanId();
    std::string reply;
    {
      obs::JourneyScope scope(journey ? &jc : nullptr);
      try {
        std::optional<std::string> served = try_reply();
        if (!served.has_value()) return false;
        reply = std::move(*served);
      } catch (...) {
        // Same contract as a pool job that throws: an Internal error reply.
        reply = Encode(ErrorMsg{WireStatus::kInternal,
                                WireStatusName(WireStatus::kInternal)});
      }
    }
    if (journey) {
      obs::FinishRequestJourney(jc, op.name, start_ns, start_ns,
                                options.slow_step_ns, /*pooled=*/false);
    }
    SendFrame(conn, std::move(reply));
    RecordRequest(op.inline_ns, start_ns);
    return true;
  }

  /// ServeInline for the session-view requests (Answer, Get, Resume):
  /// `try_step(&view)` returns the manager's status, or nullopt.
  template <typename TryStep>
  bool ServeStepInline(Conn& conn, const RequestOp& op, uint64_t start_ns,
                       TryStep try_step) {
    return ServeInline(
        conn, op, start_ns, obs::TraceId{},
        [&]() -> std::optional<std::string> {
          SessionView view;
          const std::optional<SessionStatus> status = try_step(&view);
          if (!status.has_value()) return std::nullopt;
          return StepReply(*status, view, op.name);
        });
  }

  /// Marks the connection busy and runs `job` (returning the reply frame)
  /// on the manager's pool. The wrapper — not the job — owns delivery:
  /// exactly one PostCompletion happens even if the job throws, so a
  /// failed step can never leave the connection pinned inflight or
  /// Shutdown() waiting on the outstanding-jobs counter forever.
  ///
  /// When journey tracing is on, the wrapper is also the request boundary:
  /// it times dispatch → pool-dequeue as queue wait, runs the job under a
  /// JourneyScope (so the session layers underneath stamp the context and
  /// emit the step + phase spans), and closes out the request/queue-wait
  /// spans — plus the slow-step exemplar — afterwards. `op` names the wire
  /// request; `trace` is the wire-carried trace id (invalid for
  /// requests that don't carry one; the session's stored id, or a fresh
  /// one, fills in). Like the job itself, the journey bookkeeping must not
  /// touch the LoopCtx — everything rides in the lambda by value.
  template <typename Job>
  void Offload(Conn& conn, const RequestOp& op, uint64_t dispatch_ns,
               obs::TraceId trace, Job job) {
    conn.inflight = true;
    im.outstanding_jobs.fetch_add(1, std::memory_order_relaxed);
    DiscoveryServer::Impl* impl = &im;
    const bool journey = obs::JourneyEnabled() && obs::Enabled();
    const uint64_t slow_ns = options.slow_step_ns;
    manager.pool().Post([job = std::move(job), impl, conn_id = conn.id,
                         op = &op, trace, journey, dispatch_ns,
                         slow_ns]() mutable {
      std::string reply;
      obs::JourneyContext jc;
      jc.trace = trace;
      const uint64_t start_ns = journey ? obs::NowNanos() : 0;
      if (journey) jc.request_span = obs::NextSpanId();
      {
        obs::JourneyScope scope(journey ? &jc : nullptr);
        try {
          reply = job();
        } catch (...) {
          try {
            reply = Encode(ErrorMsg{WireStatus::kInternal,
                                    WireStatusName(WireStatus::kInternal)});
          } catch (...) {
            // Even the error reply failed to build; deliver emptiness —
            // PostCompletion still balances the counter and the client's
            // connection is torn down rather than wedged.
          }
        }
      }
      if (journey) {
        obs::FinishRequestJourney(jc, op->name, dispatch_ns, start_ns, slow_ns);
      }
      impl->PostCompletion({conn_id, std::move(reply), op, dispatch_ns});
    });
  }

  /// Answers queued requests in arrival order, one in flight at a time per
  /// connection — replies stay in request order even though the work runs on
  /// a pool.
  /// Decodes buffered bytes into the request queue, stopping at the
  /// backlog bound (leftovers decode on a later Pump as the backlog
  /// drains) and at stream poison (bytes after it are void).
  void DrainDecoder(Conn& conn) {
    while (!conn.closing && !Backlogged(conn)) {
      Frame frame;
      WireStatus error = WireStatus::kOk;
      FrameDecoder::Next next = conn.decoder.Pop(&frame, &error);
      if (next == FrameDecoder::Next::kFrame) {
        Bump(&ServerStats::frames_received);
        conn.last_active = Clock::now();
        conn.pending.push_back(std::move(frame));
        continue;
      }
      if (next == FrameDecoder::Next::kError) {
        // The queued frames were framed intact before the poison: they
        // keep their replies; the Error frame follows them.
        ProtocolError(conn, error, /*drop_queued=*/false);
      }
      break;
    }
  }

  void Pump(Conn& conn) {
    // `closing` does not stop the dispatch loop: a poisoned connection
    // still owes replies to the requests that were framed intact before
    // the poison (no NEW input is read or decoded past it).
    for (;;) {
      DrainDecoder(conn);
      if (conn.inflight || conn.pending.empty()) break;
      Frame frame = std::move(conn.pending.front());
      conn.pending.pop_front();
      Dispatch(conn, std::move(frame));
    }
    if (!conn.inflight && conn.pending.empty() &&
        !conn.deferred_error.empty()) {
      // Every pre-poison reply is in the buffer; the Error frame goes last.
      SendFrame(conn, std::move(conn.deferred_error));
      conn.deferred_error.clear();
    }
    if (!FlushWrites(conn)) return;  // connection died and was closed
    UpdateInterest(conn);
    MaybeClose(conn);
  }

  /// `ready_ns`: when the poller reported the event (0 = not timed).
  void OnReadable(Conn& conn, uint64_t ready_ns) {
    if (ready_ns != 0) LoopLagHistogram()->Record(obs::NowNanos() - ready_ns);
    char buf[16384];
    // Fairness + backpressure bound: one firehosing connection must not pin
    // the loop in recv() nor outgrow its backlog bound within a single
    // event — the level-triggered poller re-reports leftover readability
    // next iteration, after everyone else had a turn.
    constexpr size_t kMaxReadPerEvent = 256 * 1024;
    size_t read_this_event = 0;
    while (read_this_event < kMaxReadPerEvent && !Backlogged(conn)) {
      ssize_t got = RecvSome(conn.fd.get(), buf, sizeof(buf));
      if (got > 0) {
        read_this_event += static_cast<size_t>(got);
        if (!conn.closing) conn.decoder.Feed(buf, static_cast<size_t>(got));
        continue;
      }
      if (got == 0) break;  // drained the socket for now
      if (got == kRecvEof) {
        // Orderly EOF can be a HALF-close (send-then-shutdown(SHUT_WR) is a
        // standard client idiom): requests read in this very batch still
        // deserve their replies. Stop reading, serve what arrived, close
        // once fully drained (MaybeClose). A peer that closed both ways
        // fails the reply write instead, and FlushWrites closes then.
        conn.saw_eof = true;
        break;
      }
      CloseConn(conn);  // hard error: the stream is gone in both directions
      return;
    }
    if (read_this_event > 0 && obs::Enabled()) {
      BytesReadCounter()->Add(read_this_event);
    }
    Pump(conn);  // decode (DrainDecoder), dispatch, flush
  }

  // -------------------------------------------------------------------
  // Metrics HTTP (Prometheus text exposition). Deliberately primitive: any
  // request — we don't even parse the request line — is answered with one
  // snapshot and the connection closes. Scrapers open a fresh connection
  // per scrape anyway.
  // -------------------------------------------------------------------

  void AcceptMetrics() {
    for (int attempts = 0; attempts < 64; ++attempts) {
      int raw = ::accept(im.metrics_listener.get(), nullptr, nullptr);
      if (raw < 0) return;  // EAGAIN and transient errors alike: try later
      UniqueFd fd(raw);
      SetNonBlocking(fd.get());
      const int key = fd.get();
      MetricsConn mc;
      mc.fd = std::move(fd);
      im.poller->Add(key, /*want_read=*/true, /*want_write=*/false);
      im.metrics_conns.emplace(key, std::move(mc));
    }
  }

  void CloseMetricsConn(int fd) {
    im.poller->Remove(fd);
    im.metrics_conns.erase(fd);
  }

  void HandleMetricsEvent(int fd, const PollerEvent& ev) {
    auto it = im.metrics_conns.find(fd);
    if (it == im.metrics_conns.end()) return;
    MetricsConn& mc = it->second;
    if (ev.readable && !mc.responding) {
      char buf[4096];
      bool eof = false;
      for (;;) {
        ssize_t got = RecvSome(fd, buf, sizeof(buf));
        if (got > 0) {
          mc.in.append(buf, static_cast<size_t>(got));
          if (mc.in.size() > 16384) break;  // headers big enough; respond
          continue;
        }
        if (got == 0) break;  // drained for now
        eof = true;           // EOF or hard error: respond if possible
        break;
      }
      const bool have_request =
          mc.in.find("\r\n\r\n") != std::string::npos ||
          mc.in.find("\n\n") != std::string::npos || mc.in.size() > 16384;
      if (have_request) {
        // Minimal request-line check so scrapers get correct semantics: a
        // GET (any path) serves the exposition; anything else is answered
        // with a proper status instead of a bogus 200. Every response
        // carries Content-Length so clients need not rely on
        // connection-close framing.
        const size_t eol = mc.in.find_first_of("\r\n");
        const std::string line =
            mc.in.substr(0, eol == std::string::npos ? mc.in.size() : eol);
        const size_t sp1 = line.find(' ');
        const size_t sp2 =
            sp1 == std::string::npos ? std::string::npos
                                     : line.find(' ', sp1 + 1);
        if (sp1 == std::string::npos || sp2 == std::string::npos ||
            sp1 == 0) {
          static const char kBody[] = "bad request\n";
          mc.out = "HTTP/1.0 400 Bad Request\r\n"
                   "Content-Type: text/plain; charset=utf-8\r\n"
                   "Content-Length: " + std::to_string(sizeof(kBody) - 1) +
                   "\r\nConnection: close\r\n\r\n" + kBody;
        } else if (line.substr(0, sp1) != "GET") {
          static const char kBody[] = "method not allowed\n";
          mc.out = "HTTP/1.0 405 Method Not Allowed\r\n"
                   "Allow: GET\r\n"
                   "Content-Type: text/plain; charset=utf-8\r\n"
                   "Content-Length: " + std::to_string(sizeof(kBody) - 1) +
                   "\r\nConnection: close\r\n\r\n" + kBody;
        } else {
          const std::string body =
              obs::MetricsRegistry::Default().Snapshot().ToPrometheusText();
          mc.out = "HTTP/1.0 200 OK\r\n"
                   "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                   "Content-Length: " + std::to_string(body.size()) + "\r\n"
                   "Connection: close\r\n\r\n" + body;
        }
        mc.responding = true;
        im.poller->Update(fd, /*want_read=*/false, /*want_write=*/true);
      } else if (eof) {
        CloseMetricsConn(fd);
        return;
      }
    }
    if (mc.responding && (ev.writable || ev.readable)) {
      while (mc.outpos < mc.out.size()) {
        ssize_t written = SendSome(fd, mc.out.data() + mc.outpos,
                                   mc.out.size() - mc.outpos);
        if (written > 0) {
          mc.outpos += static_cast<size_t>(written);
          continue;
        }
        if (written == 0) return;  // EAGAIN: poll for writability
        break;                     // dead socket: close below
      }
      CloseMetricsConn(fd);
      return;
    }
    if (ev.hangup && !mc.responding) CloseMetricsConn(fd);
  }

  void SweepIdle() {
    if (options.idle_timeout.count() <= 0) return;
    const Clock::time_point now = Clock::now();
    if (now < next_sweep) return;
    // A quarter of the timeout bounds the detection latency at ~1.25x the
    // configured idle time while keeping the scan rare on busy loops.
    next_sweep = now + options.idle_timeout / 4;
    const Clock::time_point cutoff = now - options.idle_timeout;
    std::vector<int> victims;
    for (const auto& [fd, conn] : im.by_fd) {
      // In-flight work pins the connection: its reply is still owed.
      if (!conn->inflight && conn->last_active < cutoff) victims.push_back(fd);
    }
    for (int fd : victims) {
      if (auto conn = Find(fd)) {
        Bump(&ServerStats::idle_closed);
        CloseConn(*conn);
      }
    }
  }

  void HandleCompletions() {
    char buf[256];
    while (::read(im.wake_read.get(), buf, sizeof(buf)) > 0) {
    }
    std::vector<DiscoveryServer::Impl::Completion> done;
    {
      std::lock_guard<std::mutex> lock(im.completions_mu);
      done.swap(im.completions);
    }
    for (DiscoveryServer::Impl::Completion& c : done) {
      auto it = im.by_id.find(c.conn_id);
      if (it == im.by_id.end()) continue;  // connection died mid-request
      std::shared_ptr<Conn> conn = it->second;
      conn->inflight = false;
      conn->last_active = Clock::now();
      if (c.frame.empty()) {
        // The job could not produce even an error reply (allocation
        // failure); the reply order is unrecoverable for this client.
        conn->pending.clear();
        conn->closing = true;
      } else {
        SendFrame(*conn, std::move(c.frame));
        RecordRequest(c.op->pool_ns, c.dispatch_ns);
      }
      Pump(*conn);
    }
  }

  void BeginDrain() {
    im.draining = true;
    im.drain_deadline = Clock::now() + options.drain_timeout;
    obs::FlightRecorder::Global().Record(
        obs::FlightEventKind::kServerDrain,
        static_cast<int64_t>(im.by_fd.size()));
    if (im.listener.valid()) {
      im.poller->Remove(im.listener.get());
      im.listener.Reset();
    }
    if (im.metrics_listener.valid()) {
      im.poller->Remove(im.metrics_listener.get());
      im.metrics_listener.Reset();
    }
    // In-flight scrapes are cut: the metrics surface has no drain contract.
    for (const auto& [fd, mc] : im.metrics_conns) im.poller->Remove(fd);
    im.metrics_conns.clear();
    // Connections with nothing owed close now; the rest close as their
    // in-flight replies flush (MaybeClose covers them).
    std::vector<int> idle;
    for (const auto& [fd, conn] : im.by_fd) {
      if (conn->FullyDrained()) idle.push_back(fd);
    }
    for (int fd : idle) {
      if (auto conn = Find(fd)) CloseConn(*conn);
    }
  }

  int WaitTimeoutMs() const {
    if (im.draining) return 10;
    if (options.idle_timeout.count() > 0) {
      auto quarter = options.idle_timeout.count() / 4;
      return static_cast<int>(std::clamp<long long>(quarter, 10, 250));
    }
    return 250;
  }
};

}  // namespace

void DiscoveryServer::Loop() {
  LoopCtx ctx{*impl_, manager_, options_, stats_mu_, stats_};
  Impl& im = *impl_;
  std::vector<PollerEvent> events;
  int listener_fd = im.listener.get();
  int metrics_fd =
      im.metrics_listener.valid() ? im.metrics_listener.get() : -1;
  int wake_fd = im.wake_read.get();

  for (;;) {
    if (stop_requested_.load() && !im.draining) ctx.BeginDrain();
    if (im.draining &&
        (im.by_fd.empty() || Clock::now() >= im.drain_deadline)) {
      break;
    }

    im.poller->Wait(ctx.WaitTimeoutMs(), &events);
    const uint64_t ready_ns = obs::Enabled() ? obs::NowNanos() : 0;

    // Connection work first, accepts last: a close earlier in the batch can
    // recycle an fd number, and accepting into it mid-batch would let stale
    // events hit the fresh connection.
    bool accept_ready = false;
    for (const PollerEvent& ev : events) {
      if (ev.fd == listener_fd) {
        accept_ready = true;
        continue;
      }
      if (ev.fd == wake_fd) {
        ctx.HandleCompletions();
        continue;
      }
      if (ev.fd == metrics_fd && im.metrics_listener.valid()) {
        ctx.AcceptMetrics();
        continue;
      }
      if (im.metrics_conns.count(ev.fd) != 0) {
        ctx.HandleMetricsEvent(ev.fd, ev);
        continue;
      }
      std::shared_ptr<Conn> conn = ctx.Find(ev.fd);
      if (conn == nullptr) continue;  // closed earlier in this batch
      if (ev.readable || ev.hangup) {
        ctx.OnReadable(*conn, ready_ns);  // EOF path closes the connection
        conn = ctx.Find(ev.fd);
        if (conn == nullptr) continue;
      }
      if (ev.writable) ctx.Pump(*conn);  // flush, resume reads, dispatch
    }
    if (accept_ready && !im.draining) ctx.Accept();
    if (ctx.listener_paused && im.listener.valid() &&
        Clock::now() >= ctx.resume_accepts) {
      ctx.listener_paused = false;
      im.poller->Update(im.listener.get(), /*want_read=*/true,
                        /*want_write=*/false);
    }

    ctx.SweepIdle();
  }

  // Hard stop: whatever is left (drain deadline expired) is cut. Pool jobs
  // that still complete find no connection and drop their replies.
  std::vector<int> rest;
  rest.reserve(im.by_fd.size());
  for (const auto& [fd, conn] : im.by_fd) rest.push_back(fd);
  for (int fd : rest) {
    if (auto conn = ctx.Find(fd)) ctx.CloseConn(*conn);
  }
  for (const auto& [fd, mc] : im.metrics_conns) im.poller->Remove(fd);
  im.metrics_conns.clear();
  if (im.listener.valid()) {
    im.poller->Remove(im.listener.get());
    im.listener.Reset();
  }
  if (im.metrics_listener.valid()) {
    im.poller->Remove(im.metrics_listener.get());
    im.metrics_listener.Reset();
  }
  obs::FlightRecorder::Global().Record(obs::FlightEventKind::kServerStop,
                                       port_);
}

}  // namespace setdisc::net
