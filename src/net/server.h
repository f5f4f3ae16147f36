#pragma once

/// \file server.h
/// DiscoveryServer: the socket frontend that turns the in-process
/// SessionManager into a network service (the ROADMAP's "binary protocol +
/// server frontend" item).
///
/// Architecture — one event-loop thread, CPU work on the manager's pool:
///
///   * a single thread runs epoll (poll(2) fallback via ServerOptions) over
///     the listener, a wake pipe, and every client connection, all
///     non-blocking;
///   * bytes read feed each connection's incremental FrameDecoder; decoded
///     requests queue per connection and are answered strictly in order;
///   * a session request that can be answered without computing a
///     selection or waiting on a lock is answered on the loop thread: an
///     Answer or Create whose next question the shared selection cache
///     holds (or whose next state needs none), and a GetSession /
///     ResumeSession of a resident session whose mutex is free. The loop
///     asks the manager's non-blocking calls (TryStepInline,
///     TryCreateInline, TryGetInline), which decide from observed facts
///     only — a cache hit, a try-lock, residency, no session store — never
///     from a cost guess. This saves the pool and wake-pipe hops, the bulk
///     of a cheap step's round trip;
///   * everything else (a cache miss, a busy or spilled session, Verify,
///     GetTrace, any request under a session store) runs or waits on the
///     selector, the CPU cost of a step, so it is offloaded to the
///     SessionManager's ThreadPool; the event loop never blocks on it. An
///     Answer the loop declined hands its computed partition to the pool
///     job. Completions post the encoded reply to a queue and tickle the
///     wake pipe, and the loop thread appends it to the connection's write
///     buffer. CloseSession and Stats (registry-mutex-only) are answered
///     on the loop as well;
///   * setdisc_request_ns{op, path="inline"|"pool"} times each request from
///     dispatch to its reply entering the write buffer, and
///     setdisc_loop_lag_ns how long a readable connection waited for the
///     loop: the cost in-place serving puts on the other connections;
///   * writes go through per-connection buffers: the loop writes what the
///     socket accepts and polls for writability only while a backlog
///     remains. A connection that pipelines requests faster than it reads
///     replies stops being read once its queued work passes a bound
///     (backpressure propagates over TCP), and resumes as the backlog
///     drains;
///   * idle connections (no frame activity for ServerOptions.idle_timeout)
///     are closed by a periodic sweep;
///   * Shutdown() drains gracefully: the listener closes immediately, new
///     requests are refused with kShuttingDown, in-flight pool work
///     completes, pending replies flush, then connections close — bounded
///     by ServerOptions.drain_timeout.
///
/// Protocol errors (bad version, oversized length, undecodable payload) are
/// answered with an Error frame and the connection is closed — a poisoned
/// TCP stream cannot be resynchronized.
///
/// The server holds non-owning references to the SessionManager (and through
/// it the collection/index); both must outlive it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/protocol.h"
#include "obs/registry.h"
#include "service/session_manager.h"
#include "util/status.h"

namespace setdisc {
class LoadController;
}

namespace setdisc::net {

struct ServerOptions {
  /// Numeric address to bind (the protocol layer does no name resolution).
  std::string bind_address = "127.0.0.1";

  /// TCP port; 0 asks the kernel for an ephemeral one (read it back with
  /// port() after Start()).
  uint16_t port = 0;

  /// Frames with a longer body are refused (kOversized) and the connection
  /// is closed before the body is buffered.
  size_t max_frame_body = kDefaultMaxBody;

  /// Connections with no completed frame for this long are closed by the
  /// sweep (zero = never).
  std::chrono::milliseconds idle_timeout{std::chrono::minutes(5)};

  /// Upper bound on Shutdown()'s graceful drain before remaining
  /// connections are cut.
  std::chrono::milliseconds drain_timeout{std::chrono::seconds(5)};

  /// Accepted connections beyond this are closed immediately (zero =
  /// unlimited).
  size_t max_connections = 4096;

  int listen_backlog = 128;

  /// Use epoll(7) when available; false forces the portable poll(2) backend
  /// (also what non-Linux builds get regardless of this flag).
  bool use_epoll = true;

  /// Serve Prometheus text exposition over plain HTTP on a second listener
  /// (same bind_address). The responder rides the existing event loop — no
  /// extra thread — answers any GET with the full registry snapshot, and
  /// closes the connection (Connection: close, HTTP/1.0-style).
  bool enable_metrics_http = false;

  /// Port of the metrics listener; 0 asks the kernel (read back with
  /// metrics_port()). Ignored unless enable_metrics_http.
  uint16_t metrics_port = 0;

  /// Admission controller consulted on every CreateSession (non-owning; must
  /// outlive the server). When it refuses, the client gets a kBusy Error
  /// frame — with the retry-after hint iff it advertised busy_capable — and
  /// the connection STAYS OPEN: busy is a back-off signal, not a poisoned
  /// stream. nullptr = admit everything (the pre-controller behaviour).
  LoadController* load_controller = nullptr;

  /// Slow-step exemplar threshold in nanoseconds: a step whose service time
  /// (pool queue wait, if offloaded, + execution) reaches it is captured into
  /// the process ExemplarStore (and the --event-log JSONL). 0 disables
  /// exemplars; journey spans themselves are gated on
  /// obs::SetJourneyEnabled, not on this.
  uint64_t slow_step_ns = 0;
};

struct ServerStats {
  uint64_t connections_total = 0;
  uint64_t connections_open = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t protocol_errors = 0;
  uint64_t idle_closed = 0;
};

class DiscoveryServer {
 public:
  explicit DiscoveryServer(SessionManager& manager, ServerOptions options = {});

  /// Shuts down (gracefully, bounded by drain_timeout) if still running.
  ~DiscoveryServer();

  DiscoveryServer(const DiscoveryServer&) = delete;
  DiscoveryServer& operator=(const DiscoveryServer&) = delete;

  /// Binds, listens, and starts the event-loop thread. Fails (without
  /// leaking a thread) when the address is unusable.
  Status Start();

  /// Graceful drain, then joins the event loop. Idempotent.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (after Start(); resolves port 0 to the kernel's pick).
  uint16_t port() const { return port_; }

  /// The bound metrics-HTTP port; 0 unless enable_metrics_http and started.
  uint16_t metrics_port() const { return metrics_port_; }

  ServerStats stats() const;

  const ServerOptions& options() const { return options_; }

  /// Epoll/poll machinery and the connection table; defined in server.cc
  /// (public only so the loop helpers there can name it).
  struct Impl;

 private:
  void Loop();

  SessionManager& manager_;
  ServerOptions options_;
  std::unique_ptr<Impl> impl_;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  uint16_t port_ = 0;
  uint16_t metrics_port_ = 0;

  /// Adopts the ServerStats counters into the default registry while the
  /// server runs (registered in Start, released in Shutdown).
  obs::MetricsRegistry::ProbeHandle stats_probe_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace setdisc::net
