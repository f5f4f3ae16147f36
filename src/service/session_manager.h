#pragma once

/// \file session_manager.h
/// Thread-safe registry of concurrent DiscoverySessions.
///
/// One SessionManager serves many simultaneous interactive conversations
/// over a single shared, immutable SetCollection + InvertedIndex:
///
///   * sessions get monotonically increasing ids (never reused);
///   * every session owns a private selector instance (selectors are
///     documented non-thread-safe — they hold scratch buffers and caches);
///   * a per-session mutex serializes steps of one conversation while steps
///     of different conversations run in parallel;
///   * idle sessions are reaped after a TTL — by a background reaper tick,
///     off the Create critical path — and a capacity bound evicts the least
///     recently used session when the registry is full;
///   * an internal ThreadPool runs independent sessions' Select() calls
///     concurrently (SubmitAnswerAsync), since selection is the CPU cost of
///     a step.
///
/// The network frontend lives one layer up: net/server.h loops an epoll
/// event loop around this engine and speaks the binary protocol of
/// net/protocol.h.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "collection/inverted_index.h"
#include "obs/journey.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "collection/set_collection.h"
#include "core/discovery.h"
#include "core/selector.h"
#include "service/discovery_session.h"
#include "service/selection_cache.h"
#include "service/session_store.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace setdisc {

/// Monotonic session identifier; 0 is never issued.
using SessionId = uint64_t;
inline constexpr SessionId kNoSession = 0;

/// Snapshot of a session returned by every step. Copies (not references) so
/// it stays valid after the session is reaped or evicted.
struct SessionView {
  SessionId id = kNoSession;
  SessionState state = SessionState::kFinished;
  EntityId question = kNoEntity;  ///< pending entity in kAwaitingAnswer
  SetId verify_set = kNoSet;      ///< pending set in kAwaitingVerify
  int questions_asked = 0;
  /// Session auth token (0 = none issued): returned once by Create when the
  /// caller asked for one; later ops on the id must present it.
  uint64_t token = 0;
  /// Populated once state == kFinished.
  DiscoveryResult result;
};

/// What happened to a manager call that named a session id.
enum class SessionStatus {
  kOk,
  kNotFound,      ///< unknown, expired, or evicted id
  kWrongState,    ///< e.g. SubmitAnswer while kAwaitingVerify
};

/// Configuration of a SessionManager.
struct SessionManagerOptions {
  /// Discovery options applied to every session.
  DiscoveryOptions discovery;

  /// Factory producing one private selector per session. Must be set.
  std::function<std::unique_ptr<EntitySelector>()> selector_factory;

  /// Optional cross-session Select() memo. When set, every session's private
  /// selector is wrapped in a CachingSelector pointing at this cache, so all
  /// sessions of this manager (and of any other manager given the same
  /// pointer) share one memo without sharing selectors. The cache must
  /// outlive the manager, and the factory must produce deterministic
  /// selectors (see selection_cache.h).
  SelectionCache* selection_cache = nullptr;

  /// Sessions idle longer than this are reaped (zero = never).
  std::chrono::milliseconds session_ttl{std::chrono::minutes(10)};

  /// Run TTL reaping on a background tick instead of the Create critical
  /// path. Reaping walks the expired LRU prefix under the registry mutex;
  /// at 100k+ sessions that walk is contention Create should not pay, so a
  /// dedicated reaper thread does it on a timer. When disabled (for
  /// deterministic tests, or to avoid the extra thread), Create reaps
  /// inline as before, and ReapExpired() remains callable by hand.
  bool background_reap = true;

  /// Tick period of the background reaper; zero derives it from the TTL
  /// (ttl / 4, clamped to [10ms, 1s]). Ignored when background_reap is
  /// false or the TTL is zero (no thread is started).
  std::chrono::milliseconds reap_interval{0};

  /// Shrink-on-idle: sessions idle longer than this have their selector's
  /// retained memory released (EntitySelector::ReleaseMemory — the
  /// differential-counting state, the dense counting scratch, and the k-LP
  /// memo), so 100k parked-but-live sessions don't pin O(universe) scratch
  /// each. The release runs on the background reaper tick (or inside
  /// ReapExpired() for manual reaping) and is purely a memory/latency
  /// trade: the next step pays one full recount, transcripts are
  /// unaffected. Zero disables. Should be < session_ttl to matter (expired
  /// sessions are destroyed outright).
  std::chrono::milliseconds release_scratch_after{0};

  /// Upper bound on live sessions; creating one past the bound evicts the
  /// least recently touched session (zero = unlimited).
  size_t max_sessions = 0;

  /// Worker threads for SubmitAnswerAsync (zero = hardware concurrency).
  size_t num_threads = 0;

  /// Registry to publish manager-level gauges into (sessions active, total
  /// sessions created). The registry must outlive the manager. nullptr
  /// disables; per-step histograms and counters are unaffected — they go to
  /// MetricsRegistry::Default() whenever obs::Enabled(), regardless of this.
  obs::MetricsRegistry* metrics = nullptr;

  /// Capacity of the per-session trace ring for sessions created with
  /// enable_trace (Create's second argument). Oldest events are overwritten
  /// past this. Tracing is per-session opt-in; untraced sessions pay one
  /// null-pointer test per step.
  size_t trace_capacity = 256;

  /// Time source for TTL reaping, shrink-on-idle, and LRU stamping. nullptr
  /// = the real steady clock; tests inject a FakeClock (util/clock.h) so
  /// expiry assertions need no sleeps. Must outlive the manager.
  const Clock* clock = nullptr;

  /// Initial load-shedding effort level applied to new sessions (see
  /// EntitySelector::SetEffort; 0 = full effort). Live changes come through
  /// SetEffortLevel() — normally driven by a LoadController — and reach
  /// every session, including pre-existing ones, at its next step.
  int initial_effort_level = 0;

  /// Crash-safe session persistence (service/session_store.h). When set —
  /// Open()ed by the caller, outliving the manager — every step appends the
  /// session's replayable record to the store's WAL, LRU eviction and TTL
  /// reaping *spill* (drop memory, keep the record), and a miss on any
  /// session op consults the store and rehydrates by replaying the recorded
  /// events through a fresh engine (byte-parity with a never-evicted
  /// session; the selectors must be deterministic, same rule as the
  /// selection cache). Records journal the question each answer answered,
  /// so the replay re-runs partitions only, not the selector. The manager
  /// also seeds its id counter past store->max_id() so a restart never
  /// reissues a persisted id. nullptr = the old RAM-only behavior.
  SessionStore* session_store = nullptr;
};

/// The serving engine: create / step / verify / reap, all thread-safe.
class SessionManager {
 public:
  /// The collection and index must outlive the manager and are shared
  /// read-only across all sessions. `options.selector_factory` must be set.
  SessionManager(const SetCollection& collection, const InvertedIndex& index,
                 SessionManagerOptions options);

  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a session seeded with the initial example entities and runs the
  /// first selection. Reaps expired sessions and, if at capacity, evicts the
  /// least recently touched one.
  ///
  /// A session can finish at birth (no set matches `initial`, or a single
  /// one remains with verification off): the returned view is already
  /// kFinished and carries the full result, and the session is NOT
  /// registered — its id is issued but Get/Close on it return kNotFound.
  /// With enable_trace, the session records a bounded ring of per-step
  /// TraceEvents (phase latencies, serve path, candidate narrowing),
  /// readable via GetTrace. The creation step itself is not traced — the
  /// ring is attached right after the first Select() — so event 0 is the
  /// first answer.
  ///
  /// `journey_trace` is the request-journey trace id stored with the
  /// session (obs/journey.h): later steps running under a JourneyContext
  /// that arrived without an id (Answer/Verify don't carry one on the wire)
  /// inherit it, so a whole conversation's spans share one trace. Invalid
  /// (the default) stores nothing.
  /// With `issue_token`, the session is protected by a random nonzero
  /// 64-bit token (returned in the view); every later op on the id must
  /// present it or gets kNotFound — same answer as a nonexistent id, so
  /// token failures leak nothing about which ids are live.
  SessionView Create(std::span<const EntityId> initial,
                     bool enable_trace = false,
                     obs::TraceId journey_trace = {},
                     bool issue_token = false);

  /// Create for a caller that must never wait or compute a selection (the
  /// server's event loop): serves it in place iff no session store is
  /// configured and the shared cache holds the first question of the
  /// initial candidates (two or more of them); nullopt ("would block")
  /// otherwise, with nothing created. It tries only while the last Create
  /// that ran the ordinary way found its first question in the cache, so
  /// workloads whose conversations all start somewhere new (distinct seed
  /// examples) do not pay for the candidate filtering twice.
  std::optional<SessionView> TryCreateInline(std::span<const EntityId> initial,
                                             bool enable_trace,
                                             obs::TraceId journey_trace,
                                             bool issue_token);

  /// Current snapshot of a session (also refreshes its TTL).
  SessionStatus Get(SessionId id, SessionView* view, uint64_t token = 0);

  /// Answers the pending question of session `id` and advances it to the
  /// next question, a verification, or completion. `prepared` is what a
  /// declined TryStepInline computed; it is reused iff still current.
  SessionStatus SubmitAnswer(
      SessionId id, Oracle::Answer answer, SessionView* view,
      uint64_t token = 0,
      DiscoverySession::PreparedAnswer* prepared = nullptr);

  /// SubmitAnswer for a caller that must never wait or compute a selection
  /// (the server's event loop). Serves the answer in place iff all of:
  ///   * a selection cache is configured, and no session store: a journal
  ///     Put can wait behind a checkpoint rewrite that holds the store's
  ///     lock;
  ///   * the session is resident — a spilled one is never rehydrated here;
  ///   * its mutex try-locks;
  ///   * the step makes no selection: the state after the answer needs
  ///     none, or the shared cache holds the decision it needs
  ///     (DiscoverySession::TrySubmitAnswerWithoutSelect).
  /// The attempt (and its partition) is made only while the cache serves
  /// the conversation: the session's last question came from it.
  /// A missing id or a wrong token or state is answered too (kNotFound,
  /// kWrongState): nothing could change those but another request.
  /// Otherwise returns nullopt ("would block") with the session unchanged;
  /// `*prepared` may then hold the partition already computed, for
  /// SubmitAnswer to reuse.
  std::optional<SessionStatus> TryStepInline(
      SessionId id, Oracle::Answer answer, SessionView* view, uint64_t token,
      DiscoverySession::PreparedAnswer* prepared);

  /// Get for the same callers: answers from a resident session whose mutex
  /// try-locks, kNotFound for an id with nowhere to rehydrate from, and
  /// nullopt ("would block") otherwise.
  std::optional<SessionStatus> TryGetInline(SessionId id, SessionView* view,
                                            uint64_t token);

  /// Resolves the pending verification of session `id`.
  SessionStatus Verify(SessionId id, bool confirmed, SessionView* view,
                       uint64_t token = 0);

  /// Copies the trace ring of session `id` into `*out`, oldest first.
  /// kWrongState if the session is live but was created without
  /// enable_trace.
  SessionStatus GetTrace(SessionId id, std::vector<obs::TraceEvent>* out,
                         uint64_t token = 0);

  /// SubmitAnswer on the manager's thread pool: the re-selection (the CPU
  /// cost of a step) runs concurrently with other sessions' steps.
  std::future<std::pair<SessionStatus, SessionView>> SubmitAnswerAsync(
      SessionId id, Oracle::Answer answer, uint64_t token = 0);

  /// Drives session `view` to completion with synchronous steps, answering
  /// from `oracle`. Returns the final view; its state is kFinished unless
  /// the session vanished mid-flight (expired/evicted/closed). Safe to call
  /// from pool jobs — it never blocks on a future.
  SessionView Drive(SessionView view, Oracle& oracle);

  /// Closes a session explicitly (and erases its store record, so a closed
  /// conversation cannot be resumed). Returns kNotFound if it wasn't live.
  SessionStatus Close(SessionId id, uint64_t token = 0);

  /// Drops every session idle longer than the TTL; returns how many. Also
  /// runs the shrink-on-idle pass when release_scratch_after is set.
  size_t ReapExpired();

  /// Load-aware eviction actuator: drops every session idle longer than
  /// `threshold` regardless of the configured TTL (the LoadController calls
  /// this with a much shorter leash while under pressure, so parked
  /// conversations return their memory and table slots to the active ones).
  /// Returns how many were reaped; no-op for a non-positive threshold.
  size_t ReapIdle(std::chrono::milliseconds threshold);

  /// Sets the process effort level for load-adaptive degradation. Every
  /// session re-reads it at step entry (DiscoverySession::SetEffortSource),
  /// so the change lands on the next step of every conversation. Normally
  /// written by a LoadController's effort sink; 0 restores full effort.
  void SetEffortLevel(int level) {
    effort_level_.store(level < 0 ? 0 : level, std::memory_order_relaxed);
  }
  int effort_level() const {
    return effort_level_.load(std::memory_order_relaxed);
  }

  /// Releases the retained selector memory of every session idle longer
  /// than `options.release_scratch_after` (no-op when that is zero);
  /// returns how many sessions were shrunk. Sessions mid-step are skipped
  /// (their entry mutex is only try_locked) and picked up next tick.
  /// Called by the reaper tick; public for deterministic tests.
  size_t ReleaseIdleScratch();

  /// Number of live sessions.
  size_t num_active() const;

  /// Total sessions ever created.
  uint64_t num_created() const;

  /// The pool running SubmitAnswerAsync work — exposed so callers (benches,
  /// servers) can co-schedule whole-conversation jobs on the same workers.
  ///
  /// Deadlock hazard: a job running ON this pool must not block on a
  /// SubmitAnswerAsync future — with every worker occupied by such jobs, the
  /// async step tasks queue behind them forever. Pool jobs should use the
  /// synchronous SubmitAnswer/Verify/Drive (as the CLI stress mode and
  /// benches do); reserve SubmitAnswerAsync for callers outside the pool.
  ThreadPool& pool() { return *pool_; }

  /// The shared Select() memo, if one was configured; nullptr otherwise.
  /// Exposed so the stats surface (net/server.h) can report hit rates.
  SelectionCache* selection_cache() const { return options_.selection_cache; }

 private:
  /// A live session: its state machine, its private selector, a mutex
  /// serializing the steps of this one conversation, and
  /// its node in the registry's LRU list (an iterator, so touch/evict/close
  /// are all O(1) splices).
  struct Entry {
    std::mutex mu;
    std::unique_ptr<EntitySelector> selector;
    std::unique_ptr<DiscoverySession> session;
    Clock::time_point last_touched;
    std::list<SessionId>::iterator lru_it;
    /// Guarded by registry_mu_: set once the shrink-on-idle pass released
    /// this session's selector memory, cleared on every touch, so an idle
    /// session is released once per idle period, not once per reaper tick.
    bool scratch_released = false;
    /// Request-journey trace id this conversation was created under
    /// (invalid if none). Written once in Create, read-only afterwards.
    obs::TraceId journey_trace;
    /// Session auth token (0 = unprotected). Written once before
    /// publication, read-only afterwards.
    uint64_t token = 0;
    /// True once the session reached kFinished (written under mu, read by
    /// the eviction/reap paths that only hold registry_mu_ — hence atomic).
    std::atomic<bool> finished{false};
    /// The replayable journal persisted to the session store: creation
    /// inputs plus every applied event. Guarded by mu; empty/unused when no
    /// store is configured.
    SessionRecord record;
  };

  std::shared_ptr<Entry> Find(SessionId id);
  /// Find, falling back to store rehydration on a miss (no-op without a
  /// store). All session ops go through this.
  std::shared_ptr<Entry> FindOrRehydrate(SessionId id);
  /// Rebuilds a session from its store record by replaying the journal
  /// through a fresh engine — the recorded questions stand in for Select()
  /// when the record has them (version 2); returns the registered entry, or
  /// nullptr when the record is missing, for another collection/selector,
  /// or fails to replay cleanly (including a recorded question that is out
  /// of range, excluded, or not the one pending at its event). Thread-safe;
  /// a racing rehydration of the same id resolves second-wins (the loser's
  /// rebuild is dropped).
  std::shared_ptr<Entry> Rehydrate(SessionId id);
  /// A private selector for one session: the factory's product, wrapped in
  /// a CachingSelector when a cache is configured, at effort `effort`.
  std::unique_ptr<EntitySelector> MakeSelector(int effort);
  /// Builds a not-yet-registered entry: `selector` (from MakeSelector),
  /// session over `initial`, optional tracing. The creation Select runs
  /// here, outside any lock — or, for a rehydration or a cached first
  /// question, the first of `recorded_questions` stands in for it (see
  /// DiscoverySession's replay constructor). Does NOT attach the live
  /// effort source — Create/Rehydrate do that once the entry's selector is
  /// at the right level.
  std::shared_ptr<Entry> NewEntry(
      std::span<const EntityId> initial,
      std::unique_ptr<EntitySelector> selector, bool enable_trace,
      std::vector<EntityId> recorded_questions = {});
  /// The rest of Create once the entry is built: attaches the effort
  /// source and trace id, then registers the session (evicting at
  /// capacity) unless it finished at birth, and returns its first view.
  SessionView Publish(std::shared_ptr<Entry> entry,
                      std::span<const EntityId> initial, int create_effort,
                      bool enable_trace, obs::TraceId journey_trace,
                      bool issue_token);
  /// Journals one applied event — for an answer, with the question it
  /// answered — plus the question now pending, and persists the record
  /// (store configured only). Requires the entry mutex.
  void JournalStepLocked(SessionId id, Entry& entry, uint8_t kind,
                         uint8_t value, uint8_t effort);
  size_t ReapExpiredLocked();  // requires registry_mu_
  /// Drops the LRU prefix last touched before `cutoff`; requires
  /// registry_mu_. Shared tail of TTL reaping and pressure eviction.
  size_t ReapOlderThanLocked(Clock::time_point cutoff);
  void ReaperLoop(std::chrono::milliseconds interval);
  static SessionView MakeView(SessionId id, const DiscoverySession& session,
                              uint64_t token = 0);

  const SetCollection& collection_;
  const InvertedIndex& index_;
  SessionManagerOptions options_;
  /// Injected time source (options_.clock, defaulted to the real clock).
  const Clock* clock_;
  /// Live degradation level; sessions point at this cell (it outlives them
  /// by construction) and re-read it at every step entry.
  std::atomic<int> effort_level_{0};
  /// Whether the last Create that ran the ordinary way found its first
  /// question in the cache: what TryCreateInline's attempts follow.
  std::atomic<bool> creates_from_cache_{false};
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex registry_mu_;
  std::unordered_map<SessionId, std::shared_ptr<Entry>> sessions_;
  /// Live ids, least recently touched first. Every touch splices the
  /// session's node to the back, so the list order IS last_touched order:
  /// capacity eviction pops the front in O(1) (no min-scan) and TTL reaping
  /// only walks the expired prefix.
  std::list<SessionId> lru_;
  SessionId next_id_ = 1;
  uint64_t num_created_ = 0;

  /// Shortcut for options_.session_store (may be null).
  SessionStore* store_ = nullptr;
  /// Collection identity persisted in every record: the *content*
  /// fingerprint (SetCollection::Fingerprint()) alone, so records spilled by
  /// a server that still ran the since-removed sharded engine resume here.
  uint64_t store_fp_ = 0;
  /// Token minting; guarded by registry_mu_, seeded from the OS entropy
  /// pool at construction.
  Rng token_rng_{0};
  /// Durability counters (null when obs was disabled at construction).
  obs::Counter* spilled_counter_ = nullptr;
  obs::Counter* resumed_counter_ = nullptr;
  obs::Counter* rehydrate_failed_counter_ = nullptr;

  // Background TTL reaper (only started when background_reap && ttl > 0).
  std::mutex reaper_mu_;
  std::condition_variable reaper_cv_;
  bool reaper_stop_ = false;
  std::thread reaper_;

  /// Registry probe publishing sessions_active / sessions_created; released
  /// explicitly at the top of the destructor, before anything it reads is
  /// torn down.
  obs::MetricsRegistry::ProbeHandle metrics_probe_;
};

}  // namespace setdisc
