#include "service/session_manager.h"

#include <algorithm>
#include <random>
#include <thread>
#include <utility>

#include "obs/event_log.h"
#include "util/status.h"

namespace setdisc {

namespace {

uint8_t EffortByte(int level) {
  if (level < 0) return 0;
  if (level > 255) return 255;
  return static_cast<uint8_t>(level);
}

}  // namespace

SessionManager::SessionManager(const SetCollection& collection,
                               const InvertedIndex& index,
                               SessionManagerOptions options)
    : collection_(collection),
      index_(index),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : Clock::Real()) {
  effort_level_.store(
      options_.initial_effort_level < 0 ? 0 : options_.initial_effort_level,
      std::memory_order_relaxed);
  SETDISC_CHECK_MSG(options_.selector_factory != nullptr,
                    "SessionManagerOptions.selector_factory must be set");
  store_ = options_.session_store;
  store_fp_ = collection_.Fingerprint();
  if (store_ != nullptr) {
    // Never reissue a persisted id: a new session under a recycled id would
    // be resumable as someone else's old conversation.
    next_id_ = std::max(next_id_, store_->max_id() + 1);
  }
  {
    // Tokens are secrets: seed from OS entropy, not a fixed constant.
    std::random_device rd;
    token_rng_ = Rng((uint64_t{rd()} << 32) ^ rd());
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    spilled_counter_ = reg.GetCounter("setdisc_sessions_spilled_total");
    resumed_counter_ = reg.GetCounter("setdisc_sessions_resumed_total");
    rehydrate_failed_counter_ =
        reg.GetCounter("setdisc_sessions_rehydrate_failed_total");
  }
  size_t threads = options_.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  pool_ = std::make_unique<ThreadPool>(threads);
  if (options_.background_reap && (options_.session_ttl.count() > 0 ||
                                   options_.release_scratch_after.count() > 0)) {
    std::chrono::milliseconds interval = options_.reap_interval;
    if (interval.count() <= 0) {
      // Derive the tick from whichever timer is driving it (shrink-on-idle
      // can run without a TTL).
      const std::chrono::milliseconds basis =
          options_.session_ttl.count() > 0 ? options_.session_ttl
                                           : options_.release_scratch_after;
      interval = std::clamp(basis / 4, std::chrono::milliseconds(10),
                            std::chrono::milliseconds(1000));
    }
    reaper_ = std::thread(&SessionManager::ReaperLoop, this, interval);
  }
  if (options_.metrics != nullptr) {
    metrics_probe_ = options_.metrics->AddProbe([this](obs::SampleSink& sink) {
      std::lock_guard<std::mutex> lock(registry_mu_);
      sink.Gauge("setdisc_sessions_active",
                 static_cast<int64_t>(sessions_.size()));
      sink.Counter("setdisc_sessions_created_total", num_created_);
      sink.Gauge("setdisc_manager_pool_queue_depth",
                 static_cast<int64_t>(pool_->queue_depth()));
    });
  }
}

SessionManager::~SessionManager() {
  // Deregister the probe first: a concurrent Snapshot() would otherwise call
  // into a half-destroyed manager. Release() blocks until any in-flight
  // invocation drains.
  metrics_probe_.Release();
  if (reaper_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(reaper_mu_);
      reaper_stop_ = true;
    }
    reaper_cv_.notify_all();
    reaper_.join();
  }
  // Join the pool before the registry is torn down: queued StepAsync tasks
  // hold session ids, and resolving them needs the registry alive.
  pool_.reset();
}

void SessionManager::ReaperLoop(std::chrono::milliseconds interval) {
  std::unique_lock<std::mutex> lock(reaper_mu_);
  while (!reaper_stop_) {
    reaper_cv_.wait_for(lock, interval);
    if (reaper_stop_) break;
    lock.unlock();
    ReapExpired();
    lock.lock();
  }
}

SessionView SessionManager::MakeView(SessionId id,
                                     const DiscoverySession& session,
                                     uint64_t token) {
  SessionView view;
  view.id = id;
  view.state = session.state();
  view.question = session.NextQuestion();
  view.verify_set = session.PendingVerify();
  view.questions_asked = session.result().questions;
  view.token = token;
  if (session.done()) view.result = session.result();
  return view;
}

std::unique_ptr<EntitySelector> SessionManager::MakeSelector(int effort) {
  std::unique_ptr<EntitySelector> selector = options_.selector_factory();
  SETDISC_CHECK_MSG(selector != nullptr, "selector_factory returned nullptr");
  if (options_.selection_cache != nullptr) {
    selector = std::make_unique<CachingSelector>(std::move(selector),
                                                 options_.selection_cache);
  }
  // Pre-apply the requested level so the creation step's first Select()
  // already runs at it (the effort source, attached later by the caller,
  // only covers subsequent steps).
  if (effort != 0) selector->SetEffort(effort);
  return selector;
}

std::shared_ptr<SessionManager::Entry> SessionManager::NewEntry(
    std::span<const EntityId> initial, std::unique_ptr<EntitySelector> selector,
    bool enable_trace, std::vector<EntityId> recorded_questions) {
  auto entry = std::make_shared<Entry>();
  entry->selector = std::move(selector);
  // The initial Select() (inside the session constructor) runs outside the
  // registry lock: it can be a real scan, and other sessions must keep
  // stepping meanwhile. (With the shared cache it is usually a hash hit
  // instead — the whole point.)
  entry->session = std::make_unique<DiscoverySession>(
      collection_, index_, initial, *entry->selector, options_.discovery,
      std::move(recorded_questions));
  if (enable_trace) {
    // Attached after the constructor's first Select(), so the creation step
    // itself is not in the ring — documented on Create().
    entry->session->EnableTracing(std::max<size_t>(1, options_.trace_capacity));
  }
  return entry;
}

SessionView SessionManager::Create(std::span<const EntityId> initial,
                                   bool enable_trace,
                                   obs::TraceId journey_trace,
                                   bool issue_token) {
  const int create_effort = effort_level_.load(std::memory_order_relaxed);
  std::shared_ptr<Entry> entry =
      NewEntry(initial, MakeSelector(create_effort), enable_trace);
  if (options_.selection_cache != nullptr) {
    creates_from_cache_.store(
        static_cast<const CachingSelector&>(*entry->selector)
            .last_from_cache(),
        std::memory_order_relaxed);
  }
  return Publish(std::move(entry), initial, create_effort, enable_trace,
                 journey_trace, issue_token);
}

std::optional<SessionView> SessionManager::TryCreateInline(
    std::span<const EntityId> initial, bool enable_trace,
    obs::TraceId journey_trace, bool issue_token) {
  if (store_ != nullptr || options_.selection_cache == nullptr ||
      !creates_from_cache_.load(std::memory_order_relaxed) ||
      options_.discovery.max_questions == 0) {
    return std::nullopt;
  }
  SubCollection root(&collection_, index_.SetsContainingAll(initial));
  if (root.size() < 2) return std::nullopt;
  const int effort = effort_level_.load(std::memory_order_relaxed);
  std::unique_ptr<EntitySelector> selector = MakeSelector(effort);
  EntityId first = kNoEntity;
  if (!static_cast<CachingSelector&>(*selector).TrySelectCached(
          root, /*excluded=*/nullptr, &first) ||
      first == kNoEntity) {
    return std::nullopt;
  }
  // The cached decision stands in for the creation Select() the way a
  // recorded question does for a rehydration.
  std::shared_ptr<Entry> entry =
      NewEntry(initial, std::move(selector), enable_trace, {first});
  if (!entry->session->EndReplay()) return std::nullopt;
  return Publish(std::move(entry), initial, effort, enable_trace,
                 journey_trace, issue_token);
}

SessionView SessionManager::Publish(std::shared_ptr<Entry> entry,
                                    std::span<const EntityId> initial,
                                    int create_effort, bool enable_trace,
                                    obs::TraceId journey_trace,
                                    bool issue_token) {
  // An enclosing request context (server pool job) may carry the id when
  // the Create parameter doesn't — either way the session remembers it so
  // the whole conversation shares one trace.
  if (!journey_trace.valid()) {
    if (const obs::JourneyContext* jc = obs::CurrentJourney()) {
      journey_trace = jc->trace;
    }
  }
  entry->journey_trace = journey_trace;
  // Steps re-read the live level at entry; the cell outlives every session.
  entry->session->SetEffortSource(&effort_level_);

  // Snapshot before publishing: ids are sequential and guessable, so the
  // moment the entry is in the registry another thread may lock entry->mu
  // and step the session; reading it after emplace would race.
  SessionView view = MakeView(kNoSession, *entry->session);
  if (entry->session->done()) {
    // Finished at birth (no matching candidates, or a single one with
    // verification off): the view already carries the final result, so
    // don't spend a registry slot — or evict a live conversation — on a
    // session that will never be stepped.
    std::lock_guard<std::mutex> lock(registry_mu_);
    view.id = next_id_++;
    ++num_created_;
    if (obs::JourneyContext* jc = obs::CurrentJourney()) {
      jc->session_id = view.id;
    }
    return view;
  }
  if (store_ != nullptr) {
    entry->record.collection_fingerprint = store_fp_;
    entry->record.selector.assign(entry->selector->name());
    entry->record.options = options_.discovery;
    entry->record.set_trace_enabled(enable_trace);
    entry->record.create_effort = EffortByte(create_effort);
    entry->record.initial.assign(initial.begin(), initial.end());
    entry->record.next_question = entry->session->NextQuestion();
    entry->record.journey_trace = journey_trace;
  }
  // Held across publication so the store sees the creation record before
  // any concurrent step's update (ids are guessable; a racing step could
  // otherwise journal first and be overwritten by a stale creation Put).
  // Safe ordering: entry->mu -> registry_mu_ is never taken in reverse.
  std::unique_lock<std::mutex> step_lock(entry->mu);
  {
    // With the background reaper on (the default), TTL reaping is NOT done
    // here: it runs on the reaper tick, keeping the Create critical path
    // to the O(1) insert + possible O(1) eviction below. An expired
    // session can linger until the next tick — if capacity fires first,
    // the LRU front (the longest-idle session, i.e. the expired one if any
    // exists) is exactly the victim. Without the reaper thread, Create
    // reaps inline as it always did — some path must collect expired
    // sessions, or an idle manager would grow without bound.
    std::lock_guard<std::mutex> lock(registry_mu_);
    if (!options_.background_reap) ReapExpiredLocked();
    if (options_.max_sessions > 0 &&
        sessions_.size() >= options_.max_sessions && !lru_.empty()) {
      // Evict the least recently touched session: the front of the LRU list,
      // in O(1) — no scan. With a store configured this is a *spill*: the
      // record stays on disk and the session is resumable.
      SessionId victim = lru_.front();
      auto vit = sessions_.find(victim);
      SETDISC_CHECK_MSG(vit != sessions_.end(), "LRU list out of sync");
      const bool victim_finished =
          vit->second->finished.load(std::memory_order_relaxed);
      lru_.pop_front();
      sessions_.erase(vit);
      obs::FlightRecorder::Global().Record(
          obs::FlightEventKind::kSessionEvicted,
          static_cast<int64_t>(victim),
          static_cast<int64_t>(sessions_.size()));
      if (store_ != nullptr) {
        if (victim_finished) {
          store_->Erase(victim);
        } else {
          if (spilled_counter_ != nullptr) spilled_counter_->Add();
          obs::FlightRecorder::Global().Record(
              obs::FlightEventKind::kSessionSpilled,
              static_cast<int64_t>(victim));
        }
      }
    }
    view.id = next_id_++;
    ++num_created_;
    if (issue_token) {
      do {
        entry->token = token_rng_();
      } while (entry->token == 0);
      view.token = entry->token;
    }
    if (store_ != nullptr) {
      entry->record.id = view.id;
      entry->record.token = entry->token;
    }
    if (obs::JourneyContext* jc = obs::CurrentJourney()) {
      jc->session_id = view.id;
    }
    // Stamp under the registry lock, next to the list append: timestamps
    // taken outside it could land in the list out of order, and the reap /
    // evict paths rely on list order == last_touched order.
    entry->last_touched = clock_->Now();
    entry->lru_it = lru_.insert(lru_.end(), view.id);
    sessions_.emplace(view.id, entry);
  }
  if (store_ != nullptr) store_->Put(entry->record);
  step_lock.unlock();
  return view;
}

std::shared_ptr<SessionManager::Entry> SessionManager::Find(SessionId id) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  it->second->last_touched = clock_->Now();
  it->second->scratch_released = false;
  // Move to the back of the LRU list; O(1), no allocation.
  lru_.splice(lru_.end(), lru_, it->second->lru_it);
  return it->second;
}

std::shared_ptr<SessionManager::Entry> SessionManager::FindOrRehydrate(
    SessionId id) {
  std::shared_ptr<Entry> entry = Find(id);
  if (entry != nullptr || store_ == nullptr || id == kNoSession) return entry;
  return Rehydrate(id);
}

std::shared_ptr<SessionManager::Entry> SessionManager::Rehydrate(
    SessionId id) {
  SessionRecord rec;
  if (!store_->Get(id, &rec)) return nullptr;
  auto fail = [this](const char* why, SessionId sid) {
    if (rehydrate_failed_counter_ != nullptr) rehydrate_failed_counter_->Add();
    obs::FlightRecorder::Global().Record(obs::FlightEventKind::kSessionError,
                                         static_cast<int64_t>(sid), 0, why);
    return std::shared_ptr<Entry>();
  };
  if (rec.collection_fingerprint != store_fp_) {
    return fail("rehydrate: collection mismatch", id);
  }
  // The record's discovery options must match ours: replay under different
  // §6 semantics would diverge from the original conversation.
  if (rec.options.max_questions != options_.discovery.max_questions ||
      rec.options.handle_dont_know != options_.discovery.handle_dont_know ||
      rec.options.verify_and_backtrack !=
          options_.discovery.verify_and_backtrack ||
      rec.options.max_backtracks != options_.discovery.max_backtracks) {
    return fail("rehydrate: options mismatch", id);
  }
  std::shared_ptr<Entry> entry =
      NewEntry(rec.initial, MakeSelector(rec.create_effort),
               rec.trace_enabled(), RecordedQuestions(rec));
  if (entry->selector->name() != rec.selector) {
    return fail("rehydrate: selector mismatch", id);
  }
  // Replay the journal. A version-2 record's questions were handed to the
  // session above, so the replay runs partitions only; a version-1 record
  // has none and replays through the selector, pinned to each event's
  // recorded effort (no effort source yet, so manual SetEffort sticks — see
  // DiscoverySession::SetEffortSource), where a deterministic selector
  // reproduces the exact candidate narrowing, exclusions, and transcript.
  int applied = rec.create_effort;
  for (const SessionEvent& ev : rec.events) {
    if (ev.effort != applied) {
      entry->selector->SetEffort(ev.effort);
      applied = ev.effort;
    }
    if (ev.kind == kEventAnswer) {
      // A recorded question must be the one pending here: that binds the
      // answer to the question the user saw.
      if (entry->session->state() != SessionState::kAwaitingAnswer ||
          ev.value > static_cast<uint8_t>(Oracle::Answer::kDontKnow) ||
          (ev.entity != kNoEntity &&
           ev.entity != entry->session->NextQuestion())) {
        return fail("rehydrate: journal does not replay", id);
      }
      entry->session->SubmitAnswer(static_cast<Oracle::Answer>(ev.value));
    } else {
      if (entry->session->state() != SessionState::kAwaitingVerify) {
        return fail("rehydrate: journal does not replay", id);
      }
      entry->session->Verify(ev.value != 0);
    }
  }
  if (!entry->session->EndReplay()) {
    return fail("rehydrate: journal does not replay", id);
  }
  // Rejoin the live effort regime: pin the current level, then attach the
  // source so future controller moves land like on any other session.
  const int live = effort_level_.load(std::memory_order_relaxed);
  if (live != applied) entry->selector->SetEffort(live);
  entry->session->SetEffortSource(&effort_level_);
  entry->token = rec.token;
  entry->journey_trace = rec.journey_trace;
  entry->finished.store(entry->session->done(), std::memory_order_relaxed);
  // Bring a version-1 record up to version 2 for its next Put: the replay's
  // transcript holds the question of every answer event, in order.
  const auto& transcript = entry->session->result().transcript;
  size_t asked = 0;
  for (SessionEvent& ev : rec.events) {
    if (ev.kind == kEventAnswer) ev.entity = transcript[asked++].first;
  }
  rec.next_question = entry->session->NextQuestion();
  const size_t replayed = rec.events.size();
  entry->record = std::move(rec);
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      // Lost a rehydration race: the winner's entry is live — use it and
      // drop ours (identical by determinism, so nothing is lost).
      it->second->last_touched = clock_->Now();
      lru_.splice(lru_.end(), lru_, it->second->lru_it);
      return it->second;
    }
    if (options_.max_sessions > 0 &&
        sessions_.size() >= options_.max_sessions && !lru_.empty()) {
      SessionId victim = lru_.front();
      auto vit = sessions_.find(victim);
      SETDISC_CHECK_MSG(vit != sessions_.end(), "LRU list out of sync");
      const bool victim_finished =
          vit->second->finished.load(std::memory_order_relaxed);
      lru_.pop_front();
      sessions_.erase(vit);
      obs::FlightRecorder::Global().Record(
          obs::FlightEventKind::kSessionEvicted,
          static_cast<int64_t>(victim),
          static_cast<int64_t>(sessions_.size()));
      if (victim_finished) {
        store_->Erase(victim);
      } else {
        if (spilled_counter_ != nullptr) spilled_counter_->Add();
        obs::FlightRecorder::Global().Record(
            obs::FlightEventKind::kSessionSpilled,
            static_cast<int64_t>(victim));
      }
    }
    entry->last_touched = clock_->Now();
    entry->lru_it = lru_.insert(lru_.end(), id);
    sessions_.emplace(id, entry);
  }
  if (resumed_counter_ != nullptr) resumed_counter_->Add();
  obs::FlightRecorder::Global().Record(obs::FlightEventKind::kSessionResumed,
                                       static_cast<int64_t>(id),
                                       static_cast<int64_t>(replayed));
  return entry;
}

void SessionManager::JournalStepLocked(SessionId id, Entry& entry,
                                       uint8_t kind, uint8_t value,
                                       uint8_t effort) {
  if (store_ == nullptr) return;
  (void)id;
  SessionEvent ev{kind, value, effort};
  // An answer's question is the transcript entry it just appended.
  if (kind == kEventAnswer) {
    ev.entity = entry.session->result().transcript.back().first;
  }
  entry.record.events.push_back(ev);
  entry.record.next_question = entry.session->NextQuestion();
  store_->Put(entry.record);
}

SessionStatus SessionManager::Get(SessionId id, SessionView* view,
                                  uint64_t token) {
  auto entry = FindOrRehydrate(id);
  if (entry == nullptr) return SessionStatus::kNotFound;
  if (entry->token != 0 && token != entry->token) {
    return SessionStatus::kNotFound;
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (view != nullptr) *view = MakeView(id, *entry->session, entry->token);
  return SessionStatus::kOk;
}

std::optional<SessionStatus> SessionManager::TryGetInline(SessionId id,
                                                          SessionView* view,
                                                          uint64_t token) {
  auto entry = Find(id);
  if (entry == nullptr) {
    if (store_ != nullptr && id != kNoSession) return std::nullopt;
    return SessionStatus::kNotFound;
  }
  if (entry->token != 0 && token != entry->token) {
    return SessionStatus::kNotFound;
  }
  std::unique_lock<std::mutex> lock(entry->mu, std::try_to_lock);
  if (!lock.owns_lock()) return std::nullopt;
  if (view != nullptr) *view = MakeView(id, *entry->session, entry->token);
  return SessionStatus::kOk;
}

std::optional<SessionStatus> SessionManager::TryStepInline(
    SessionId id, Oracle::Answer answer, SessionView* view, uint64_t token,
    DiscoverySession::PreparedAnswer* prepared) {
  if (store_ != nullptr || options_.selection_cache == nullptr) {
    return std::nullopt;
  }
  auto entry = Find(id);
  if (entry == nullptr) return SessionStatus::kNotFound;
  if (entry->token != 0 && token != entry->token) {
    return SessionStatus::kNotFound;
  }
  std::unique_lock<std::mutex> lock(entry->mu, std::try_to_lock);
  if (!lock.owns_lock()) return std::nullopt;
  if (entry->session->state() != SessionState::kAwaitingAnswer) {
    return SessionStatus::kWrongState;
  }
  // The manager built this session's selector, and wraps it in a
  // CachingSelector exactly when a cache is configured. A conversation
  // whose last question was computed has left the cached paths, and its
  // next question is almost never cached either, so it goes straight to
  // the pool instead of partitioning on the loop first.
  auto* memo = static_cast<CachingSelector*>(entry->selector.get());
  if (!memo->last_from_cache()) return std::nullopt;
  if (obs::JourneyContext* jc = obs::CurrentJourney()) {
    jc->session_id = id;
    if (!jc->trace.valid()) jc->trace = entry->journey_trace;
  }
  if (!entry->session->TrySubmitAnswerWithoutSelect(answer, *memo,
                                                    prepared)) {
    return std::nullopt;
  }
  if (entry->session->done()) {
    entry->finished.store(true, std::memory_order_relaxed);
  }
  if (view != nullptr) *view = MakeView(id, *entry->session, entry->token);
  return SessionStatus::kOk;
}

SessionStatus SessionManager::SubmitAnswer(
    SessionId id, Oracle::Answer answer, SessionView* view, uint64_t token,
    DiscoverySession::PreparedAnswer* prepared) {
  auto entry = FindOrRehydrate(id);
  if (entry == nullptr) return SessionStatus::kNotFound;
  if (entry->token != 0 && token != entry->token) {
    return SessionStatus::kNotFound;
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->session->state() != SessionState::kAwaitingAnswer) {
    return SessionStatus::kWrongState;
  }
  // Step requests don't carry a trace id on the wire; the enclosing journey
  // context (if any) inherits the one stored at Create so the step's spans
  // land in the conversation's trace.
  if (obs::JourneyContext* jc = obs::CurrentJourney()) {
    jc->session_id = id;
    if (!jc->trace.valid()) jc->trace = entry->journey_trace;
  }
  // The level this step runs at (ApplyEffort re-reads the same cell at step
  // entry), journaled so replay reproduces a degraded step degraded.
  const uint8_t effort =
      EffortByte(effort_level_.load(std::memory_order_relaxed));
  entry->session->SubmitAnswer(answer, prepared);
  if (entry->session->done()) {
    entry->finished.store(true, std::memory_order_relaxed);
  }
  JournalStepLocked(id, *entry, kEventAnswer, static_cast<uint8_t>(answer),
                    effort);
  if (view != nullptr) *view = MakeView(id, *entry->session, entry->token);
  return SessionStatus::kOk;
}

SessionStatus SessionManager::Verify(SessionId id, bool confirmed,
                                     SessionView* view, uint64_t token) {
  auto entry = FindOrRehydrate(id);
  if (entry == nullptr) return SessionStatus::kNotFound;
  if (entry->token != 0 && token != entry->token) {
    return SessionStatus::kNotFound;
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->session->state() != SessionState::kAwaitingVerify) {
    return SessionStatus::kWrongState;
  }
  if (obs::JourneyContext* jc = obs::CurrentJourney()) {
    jc->session_id = id;
    if (!jc->trace.valid()) jc->trace = entry->journey_trace;
  }
  const uint8_t effort =
      EffortByte(effort_level_.load(std::memory_order_relaxed));
  entry->session->Verify(confirmed);
  if (entry->session->done()) {
    entry->finished.store(true, std::memory_order_relaxed);
  }
  JournalStepLocked(id, *entry, kEventVerify, confirmed ? 1 : 0, effort);
  if (view != nullptr) *view = MakeView(id, *entry->session, entry->token);
  return SessionStatus::kOk;
}

SessionStatus SessionManager::GetTrace(SessionId id,
                                       std::vector<obs::TraceEvent>* out,
                                       uint64_t token) {
  auto entry = FindOrRehydrate(id);
  if (entry == nullptr) return SessionStatus::kNotFound;
  if (entry->token != 0 && token != entry->token) {
    return SessionStatus::kNotFound;
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  const obs::TraceRing* ring = entry->session->trace();
  if (ring == nullptr) return SessionStatus::kWrongState;
  if (out != nullptr) *out = ring->Events();
  return SessionStatus::kOk;
}

std::future<std::pair<SessionStatus, SessionView>>
SessionManager::SubmitAnswerAsync(SessionId id, Oracle::Answer answer,
                                  uint64_t token) {
  return pool_->Submit([this, id, answer, token] {
    SessionView view;
    SessionStatus status = SubmitAnswer(id, answer, &view, token);
    return std::make_pair(status, view);
  });
}

SessionView SessionManager::Drive(SessionView view, Oracle& oracle) {
  // Bounded by the entity count per narrowing pass and the flip budget per
  // backtrack; the guard only catches protocol bugs.
  int guard = 0;
  while (view.state != SessionState::kFinished && guard++ < 1000000) {
    SessionStatus status;
    if (view.state == SessionState::kAwaitingAnswer) {
      status = SubmitAnswer(view.id, oracle.AskMembership(view.question),
                            &view, view.token);
    } else {
      status = Verify(view.id, oracle.ConfirmTarget(view.verify_set), &view,
                      view.token);
    }
    if (status != SessionStatus::kOk) break;
  }
  return view;
}

SessionStatus SessionManager::Close(SessionId id, uint64_t token) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    // Not in memory — a spilled session is still closable (and closing is
    // the only way its record is reclaimed before reap-of-finished).
    if (store_ != nullptr) {
      SessionRecord rec;
      if (store_->Get(id, &rec) &&
          rec.collection_fingerprint == store_fp_ &&
          (rec.token == 0 || token == rec.token)) {
        store_->Erase(id);
        return SessionStatus::kOk;
      }
    }
    return SessionStatus::kNotFound;
  }
  if (it->second->token != 0 && token != it->second->token) {
    return SessionStatus::kNotFound;
  }
  lru_.erase(it->second->lru_it);
  sessions_.erase(it);
  if (store_ != nullptr) store_->Erase(id);
  return SessionStatus::kOk;
}

size_t SessionManager::ReapExpiredLocked() {
  if (options_.session_ttl.count() <= 0) return 0;
  return ReapOlderThanLocked(clock_->Now() - options_.session_ttl);
}

size_t SessionManager::ReapOlderThanLocked(Clock::time_point cutoff) {
  // Touches keep the LRU list sorted by last_touched, so the expired
  // sessions are exactly a prefix: stop at the first live one.
  size_t reaped = 0;
  while (!lru_.empty()) {
    auto it = sessions_.find(lru_.front());
    SETDISC_CHECK_MSG(it != sessions_.end(), "LRU list out of sync");
    if (it->second->last_touched >= cutoff) break;
    const SessionId id = lru_.front();
    const bool finished = it->second->finished.load(std::memory_order_relaxed);
    sessions_.erase(it);
    lru_.pop_front();
    ++reaped;
    if (store_ != nullptr) {
      if (finished) {
        // A finished conversation has delivered (or abandoned) its result;
        // reaping it reclaims the record too, so the store can't leak.
        store_->Erase(id);
      } else {
        // Spill: the record stays, the conversation resumes on next touch.
        if (spilled_counter_ != nullptr) spilled_counter_->Add();
        obs::FlightRecorder::Global().Record(
            obs::FlightEventKind::kSessionSpilled, static_cast<int64_t>(id));
      }
    }
  }
  return reaped;
}

size_t SessionManager::ReapExpired() {
  size_t reaped;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    reaped = ReapExpiredLocked();
  }
  ReleaseIdleScratch();
  return reaped;
}

size_t SessionManager::ReapIdle(std::chrono::milliseconds threshold) {
  if (threshold.count() <= 0) return 0;
  std::lock_guard<std::mutex> lock(registry_mu_);
  return ReapOlderThanLocked(clock_->Now() - threshold);
}

size_t SessionManager::ReleaseIdleScratch() {
  if (options_.release_scratch_after.count() <= 0) return 0;
  const Clock::time_point cutoff =
      clock_->Now() - options_.release_scratch_after;
  // Collect candidates under the registry lock — the idle sessions are a
  // prefix of the LRU list, and already-released ones are skipped — then
  // release outside it: ReleaseMemory needs the entry mutex (it races with
  // steps), and holding the registry lock across per-session work is the
  // contention the background reaper exists to avoid.
  std::vector<std::shared_ptr<Entry>> idle;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (SessionId id : lru_) {
      auto it = sessions_.find(id);
      SETDISC_CHECK_MSG(it != sessions_.end(), "LRU list out of sync");
      if (it->second->last_touched >= cutoff) break;
      if (!it->second->scratch_released) idle.push_back(it->second);
    }
  }
  size_t released = 0;
  for (const std::shared_ptr<Entry>& entry : idle) {
    // try_lock: a session mid-step is not idle after all — skip it; the
    // next tick reconsiders. (Its touch also cleared scratch_released.)
    std::unique_lock<std::mutex> step_lock(entry->mu, std::try_to_lock);
    if (!step_lock.owns_lock()) continue;
    entry->selector->ReleaseMemory();
    step_lock.unlock();
    ++released;
    std::lock_guard<std::mutex> lock(registry_mu_);
    // Re-check idleness: a touch that slipped in since the release already
    // cleared the flag, and its session deserves a fresh idle period.
    if (entry->last_touched < cutoff) entry->scratch_released = true;
  }
  return released;
}

size_t SessionManager::num_active() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return sessions_.size();
}

uint64_t SessionManager::num_created() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return num_created_;
}

}  // namespace setdisc
