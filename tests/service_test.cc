// Tests for the service subsystem: DiscoverySession parity against the
// blocking Discover() driver (including §6 don't-know and backtracking
// paths), SessionManager registry semantics (ids, TTL reaping, LRU
// eviction, state checks), the ThreadPool, and SetCollectionBuilder reuse.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <unordered_map>

#include "core/selectors.h"
#include "service/discovery_session.h"
#include "service/selection_cache.h"
#include "service/session_manager.h"
#include "util/thread_pool.h"
#include "test_util.h"

namespace setdisc {
namespace {

using namespace setdisc::testing;

// ---------------------------------------------------------------------------
// DiscoverySession parity vs. Discover()
// ---------------------------------------------------------------------------

// Drives a session by hand, exactly as an external caller (server, UI)
// would, feeding it the oracle's answers step by step. (void return so
// ASSERT_* can abort the test on a stuck session.)
void DriveStepwise(const SetCollection& c, const InvertedIndex& idx,
                   std::span<const EntityId> initial, EntitySelector& sel,
                   Oracle& oracle, const DiscoveryOptions& options,
                   DiscoveryResult* out) {
  DiscoverySession session(c, idx, initial, sel, options);
  int guard = 0;
  while (!session.done()) {
    ASSERT_LT(guard++, 100000) << "session failed to terminate";
    if (session.state() == SessionState::kAwaitingAnswer) {
      EntityId e = session.NextQuestion();
      ASSERT_NE(e, kNoEntity);
      EXPECT_EQ(session.PendingVerify(), kNoSet);
      session.SubmitAnswer(oracle.AskMembership(e));
    } else {
      ASSERT_EQ(session.state(), SessionState::kAwaitingVerify);
      SetId s = session.PendingVerify();
      ASSERT_NE(s, kNoSet);
      EXPECT_EQ(session.NextQuestion(), kNoEntity);
      session.Verify(oracle.ConfirmTarget(s));
    }
  }
  *out = session.TakeResult();
}

void ExpectSameResult(const DiscoveryResult& a, const DiscoveryResult& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.questions, b.questions);
  EXPECT_EQ(a.backtracks, b.backtracks);
  EXPECT_EQ(a.confirmed, b.confirmed);
  EXPECT_EQ(a.halted, b.halted);
  ASSERT_EQ(a.transcript.size(), b.transcript.size());
  for (size_t i = 0; i < a.transcript.size(); ++i) {
    EXPECT_EQ(a.transcript[i].first, b.transcript[i].first) << "question " << i;
    EXPECT_EQ(a.transcript[i].second, b.transcript[i].second) << "answer " << i;
  }
}

// Runs both drivers with identically seeded oracles and compares the full
// transcript and outcome.
void CheckParity(const SetCollection& c, std::span<const EntityId> initial,
                 const DiscoveryOptions& options, double error_rate,
                 double dont_know_rate, uint64_t oracle_seed) {
  InvertedIndex idx(c);
  for (SetId target = 0; target < c.num_sets(); ++target) {
    MostEvenSelector sel_a;
    SimulatedOracle oracle_a(&c, target, error_rate, dont_know_rate,
                             oracle_seed);
    DiscoveryResult blocking =
        Discover(c, idx, initial, sel_a, oracle_a, options);

    MostEvenSelector sel_b;
    SimulatedOracle oracle_b(&c, target, error_rate, dont_know_rate,
                             oracle_seed);
    DiscoveryResult stepwise;
    ASSERT_NO_FATAL_FAILURE(
        DriveStepwise(c, idx, initial, sel_b, oracle_b, options, &stepwise));

    ExpectSameResult(blocking, stepwise);
  }
}

TEST(DiscoverySessionParity, CleanAnswers) {
  CheckParity(MakePaperCollection(), {}, DiscoveryOptions{}, 0.0, 0.0, 11);
}

TEST(DiscoverySessionParity, DontKnowAnswers) {
  DiscoveryOptions options;
  options.handle_dont_know = true;
  CheckParity(MakePaperCollection(), {}, options, 0.0, 0.3, 12);
  options.handle_dont_know = false;  // kDontKnow treated as kNo
  CheckParity(MakePaperCollection(), {}, options, 0.0, 0.3, 12);
}

TEST(DiscoverySessionParity, ErrorsWithBacktracking) {
  DiscoveryOptions options;
  options.verify_and_backtrack = true;
  CheckParity(MakePaperCollection(), {}, options, 0.2, 0.0, 13);
  options.max_backtracks = 1;
  CheckParity(MakePaperCollection(), {}, options, 0.3, 0.0, 14);
}

TEST(DiscoverySessionParity, ErrorsAndDontKnowCombined) {
  DiscoveryOptions options;
  options.verify_and_backtrack = true;
  CheckParity(MakePaperCollection(), {}, options, 0.15, 0.15, 15);
}

TEST(DiscoverySessionParity, QuestionBudget) {
  DiscoveryOptions options;
  options.max_questions = 2;
  CheckParity(MakePaperCollection(), {}, options, 0.0, 0.0, 16);
}

TEST(DiscoverySessionParity, WithInitialExamples) {
  std::vector<EntityId> initial = {kB};
  CheckParity(MakePaperCollection(), initial, DiscoveryOptions{}, 0.0, 0.0, 17);
}

TEST(DiscoverySessionParity, RandomCollectionsAllConfigs) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    SetCollection c = RandomCollection(seed, /*n=*/40, /*m=*/24, 0.3);
    for (bool verify : {false, true}) {
      for (double err : {0.0, 0.2}) {
        for (double dk : {0.0, 0.2}) {
          DiscoveryOptions options;
          options.verify_and_backtrack = verify;
          CheckParity(c, {}, options, err, dk, seed * 1000 + 1);
        }
      }
    }
  }
}

TEST(DiscoverySession, EmptyInitialMatchFinishesImmediately) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  MostEvenSelector sel;
  // Entity 200 appears in no set, so the candidate filter yields nothing.
  std::vector<EntityId> initial = {200};
  DiscoverySession session(c, idx, initial, sel);
  EXPECT_TRUE(session.done());
  EXPECT_TRUE(session.result().candidates.empty());
  EXPECT_EQ(session.result().questions, 0);
}

TEST(DiscoverySession, SingleCandidateNeedsNoQuestions) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  MostEvenSelector sel;
  // {d, e} uniquely identifies S2.
  std::vector<EntityId> initial = {kD, kE};
  DiscoverySession session(c, idx, initial, sel);
  EXPECT_TRUE(session.done());
  EXPECT_EQ(session.result().questions, 0);
  ASSERT_TRUE(session.result().found());
  EXPECT_EQ(c.label(session.result().discovered()), "S2");
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

SessionManagerOptions ManagerOptions() {
  SessionManagerOptions options;
  options.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
  options.num_threads = 2;
  return options;
}

TEST(SessionManager, DiscoversEveryTargetAndMatchesDiscover) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  for (SetId target = 0; target < c.num_sets(); ++target) {
    SimulatedOracle oracle(&c, target);
    SessionView view = manager.Drive(manager.Create({}), oracle);
    ASSERT_EQ(view.state, SessionState::kFinished);
    ASSERT_TRUE(view.result.found());
    EXPECT_EQ(view.result.discovered(), target);

    MostEvenSelector sel;
    SimulatedOracle oracle_ref(&c, target);
    DiscoveryResult ref = Discover(c, idx, {}, sel, oracle_ref);
    ExpectSameResult(ref, view.result);
  }
}

TEST(SessionManager, FinishedAtBirthSessionsDontOccupyASlot) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManagerOptions options = ManagerOptions();
  options.max_sessions = 1;
  SessionManager manager(c, idx, options);

  SessionId live = manager.Create({}).id;

  // {d, e} narrows to S2 immediately: finished at birth, result in the view.
  std::vector<EntityId> initial = {kD, kE};
  SessionView view = manager.Create(initial);
  EXPECT_EQ(view.state, SessionState::kFinished);
  ASSERT_TRUE(view.result.found());
  EXPECT_EQ(c.label(view.result.discovered()), "S2");

  // It was never registered (no slot taken, the live session not evicted).
  SessionView probe;
  EXPECT_EQ(manager.Get(view.id, &probe), SessionStatus::kNotFound);
  EXPECT_EQ(manager.Get(live, &probe), SessionStatus::kOk);
  EXPECT_EQ(manager.num_active(), 1u);
  EXPECT_EQ(manager.num_created(), 2u);
  EXPECT_LT(live, view.id);  // still consumes an id
}

TEST(SessionManager, IdsAreMonotonicAndNeverReused) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  SessionId a = manager.Create({}).id;
  SessionId b = manager.Create({}).id;
  EXPECT_LT(a, b);
  EXPECT_EQ(manager.Close(a), SessionStatus::kOk);
  SessionId d = manager.Create({}).id;
  EXPECT_LT(b, d);
  EXPECT_EQ(manager.num_created(), 3u);
  EXPECT_EQ(manager.num_active(), 2u);
}

TEST(SessionManager, UnknownAndClosedSessionsReportNotFound) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  SessionView view;
  EXPECT_EQ(manager.Get(9999, &view), SessionStatus::kNotFound);
  EXPECT_EQ(manager.SubmitAnswer(9999, Oracle::Answer::kYes, &view),
            SessionStatus::kNotFound);
  SessionId id = manager.Create({}).id;
  EXPECT_EQ(manager.Close(id), SessionStatus::kOk);
  EXPECT_EQ(manager.Close(id), SessionStatus::kNotFound);
  EXPECT_EQ(manager.Get(id, &view), SessionStatus::kNotFound);
}

TEST(SessionManager, WrongStateIsRejected) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManagerOptions options = ManagerOptions();
  options.discovery.verify_and_backtrack = true;
  SessionManager manager(c, idx, options);

  SessionView view = manager.Create({});
  ASSERT_EQ(view.state, SessionState::kAwaitingAnswer);
  EXPECT_EQ(manager.Verify(view.id, true, &view), SessionStatus::kWrongState);

  SimulatedOracle oracle(&c, /*target=*/0);
  int guard = 0;
  while (view.state == SessionState::kAwaitingAnswer && guard++ < 1000) {
    ASSERT_EQ(manager.SubmitAnswer(view.id, oracle.AskMembership(view.question),
                                   &view),
              SessionStatus::kOk);
  }
  ASSERT_EQ(view.state, SessionState::kAwaitingVerify);
  EXPECT_EQ(manager.SubmitAnswer(view.id, Oracle::Answer::kYes, &view),
            SessionStatus::kWrongState);
  EXPECT_EQ(manager.Verify(view.id, true, &view), SessionStatus::kOk);
  EXPECT_EQ(view.state, SessionState::kFinished);
  EXPECT_TRUE(view.result.confirmed);
}

TEST(SessionManager, TtlReapsIdleSessions) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  FakeClock clock;
  SessionManagerOptions options = ManagerOptions();
  options.session_ttl = std::chrono::milliseconds(20);
  options.clock = &clock;  // idle time is script, not sleep
  // Manual reaping must stay deterministic: keep the background tick out of
  // this test so ReapExpired() is the one doing the work.
  options.background_reap = false;
  SessionManager manager(c, idx, options);

  SessionId id = manager.Create({}).id;
  EXPECT_EQ(manager.num_active(), 1u);
  clock.Advance(std::chrono::milliseconds(19));
  EXPECT_EQ(manager.ReapExpired(), 0u);  // one tick short of the TTL
  clock.Advance(std::chrono::milliseconds(2));
  EXPECT_EQ(manager.ReapExpired(), 1u);
  EXPECT_EQ(manager.num_active(), 0u);
  SessionView view;
  EXPECT_EQ(manager.Get(id, &view), SessionStatus::kNotFound);
}

TEST(SessionManager, ReapIdleUsesItsOwnShorterLeash) {
  // The load-aware eviction entry point: ReapIdle(leash) reaps sessions
  // idle past the GIVEN leash regardless of the (much longer) session_ttl —
  // what the LoadController calls under pressure.
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  FakeClock clock;
  SessionManagerOptions options = ManagerOptions();
  options.session_ttl = std::chrono::minutes(10);
  options.clock = &clock;
  options.background_reap = false;
  SessionManager manager(c, idx, options);

  SessionId old_id = manager.Create({}).id;
  clock.Advance(std::chrono::milliseconds(100));
  SessionId fresh_id = manager.Create({}).id;
  clock.Advance(std::chrono::milliseconds(30));

  // Non-positive leashes are refused outright (a zero leash would reap the
  // session a Create is about to return).
  EXPECT_EQ(manager.ReapIdle(std::chrono::milliseconds(0)), 0u);
  EXPECT_EQ(manager.ReapIdle(std::chrono::milliseconds(-5)), 0u);

  // A 50ms leash takes the 130ms-idle session and spares the 30ms one.
  EXPECT_EQ(manager.ReapIdle(std::chrono::milliseconds(50)), 1u);
  SessionView view;
  EXPECT_EQ(manager.Get(old_id, &view), SessionStatus::kNotFound);
  EXPECT_EQ(manager.Get(fresh_id, &view), SessionStatus::kOk);
}

TEST(SessionManager, BackgroundReaperDropsIdleSessionsWithoutCreateTraffic) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManagerOptions options = ManagerOptions();
  options.session_ttl = std::chrono::milliseconds(30);
  options.reap_interval = std::chrono::milliseconds(10);
  SessionManager manager(c, idx, options);  // background_reap defaults on

  SessionId id = manager.Create({}).id;
  EXPECT_EQ(manager.num_active(), 1u);
  // No Create/Get traffic from here on: only the reaper tick can drop it.
  for (int i = 0; i < 200 && manager.num_active() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(manager.num_active(), 0u);
  SessionView view;
  EXPECT_EQ(manager.Get(id, &view), SessionStatus::kNotFound);
}

TEST(SessionManager, ExpiredSessionsDontSurviveCapacityPressure) {
  // With reaping off the Create path (default background_reap), an expired
  // session may still occupy a slot when Create hits capacity — the LRU
  // eviction must then pick it (the longest-idle session) as the victim,
  // never a live one. The reap interval is set far past the test so the
  // background tick cannot collect the expired session first: capacity
  // eviction has to do the work.
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  FakeClock clock;
  SessionManagerOptions options = ManagerOptions();
  options.session_ttl = std::chrono::milliseconds(20);
  options.clock = &clock;
  options.reap_interval = std::chrono::minutes(10);
  options.max_sessions = 2;
  SessionManager manager(c, idx, options);

  SessionId expired = manager.Create({}).id;
  clock.Advance(std::chrono::milliseconds(50));
  SessionId live = manager.Create({}).id;
  SessionId fresh = manager.Create({}).id;  // at capacity: evicts `expired`
  SessionView view;
  EXPECT_EQ(manager.Get(expired, &view), SessionStatus::kNotFound);
  EXPECT_EQ(manager.Get(live, &view), SessionStatus::kOk);
  EXPECT_EQ(manager.Get(fresh, &view), SessionStatus::kOk);
}

TEST(SessionManager, TouchingASessionKeepsItAlive) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  FakeClock clock;
  SessionManagerOptions options = ManagerOptions();
  options.session_ttl = std::chrono::milliseconds(150);
  options.clock = &clock;
  SessionManager manager(c, idx, options);

  SessionId id = manager.Create({}).id;
  for (int i = 0; i < 4; ++i) {
    clock.Advance(std::chrono::milliseconds(100));
    SessionView view;
    ASSERT_EQ(manager.Get(id, &view), SessionStatus::kOk);  // refreshes TTL
  }
  EXPECT_EQ(manager.ReapExpired(), 0u);
  EXPECT_EQ(manager.num_active(), 1u);
}

TEST(SessionManager, CapacityEvictsLeastRecentlyTouched) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManagerOptions options = ManagerOptions();
  options.max_sessions = 2;
  SessionManager manager(c, idx, options);

  SessionId a = manager.Create({}).id;
  SessionId b = manager.Create({}).id;
  // Touch `a` so `b` is the LRU victim when the third session arrives.
  SessionView view;
  ASSERT_EQ(manager.Get(a, &view), SessionStatus::kOk);
  SessionId d = manager.Create({}).id;
  EXPECT_EQ(manager.num_active(), 2u);
  EXPECT_EQ(manager.Get(b, &view), SessionStatus::kNotFound);
  EXPECT_EQ(manager.Get(a, &view), SessionStatus::kOk);
  EXPECT_EQ(manager.Get(d, &view), SessionStatus::kOk);
}

TEST(SessionManager, EvictionOrderMatchesTouchOrder) {
  // The O(1) LRU list must evict in exactly last-touched order, not
  // creation order.
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManagerOptions options = ManagerOptions();
  options.max_sessions = 3;
  SessionManager manager(c, idx, options);

  SessionId a = manager.Create({}).id;
  SessionId b = manager.Create({}).id;
  SessionId s3 = manager.Create({}).id;
  // Touch a, then s3, then b: LRU order becomes a, s3, b.
  SessionView view;
  ASSERT_EQ(manager.Get(a, &view), SessionStatus::kOk);
  ASSERT_EQ(manager.Get(s3, &view), SessionStatus::kOk);
  ASSERT_EQ(manager.Get(b, &view), SessionStatus::kOk);

  SessionId d = manager.Create({}).id;  // evicts a (least recently touched)
  EXPECT_EQ(manager.Get(a, &view), SessionStatus::kNotFound);
  SessionId e = manager.Create({}).id;  // evicts s3, NOT b
  EXPECT_EQ(manager.Get(s3, &view), SessionStatus::kNotFound);
  EXPECT_EQ(manager.Get(b, &view), SessionStatus::kOk);
  EXPECT_EQ(manager.Get(d, &view), SessionStatus::kOk);
  EXPECT_EQ(manager.Get(e, &view), SessionStatus::kOk);
  EXPECT_EQ(manager.num_active(), 3u);
}

TEST(SessionManager, CloseUnlinksFromEvictionOrder) {
  // Closing the next victim must not confuse later evictions.
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManagerOptions options = ManagerOptions();
  options.max_sessions = 2;
  SessionManager manager(c, idx, options);

  SessionId a = manager.Create({}).id;
  SessionId b = manager.Create({}).id;
  ASSERT_EQ(manager.Close(a), SessionStatus::kOk);  // a was the LRU front
  SessionId d = manager.Create({}).id;  // fills the freed slot, no eviction
  SessionView view;
  EXPECT_EQ(manager.Get(b, &view), SessionStatus::kOk);
  EXPECT_EQ(manager.Get(d, &view), SessionStatus::kOk);
  SessionId e = manager.Create({}).id;  // now evicts b
  EXPECT_EQ(manager.Get(b, &view), SessionStatus::kNotFound);
  EXPECT_EQ(manager.Get(d, &view), SessionStatus::kOk);
  EXPECT_EQ(manager.Get(e, &view), SessionStatus::kOk);
}

TEST(SessionManager, SharedCacheMatchesUncachedTranscripts) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SelectionCache cache;
  SessionManagerOptions options = ManagerOptions();
  options.selection_cache = &cache;
  SessionManager manager(c, idx, options);

  for (SetId target = 0; target < c.num_sets(); ++target) {
    SimulatedOracle oracle(&c, target);
    SessionView view = manager.Drive(manager.Create({}), oracle);
    ASSERT_EQ(view.state, SessionState::kFinished);
    ASSERT_TRUE(view.result.found());
    EXPECT_EQ(view.result.discovered(), target);

    MostEvenSelector sel;
    SimulatedOracle oracle_ref(&c, target);
    DiscoveryResult ref = Discover(c, idx, {}, sel, oracle_ref);
    ExpectSameResult(ref, view.result);
  }
  SelectionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_GT(stats.hits, 0u);  // sessions share root decisions
}

// Drives one conversation the way the server's event loop does: every
// Create, Answer and Get is first tried without blocking, and what is
// declined runs the ordinary way, reusing the declined answer's partition.
// Returns how many requests were served by the non-blocking calls.
int DriveInlineFirst(SessionManager& manager, Oracle& oracle,
                     SessionView* out) {
  int served = 0;
  std::optional<SessionView> created =
      manager.TryCreateInline({}, false, {}, false);
  SessionView view = created.has_value() ? *created : manager.Create({});
  served += created.has_value();
  int guard = 0;
  while (view.state != SessionState::kFinished && guard++ < 100000) {
    SessionView got;
    std::optional<SessionStatus> status = manager.TryGetInline(view.id, &got, 0);
    EXPECT_EQ(status, SessionStatus::kOk);  // nobody else holds the session
    EXPECT_EQ(got.question, view.question);
    if (view.state == SessionState::kAwaitingVerify) {
      EXPECT_EQ(manager.Verify(view.id, oracle.ConfirmTarget(view.verify_set),
                               &view),
                SessionStatus::kOk);
      continue;
    }
    const Oracle::Answer answer = oracle.AskMembership(view.question);
    DiscoverySession::PreparedAnswer prepared;
    status = manager.TryStepInline(view.id, answer, &view, 0, &prepared);
    if (status.has_value()) {
      EXPECT_EQ(*status, SessionStatus::kOk);
      ++served;
      continue;
    }
    EXPECT_EQ(manager.SubmitAnswer(view.id, answer, &view, 0, &prepared),
              SessionStatus::kOk);
  }
  *out = view;
  return served;
}

// Serving steps in place changes nothing a client or the cache can see:
// the transcripts are Discover()'s, and the cache counts exactly the
// lookups, hits, misses and insertions of a manager that never does.
TEST(SessionManager, InlineServingMatchesPooledTranscriptsAndCacheCounts) {
  SetCollection c = RandomCollection(/*seed=*/61, /*n=*/60, /*m=*/36, 0.3);
  InvertedIndex idx(c);
  for (const bool verify : {false, true}) {
    SelectionCache pooled_cache, inline_cache;
    SessionManagerOptions options = ManagerOptions();
    options.discovery.verify_and_backtrack = verify;
    options.selection_cache = &pooled_cache;
    SessionManager pooled(c, idx, options);
    options.selection_cache = &inline_cache;
    SessionManager inlined(c, idx, options);
    int served = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (SetId target = 0; target < c.num_sets(); ++target) {
        auto oracle = [&] {
          return SimulatedOracle(&c, target, verify ? 0.1 : 0.0,
                                 /*dont_know_rate=*/0.15, 50 + target);
        };
        SimulatedOracle oracle_ref = oracle();
        MostEvenSelector sel;
        DiscoveryResult ref =
            Discover(c, idx, {}, sel, oracle_ref, options.discovery);

        SimulatedOracle oracle_pooled = oracle();
        SessionView pooled_view =
            pooled.Drive(pooled.Create({}), oracle_pooled);
        ExpectSameResult(ref, pooled_view.result);

        SimulatedOracle oracle_inline = oracle();
        SessionView inline_view;
        served += DriveInlineFirst(inlined, oracle_inline, &inline_view);
        ASSERT_EQ(inline_view.state, SessionState::kFinished);
        ExpectSameResult(ref, inline_view.result);
      }
    }
    EXPECT_GT(served, 0);
    const SelectionCacheStats a = pooled_cache.stats();
    const SelectionCacheStats b = inline_cache.stats();
    EXPECT_EQ(b.hits + b.misses, b.lookups);
    EXPECT_EQ(a.lookups, b.lookups);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.insertions, b.insertions);
  }
  // Unknown ids are answered without blocking too.
  SelectionCache cache;
  SessionManagerOptions options = ManagerOptions();
  options.selection_cache = &cache;
  SessionManager manager(c, idx, options);
  SessionView view;
  EXPECT_EQ(manager.TryGetInline(12345, &view, 0), SessionStatus::kNotFound);
  DiscoverySession::PreparedAnswer prepared;
  EXPECT_EQ(manager.TryStepInline(12345, Oracle::Answer::kYes, &view, 0,
                                  &prepared),
            SessionStatus::kNotFound);
}

// A declined step leaves the session exactly as it was and hands back its
// partition; SubmitAnswer reuses that only while it is current, so a stale
// one — even one prepared for the same question at an earlier step, which
// backtracking can ask again over other candidates — is recomputed, and
// every transcript stays Discover()'s.
TEST(DiscoverySession, DeclinedStepsLeaveTheSessionUntouched) {
  SetCollection c = RandomCollection(/*seed=*/62, /*n=*/50, /*m=*/30, 0.3);
  InvertedIndex idx(c);
  for (const bool verify : {false, true}) {
    DiscoveryOptions options;
    options.verify_and_backtrack = verify;
    const double error_rate = verify ? 0.2 : 0.0;
    SelectionCache cache;  // shared by the conversations, as in a manager
    int served = 0, declined = 0;
    for (SetId target = 0; target < c.num_sets(); ++target) {
      CachingSelector memo(std::make_unique<MostEvenSelector>(), &cache);
      DiscoverySession session(c, idx, {}, memo, options);
      SimulatedOracle oracle(&c, target, error_rate, 0.0, 70 + target);
      std::unordered_map<EntityId, DiscoverySession::PreparedAnswer> earlier;
      DiscoverySession::PreparedAnswer stale;
      int guard = 0;
      while (!session.done() && guard++ < 1000) {
        if (session.state() == SessionState::kAwaitingVerify) {
          session.Verify(oracle.ConfirmTarget(session.PendingVerify()));
          continue;
        }
        const EntityId question = session.NextQuestion();
        const Oracle::Answer answer = oracle.AskMembership(question);
        const size_t candidates = session.num_candidates();
        const int asked = session.result().questions;
        DiscoverySession::PreparedAnswer prepared;
        if (session.TrySubmitAnswerWithoutSelect(answer, memo, &prepared)) {
          ++served;
          continue;
        }
        ++declined;
        EXPECT_EQ(session.NextQuestion(), question);
        EXPECT_EQ(session.num_candidates(), candidates);
        EXPECT_EQ(session.result().questions, asked);
        // Offer an earlier step's partition for this question if there is
        // one, else alternate between the current and the previous step's.
        DiscoverySession::PreparedAnswer current = prepared;
        auto it = earlier.find(question);
        session.SubmitAnswer(answer, it != earlier.end() ? &it->second
                                     : guard % 2 == 0    ? &prepared
                                                         : &stale);
        earlier[question] = current;
        stale = std::move(current);
      }
      ASSERT_TRUE(session.done());
      MostEvenSelector sel;
      SimulatedOracle oracle_ref(&c, target, error_rate, 0.0, 70 + target);
      ExpectSameResult(Discover(c, idx, {}, sel, oracle_ref, options),
                       session.result());
    }
    EXPECT_GT(served, 0);
    EXPECT_GT(declined, 0);
    const SelectionCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  }
}

// The loop tries a step in place only while the cache is serving the
// conversation: after a computed question the next Answer goes to the pool
// untried, even when the cache happens to hold its decision; and Creates
// are tried only after the last ordinary Create found its first question
// cached.
TEST(SessionManager, InPlaceAttemptsFollowTheCache) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SelectionCache cache;
  SessionManagerOptions options = ManagerOptions();
  options.selection_cache = &cache;
  SessionManager manager(c, idx, options);

  EXPECT_FALSE(manager.TryCreateInline({}, false, {}, false).has_value());
  SessionView computed = manager.Create({});  // a cold cache: computed
  ASSERT_EQ(computed.state, SessionState::kAwaitingAnswer);
  EXPECT_FALSE(manager.TryCreateInline({}, false, {}, false).has_value());
  SessionView cached = manager.Create({});  // served by the cache
  std::optional<SessionView> in_place =
      manager.TryCreateInline({}, false, {}, false);
  ASSERT_TRUE(in_place.has_value());
  EXPECT_EQ(in_place->question, computed.question);

  // `cached` computes the state after a yes; `computed` then reaches it.
  SessionView view;
  ASSERT_EQ(manager.SubmitAnswer(cached.id, Oracle::Answer::kYes, &view),
            SessionStatus::kOk);
  DiscoverySession::PreparedAnswer prepared;
  EXPECT_FALSE(manager
                   .TryStepInline(computed.id, Oracle::Answer::kYes, &view, 0,
                                  &prepared)
                   .has_value());
  ASSERT_EQ(manager.SubmitAnswer(computed.id, Oracle::Answer::kYes, &view, 0,
                                 &prepared),
            SessionStatus::kOk);
  // That decision came from the cache, so the in-place session is served.
  EXPECT_TRUE(manager
                  .TryStepInline(in_place->id, Oracle::Answer::kYes, &view, 0,
                                 &prepared)
                  .has_value());
}

TEST(SessionManager, SubmitAnswerAsyncCompletesASession) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  SimulatedOracle oracle(&c, /*target=*/3);

  SessionView view = manager.Create({});
  int guard = 0;
  while (view.state == SessionState::kAwaitingAnswer && guard++ < 1000) {
    auto [status, next] =
        manager.SubmitAnswerAsync(view.id, oracle.AskMembership(view.question))
            .get();
    ASSERT_EQ(status, SessionStatus::kOk);
    view = next;
  }
  ASSERT_EQ(view.state, SessionState::kFinished);
  ASSERT_TRUE(view.result.found());
  EXPECT_EQ(view.result.discovered(), 3u);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter, i] {
      counter.fetch_add(1, std::memory_order_relaxed);
      return i;
    }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

// ---------------------------------------------------------------------------
// SetCollectionBuilder reuse (Build consumes the builder)
// ---------------------------------------------------------------------------

TEST(SetCollectionBuilder, ReuseAfterBuildStartsFresh) {
  SetCollectionBuilder b;
  b.AddSet({0, 1, 2}, "first");
  SetCollection c1 = b.Build();
  EXPECT_EQ(c1.num_sets(), 1u);
  EXPECT_EQ(b.num_pending(), 0u);

  b.AddSet({3, 4}, "second");
  SetCollection c2 = b.Build();
  ASSERT_EQ(c2.num_sets(), 1u);
  EXPECT_EQ(c2.label(0), "second");
  std::vector<EntityId> elems(c2.set(0).begin(), c2.set(0).end());
  EXPECT_EQ(elems, (std::vector<EntityId>{3, 4}));
  // The first collection is unaffected.
  EXPECT_EQ(c1.label(0), "first");
}

TEST(SetCollectionBuilder, ReuseWithNamesGetsAFreshDictionary) {
  SetCollectionBuilder b;
  b.AddSetNamed({"apple", "pear"}, "fruit");
  SetCollection c1 = b.Build();
  ASSERT_NE(c1.dict(), nullptr);
  EXPECT_NE(c1.dict()->Lookup("apple"), kNoEntity);

  // Second use of the same builder: ids restart from 0 in a new dictionary.
  b.AddSetNamed({"carrot"}, "veg");
  SetCollection c2 = b.Build();
  ASSERT_NE(c2.dict(), nullptr);
  EXPECT_EQ(c2.dict()->Lookup("apple"), kNoEntity);
  EXPECT_EQ(c2.dict()->Lookup("carrot"), 0u);
  // c1's dictionary is untouched by the rebuild.
  EXPECT_EQ(c1.dict()->Lookup("apple"), 0u);
  EXPECT_EQ(c1.EntityName(0), "apple");
}

}  // namespace
}  // namespace setdisc
