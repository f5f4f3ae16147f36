// Tests for per-step tracing: TraceRing bounding, the thread-local phase
// attribution machinery (PhaseScope / PhaseTimer / NoteServePath), and
// end-to-end traced sessions through the SessionManager — including the
// phase-hierarchy invariant that a step's phase latencies decompose its
// measured step latency.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/selectors.h"
#include "obs/trace.h"
#include "service/session_manager.h"
#include "test_util.h"

namespace setdisc {
namespace {

using namespace setdisc::testing;
using obs::Phase;
using obs::PhaseAccum;
using obs::PhaseScope;
using obs::PhaseTimer;
using obs::TraceEvent;
using obs::TraceRing;

// ---------------------------------------------------------------------------
// TraceRing
// ---------------------------------------------------------------------------

TraceEvent EventWithStep(uint32_t step) {
  TraceEvent e;
  e.step = step;
  return e;
}

TEST(TraceRing, FillsThenOverwritesOldest) {
  TraceRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_TRUE(ring.Events().empty());
  for (uint32_t i = 0; i < 3; ++i) ring.Push(EventWithStep(i));
  std::vector<TraceEvent> events = ring.Events();
  ASSERT_EQ(events.size(), 3u);
  for (uint32_t i = 0; i < 3; ++i) EXPECT_EQ(events[i].step, i);

  for (uint32_t i = 3; i < 10; ++i) ring.Push(EventWithStep(i));
  events = ring.Events();
  ASSERT_EQ(events.size(), 4u);  // bounded at capacity
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].step, 6 + i) << "oldest-first after wrap";
  }
  EXPECT_EQ(ring.total(), 10u);
}

TEST(TraceRing, ZeroCapacityClampsToOne) {
  TraceRing ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.Push(EventWithStep(1));
  ring.Push(EventWithStep(2));
  std::vector<TraceEvent> events = ring.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].step, 2u);
}

// ---------------------------------------------------------------------------
// Phase attribution
// ---------------------------------------------------------------------------

void SpinFor(uint64_t ns) {
  const uint64_t start = obs::NowNanos();
  while (obs::NowNanos() - start < ns) {
  }
}

TEST(PhaseTimer, ChargesOnlyTheActivePhase) {
  PhaseAccum accum;
  {
    PhaseScope scope(&accum);
    {
      PhaseTimer t(Phase::kCount);
      SpinFor(50000);
    }
    {
      PhaseTimer t(Phase::kOrder);
      SpinFor(20000);
    }
  }
  EXPECT_GE(accum.ns[static_cast<size_t>(Phase::kCount)], 50000u);
  EXPECT_GE(accum.ns[static_cast<size_t>(Phase::kOrder)], 20000u);
  EXPECT_EQ(accum.ns[static_cast<size_t>(Phase::kEmit)], 0u);
  EXPECT_EQ(accum.ns[static_cast<size_t>(Phase::kSelect)], 0u);
}

TEST(PhaseTimer, DormantWithoutScopeOrWhenDisarmed) {
  PhaseAccum accum;
  {
    // No scope installed: the timer must not touch anything.
    PhaseTimer t(Phase::kCount);
    SpinFor(1000);
  }
  {
    PhaseScope scope(&accum);
    PhaseTimer t(Phase::kCount, /*armed=*/false);
    SpinFor(1000);
  }
  for (size_t i = 0; i < obs::kNumPhases; ++i) EXPECT_EQ(accum.ns[i], 0u);
}

TEST(PhaseScope, NestsAndRestores) {
  PhaseAccum outer;
  PhaseAccum inner;
  {
    PhaseScope a(&outer);
    {
      PhaseScope b(&inner);
      PhaseTimer t(Phase::kEmit);
      SpinFor(10000);
    }
    {
      PhaseTimer t(Phase::kCount);
      SpinFor(10000);
    }
  }
  EXPECT_GE(inner.ns[static_cast<size_t>(Phase::kEmit)], 10000u);
  EXPECT_EQ(inner.ns[static_cast<size_t>(Phase::kCount)], 0u);
  EXPECT_GE(outer.ns[static_cast<size_t>(Phase::kCount)], 10000u);
  EXPECT_EQ(outer.ns[static_cast<size_t>(Phase::kEmit)], 0u);
}

TEST(PhaseScope, IsPerThread) {
  PhaseAccum accum;
  PhaseScope scope(&accum);
  std::thread other([] {
    // The installing thread's scope must not leak here.
    PhaseTimer t(Phase::kCount);
    SpinFor(1000);
  });
  other.join();
  EXPECT_EQ(accum.ns[static_cast<size_t>(Phase::kCount)], 0u);
}

TEST(NoteServePath, FirstDecisivePathWins) {
  PhaseAccum accum;
  PhaseScope scope(&accum);
  obs::NoteServePath(obs::ServePath::kDelta);
  obs::NoteServePath(obs::ServePath::kFull);  // ignored: already tagged
  EXPECT_EQ(accum.serve_path,
            static_cast<uint8_t>(obs::ServePath::kDelta));
}

TEST(PhaseNames, AreStableStrings) {
  EXPECT_STREQ(obs::PhaseName(Phase::kSelect), "select");
  EXPECT_STREQ(obs::PhaseName(Phase::kEmit), "emit");
  EXPECT_STREQ(obs::ServePathName(obs::ServePath::kCacheHit), "cache_hit");
  EXPECT_STREQ(obs::ServePathName(obs::ServePath::kUnknown), "unknown");
}

// ---------------------------------------------------------------------------
// Traced sessions end to end
// ---------------------------------------------------------------------------

SessionManagerOptions TracedOptions() {
  SessionManagerOptions options;
  options.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
  options.num_threads = 2;
  return options;
}

TEST(SessionTrace, GetTraceStatusCodes) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, TracedOptions());

  std::vector<obs::TraceEvent> events;
  EXPECT_EQ(manager.GetTrace(999, &events), SessionStatus::kNotFound);

  SessionId untraced = manager.Create({}).id;
  EXPECT_EQ(manager.GetTrace(untraced, &events), SessionStatus::kWrongState);

  SessionId traced = manager.Create({}, /*enable_trace=*/true).id;
  EXPECT_EQ(manager.GetTrace(traced, &events), SessionStatus::kOk);
  EXPECT_TRUE(events.empty());  // no step taken yet (creation is untraced)

  ASSERT_EQ(manager.Close(traced), SessionStatus::kOk);
  EXPECT_EQ(manager.GetTrace(traced, &events), SessionStatus::kNotFound);
}

TEST(SessionTrace, RecordsEveryStepWithConsistentBookkeeping) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, TracedOptions());

  for (SetId target = 0; target < c.num_sets(); ++target) {
    SessionView view = manager.Create({}, /*enable_trace=*/true);
    SimulatedOracle oracle(&c, target);
    const SessionId id = view.id;
    int steps = 0;
    while (view.state == SessionState::kAwaitingAnswer) {
      ASSERT_EQ(manager.SubmitAnswer(id, oracle.AskMembership(view.question),
                                     &view),
                SessionStatus::kOk);
      ++steps;

      std::vector<obs::TraceEvent> events;
      ASSERT_EQ(manager.GetTrace(id, &events), SessionStatus::kOk);
      ASSERT_EQ(events.size(), static_cast<size_t>(steps));
      const obs::TraceEvent& last = events.back();
      EXPECT_EQ(last.step, static_cast<uint32_t>(steps - 1));
      EXPECT_EQ(last.kind, 0);  // answer step
      if (view.state == SessionState::kAwaitingAnswer) {
        // A next question was selected, so a counting pass ran and tagged
        // the step. (The final step may skip counting entirely.)
        EXPECT_NE(last.serve_path,
                  static_cast<uint8_t>(obs::ServePath::kUnknown));
      }
      EXPECT_LE(last.candidates_after, last.candidates_before);
      EXPECT_GT(last.total_ns, 0u);
    }
    ASSERT_EQ(view.state, SessionState::kFinished);
    ASSERT_TRUE(view.result.found());
    EXPECT_EQ(view.result.discovered(), target);
  }
}

// The acceptance invariant: a traced step's phase latencies decompose its
// step latency. Phases form a hierarchy — cache-lookup/count/order nest
// inside the selector's Select() (kSelect), and kSelect
// plus kEmit are disjoint spans inside the step — so nested sums never
// exceed their parent span, and select+emit covers the bulk of the step.
TEST(SessionTrace, PhaseLatenciesDecomposeStepLatency) {
  SetCollection c = RandomCollection(/*seed=*/3, /*n=*/200, /*m=*/48, 0.3);
  InvertedIndex idx(c);
  SessionManager manager(c, idx, TracedOptions());

  uint64_t covered = 0;
  uint64_t total = 0;
  size_t answer_steps = 0;
  for (SetId target = 0; target < 8; ++target) {
    SessionView view = manager.Create({}, /*enable_trace=*/true);
    SimulatedOracle oracle(&c, target);
    view = manager.Drive(view, oracle);
    ASSERT_EQ(view.state, SessionState::kFinished);

    std::vector<obs::TraceEvent> events;
    ASSERT_EQ(manager.GetTrace(view.id, &events), SessionStatus::kOk);
    ASSERT_FALSE(events.empty());
    for (const obs::TraceEvent& e : events) {
      const uint64_t select = e.phase_ns[static_cast<size_t>(Phase::kSelect)];
      const uint64_t emit = e.phase_ns[static_cast<size_t>(Phase::kEmit)];
      const uint64_t inner =
          e.phase_ns[static_cast<size_t>(Phase::kCacheLookup)] +
          e.phase_ns[static_cast<size_t>(Phase::kCount)] +
          e.phase_ns[static_cast<size_t>(Phase::kOrder)];
      // Nested timers never exceed their enclosing span.
      EXPECT_LE(inner, select) << "step " << e.step;
      EXPECT_LE(select + emit, e.total_ns) << "step " << e.step;
      if (e.kind == 0) {
        ++answer_steps;
        covered += select + emit;
        total += e.total_ns;
      }
    }
  }
  ASSERT_GT(answer_steps, 0u);
  // In aggregate the instrumented phases account for most of the measured
  // step time; the remainder is transcript/bookkeeping outside any phase.
  EXPECT_GE(covered * 2, total)
      << "phases cover " << covered << "ns of " << total << "ns";
}

TEST(SessionTrace, RingBoundsLiveSessionHistory) {
  SetCollection c = RandomCollection(/*seed=*/7, /*n=*/120, /*m=*/40, 0.35);
  InvertedIndex idx(c);
  SessionManagerOptions options = TracedOptions();
  options.trace_capacity = 2;
  SessionManager manager(c, idx, options);

  SessionView view = manager.Create({}, /*enable_trace=*/true);
  SimulatedOracle oracle(&c, /*target=*/0);
  const SessionId id = view.id;
  int steps = 0;
  while (view.state == SessionState::kAwaitingAnswer && steps < 50) {
    ASSERT_EQ(
        manager.SubmitAnswer(id, oracle.AskMembership(view.question), &view),
        SessionStatus::kOk);
    ++steps;
  }
  ASSERT_GT(steps, 2);

  std::vector<obs::TraceEvent> events;
  ASSERT_EQ(manager.GetTrace(id, &events), SessionStatus::kOk);
  ASSERT_EQ(events.size(), 2u);  // bounded by trace_capacity
  // The ring keeps the most recent steps, oldest first.
  EXPECT_EQ(events[0].step, static_cast<uint32_t>(steps - 2));
  EXPECT_EQ(events[1].step, static_cast<uint32_t>(steps - 1));
}

}  // namespace
}  // namespace setdisc
