// End-to-end tests for load-adaptive serving: a real DiscoveryServer wired
// to a LoadController whose queue-depth sensor the test scripts — so
// admission decisions are deterministic, no actual overload required.
// Covers: excess Creates refused with kBusy (connection survives and serves
// on), the retry-after hint reaching busy-capable clients and being
// withheld from legacy ones, refusals leaving in-flight conversations
// byte-exact against the in-process engine, and degraded sessions (effort
// ladder engaged) still discovering every target with transcripts matching
// an equally-degraded in-process session. A final unscripted smoke drives a
// real saturating herd through a 1-thread pool under ASan/TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/klp.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/registry.h"
#include "service/discovery_session.h"
#include "service/load_controller.h"
#include "service/selection_cache.h"
#include "service/session_manager.h"
#include "test_util.h"

namespace setdisc::net {
namespace {

using namespace setdisc::testing;

KlpOptions SelectorOptions() {
  return KlpOptions::MakeKlp(2, CostMetric::kAvgDepth);
}

SessionManagerOptions ManagerOptions() {
  SessionManagerOptions options;
  options.selector_factory = [] {
    return std::make_unique<KlpSelector>(SelectorOptions());
  };
  options.num_threads = 2;
  return options;
}

/// A controller whose queue-depth sensor is the test-owned `depth` cell:
/// flip it past the watermark and every Create is refused, zero timing
/// involved. Never Start()ed — admission is evaluated live per Create.
struct ScriptedController {
  std::atomic<size_t> depth{0};
  std::unique_ptr<LoadController> controller;

  explicit ScriptedController(uint32_t retry_after_ms = 25) {
    LoadControllerOptions options;
    options.admit_queue_watermark = 4;
    options.admit_resume_depth = 1;
    options.retry_after_ms = retry_after_ms;
    controller = std::make_unique<LoadController>(
        options, /*source=*/nullptr,
        [this] { return depth.load(std::memory_order_relaxed); });
  }
};

std::unique_ptr<DiscoveryServer> StartServer(SessionManager& manager,
                                             ServerOptions options = {}) {
  auto server = std::make_unique<DiscoveryServer>(manager, options);
  Status status = server->Start();
  EXPECT_TRUE(status.ok()) << status.message();
  return server;
}

/// In-process reference conversation on a selector at the given effort
/// level; what a (possibly degraded) server session must match byte-exactly.
DiscoveryResult DriveInProcess(const SetCollection& c, const InvertedIndex& idx,
                               Oracle& oracle, int effort) {
  KlpSelector selector(SelectorOptions());
  selector.SetEffort(effort);
  DiscoverySession session(c, idx, {}, selector, DiscoveryOptions{});
  int guard = 0;
  while (!session.done() && guard++ < 100000) {
    if (session.state() == SessionState::kAwaitingAnswer) {
      session.SubmitAnswer(oracle.AskMembership(session.NextQuestion()));
    } else {
      session.Verify(oracle.ConfirmTarget(session.PendingVerify()));
    }
  }
  return session.TakeResult();
}

void ExpectSameResult(const DiscoveryResult& a, const DiscoveryResult& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.questions, b.questions);
  ASSERT_EQ(a.transcript.size(), b.transcript.size());
  for (size_t i = 0; i < a.transcript.size(); ++i) {
    EXPECT_EQ(a.transcript[i].first, b.transcript[i].first) << "question " << i;
    EXPECT_EQ(a.transcript[i].second, b.transcript[i].second) << "answer " << i;
  }
}

// ---------------------------------------------------------------------------
// Admission: kBusy semantics on the wire
// ---------------------------------------------------------------------------

TEST(Overload, ExcessCreatesGetBusyAndTheConnectionServesOn) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  ScriptedController scripted;
  ServerOptions server_options;
  server_options.load_controller = scripted.controller.get();
  auto server = StartServer(manager, server_options);

  DiscoveryClient client;
  // This test asserts per-refusal wire semantics (one kBusy per Create, the
  // exact retry-after hint), so the client's automatic retry envelope must
  // be off or each Create would burn several refusals before surfacing.
  client.set_no_retry();
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  scripted.depth = 100;  // queue "full": every Create refused
  SessionStateMsg state;
  for (int i = 0; i < 3; ++i) {
    Status s = client.CreateSession({}, &state);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(client.last_status(), WireStatus::kBusy);
    EXPECT_EQ(client.last_retry_after_ms(), 25u);
  }
  EXPECT_EQ(scripted.controller->rejected_total(), 3u);
  EXPECT_EQ(manager.num_created(), 0u);

  // Busy is back-off, not a poisoned stream: the SAME connection still
  // answers other requests, and serves a full conversation once the queue
  // "drains" below the resume depth.
  StatsReplyMsg stats;
  EXPECT_TRUE(client.GetStats(&stats).ok());
  scripted.depth = 0;
  SimulatedOracle oracle(&c, /*target=*/2);
  ASSERT_TRUE(DriveSession(client, {}, oracle, &state).ok());
  DiscoveryResult result = ToDiscoveryResult(state.result);
  ASSERT_TRUE(result.found());
  EXPECT_EQ(result.discovered(), 2u);
}

TEST(Overload, LegacyClientsGetWellFormedBusyWithoutTheHint) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  ScriptedController scripted;
  ServerOptions server_options;
  server_options.load_controller = scripted.controller.get();
  auto server = StartServer(manager, server_options);
  scripted.depth = 100;

  // A pre-busy client (flagless CreateSession encoding): the refusal must
  // decode as a plain kBusy Error with no trailer — last_retry_after_ms
  // stays 0 and nothing corrupts the stream.
  DiscoveryClient legacy;
  legacy.set_legacy_create(true);
  ASSERT_TRUE(legacy.Connect("127.0.0.1", server->port()).ok());
  SessionStateMsg state;
  Status s = legacy.CreateSession({}, &state);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(legacy.last_status(), WireStatus::kBusy);
  EXPECT_EQ(legacy.last_retry_after_ms(), 0u);

  // Stream intact: stats still round-trip on the legacy connection.
  StatsReplyMsg stats;
  EXPECT_TRUE(legacy.GetStats(&stats).ok());

  // A current client on the same server DOES get the hint.
  DiscoveryClient fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server->port()).ok());
  ASSERT_FALSE(fresh.CreateSession({}, &state).ok());
  EXPECT_EQ(fresh.last_status(), WireStatus::kBusy);
  EXPECT_EQ(fresh.last_retry_after_ms(), 25u);
}

TEST(Overload, RefusalsLeaveInFlightConversationsByteExact) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  ScriptedController scripted;
  ServerOptions server_options;
  server_options.load_controller = scripted.controller.get();
  auto server = StartServer(manager, server_options);

  // Open the gate, start a conversation, slam the gate shut.
  DiscoveryClient in_flight;
  ASSERT_TRUE(in_flight.Connect("127.0.0.1", server->port()).ok());
  SessionStateMsg state;
  ASSERT_TRUE(in_flight.CreateSession({}, &state).ok());
  scripted.depth = 100;

  // Another client hammers Creates into refusals the whole time.
  DiscoveryClient refused;
  ASSERT_TRUE(refused.Connect("127.0.0.1", server->port()).ok());
  SessionStateMsg scratch;
  for (int i = 0; i < 5; ++i) {
    ASSERT_FALSE(refused.CreateSession({}, &scratch).ok());
    EXPECT_EQ(refused.last_status(), WireStatus::kBusy);
  }

  // The admitted session steps on, unaffected — its transcript matches the
  // in-process engine at full effort exactly.
  SimulatedOracle oracle(&c, /*target=*/4);
  int guard = 0;
  while (state.state != SessionState::kFinished && guard++ < 1000) {
    ASSERT_EQ(state.state, SessionState::kAwaitingAnswer);
    ASSERT_TRUE(in_flight
                    .Answer(state.session_id,
                            oracle.AskMembership(state.question), &state)
                    .ok());
  }
  SimulatedOracle reference_oracle(&c, /*target=*/4);
  ExpectSameResult(ToDiscoveryResult(state.result),
                   DriveInProcess(c, idx, reference_oracle, /*effort=*/0));
}

// ---------------------------------------------------------------------------
// Degradation: correctness at reduced effort
// ---------------------------------------------------------------------------

TEST(Overload, DegradedSessionsDiscoverEveryTargetWithDegradedTranscripts) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  manager.SetEffortLevel(1);  // what the controller's sink does under load

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  for (SetId target = 0; target < c.num_sets(); ++target) {
    SimulatedOracle oracle(&c, target);
    SessionStateMsg state;
    ASSERT_TRUE(DriveSession(client, {}, oracle, &state).ok());
    ASSERT_EQ(state.state, SessionState::kFinished);
    DiscoveryResult result = ToDiscoveryResult(state.result);
    // The degradation contract: a worse question, never a wrong answer.
    ASSERT_TRUE(result.found()) << "target " << target;
    EXPECT_EQ(result.discovered(), target);
    // And deterministically the 1-LP conversation, not some third thing:
    // byte-exact against an in-process session at the same effort.
    SimulatedOracle reference_oracle(&c, target);
    ExpectSameResult(result, DriveInProcess(c, idx, reference_oracle, 1));
    client.CloseSession(state.session_id);
  }
}

TEST(Overload, EffortChangesApplyAtStepEntryMidConversation) {
  SetCollection c = RandomCollection(/*seed=*/71, /*n=*/40, /*m=*/24, 0.3);
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  for (SetId target = 0; target < c.num_sets(); target += 7) {
    SimulatedOracle oracle(&c, target);
    SessionStateMsg state;
    ASSERT_TRUE(client.CreateSession({}, &state).ok());
    int step = 0;
    while (state.state != SessionState::kFinished && step++ < 1000) {
      // Whipsaw the process effort level mid-conversation; every level is
      // legal at a step boundary and the session must still converge.
      manager.SetEffortLevel(step % 3);
      ASSERT_EQ(state.state, SessionState::kAwaitingAnswer);
      ASSERT_TRUE(client
                      .Answer(state.session_id,
                              oracle.AskMembership(state.question), &state)
                      .ok());
    }
    DiscoveryResult result = ToDiscoveryResult(state.result);
    ASSERT_TRUE(result.found()) << "target " << target;
    EXPECT_EQ(result.discovered(), target);
    client.CloseSession(state.session_id);
    manager.SetEffortLevel(0);
  }
}

// ---------------------------------------------------------------------------
// Unscripted smoke: a real herd against a real controller
// ---------------------------------------------------------------------------

TEST(Overload, SaturatingHerdIsServedCorrectlyUnderRealControl) {
  SetCollection c = RandomCollection(/*seed=*/19, /*n=*/60, /*m=*/32, 0.3);
  InvertedIndex idx(c);
  SessionManagerOptions manager_options = ManagerOptions();
  manager_options.num_threads = 1;  // saturates instantly
  SessionManager manager(c, idx, manager_options);

  LoadControllerOptions controller_options;
  controller_options.tick_interval = std::chrono::milliseconds(5);
  controller_options.admit_queue_watermark = 2;
  controller_options.retry_after_ms = 1;
  controller_options.target_p99_ns = 1;  // everything is over target
  controller_options.degrade_after_ticks = 1;
  controller_options.recover_after_ticks = 1000;
  LoadController controller(
      controller_options,
      [&manager] {
        LoadSample sample;
        sample.queue_depth = manager.pool().queue_depth();
        return sample;
      },
      [&manager] { return manager.pool().queue_depth(); });
  controller.set_effort_sink(
      [&manager](int level) { manager.SetEffortLevel(level); });
  controller.Start();

  ServerOptions server_options;
  server_options.load_controller = &controller;
  auto server = StartServer(manager, server_options);

  constexpr int kClients = 8;
  constexpr int kSessionsPerClient = 3;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      DiscoveryClient client;
      if (!client.Connect("127.0.0.1", server->port()).ok()) {
        wrong.fetch_add(kSessionsPerClient);
        return;
      }
      for (int i = 0; i < kSessionsPerClient; ++i) {
        SetId target =
            static_cast<SetId>((t * 13 + i * 5) % c.num_sets());
        SimulatedOracle oracle(&c, target);
        SessionStateMsg state;
        Status s = client.CreateSession({}, &state);
        int busy_guard = 0;
        while (!s.ok() && client.last_status() == WireStatus::kBusy &&
               busy_guard++ < 100000) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          s = client.CreateSession({}, &state);
        }
        int guard = 0;
        while (s.ok() && state.state != SessionState::kFinished &&
               guard++ < 100000) {
          s = client.Answer(state.session_id,
                            oracle.AskMembership(state.question), &state);
        }
        DiscoveryResult result = ToDiscoveryResult(state.result);
        if (!s.ok() || !result.found() || result.discovered() != target) {
          wrong.fetch_add(1);
        }
        client.CloseSession(state.session_id);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  server->Shutdown();
  controller.Stop();

  // Every conversation the server agreed to serve ended in the right set —
  // degraded or not, shed or admitted, correctness is non-negotiable.
  EXPECT_EQ(wrong.load(), 0);
}

// The event loop serves cache-hit Answers in place, off the pool; those
// steps must still reach the controller's latency sensor, which reads
// setdisc_step_latency_ns (as the CLI wires it) wherever a step ran.
TEST(Overload, InlineStepsReachTheControllersLatencySensor) {
  SetCollection c = RandomCollection(/*seed=*/23, /*n=*/80, /*m=*/32, 0.3);
  InvertedIndex idx(c);
  SelectionCache cache;
  SessionManagerOptions manager_options = ManagerOptions();
  manager_options.selection_cache = &cache;
  SessionManager manager(c, idx, manager_options);
  auto server = StartServer(manager);

  // Every conversation once; returns the Answers sent.
  auto drive = [&] {
    uint64_t answers = 0;
    DiscoveryClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
    for (SetId target = 0; target < c.num_sets(); ++target) {
      SimulatedOracle oracle(&c, target);
      SessionStateMsg state;
      Status s = client.CreateSession({}, &state);
      while (s.ok() && state.state == SessionState::kAwaitingAnswer) {
        s = client.Answer(state.session_id,
                          oracle.AskMembership(state.question), &state);
        ++answers;
      }
      EXPECT_TRUE(s.ok());
      EXPECT_EQ(ToDiscoveryResult(state.result).discovered(), target);
      client.CloseSession(state.session_id);
    }
    return answers;
  };
  drive();  // warms the cache: the second pass is served mostly in place

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  LoadControllerOptions controller_options;
  controller_options.target_p99_ns = 60'000'000'000;  // senses, never acts
  LoadController controller(
      controller_options,
      [&registry] {
        LoadSample sample;
        sample.step_latency =
            registry.MergedHistogram("setdisc_step_latency_ns");
        return sample;
      },
      [] { return size_t{0}; });
  controller.Tick();  // the window starts here
  auto inline_answers = [&registry] {
    return registry
        .GetHistogram("setdisc_request_ns",
                      {{"op", "answer"}, {"path", "inline"}})
        ->Snapshot()
        .count;
  };
  const uint64_t inline_before = inline_answers();
  const uint64_t steps_before =
      registry.MergedHistogram("setdisc_step_latency_ns").count;
  const uint64_t answers = drive();
  EXPECT_GT(inline_answers(), inline_before);
  // One step per Answer, wherever it ran.
  EXPECT_EQ(registry.MergedHistogram("setdisc_step_latency_ns").count -
                steps_before,
            answers);
  ASSERT_GE(answers, controller_options.min_window_count);
  controller.Tick();
  EXPECT_GT(controller.last_window_p99_ns(), 0u);
  EXPECT_EQ(controller.effort_level(), 0);
}

}  // namespace
}  // namespace setdisc::net
