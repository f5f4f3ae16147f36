// The property the differential counting engine rests on: a session driven
// by delta-counting selectors produces byte-identical transcripts to one
// driven by full-recount selectors, for every deterministic strategy and
// every §6 configuration. Parity would break on a wrong subtraction, a
// missed invalidation (backtracking), a stale seed after a cache hit, an
// exclusion mask applied at the wrong layer, or a fingerprint-chain bug —
// so the suite runs don't-know-heavy, error/backtracking, and budget
// configs across seeds, selectors, the shared-cache composition, the
// manager level (including shrink-on-idle), and a concurrent stress (the
// TSan target for ReleaseIdleScratch racing live steps).

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/klp.h"
#include "core/selectors.h"
#include "core/weighted.h"
#include "core/weighted_klp.h"
#include "service/discovery_session.h"
#include "service/selection_cache.h"
#include "service/session_manager.h"
#include "test_util.h"

namespace setdisc {
namespace {

using namespace setdisc::testing;

void ExpectIdenticalResults(const DiscoveryResult& full,
                            const DiscoveryResult& delta) {
  EXPECT_EQ(full.candidates, delta.candidates);
  EXPECT_EQ(full.questions, delta.questions);
  EXPECT_EQ(full.backtracks, delta.backtracks);
  EXPECT_EQ(full.confirmed, delta.confirmed);
  EXPECT_EQ(full.halted, delta.halted);
  ASSERT_EQ(full.transcript.size(), delta.transcript.size());
  for (size_t i = 0; i < full.transcript.size(); ++i) {
    EXPECT_EQ(full.transcript[i].first, delta.transcript[i].first)
        << "question " << i;
    EXPECT_EQ(full.transcript[i].second, delta.transcript[i].second)
        << "answer " << i;
  }
}

DiscoveryResult RunToCompletion(DiscoverySession& session,
                                const SetCollection& c, SetId target,
                                uint64_t oracle_seed, double error_rate,
                                double dont_know_rate) {
  SimulatedOracle oracle(&c, target, error_rate, dont_know_rate, oracle_seed);
  int guard = 0;
  while (!session.done() && guard++ < 100000) {
    if (session.state() == SessionState::kAwaitingAnswer) {
      session.SubmitAnswer(oracle.AskMembership(session.NextQuestion()));
    } else {
      session.Verify(oracle.ConfirmTarget(session.PendingVerify()));
    }
  }
  EXPECT_TRUE(session.done()) << "session failed to terminate";
  return session.TakeResult();
}

struct ModePair {
  const char* label;
  std::function<std::unique_ptr<EntitySelector>(bool differential)> make;
};

std::vector<ModePair> ParitySelectors() {
  auto klp = [](int k, bool differential) {
    KlpOptions o = KlpOptions::MakeKlp(k, CostMetric::kAvgDepth);
    o.enable_delta_counting = differential;
    return std::make_unique<KlpSelector>(o);
  };
  return {
      {"MostEven", [](bool d) { return std::make_unique<MostEvenSelector>(d); }},
      {"InfoGain", [](bool d) { return std::make_unique<InfoGainSelector>(d); }},
      {"IndgPairs",
       [](bool d) {
         return std::make_unique<IndistinguishablePairsSelector>(d);
       }},
      {"Random",
       [](bool d) { return std::make_unique<RandomSelector>(1234, d); }},
      {"2-LP", [klp](bool d) { return klp(2, d); }},
      {"3-LP", [klp](bool d) { return klp(3, d); }},
      {"3-LPLE(q=4)",
       [](bool d) {
         KlpOptions o = KlpOptions::MakeKlple(3, 4, CostMetric::kAvgDepth);
         o.enable_delta_counting = d;
         return std::make_unique<KlpSelector>(o);
       }},
  };
}

void CheckDeltaParity(const DiscoveryOptions& options, double error_rate,
                      double dont_know_rate) {
  for (uint64_t seed : {401u, 402u, 403u}) {
    SetCollection c = RandomCollection(seed, /*n=*/24, /*m=*/20, 0.3);
    InvertedIndex idx(c);
    for (const ModePair& pair : ParitySelectors()) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", selector " << pair.label);
      // Selectors persist across targets on both sides: the delta side's
      // retained state must invalidate itself between unrelated
      // conversations (fingerprint mismatch), and the k-LP memo warms
      // identically on both sides.
      std::unique_ptr<EntitySelector> full_selector = pair.make(false);
      std::unique_ptr<EntitySelector> delta_selector = pair.make(true);
      for (SetId target = 0; target < c.num_sets(); ++target) {
        SCOPED_TRACE(::testing::Message() << "target " << target);
        uint64_t oracle_seed = seed * 7919 + target;
        DiscoverySession full(c, idx, {}, *full_selector, options);
        DiscoveryResult expected = RunToCompletion(
            full, c, target, oracle_seed, error_rate, dont_know_rate);
        DiscoverySession delta(c, idx, {}, *delta_selector, options);
        DiscoveryResult got = RunToCompletion(delta, c, target, oracle_seed,
                                              error_rate, dont_know_rate);
        ExpectIdenticalResults(expected, got);
      }
    }
  }
}

TEST(DeltaParityTest, PlainSessions) { CheckDeltaParity({}, 0.0, 0.0); }

TEST(DeltaParityTest, DontKnowHeavy) {
  DiscoveryOptions options;
  options.handle_dont_know = true;
  CheckDeltaParity(options, 0.0, 0.35);
}

TEST(DeltaParityTest, VerifyErrorsAndBacktracking) {
  DiscoveryOptions options;
  options.verify_and_backtrack = true;
  CheckDeltaParity(options, 0.15, 0.0);
}

TEST(DeltaParityTest, ErrorsPlusDontKnow) {
  DiscoveryOptions options;
  options.verify_and_backtrack = true;
  CheckDeltaParity(options, 0.1, 0.2);
}

TEST(DeltaParityTest, QuestionBudget) {
  DiscoveryOptions options;
  options.max_questions = 3;
  CheckDeltaParity(options, 0.0, 0.1);
}

// The weighted selectors (§7 priors) carry the same differential hooks:
// sessions driven with delta counting on must transcript-match sessions
// with it pinned off, and the delta path must actually serve (the weighting
// pass is identical either way; only the counting pass differs).
TEST(WeightedDeltaParityTest, WeightedSelectorsMatchFullRecount) {
  for (uint64_t seed : {801u, 802u}) {
    SetCollection c = RandomCollection(seed, 24, 20, 0.3);
    InvertedIndex idx(c);
    Rng wrng(seed * 13);
    std::vector<double> weights(c.num_sets());
    for (double& w : weights) w = 0.05 + wrng.UniformDouble() * 2.0;

    std::vector<DiscoveryOptions> configs(2);
    configs[1].handle_dont_know = true;
    const double dont_know_rates[] = {0.0, 0.3};

    WeightedMostEvenSelector full_me(&weights, /*differential=*/false);
    WeightedMostEvenSelector delta_me(&weights, /*differential=*/true);
    WeightedKlpOptions wk_delta;
    wk_delta.k = 2;
    WeightedKlpOptions wk_full = wk_delta;
    wk_full.enable_delta_counting = false;
    WeightedKlpSelector full_klp(&weights, wk_full);
    WeightedKlpSelector delta_klp(&weights, wk_delta);

    struct Pair {
      const char* label;
      EntitySelector* full;
      EntitySelector* delta;
    };
    for (const Pair& pair :
         {Pair{"WeightedMostEven", &full_me, &delta_me},
          Pair{"Weighted-2-LP", &full_klp, &delta_klp}}) {
      for (size_t cfg = 0; cfg < configs.size(); ++cfg) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << ", " << pair.label << ", cfg "
                     << cfg);
        for (SetId target = 0; target < c.num_sets(); target += 2) {
          SCOPED_TRACE(::testing::Message() << "target " << target);
          uint64_t oracle_seed = seed * 211 + target;
          DiscoverySession full(c, idx, {}, *pair.full, configs[cfg]);
          DiscoveryResult expected =
              RunToCompletion(full, c, target, oracle_seed, 0.0,
                              dont_know_rates[cfg]);
          DiscoverySession delta(c, idx, {}, *pair.delta, configs[cfg]);
          DiscoveryResult got =
              RunToCompletion(delta, c, target, oracle_seed, 0.0,
                              dont_know_rates[cfg]);
          ExpectIdenticalResults(expected, got);
        }
      }
    }
    // Both delta-side selectors actually served derivations, and the pinned
    // baselines never did.
    EXPECT_GT(delta_me.counting_stats().delta, 0u);
    EXPECT_GT(delta_klp.counting_stats().delta, 0u);
    EXPECT_EQ(full_me.counting_stats().delta, 0u);
    EXPECT_EQ(full_klp.counting_stats().delta, 0u);
  }
}

// Shared-cache composition: cached sessions (delta selectors inside
// CachingSelector) vs uncached full-recount sessions. Cache hits skip
// counting entirely, so the delta chain repeatedly breaks and re-seeds —
// exactly the "hits bypass, misses seed" contract.
TEST(DeltaParityTest, CachedDeltaMatchesUncachedFull) {
  SetCollection c = RandomCollection(601, 24, 20, 0.3);
  InvertedIndex idx(c);
  DiscoveryOptions options;
  options.handle_dont_know = true;
  SelectionCache cache;
  auto make_delta = [] {
    return std::make_unique<InfoGainSelector>(/*differential=*/true);
  };
  for (SetId target = 0; target < c.num_sets(); ++target) {
    uint64_t oracle_seed = 601 * 31 + target;
    InfoGainSelector full_selector(/*differential=*/false);
    DiscoverySession full(c, idx, {}, full_selector, options);
    DiscoveryResult expected =
        RunToCompletion(full, c, target, oracle_seed, 0.0, 0.2);
    // Two cached runs per target: the first mostly misses (seeding both the
    // cache and the delta chains), the second mostly hits (bypassing them).
    for (int round = 0; round < 2; ++round) {
      CachingSelector cached(make_delta(), &cache);
      DiscoverySession delta(c, idx, {}, cached, options);
      DiscoveryResult got =
          RunToCompletion(delta, c, target, oracle_seed, 0.0, 0.2);
      ExpectIdenticalResults(expected, got);
    }
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

// ---------------------------------------------------------------------------
// SessionManager shrink-on-idle (the Release() satellite).

/// Selector decorator that counts ReleaseMemory calls (the manager plumbing
/// under test) while delegating everything else.
class ReleaseProbeSelector : public EntitySelector {
 public:
  ReleaseProbeSelector(std::unique_ptr<EntitySelector> inner,
                       std::atomic<int>* releases)
      : inner_(std::move(inner)), releases_(releases) {}
  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded) override {
    return inner_->Select(sub, excluded);
  }
  std::string_view name() const override { return inner_->name(); }
  void NotePartition(const SubCollection& parent, EntityId e,
                     bool kept_contains, const SubCollection& kept,
                     SubCollection dropped) override {
    inner_->NotePartition(parent, e, kept_contains, kept, std::move(dropped));
  }
  void InvalidateCountState() override { inner_->InvalidateCountState(); }
  void ReleaseMemory() override {
    releases_->fetch_add(1);
    inner_->ReleaseMemory();
  }

 private:
  std::unique_ptr<EntitySelector> inner_;
  std::atomic<int>* releases_;
};

TEST(ReleaseIdleScratchTest, IdleSessionsAreShrunkOnceAndStayCorrect) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  std::atomic<int> releases{0};
  SessionManagerOptions options;
  options.background_reap = false;  // drive the pass by hand
  options.release_scratch_after = std::chrono::milliseconds(5);
  options.selector_factory = [&releases] {
    return std::make_unique<ReleaseProbeSelector>(
        std::make_unique<KlpSelector>(
            KlpOptions::MakeKlp(2, CostMetric::kAvgDepth)),
        &releases);
  };
  SessionManager manager(c, idx, options);
  const std::vector<EntityId> seed_a = {kA};
  SessionView a = manager.Create(seed_a);
  SessionView b = manager.Create(seed_a);
  ASSERT_EQ(a.state, SessionState::kAwaitingAnswer);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(manager.ReleaseIdleScratch(), 2u);
  EXPECT_EQ(releases.load(), 2);
  // A second pass without touches is a no-op (released flag).
  EXPECT_EQ(manager.ReleaseIdleScratch(), 0u);
  // Touching a session re-arms its release and the conversation continues
  // correctly on a cold counting state.
  SimulatedOracle oracle(&c, 2);
  SessionView done = manager.Drive(a, oracle);
  EXPECT_EQ(done.state, SessionState::kFinished);
  EXPECT_EQ(done.result.discovered(), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(manager.ReleaseIdleScratch(), 1u);  // only b is still live
  manager.Close(b.id);
}

TEST(ReleaseIdleScratchTest, DisabledByDefault) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManagerOptions options;
  options.background_reap = false;
  options.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
  SessionManager manager(c, idx, options);
  const std::vector<EntityId> seed_a = {kA};
  manager.Create(seed_a);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(manager.ReleaseIdleScratch(), 0u);
}

// Transcript parity while a reaper thread aggressively releases scratch
// under live traffic — the TSan target for ReleaseMemory racing steps.
TEST(DeltaParityTest, ConcurrentStressWithScratchRelease) {
  SetCollection c = RandomCollection(701, 32, 24, 0.3);
  InvertedIndex idx(c);
  SelectionCache cache;
  SessionManagerOptions options;
  options.num_threads = 4;
  options.selection_cache = &cache;
  options.background_reap = true;
  options.session_ttl = std::chrono::minutes(1);
  options.release_scratch_after = std::chrono::milliseconds(1);
  options.reap_interval = std::chrono::milliseconds(2);
  options.discovery.handle_dont_know = true;
  options.selector_factory = [] {
    return std::make_unique<InfoGainSelector>(/*differential=*/true);
  };
  SessionManager manager(c, idx, options);

  // Reference transcripts, computed single-threaded with full recounts.
  std::vector<DiscoveryResult> expected;
  for (SetId target = 0; target < c.num_sets(); ++target) {
    InfoGainSelector full_selector(false);
    DiscoverySession session(c, idx, {}, full_selector,
                             options.discovery);
    expected.push_back(RunToCompletion(session, c, target, 900 + target, 0.0,
                                       0.25));
  }

  const int kSessions = 64;
  std::vector<std::future<bool>> jobs;
  for (int i = 0; i < kSessions; ++i) {
    SetId target = static_cast<SetId>(i % c.num_sets());
    jobs.push_back(std::async(std::launch::async, [&, target] {
      SimulatedOracle oracle(&c, target, 0.0, 0.25, 900 + target);
      SessionView view = manager.Create({});
      int guard = 0;
      while (view.state != SessionState::kFinished && guard++ < 100000) {
        SessionStatus status;
        if (view.state == SessionState::kAwaitingAnswer) {
          status = manager.SubmitAnswer(
              view.id, oracle.AskMembership(view.question), &view);
        } else {
          status = manager.Verify(view.id,
                                  oracle.ConfirmTarget(view.verify_set), &view);
        }
        if (status != SessionStatus::kOk) return false;
        // Give the reaper room to shrink this session mid-conversation.
        if (guard % 3 == 0) std::this_thread::yield();
      }
      const DiscoveryResult& want = expected[target];
      return view.result.transcript == want.transcript &&
             view.result.candidates == want.candidates;
    }));
  }
  for (auto& job : jobs) EXPECT_TRUE(job.get());
}

}  // namespace
}  // namespace setdisc
