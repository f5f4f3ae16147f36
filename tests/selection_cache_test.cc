// Tests for the cross-session selection cache: SelectionCache unit behavior
// (round trips, key separation, the CLOCK bound and its counters), and the
// randomized parity property the whole design rests on — a cached session
// and an uncached session over the same collection must produce identical
// question/answer transcripts for every deterministic selector. Parity would
// break on fingerprint collisions, stale entries, or any cache/selector
// disagreement, so it runs across N seeds x {InfoGain, MostEven, 2-LP} with
// don't-know and error rates exercising the exclusion and backtracking
// paths.

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/klp.h"
#include "core/selectors.h"
#include "core/weighted.h"
#include "service/discovery_session.h"
#include "service/selection_cache.h"
#include "test_util.h"

namespace setdisc {
namespace {

using namespace setdisc::testing;

// ---------------------------------------------------------------------------
// SelectionCache unit behavior
// ---------------------------------------------------------------------------

TEST(SelectionCache, InsertLookupRoundTrip) {
  SelectionCache cache;
  SelectionKey key{0x1111, 0x2222, 0x3333};
  EntityId out = kNoEntity;
  EXPECT_FALSE(cache.Lookup(key, &out));
  cache.Insert(key, 42);
  ASSERT_TRUE(cache.Lookup(key, &out));
  EXPECT_EQ(out, 42u);
  EXPECT_EQ(cache.size(), 1u);

  SelectionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(SelectionCache, EveryKeyComponentSeparatesEntries) {
  SelectionCache cache;
  SelectionKey base{0x1111, 0x2222, 0x3333, 0x4444};
  cache.Insert(base, 1);
  for (SelectionKey variant : {SelectionKey{0x9999, 0x2222, 0x3333, 0x4444},
                               SelectionKey{0x1111, 0x9999, 0x3333, 0x4444},
                               SelectionKey{0x1111, 0x2222, 0x9999, 0x4444},
                               SelectionKey{0x1111, 0x2222, 0x3333, 0x9999}}) {
    EntityId out = kNoEntity;
    EXPECT_FALSE(cache.Lookup(variant, &out));
    cache.Insert(variant, 2);
  }
  EntityId out = kNoEntity;
  ASSERT_TRUE(cache.Lookup(base, &out));
  EXPECT_EQ(out, 1u);
  EXPECT_EQ(cache.size(), 5u);
}

TEST(SelectionCache, CachesTheNoEntityDecision) {
  // "No informative entity" is a deterministic outcome too.
  SelectionCache cache;
  SelectionKey key{7, 8, 9};
  cache.Insert(key, kNoEntity);
  EntityId out = 123;
  ASSERT_TRUE(cache.Lookup(key, &out));
  EXPECT_EQ(out, kNoEntity);
}

TEST(SelectionCache, ReinsertOverwritesInPlace) {
  SelectionCache cache;
  SelectionKey key{1, 2, 3};
  cache.Insert(key, 10);
  cache.Insert(key, 20);
  EntityId out = kNoEntity;
  ASSERT_TRUE(cache.Lookup(key, &out));
  EXPECT_EQ(out, 20u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SelectionCache, CapacityBoundsEntriesAndCountsEvictions) {
  SelectionCacheOptions options;
  options.capacity = 8;
  options.num_shards = 1;
  SelectionCache cache(options);
  EXPECT_EQ(cache.capacity(), 8u);
  for (uint64_t i = 0; i < 40; ++i) {
    cache.Insert(SelectionKey{FingerprintMix(i), 0, 0},
                 static_cast<EntityId>(i));
  }
  EXPECT_LE(cache.size(), 8u);
  SelectionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 40u);
  EXPECT_EQ(stats.evictions, 40u - cache.size());
}

TEST(SelectionCache, ClockGivesReferencedEntriesASecondChance) {
  SelectionCacheOptions options;
  options.capacity = 4;
  options.num_shards = 1;
  SelectionCache cache(options);
  auto key = [](uint64_t i) { return SelectionKey{FingerprintMix(i), 0, 0}; };
  for (uint64_t i = 0; i < 4; ++i) cache.Insert(key(i), EntityId(i));
  cache.Insert(key(100), 100);  // full sweep: evicts entry 0
  EntityId out = kNoEntity;
  EXPECT_FALSE(cache.Lookup(key(0), &out));
  // Touch entry 1, then insert again: the sweep must skip the referenced
  // entry 1 and take entry 2 instead.
  ASSERT_TRUE(cache.Lookup(key(1), &out));
  cache.Insert(key(101), 101);
  EXPECT_TRUE(cache.Lookup(key(1), &out));
  EXPECT_FALSE(cache.Lookup(key(2), &out));
}

TEST(SelectionCache, ClearDropsEntriesKeepsCounters) {
  SelectionCache cache;
  cache.Insert(SelectionKey{1, 2, 3}, 4);
  EntityId out;
  ASSERT_TRUE(cache.Lookup(SelectionKey{1, 2, 3}, &out));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(SelectionKey{1, 2, 3}, &out));
  SelectionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(SelectionCache, SelectorTagsDistinguishNames) {
  EXPECT_NE(SelectionCache::SelectorTag("InfoGain"),
            SelectionCache::SelectorTag("MostEven"));
  EXPECT_NE(SelectionCache::SelectorTag("2-LP(AD)"),
            SelectionCache::SelectorTag("2-LP(H)"));
  EXPECT_EQ(SelectionCache::SelectorTag("InfoGain"),
            SelectionCache::SelectorTag("InfoGain"));
}

TEST(SelectionCache, WeightedSelectorsFingerprintTheirPriors) {
  // Two weighted selectors share a name but not necessarily a prior; their
  // DecisionFingerprint (the selector key component) must track the weights
  // or a shared cache would replay one prior's decisions for the other.
  std::vector<double> w1 = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  std::vector<double> w2 = {9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  WeightedMostEvenSelector a(&w1), b(&w2), c(&w1);
  EXPECT_EQ(a.name(), b.name());
  EXPECT_NE(a.DecisionFingerprint(), b.DecisionFingerprint());
  EXPECT_EQ(a.DecisionFingerprint(), c.DecisionFingerprint());
  // And they differ from the unweighted default (name-only) fingerprints.
  MostEvenSelector plain;
  EXPECT_NE(a.DecisionFingerprint(), plain.DecisionFingerprint());
  EXPECT_EQ(plain.DecisionFingerprint(),
            SelectionCache::SelectorTag(plain.name()));
}

TEST(CachingSelector, SecondSelectorHitsWhatTheFirstMemoized) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  SelectionCache cache;

  CachingSelector first(std::make_unique<InfoGainSelector>(), &cache);
  EntityId chosen = first.Select(full);
  ASSERT_NE(chosen, kNoEntity);

  // A different session's decorator over the same cache must hit.
  CachingSelector second(std::make_unique<InfoGainSelector>(), &cache);
  EXPECT_EQ(second.Select(full), chosen);
  SelectionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // A different selector name over the same state must NOT hit.
  CachingSelector other(std::make_unique<MostEvenSelector>(), &cache);
  other.Select(full);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// TrySelectCached serves what the cache holds as that decision's one
// lookup, and on a miss counts nothing, so the Select() that follows it
// keeps hits + misses == lookups with one lookup per decision.
TEST(CachingSelector, TrySelectCachedCountsOnlyAHit) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  SelectionCache cache;
  CachingSelector selector(std::make_unique<MostEvenSelector>(), &cache);

  EntityId out = kNoEntity;
  EXPECT_FALSE(selector.TrySelectCached(full, nullptr, &out));
  EXPECT_EQ(cache.stats().lookups, 0u);
  const EntityId chosen = selector.Select(full);  // the miss, counted once
  ASSERT_TRUE(selector.TrySelectCached(full, nullptr, &out));
  EXPECT_EQ(out, chosen);
  SelectionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // A state the admission policy bypasses is never served from the cache.
  SelectionCacheOptions options;
  options.skip_singleton_exclusions = true;
  SelectionCache skipping(options);
  CachingSelector bypassing(std::make_unique<MostEvenSelector>(), &skipping);
  EntityExclusion one;
  one.Set(chosen);
  bypassing.Select(full, &one);
  EXPECT_FALSE(bypassing.TrySelectCached(full, &one, &out));
  EXPECT_EQ(skipping.stats().lookups, 0u);
  EXPECT_EQ(skipping.stats().bypasses, 1u);
}

TEST(CachingSelector, DifferentCollectionsNeverCrossHit) {
  // Set ids are dense per collection, so the Fig. 1 collection and its §4.3
  // variant C2 have identical sub-collection fingerprints for Full(); the
  // collection fingerprint in the key must keep their decisions apart.
  SetCollection c1 = MakePaperCollection();
  SetCollection c2 = MakePaperCollectionC2();
  ASSERT_EQ(c1.num_sets(), c2.num_sets());
  ASSERT_NE(c1.Fingerprint(), c2.Fingerprint());
  SubCollection full1 = SubCollection::Full(&c1);
  SubCollection full2 = SubCollection::Full(&c2);
  ASSERT_EQ(full1.Fingerprint(), full2.Fingerprint());

  SelectionCache cache;
  CachingSelector first(std::make_unique<MostEvenSelector>(), &cache);
  first.Select(full1);
  CachingSelector second(std::make_unique<MostEvenSelector>(), &cache);
  second.Select(full2);
  SelectionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);  // the second collection must not hit the first
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(cache.size(), 2u);

  // Identical content rebuilt from scratch DOES share entries (reload-safe).
  SetCollection c1_again = MakePaperCollection();
  EXPECT_EQ(c1_again.Fingerprint(), c1.Fingerprint());
  SubCollection full1_again = SubCollection::Full(&c1_again);
  CachingSelector third(std::make_unique<MostEvenSelector>(), &cache);
  third.Select(full1_again);
  EXPECT_EQ(cache.stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// Randomized parity: cached vs uncached transcripts, byte for byte
// ---------------------------------------------------------------------------

void ExpectIdenticalResults(const DiscoveryResult& plain,
                            const DiscoveryResult& cached) {
  EXPECT_EQ(plain.candidates, cached.candidates);
  EXPECT_EQ(plain.questions, cached.questions);
  EXPECT_EQ(plain.backtracks, cached.backtracks);
  EXPECT_EQ(plain.confirmed, cached.confirmed);
  EXPECT_EQ(plain.halted, cached.halted);
  ASSERT_EQ(plain.transcript.size(), cached.transcript.size());
  for (size_t i = 0; i < plain.transcript.size(); ++i) {
    EXPECT_EQ(plain.transcript[i].first, cached.transcript[i].first)
        << "question " << i;
    EXPECT_EQ(plain.transcript[i].second, cached.transcript[i].second)
        << "answer " << i;
  }
}

DiscoveryResult RunStepwise(const SetCollection& c, const InvertedIndex& idx,
                            EntitySelector& selector, SetId target,
                            uint64_t oracle_seed,
                            const DiscoveryOptions& options, double error_rate,
                            double dont_know_rate) {
  SimulatedOracle oracle(&c, target, error_rate, dont_know_rate, oracle_seed);
  DiscoverySession session(c, idx, {}, selector, options);
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

struct NamedFactory {
  const char* label;
  std::function<std::unique_ptr<EntitySelector>()> make;
};

std::vector<NamedFactory> ParityFactories() {
  return {
      {"InfoGain", [] { return std::make_unique<InfoGainSelector>(); }},
      {"MostEven", [] { return std::make_unique<MostEvenSelector>(); }},
      {"2-LP",
       [] {
         return std::make_unique<KlpSelector>(
             KlpOptions::MakeKlp(2, CostMetric::kAvgDepth));
       }},
  };
}

void CheckRandomizedParity(const DiscoveryOptions& options, double error_rate,
                           double dont_know_rate) {
  for (uint64_t seed : {101u, 202u, 303u, 404u, 505u}) {
    SetCollection c = RandomCollection(seed, /*n=*/24, /*m=*/20, 0.3);
    InvertedIndex idx(c);
    for (const NamedFactory& factory : ParityFactories()) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", selector " << factory.label);
      // One shared cache per (collection, selector), warmed across every
      // target and replay round — exactly the serving shape.
      SelectionCache cache;
      for (SetId target = 0; target < c.num_sets(); ++target) {
        SCOPED_TRACE(::testing::Message() << "target " << target);
        uint64_t oracle_seed = seed * 7919 + target;
        std::unique_ptr<EntitySelector> plain_selector = factory.make();
        DiscoveryResult plain =
            RunStepwise(c, idx, *plain_selector, target, oracle_seed, options,
                        error_rate, dont_know_rate);
        // Round 0 populates the memo, round 1 replays mostly from it; both
        // must match the uncached transcript exactly.
        for (int round = 0; round < 2; ++round) {
          SCOPED_TRACE(::testing::Message() << "cached round " << round);
          CachingSelector cached(factory.make(), &cache);
          DiscoveryResult got =
              RunStepwise(c, idx, cached, target, oracle_seed, options,
                          error_rate, dont_know_rate);
          ExpectIdenticalResults(plain, got);
        }
      }
      SelectionCacheStats stats = cache.stats();
      EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
      EXPECT_GT(stats.hits, 0u) << "replay rounds never hit the cache";
    }
  }
}

TEST(SelectionCacheParity, CleanAnswers) {
  CheckRandomizedParity(DiscoveryOptions{}, 0.0, 0.0);
}

TEST(SelectionCacheParity, DontKnowAnswersExerciseExclusionFingerprints) {
  CheckRandomizedParity(DiscoveryOptions{}, 0.0, 0.25);
}

TEST(SelectionCacheParity, ErrorsAndBacktrackingWithDontKnows) {
  DiscoveryOptions options;
  options.verify_and_backtrack = true;
  CheckRandomizedParity(options, 0.15, 0.15);
}

TEST(SelectionCacheParity, DontKnowTreatedAsNo) {
  DiscoveryOptions options;
  options.handle_dont_know = false;
  CheckRandomizedParity(options, 0.0, 0.25);
}

// ---------------------------------------------------------------------------
// One-shot admission policy (skip_singleton_exclusions)
// ---------------------------------------------------------------------------

TEST(EntityExclusion, NumExcludedIsMaintainedIncrementally) {
  EntityExclusion mask;
  EXPECT_EQ(mask.num_excluded(), 0u);
  mask.Set(3);
  mask.Set(3);  // idempotent
  EXPECT_EQ(mask.num_excluded(), 1u);
  mask.Set(7);
  mask[9] = true;  // write proxy path
  EXPECT_EQ(mask.num_excluded(), 3u);
  mask.Set(7, false);
  EXPECT_EQ(mask.num_excluded(), 2u);
  mask.resize(4);  // drops bit 9
  EXPECT_EQ(mask.num_excluded(), 1u);
  mask.resize(6, true);  // grows two excluded bits
  EXPECT_EQ(mask.num_excluded(), 3u);
  mask.clear();
  EXPECT_EQ(mask.num_excluded(), 0u);
  EXPECT_EQ(mask.Fingerprint(), 0u);
}

TEST(AdmissionPolicy, SingletonExclusionStatesBypassTheCache) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  SelectionCacheOptions options;
  options.skip_singleton_exclusions = true;
  SelectionCache cache(options);
  CachingSelector selector(std::make_unique<MostEvenSelector>(), &cache);

  // No exclusions: cached as usual.
  selector.Select(full);
  EXPECT_EQ(cache.stats().lookups, 1u);
  EXPECT_EQ(cache.stats().bypasses, 0u);
  EXPECT_EQ(cache.size(), 1u);

  // Singleton mask: bypassed — no lookup, no insert, counted.
  EntityExclusion one;
  one.Set(kA);
  selector.Select(full, &one);
  EXPECT_EQ(cache.stats().lookups, 1u);
  EXPECT_EQ(cache.stats().bypasses, 1u);
  EXPECT_EQ(cache.size(), 1u);

  // Two exclusions: admitted again.
  one.Set(kB);
  selector.Select(full, &one);
  SelectionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.bypasses, 1u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_EQ(cache.size(), 2u);

  // The bypassed decision itself is still correct (same as uncached).
  MostEvenSelector plain;
  EntityExclusion again;
  again.Set(kA);
  EXPECT_EQ(selector.Select(full, &again), plain.Select(full, &again));
}

TEST(AdmissionPolicy, ParityHoldsWithOneShotSkipEnabled) {
  // The full §6 machinery (don't-know exclusions + backtracking) over a
  // policy-on cache: transcripts must still match the uncached session
  // byte for byte, and singleton states must actually get bypassed.
  DiscoveryOptions options;
  options.verify_and_backtrack = true;
  for (uint64_t seed : {11u, 22u}) {
    SetCollection c = RandomCollection(seed, /*n=*/24, /*m=*/20, 0.3);
    InvertedIndex idx(c);
    SelectionCacheOptions cache_options;
    cache_options.skip_singleton_exclusions = true;
    SelectionCache cache(cache_options);
    for (SetId target = 0; target < c.num_sets(); ++target) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " target "
                                        << target);
      uint64_t oracle_seed = seed * 131 + target;
      MostEvenSelector plain;
      DiscoveryResult expected = RunStepwise(c, idx, plain, target, oracle_seed,
                                             options, 0.1, 0.3);
      for (int round = 0; round < 2; ++round) {
        CachingSelector cached(std::make_unique<MostEvenSelector>(), &cache);
        DiscoveryResult got = RunStepwise(c, idx, cached, target, oracle_seed,
                                          options, 0.1, 0.3);
        ExpectIdenticalResults(expected, got);
      }
    }
    SelectionCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
    EXPECT_GT(stats.bypasses, 0u) << "don't-know runs never hit a singleton";
    EXPECT_GT(stats.hits, 0u);
  }
}

TEST(AdmissionPolicy, HitRateDoesNotRegressOnAOneShotHeavyWorkload) {
  // Distinct oracle seeds per session make singleton-exclusion states
  // (first don't-know of a conversation) effectively unique — the one-shot
  // traffic the policy exists for. Run the identical workload through a
  // policy-off and a policy-on cache: the state stream is identical
  // (transcripts are cache-independent), so lookups must split exactly into
  // admitted lookups + bypasses, and the hit rate over admitted traffic
  // must not regress.
  SetCollection c = RandomCollection(77, /*n=*/24, /*m=*/20, 0.3);
  InvertedIndex idx(c);
  SelectionCache cache_off;
  SelectionCacheOptions on_options;
  on_options.skip_singleton_exclusions = true;
  SelectionCache cache_on(on_options);

  for (int session = 0; session < 40; ++session) {
    SetId target = static_cast<SetId>(session % c.num_sets());
    uint64_t oracle_seed = 5000 + static_cast<uint64_t>(session) * 7919;
    CachingSelector off(std::make_unique<MostEvenSelector>(), &cache_off);
    DiscoveryResult result_off = RunStepwise(c, idx, off, target, oracle_seed,
                                             DiscoveryOptions{}, 0.0, 0.35);
    CachingSelector on(std::make_unique<MostEvenSelector>(), &cache_on);
    DiscoveryResult result_on = RunStepwise(c, idx, on, target, oracle_seed,
                                            DiscoveryOptions{}, 0.0, 0.35);
    ExpectIdenticalResults(result_off, result_on);
  }

  SelectionCacheStats off = cache_off.stats();
  SelectionCacheStats on = cache_on.stats();
  EXPECT_EQ(off.bypasses, 0u);
  EXPECT_GT(on.bypasses, 0u);
  // Identical decision streams: every bypassed state was a lookup when
  // everything was admitted.
  EXPECT_EQ(off.lookups, on.lookups + on.bypasses);
  // The policy never inserts what it bypasses; the gap is the number of
  // DISTINCT bypassed states (an occasionally repeating singleton state is
  // inserted once under admit-all but bypassed on every occurrence here).
  EXPECT_LE(on.insertions, off.insertions);
  EXPECT_LE(off.insertions - on.insertions, on.bypasses);
  EXPECT_GT(on.hits, 0u);
  // One-shot states are (near-)guaranteed misses; skipping them must not
  // lower the measured hit rate of the surviving traffic.
  EXPECT_GE(on.HitRate() + 1e-9, off.HitRate());
}

}  // namespace
}  // namespace setdisc
