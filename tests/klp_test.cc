// Tests for Algorithm 1 (k-LP) and its variants. The central property: the
// pruned, memoized search returns exactly the same k-step bound as the
// unpruned exhaustive reference (Lemma 4.4 safety), and with k >= n it
// matches the exact optimal tree cost (§4.4.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "core/bounds.h"
#include "core/klp.h"
#include "core/weighted_klp.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/rng.h"

namespace setdisc {
namespace {

using namespace setdisc::testing;

// A collection built to repeat splits: every set carries 1-3 entities of
// its own (count-1 postings, which all split off that one set), and a third
// of the shared entities get a complement entity holding exactly the sets
// without them (the same split, halves swapped).
SetCollection DuplicateSplitCollection(uint64_t seed, uint32_t n, uint32_t m,
                                       double density) {
  Rng rng(seed);
  std::vector<std::vector<EntityId>> sets(n);
  for (auto& set : sets) {
    for (EntityId e = 0; e < m; ++e) {
      if (rng.Bernoulli(density)) set.push_back(e);
    }
  }
  for (EntityId e = 0; e < m / 3; ++e) {
    for (auto& set : sets) {
      if (std::find(set.begin(), set.end(), e) == set.end()) {
        set.push_back(m + e);
      }
    }
  }
  EntityId fresh = m + m / 3;
  for (auto& set : sets) {
    const uint64_t own = 1 + rng.Uniform(3);
    for (uint64_t i = 0; i < own; ++i) set.push_back(fresh++);
  }
  SetCollectionBuilder builder;
  for (auto& set : sets) {
    std::sort(set.begin(), set.end());
    builder.AddSet(std::move(set));
  }
  return builder.Build();
}

/// The fused leaf scans' reference: count the child from scratch and take
/// the most even informative entity, lowest id on ties.
LeafPick ReferenceLeaf(const SubCollection& child,
                       const EntityExclusion* excluded) {
  EntityCounter counter;
  std::vector<EntityCount> counts;
  counter.CountInformative(child, &counts, excluded);
  LeafPick pick;
  const uint64_t n = child.size();
  for (const EntityCount& ec : counts) {  // ascending ids: strict < keeps ties
    const uint64_t imb = ec.count * 2 > n ? ec.count * 2 - n : n - ec.count * 2;
    if (imb < pick.imbalance) pick = {ec.entity, ec.count, imb};
  }
  return pick;
}

/// Runs both leaf scans on the two halves of `parent` split on `e`, with
/// `parent`'s candidate list in most-even order, the way k-LP's last level
/// sees them.
std::pair<LeafPick, LeafPick> LeafScans(const SubCollection& parent,
                                        EntityId e,
                                        const EntityExclusion* excluded,
                                        const SubCollection** small_out,
                                        const SubCollection** large_out,
                                        std::pair<SubCollection, SubCollection>*
                                            halves) {
  *halves = parent.Partition(e);
  const bool in_is_small = halves->first.size() <= halves->second.size();
  const SubCollection& small = in_is_small ? halves->first : halves->second;
  const SubCollection& large = in_is_small ? halves->second : halves->first;
  *small_out = &small;
  *large_out = &large;
  EntityCounter parent_counter;
  std::vector<EntityCount> order;
  parent_counter.CountInformative(parent, &order, excluded);
  const uint64_t n = parent.size();
  std::sort(order.begin(), order.end(),
            [n](const EntityCount& a, const EntityCount& b) {
              const uint64_t ia = a.count * 2 > n ? a.count * 2 - n
                                                  : n - a.count * 2;
              const uint64_t ib = b.count * 2 > n ? b.count * 2 - n
                                                  : n - b.count * 2;
              return ia != ib ? ia < ib : a.entity < b.entity;
            });
  EntityCounter small_counter;
  small_counter.CountDense(small);
  LeafPick small_pick = MostEvenSmallerHalf(
      small_counter.touched(), small_counter.dense(), small.size(), excluded);
  LeafPick large_pick =
      MostEvenLargerHalf(order, /*most_even_order=*/true,
                         small_counter.dense(), small.size(), large.size(),
                         /*stop_imbalance=*/UINT64_MAX);
  return {small_pick, large_pick};
}

TEST(KlpOptions, PresetsAndNames) {
  KlpSelector klp(KlpOptions::MakeKlp(2, CostMetric::kAvgDepth));
  EXPECT_EQ(klp.name(), "2-LP(AD)");
  KlpSelector klple(KlpOptions::MakeKlple(3, 10, CostMetric::kAvgDepth));
  EXPECT_EQ(klple.name(), "3-LPLE(q=10,AD)");
  KlpSelector klplve(KlpOptions::MakeKlplve(3, 10, CostMetric::kHeight));
  EXPECT_EQ(klplve.name(), "3-LPLVE(q=10,H)");
  KlpSelector gaink(KlpOptions::MakeGainK(2, CostMetric::kHeight));
  EXPECT_EQ(gaink.name(), "Gain-2(H)");
  KlpSelector opt(KlpOptions::MakeOptimal(CostMetric::kAvgDepth));
  EXPECT_EQ(opt.name(), "Optimal(AD)");
}

TEST(Klp, SingletonCollectionNeedsNoQuestion) {
  SetCollection c = MakePaperCollection();
  SubCollection one(&c, {4});
  KlpSelector klp(KlpOptions::MakeKlp(2, CostMetric::kAvgDepth));
  EXPECT_EQ(klp.Select(one), kNoEntity);
}

TEST(Klp, PaperCollectionHeightMetricSelectsPruningPivot) {
  // §4.3: with metric H and k = 3, d reaches LB_H3 = 3; c ties at the
  // 1-step level but k-LP must return an entity achieving bound 3.
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  KlpSelector klp(KlpOptions::MakeKlp(3, CostMetric::kHeight));
  KlpSelection sel = klp.SelectWithBound(full, kInfiniteCost);
  ASSERT_NE(sel.entity, kNoEntity);
  EXPECT_EQ(sel.bound, 3);
  EntityCounter counter;
  EXPECT_EQ(LbKForEntity(full, sel.entity, 3, CostMetric::kHeight, counter),
            3);
}

TEST(Klp, SelectionBoundMatchesReferenceBoundForThatEntity) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  EntityCounter counter;
  for (CostMetric metric : {CostMetric::kAvgDepth, CostMetric::kHeight}) {
    for (int k = 1; k <= 4; ++k) {
      KlpSelector klp(KlpOptions::MakeKlp(k, metric));
      KlpSelection sel = klp.SelectWithBound(full, kInfiniteCost);
      ASSERT_NE(sel.entity, kNoEntity);
      EXPECT_EQ(sel.bound, LbKForEntity(full, sel.entity, k, metric, counter))
          << "k=" << k;
    }
  }
}

TEST(Klp, UpperLimitAtOrBelowBestBoundReturnsNoEntity) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  KlpSelector klp(KlpOptions::MakeKlp(3, CostMetric::kHeight));
  // Best achievable is 3; a limit of 3 (exclusive) admits nothing.
  KlpSelection sel = klp.SelectWithBound(full, 3);
  EXPECT_EQ(sel.entity, kNoEntity);
  // A limit of 4 admits the bound-3 entity.
  KlpSelection sel2 = klp.SelectWithBound(full, 4);
  EXPECT_NE(sel2.entity, kNoEntity);
  EXPECT_EQ(sel2.bound, 3);
}

TEST(Klp, MemoizationIsConsistentAcrossRepeatedCalls) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  KlpSelector klp(KlpOptions::MakeKlp(3, CostMetric::kAvgDepth));
  KlpSelection first = klp.SelectWithBound(full, kInfiniteCost);
  EXPECT_GT(klp.cache_size(), 0u);
  KlpSelection second = klp.SelectWithBound(full, kInfiniteCost);
  EXPECT_EQ(first.entity, second.entity);
  EXPECT_EQ(first.bound, second.bound);
  uint64_t hits = klp.stats().cache_hits;
  EXPECT_GT(hits, 0u);
  klp.ClearCache();
  EXPECT_EQ(klp.cache_size(), 0u);
  KlpSelection third = klp.SelectWithBound(full, kInfiniteCost);
  EXPECT_EQ(first.entity, third.entity);
  EXPECT_EQ(first.bound, third.bound);
}

TEST(Klp, TightThenLooseLimitRecomputesCorrectly) {
  // A pruned (entity = null) cache entry must not satisfy a later call with
  // a laxer limit (Algorithm 1 lines 3-6).
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  KlpSelector klp(KlpOptions::MakeKlp(3, CostMetric::kHeight));
  KlpSelection tight = klp.SelectWithBound(full, 2);  // nothing below 2
  EXPECT_EQ(tight.entity, kNoEntity);
  KlpSelection loose = klp.SelectWithBound(full, kInfiniteCost);
  ASSERT_NE(loose.entity, kNoEntity);
  EXPECT_EQ(loose.bound, 3);
}

TEST(Klp, ExclusionsBypassCacheAndAvoidEntities) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  KlpSelector klp(KlpOptions::MakeKlp(2, CostMetric::kHeight));
  EntityId unrestricted = klp.Select(full);
  ASSERT_NE(unrestricted, kNoEntity);
  EntityExclusion excluded(c.universe_size(), false);
  excluded[unrestricted] = true;
  EntityId other = klp.Select(full, &excluded);
  EXPECT_NE(other, unrestricted);
  EXPECT_NE(other, kNoEntity);
}

TEST(Klp, StatsAccumulateAndReset) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  KlpOptions opts = KlpOptions::MakeKlp(2, CostMetric::kAvgDepth);
  opts.record_per_node_stats = true;
  KlpSelector klp(opts);
  klp.Select(full);
  EXPECT_EQ(klp.stats().per_node.size(), 1u);
  EXPECT_EQ(klp.stats().per_node[0].candidates, 10u);  // b..k informative
  EXPECT_GT(klp.stats().recursive_calls, 0u);
  klp.ResetStats();
  EXPECT_EQ(klp.stats().per_node.size(), 0u);
  EXPECT_EQ(klp.stats().recursive_calls, 0u);
}

TEST(Klp, SelectNotesItsTopNodeOnTheActiveStep) {
  SetCollection c = RandomCollection(99, 40, 120, 0.3);
  SubCollection full = SubCollection::Full(&c);
  KlpOptions opts = KlpOptions::MakeKlp(2, CostMetric::kAvgDepth);
  opts.record_per_node_stats = true;
  KlpSelector klp(opts);
  obs::PhaseAccum accum;
  {
    obs::PhaseScope scope(&accum);
    klp.Select(full);
  }
  const NodeStats& node = klp.stats().per_node.at(0);
  EXPECT_EQ(accum.lookahead.sets, full.size());
  EXPECT_EQ(accum.lookahead.candidates, node.candidates);
  EXPECT_EQ(accum.lookahead.evaluated, node.fully_evaluated);
  EXPECT_EQ(accum.lookahead.duplicates, node.pruned_by_duplicate);
  // No step context installed: nothing to record into, and nothing breaks.
  EXPECT_NE(klp.Select(full), kNoEntity);
}

TEST(Klp, PruningActuallyPrunes) {
  // On a collection with many entities, most candidates should never be
  // fully evaluated (this is the paper's headline §5.3.3 claim).
  SetCollection c = RandomCollection(99, 40, 120, 0.3);
  SubCollection full = SubCollection::Full(&c);
  KlpOptions opts = KlpOptions::MakeKlp(2, CostMetric::kAvgDepth);
  opts.record_per_node_stats = true;
  KlpSelector klp(opts);
  klp.Select(full);
  const NodeStats& node = klp.stats().per_node.at(0);
  EXPECT_GT(node.candidates, 50u);
  EXPECT_GT(node.PrunedFraction(), 0.5);
}

TEST(GainK, EvaluatesEveryCandidate) {
  SetCollection c = RandomCollection(99, 20, 40, 0.3);
  SubCollection full = SubCollection::Full(&c);
  KlpOptions opts = KlpOptions::MakeGainK(2, CostMetric::kAvgDepth);
  opts.record_per_node_stats = true;
  KlpSelector gaink(opts);
  gaink.Select(full);
  const NodeStats& node = gaink.stats().per_node.at(0);
  EXPECT_EQ(node.fully_evaluated, node.candidates);
  EXPECT_EQ(node.pruned_by_break, 0u);
  EXPECT_EQ(node.pruned_by_child, 0u);
}

TEST(GainK, EvaluatesEveryCandidateEvenWithDuplicateSplits) {
  // Gain-k is the unpruned comparator: the duplicate-split skip is pruning
  // too (it rides on memoization) and must not fire.
  SetCollection c = DuplicateSplitCollection(5, 24, 18, 0.4);
  SubCollection full = SubCollection::Full(&c);
  for (CostMetric metric : {CostMetric::kAvgDepth, CostMetric::kHeight}) {
    KlpOptions opts = KlpOptions::MakeGainK(2, metric);
    opts.record_per_node_stats = true;
    KlpSelector gaink(opts);
    gaink.Select(full);
    const NodeStats& node = gaink.stats().per_node.at(0);
    EXPECT_EQ(node.fully_evaluated, node.candidates);
    EXPECT_EQ(node.pruned_by_duplicate, 0u);
    // ...on a node where k-LP does skip repeated splits.
    KlpOptions klp_opts = KlpOptions::MakeKlp(2, metric);
    klp_opts.enable_early_break = false;
    klp_opts.enable_upper_limits = false;
    klp_opts.record_per_node_stats = true;
    KlpSelector klp(klp_opts);
    EXPECT_EQ(klp.SelectWithBound(full, kInfiniteCost).bound,
              gaink.SelectWithBound(full, kInfiniteCost).bound);
    EXPECT_GT(klp.stats().per_node.at(0).pruned_by_duplicate, 0u);
  }
}

TEST(KlpLeaf, ScansMatchARecountOnEverySplit) {
  for (uint64_t seed : {3, 4, 5}) {
    SetCollection c = DuplicateSplitCollection(seed, 24, 18, 0.4);
    SubCollection full = SubCollection::Full(&c);
    EntityExclusion mask(c.universe_size(), false);
    for (EntityId e = 0; e < c.universe_size(); e += 3) mask[e] = true;
    for (const EntityExclusion* excluded :
         {static_cast<const EntityExclusion*>(nullptr),
          static_cast<const EntityExclusion*>(&mask)}) {
      for (EntityId e = 0; e < c.universe_size(); ++e) {
        const size_t count = full.CountContaining(e);
        if (count == 0 || count == full.size()) continue;
        const SubCollection* small = nullptr;
        const SubCollection* large = nullptr;
        std::pair<SubCollection, SubCollection> halves;
        auto [small_pick, large_pick] =
            LeafScans(full, e, excluded, &small, &large, &halves);
        for (auto [got, child] : {std::pair{small_pick, small},
                                  std::pair{large_pick, large}}) {
          const LeafPick want = ReferenceLeaf(*child, excluded);
          EXPECT_EQ(got.entity, want.entity) << "seed=" << seed << " e=" << e;
          EXPECT_EQ(got.count, want.count) << "seed=" << seed << " e=" << e;
        }
      }
    }
  }
}

TEST(KlpLeaf, TieGoesToLowestIdEvenWhenItComesLaterInMostEvenOrder) {
  // Parent: 10 sets, split on x (sets 0-2) into a smaller half of 3 and a
  // larger half of 7. In the larger half, a (id 1) and b (id 2) both split
  // 4/3 or 3/4 (imbalance 1, the best a 7-set child allows), but at the
  // parent b is perfectly even (5/5) while a is 7/3, so b comes first in
  // most-even order. The tie must still go to a.
  constexpr EntityId kA1 = 1, kB2 = 2, kX = 3;
  SetCollectionBuilder builder;
  for (EntityId s = 0; s < 10; ++s) {
    std::vector<EntityId> set = {100 + s};  // a tag of its own
    if (s < 3) set.push_back(kX);
    if (s < 3 || (s >= 3 && s <= 6)) set.push_back(kA1);   // S: 3, L: 4
    if (s < 2 || (s >= 7 && s <= 9)) set.push_back(kB2);   // S: 2, L: 3
    std::sort(set.begin(), set.end());
    builder.AddSet(std::move(set));
  }
  SetCollection c = builder.Build();
  SubCollection full = SubCollection::Full(&c);
  const SubCollection* small = nullptr;
  const SubCollection* large = nullptr;
  std::pair<SubCollection, SubCollection> halves;
  auto [small_pick, large_pick] =
      LeafScans(full, kX, nullptr, &small, &large, &halves);
  ASSERT_EQ(small->size(), 3u);
  ASSERT_EQ(large->size(), 7u);
  EXPECT_EQ(large_pick.entity, kA1);
  EXPECT_EQ(large_pick.imbalance, 1u);
  EXPECT_EQ(large_pick.entity, ReferenceLeaf(*large, nullptr).entity);
}

TEST(KlpLeaf, LargerHalfWinnerCanBeAnEntityTheSmallerHalfTouched) {
  // w is in all three sets of the smaller half and three of the seven in
  // the larger one: its parent count (6) says nothing about the larger
  // half until the smaller half's 3 is subtracted. y (a lower id, untouched
  // by the smaller half) splits the larger half 2/5 and must lose.
  constexpr EntityId kY = 1, kW = 2, kX = 3;
  SetCollectionBuilder builder;
  for (EntityId s = 0; s < 10; ++s) {
    std::vector<EntityId> set = {100 + s};
    if (s < 3) set.push_back(kX);
    if (s < 6) set.push_back(kW);
    if (s == 7 || s == 8) set.push_back(kY);
    std::sort(set.begin(), set.end());
    builder.AddSet(std::move(set));
  }
  SetCollection c = builder.Build();
  SubCollection full = SubCollection::Full(&c);
  const SubCollection* small = nullptr;
  const SubCollection* large = nullptr;
  std::pair<SubCollection, SubCollection> halves;
  auto [small_pick, large_pick] =
      LeafScans(full, kX, nullptr, &small, &large, &halves);
  ASSERT_EQ(large->size(), 7u);
  EXPECT_EQ(large_pick.entity, kW);
  EXPECT_EQ(large_pick.count, 3u);
  EXPECT_EQ(large_pick.entity, ReferenceLeaf(*large, nullptr).entity);
}

TEST(KlpLeaf, StopImbalanceOnlyCutsEntriesAtOrAboveIt) {
  SetCollection c = DuplicateSplitCollection(11, 30, 20, 0.35);
  SubCollection full = SubCollection::Full(&c);
  EntityCounter counter;
  std::vector<EntityCount> order;
  counter.CountInformative(full, &order, nullptr);
  const uint64_t n = full.size();
  std::sort(order.begin(), order.end(),
            [n](const EntityCount& a, const EntityCount& b) {
              const uint64_t ia = a.count * 2 > n ? a.count * 2 - n
                                                  : n - a.count * 2;
              const uint64_t ib = b.count * 2 > n ? b.count * 2 - n
                                                  : n - b.count * 2;
              return ia != ib ? ia < ib : a.entity < b.entity;
            });
  for (const EntityCount& split : order) {
    auto [in, out] = full.Partition(split.entity);
    const SubCollection& small = in.size() <= out.size() ? in : out;
    const SubCollection& large = in.size() <= out.size() ? out : in;
    EntityCounter small_counter;
    small_counter.CountDense(small);
    const LeafPick exact = ReferenceLeaf(large, nullptr);
    for (uint64_t stop = 0; stop <= large.size(); ++stop) {
      const LeafPick got = MostEvenLargerHalf(
          order, true, small_counter.dense(), small.size(), large.size(),
          stop);
      if (exact.imbalance < stop) {
        EXPECT_EQ(got.entity, exact.entity) << "stop=" << stop;
      } else {
        // Nothing below the stop exists; whatever was seen is not below it.
        EXPECT_TRUE(got.entity == kNoEntity || got.imbalance >= stop);
      }
    }
  }
}

// The default configuration (fused leaves, duplicate-split skip, memo,
// differential counting) must pick exactly what the plain recursion picks:
// memoization and differential counting off, so neither the skip nor the
// fused leaves run.
class DuplicateSplitParity
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(DuplicateSplitParity, DefaultMatchesUnmemoizedFullRecount) {
  auto [k, seed] = GetParam();
  SetCollection c = DuplicateSplitCollection(seed, k == 2 ? 28 : 20, 21, 0.35);
  SubCollection full = SubCollection::Full(&c);
  // Two views: the whole collection and the larger half of a split, so the
  // search also runs on a node whose ids are not 0..n-1.
  auto [in, out] = full.Partition(0);
  std::vector<SubCollection> views;
  views.push_back(full);
  views.push_back(in.size() >= out.size() ? in : out);
  EntityExclusion mask(c.universe_size(), false);
  Rng rng(seed * 31 + 7);
  for (EntityId e = 0; e < c.universe_size(); ++e) mask[e] = rng.Bernoulli(0.2);
  uint64_t duplicates = 0;
  EntityCounter counter;
  for (CostMetric metric : {CostMetric::kAvgDepth, CostMetric::kHeight}) {
    for (const SubCollection& view : views) {
      for (const EntityExclusion* excluded :
           {static_cast<const EntityExclusion*>(nullptr),
            static_cast<const EntityExclusion*>(&mask)}) {
        KlpOptions plain = KlpOptions::MakeKlp(k, metric);
        plain.enable_memoization = false;
        plain.enable_delta_counting = false;
        KlpSelector reference(plain);
        const KlpSelection want =
            reference.SelectWithBound(view, kInfiniteCost, excluded);
        EXPECT_EQ(reference.stats().totals.pruned_by_duplicate, 0u);
        if (excluded == nullptr) {
          EXPECT_EQ(want.bound, LbKAllEntities(view, k, metric, counter));
        }
        // The default, and the default without the early break: the break
        // usually ends the top-level loop before a repeated split comes up,
        // so the second one is what reaches the skip at the top node.
        KlpOptions no_break = KlpOptions::MakeKlp(k, metric);
        no_break.enable_early_break = false;
        for (const KlpOptions& options :
             {KlpOptions::MakeKlp(k, metric), no_break}) {
          KlpSelector klp(options);
          const KlpSelection got =
              klp.SelectWithBound(view, kInfiniteCost, excluded);
          EXPECT_EQ(got.entity, want.entity)
              << "k=" << k << " metric=" << static_cast<int>(metric)
              << " n=" << view.size() << " excluded=" << (excluded != nullptr)
              << " break=" << options.enable_early_break;
          EXPECT_EQ(got.bound, want.bound);
          duplicates += klp.stats().totals.pruned_by_duplicate;
        }
      }
    }
  }
  // The collection is built to repeat splits; the skip must have fired.
  EXPECT_GT(duplicates, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RepeatedSplits, DuplicateSplitParity,
    ::testing::Combine(::testing::Values(2, 3),
                       ::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}, uint64_t{4})));

// The weighted cost model runs on the same recursion, so it inherits the
// duplicate-split skip and its telemetry: the same pick and bound as with
// memoization (and so the skip) off, the process-wide duplicate counter
// moved by what the top node skipped, and the step's lookahead note filled.
TEST(DuplicateSplitParity, WeightedTwoLpSkipsRepeatedSplits) {
  SetCollection c = DuplicateSplitCollection(7, 28, 21, 0.35);
  SubCollection full = SubCollection::Full(&c);
  Rng rng(7);
  std::vector<double> weights(c.num_sets());
  for (double& w : weights) w = 0.05 + rng.UniformDouble();
  WeightedKlpOptions options;
  options.k = 2;
  // As for the count models, the early break usually ends the top-level
  // loop before a repeated split comes up; without it every split does.
  options.enable_early_break = false;
  WeightedKlpOptions plain = options;
  plain.enable_memoization = false;
  WeightedKlpSelector reference(&weights, plain);
  const WeightedSelection want = reference.SelectWithBound(full, kInfiniteCost);
  EXPECT_EQ(reference.stats().totals.pruned_by_duplicate, 0u);

  obs::Counter* const duplicates = obs::MetricsRegistry::Default().GetCounter(
      "setdisc_klp_pruned_total", {{"reason", "duplicate"}});
  const uint64_t before = duplicates->Value();
  WeightedKlpSelector wklp(&weights, options);
  obs::PhaseAccum accum;
  WeightedSelection got;
  {
    obs::PhaseScope scope(&accum);
    got = wklp.SelectWithBound(full, kInfiniteCost);
  }
  EXPECT_EQ(got.entity, want.entity);
  EXPECT_EQ(got.bound, want.bound);
  const NodeStats& node = wklp.stats().totals;
  EXPECT_GT(node.pruned_by_duplicate, 0u);
  EXPECT_EQ(duplicates->Value() - before, node.pruned_by_duplicate);
  EXPECT_EQ(accum.lookahead.sets, full.size());
  EXPECT_EQ(accum.lookahead.candidates, node.candidates);
  EXPECT_EQ(accum.lookahead.evaluated, node.fully_evaluated);
  EXPECT_EQ(accum.lookahead.duplicates, node.pruned_by_duplicate);
}

// ---------------------------------------------------------------------------
// Lemma 4.4 safety sweep: pruned k-LP == unpruned exhaustive lookahead, on
// random collections, for both metrics and several k. This is the core
// correctness property of the whole paper.
// ---------------------------------------------------------------------------

class PruningSoundnessSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(PruningSoundnessSweep, KlpBoundEqualsExhaustiveBound) {
  auto [n, m, density, k] = GetParam();
  SetCollection c = RandomCollection(/*seed=*/n * 7919 + m * 13 + k, n, m,
                                     density);
  SubCollection full = SubCollection::Full(&c);
  EntityCounter counter;
  for (CostMetric metric : {CostMetric::kAvgDepth, CostMetric::kHeight}) {
    KlpSelector klp(KlpOptions::MakeKlp(k, metric));
    KlpSelection pruned = klp.SelectWithBound(full, kInfiniteCost);
    Cost reference = LbKAllEntities(full, k, metric, counter);
    ASSERT_NE(pruned.entity, kNoEntity);
    EXPECT_EQ(pruned.bound, reference)
        << "metric=" << static_cast<int>(metric) << " k=" << k << " n=" << n
        << " m=" << m;
    // The winning entity's own reference bound must equal the reported one.
    EXPECT_EQ(LbKForEntity(full, pruned.entity, k, metric, counter),
              pruned.bound);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomCollections, PruningSoundnessSweep,
    ::testing::Combine(::testing::Values(5, 9, 14, 22),
                       ::testing::Values(10, 24, 48),
                       ::testing::Values(0.3, 0.5),
                       ::testing::Values(1, 2, 3)));

// Each pruning ingredient can be disabled independently without changing
// the result (ablation correctness).
class AblationSoundnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(AblationSoundnessSweep, DisabledIngredientsPreserveTheBound) {
  int variant = GetParam();
  SetCollection c = RandomCollection(1234, 16, 30, 0.4);
  SubCollection full = SubCollection::Full(&c);
  for (CostMetric metric : {CostMetric::kAvgDepth, CostMetric::kHeight}) {
    KlpOptions opts = KlpOptions::MakeKlp(3, metric);
    switch (variant) {
      case 0: opts.enable_early_break = false; break;
      case 1: opts.enable_upper_limits = false; break;
      case 2: opts.enable_memoization = false; break;
      case 3:
        opts.sort_candidates = false;
        opts.enable_early_break = false;
        break;
      default: break;
    }
    KlpSelector ablated(opts);
    KlpSelector reference(KlpOptions::MakeKlp(3, metric));
    EXPECT_EQ(ablated.SelectWithBound(full, kInfiniteCost).bound,
              reference.SelectWithBound(full, kInfiniteCost).bound)
        << "variant=" << variant;
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, AblationSoundnessSweep,
                         ::testing::Values(0, 1, 2, 3, 4));

// §4.4.1: with k at least the optimal height, k-LP is exact.
class OptimalitySweep : public ::testing::TestWithParam<int> {};

TEST_P(OptimalitySweep, LargeKMatchesExhaustiveOptimal) {
  int seed = GetParam();
  SetCollection c = RandomCollection(seed, 10, 16, 0.45);
  SubCollection full = SubCollection::Full(&c);
  for (CostMetric metric : {CostMetric::kAvgDepth, CostMetric::kHeight}) {
    Cost optimal = OptimalTreeCost(full, metric);
    KlpSelector opt(KlpOptions::MakeOptimal(metric));
    EXPECT_EQ(opt.SelectWithBound(full, kInfiniteCost).bound, optimal);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalitySweep,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

// Beam variants return valid informative entities and never beat plain k-LP.
class BeamSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BeamSweep, BeamsAreValidAndNoBetterThanFullSearch) {
  auto [q, seed] = GetParam();
  SetCollection c = RandomCollection(seed, 18, 36, 0.4);
  SubCollection full = SubCollection::Full(&c);
  for (CostMetric metric : {CostMetric::kAvgDepth, CostMetric::kHeight}) {
    KlpSelector klp(KlpOptions::MakeKlp(3, metric));
    KlpSelector klple(KlpOptions::MakeKlple(3, q, metric));
    KlpSelector klplve(KlpOptions::MakeKlplve(3, q, metric));
    Cost full_bound = klp.SelectWithBound(full, kInfiniteCost).bound;
    for (KlpSelector* beam : {&klple, &klplve}) {
      KlpSelection sel = beam->SelectWithBound(full, kInfiniteCost);
      ASSERT_NE(sel.entity, kNoEntity);
      auto [in, out] = full.Partition(sel.entity);
      ASSERT_FALSE(in.empty());
      ASSERT_FALSE(out.empty());
      // A beam search explores a subset of candidates, so its reported
      // bound cannot be lower than the full search's.
      EXPECT_GE(sel.bound, full_bound);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BeamSweep,
                         ::testing::Combine(::testing::Values(1, 3, 10),
                                            ::testing::Values(31, 32, 33)));

}  // namespace
}  // namespace setdisc
