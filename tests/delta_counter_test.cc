// Unit tests for the differential counting engine (collection/
// delta_counter.h) and its satellites: every derivation path must emit
// byte-identical output to EntityCounter::CountInformative on the same
// (view, mask) — including under exclusion-heavy masks — plus the
// sweep-vs-sort boundary, the galloping posting-list intersection, the
// dense counting mode, and scratch release.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "collection/delta_counter.h"
#include "collection/entity_counter.h"
#include "collection/inverted_index.h"
#include "collection/sub_collection.h"
#include "core/selectors.h"
#include "test_util.h"
#include "util/rng.h"

namespace setdisc {
namespace {

using namespace setdisc::testing;

/// Reference implementation: informative entities of `sub` by brute force.
std::vector<EntityCount> BruteInformative(const SubCollection& sub,
                                          const EntityExclusion* excluded) {
  std::vector<uint32_t> counts(sub.collection().universe_size(), 0);
  for (SetId s : sub.ids()) {
    for (EntityId e : sub.collection().set(s)) ++counts[e];
  }
  std::vector<EntityCount> out;
  const uint32_t n = static_cast<uint32_t>(sub.size());
  for (EntityId e = 0; e < counts.size(); ++e) {
    if (counts[e] == 0 || counts[e] == n) continue;
    if (excluded != nullptr && e < excluded->size() && (*excluded)[e]) continue;
    out.push_back(EntityCount{e, counts[e]});
  }
  return out;
}

/// Drives a random narrowing chain and checks the DeltaCounter against the
/// reference at every step; grows the exclusion mask mid-chain (the §6
/// don't-know shape) so re-emit and derivation-under-mask both fire.
void CheckChain(uint64_t seed, uint32_t n, uint32_t m, double density,
                bool with_exclusions) {
  SetCollection c = RandomCollection(seed, n, m, density);
  Rng rng(seed * 31 + 7);
  DeltaCounter delta;
  EntityExclusion excluded;
  std::vector<EntityCount> got;

  SubCollection sub = SubCollection::Full(&c);
  int guard = 0;
  while (sub.size() >= 2 && guard++ < 200) {
    const EntityExclusion* mask =
        with_exclusions && !excluded.empty() ? &excluded : nullptr;
    delta.CountInformative(sub, &got, mask);
    std::vector<EntityCount> want = BruteInformative(sub, mask);
    ASSERT_EQ(got, want) << "chain step with " << sub.size() << " sets";
    if (got.empty()) break;

    const EntityCount pick = got[rng.Uniform(got.size())];
    if (with_exclusions && rng.Bernoulli(0.3)) {
      // Don't-know: exclude and re-select on the same candidates.
      excluded.Set(pick.entity);
      continue;
    }
    auto [in, out] = sub.Partition(pick.entity, /*derive_fingerprints=*/true);
    bool keep_in = rng.Bernoulli(0.5);
    if (keep_in) {
      delta.NotePartition(sub, in, std::move(out));
      sub = std::move(in);
    } else {
      delta.NotePartition(sub, out, std::move(in));
      sub = std::move(out);
    }
  }
  // The chain must actually have exercised the derivation paths.
  EXPECT_GT(delta.stats().total(), 0u);
}

TEST(DeltaCounterTest, ChainMatchesReference) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    CheckChain(seed, 40, 30, 0.3, /*with_exclusions=*/false);
  }
}

TEST(DeltaCounterTest, ChainMatchesReferenceUnderExclusions) {
  for (uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    CheckChain(seed, 40, 30, 0.3, /*with_exclusions=*/true);
  }
}

TEST(DeltaCounterTest, ChainMatchesReferenceDense) {
  // Dense collections make most splits uneven — the regime where the
  // sibling-count derivation actually fires (cheaper than recounting).
  for (uint64_t seed : {21u, 22u, 23u}) {
    CheckChain(seed, 60, 16, 0.7, /*with_exclusions=*/false);
  }
}

TEST(DeltaCounterTest, DeltaPathActuallyFires) {
  // A skewed partition (rare entity, keep the big half) must take the
  // sibling-derivation path, not a full recount.
  SetCollection c = RandomCollection(77, 64, 24, 0.5);
  DeltaCounter delta;
  std::vector<EntityCount> got;
  SubCollection sub = SubCollection::Full(&c);
  delta.CountInformative(sub, &got, nullptr);
  ASSERT_FALSE(got.empty());
  // Pick the most skewed informative entity: smallest |C1|.
  EntityCount rare = *std::min_element(
      got.begin(), got.end(),
      [](const EntityCount& a, const EntityCount& b) { return a.count < b.count; });
  auto [in, out] = sub.Partition(rare.entity, true);
  delta.NotePartition(sub, out, std::move(in));
  uint64_t full_before = delta.stats().full;
  delta.CountInformative(out, &got, nullptr);
  EXPECT_EQ(delta.stats().full, full_before);
  EXPECT_EQ(delta.stats().delta, 1u);
  EXPECT_EQ(got, BruteInformative(out, nullptr));
}

TEST(DeltaCounterTest, ReemitOnSameView) {
  SetCollection c = MakePaperCollection();
  DeltaCounter delta;
  std::vector<EntityCount> got, again;
  SubCollection sub = SubCollection::Full(&c);
  delta.CountInformative(sub, &got, nullptr);
  EntityExclusion excluded;
  excluded.Set(got.front().entity);
  delta.CountInformative(sub, &again, &excluded);
  EXPECT_EQ(delta.stats().reemits, 1u);
  EXPECT_EQ(again, BruteInformative(sub, &excluded));
}

TEST(DeltaCounterTest, SeedChildServesBothHalves) {
  SetCollection c = RandomCollection(99, 48, 20, 0.4);
  for (bool keep_in : {true, false}) {
    DeltaCounter delta;
    std::vector<EntityCount> parent_counts, got;
    SubCollection sub = SubCollection::Full(&c);
    delta.CountInformative(sub, &parent_counts, nullptr);
    ASSERT_FALSE(parent_counts.empty());
    EntityId e = parent_counts[parent_counts.size() / 2].entity;
    auto [in, out] = sub.Partition(e, true);
    // The half list SeedChild expects: the smaller half's counts restricted
    // to the parent's informative list (what the k-LP snapshot holds).
    const SubCollection& small = in.size() <= out.size() ? in : out;
    std::vector<uint32_t> dense(c.universe_size(), 0);
    for (SetId s : small.ids()) {
      for (EntityId el : c.set(s)) ++dense[el];
    }
    std::vector<EntityCount> half;
    for (const EntityCount& pc : parent_counts) {
      if (dense[pc.entity] != 0) {
        half.push_back(EntityCount{pc.entity, dense[pc.entity]});
      }
    }
    const SubCollection& kept = keep_in ? in : out;
    bool half_is_kept = &small == &kept;
    delta.SeedChild(sub, kept, half, half_is_kept);
    uint64_t full_before = delta.stats().full;
    delta.CountInformative(kept, &got, nullptr);
    EXPECT_EQ(delta.stats().full, full_before) << "seeded count must re-emit";
    EXPECT_EQ(got, BruteInformative(kept, nullptr)) << "keep_in " << keep_in;
  }
}

TEST(DeltaCounterTest, MaskShrinkForcesRecount) {
  // Regression: counting the same view first under a mask and then without
  // it (or under a disjoint mask) must NOT serve the retained mask-filtered
  // list — the un-excluded entity has to reappear. Sessions only grow
  // masks, but the library contract holds for arbitrary callers.
  SetCollectionBuilder b;
  b.AddSet({0, 1}, "");
  b.AddSet({0, 2}, "");
  b.AddSet({3}, "");
  b.AddSet({4}, "");
  SetCollection c = b.Build();
  SubCollection sub = SubCollection::Full(&c);

  DeltaCounter delta;
  std::vector<EntityCount> got;
  EntityExclusion mask;
  mask.Set(0);
  delta.CountInformative(sub, &got, &mask);
  EXPECT_EQ(got, BruteInformative(sub, &mask));
  // Shrink: no mask at all.
  delta.CountInformative(sub, &got, nullptr);
  EXPECT_EQ(got, BruteInformative(sub, nullptr));
  // Disjoint mask.
  EntityExclusion other;
  other.Set(1);
  delta.CountInformative(sub, &got, &other);
  EXPECT_EQ(got, BruteInformative(sub, &other));
  // And the selector-level repro: masked then unmasked Selects must match
  // the full-recount baseline decision.
  MostEvenSelector delta_sel(/*differential=*/true);
  MostEvenSelector full_sel(/*differential=*/false);
  EXPECT_EQ(delta_sel.Select(sub, &mask), full_sel.Select(sub, &mask));
  EXPECT_EQ(delta_sel.Select(sub, nullptr), full_sel.Select(sub, nullptr));
}

TEST(DeltaCounterTest, MaskGrowthStillServesRetainedState) {
  // The §6 shape — mask only grows — must keep the count-free re-emit.
  SetCollection c = RandomCollection(9, 32, 24, 0.3);
  SubCollection sub = SubCollection::Full(&c);
  DeltaCounter delta;
  std::vector<EntityCount> got;
  delta.CountInformative(sub, &got, nullptr);
  EntityExclusion mask;
  mask.Set(got[0].entity);
  delta.CountInformative(sub, &got, &mask);
  EXPECT_EQ(got, BruteInformative(sub, &mask));
  mask.Set(got[0].entity);
  delta.CountInformative(sub, &got, &mask);
  EXPECT_EQ(got, BruteInformative(sub, &mask));
  EXPECT_EQ(delta.stats().reemits, 2u);
  EXPECT_EQ(delta.stats().full, 1u);
}

TEST(DeltaCounterTest, BrokenChainFallsBackToFullCount) {
  SetCollection c = RandomCollection(5, 32, 24, 0.3);
  DeltaCounter delta;
  std::vector<EntityCount> got;
  SubCollection sub = SubCollection::Full(&c);
  delta.CountInformative(sub, &got, nullptr);
  auto [in, out] = sub.Partition(got.front().entity, true);
  // No NotePartition (a cache hit would have skipped the step): counting
  // the child must be a correct full count.
  delta.CountInformative(in, &got, nullptr);
  EXPECT_EQ(got, BruteInformative(in, nullptr));
  EXPECT_EQ(delta.stats().delta, 0u);
  EXPECT_EQ(delta.stats().full, 2u);
}

TEST(DeltaCounterTest, ReleaseDropsStateButStaysCorrect) {
  SetCollection c = RandomCollection(6, 32, 24, 0.3);
  DeltaCounter delta;
  std::vector<EntityCount> got;
  SubCollection sub = SubCollection::Full(&c);
  delta.CountInformative(sub, &got, nullptr);
  delta.Release();
  // Same view again: without retained state this is a full recount, and
  // still byte-identical.
  delta.CountInformative(sub, &got, nullptr);
  EXPECT_EQ(delta.stats().reemits, 0u);
  EXPECT_EQ(delta.stats().full, 2u);
  EXPECT_EQ(got, BruteInformative(sub, nullptr));
}

TEST(DeltaCounterTest, DisabledMatchesPlainCounter) {
  SetCollection c = RandomCollection(7, 32, 24, 0.3);
  DeltaCounter delta;
  delta.set_enabled(false);
  std::vector<EntityCount> got;
  SubCollection sub = SubCollection::Full(&c);
  delta.CountInformative(sub, &got, nullptr);
  EXPECT_EQ(got, BruteInformative(sub, nullptr));
  EXPECT_EQ(delta.stats().total(), 0u);  // no retention bookkeeping
}

// ---------------------------------------------------------------------------
// Satellite: exclusion-heavy counting parity (dense >50% masks).

TEST(ExclusionHeavyTest, CountingParityUnderDenseMasks) {
  for (uint64_t seed : {31u, 32u, 33u, 34u}) {
    SetCollection c = RandomCollection(seed, 40, 30, 0.4);
    Rng rng(seed);
    EntityExclusion excluded;
    for (EntityId e = 0; e < c.universe_size(); ++e) {
      if (rng.Bernoulli(0.6)) excluded.Set(e);
    }
    ASSERT_GT(excluded.num_excluded(), c.universe_size() / 2);

    SubCollection sub = SubCollection::Full(&c);
    EntityCounter counter;
    std::vector<EntityCount> got;
    counter.CountInformative(sub, &got, &excluded);
    EXPECT_EQ(got, BruteInformative(sub, &excluded));

    // CountAll under the same mask: non-zero counts of unmasked entities.
    counter.CountAll(sub, &got, &excluded);
    std::vector<uint32_t> dense(c.universe_size(), 0);
    for (SetId s : sub.ids()) {
      for (EntityId e : c.set(s)) ++dense[e];
    }
    std::vector<EntityCount> want;
    for (EntityId e = 0; e < c.universe_size(); ++e) {
      if (dense[e] == 0 || excluded[e]) continue;
      want.push_back(EntityCount{e, dense[e]});
    }
    EXPECT_EQ(got, want);

    // And the delta chain must respect the mask at every derivation.
    CheckChain(seed + 1000, 40, 30, 0.4, /*with_exclusions=*/true);
  }
}

// ---------------------------------------------------------------------------
// Satellite: sweep-vs-sort boundary around kDenseSweepDivisor.

TEST(SweepBoundaryTest, PredicateCrossesExactlyAtThreshold) {
  const EntityId universe = 1600;
  const size_t threshold = universe / EntityCounter::kDenseSweepDivisor;
  EXPECT_FALSE(EntityCounter::DenseSweepIsCheaper(threshold - 1, universe));
  EXPECT_TRUE(EntityCounter::DenseSweepIsCheaper(threshold, universe));
  EXPECT_TRUE(EntityCounter::DenseSweepIsCheaper(threshold + 1, universe));
}

TEST(SweepBoundaryTest, OutputIdenticalOnBothSidesOfCrossover) {
  // One collection, one universe; vary how many entities a view touches so
  // consecutive counts straddle the crossover. Outputs must be identical
  // regardless of which emit path ran.
  const uint32_t universe = 16 * 40;  // threshold = 40 touched
  SetCollectionBuilder b;
  // Set i contains entities {0..i}: a view of the first k sets touches
  // exactly k entities.
  std::vector<EntityId> elems;
  for (EntityId e = 0; e < universe; ++e) {
    elems.push_back(e);
    if (elems.size() > 80) elems.erase(elems.begin());  // cap set size
    b.AddSet(std::vector<EntityId>(elems.begin(), elems.end()), "");
  }
  SetCollection c = b.Build();
  EntityCounter counter;
  std::vector<EntityCount> got;
  for (uint32_t sets : {30u, 39u, 40u, 41u, 60u}) {
    std::vector<SetId> ids(sets);
    for (uint32_t i = 0; i < sets; ++i) ids[i] = i;
    SubCollection sub(&c, std::move(ids));
    counter.CountInformative(sub, &got);
    EXPECT_EQ(got, BruteInformative(sub, nullptr)) << sets << " sets";
    counter.CountAll(sub, &got);
    EXPECT_EQ(got.size(), sets);  // touched == max set == `sets` entities
  }
}

// ---------------------------------------------------------------------------
// CountDense: residue is invisible to the next pass.

TEST(CountDenseTest, DenseThenListCountsStayCorrect) {
  SetCollection c = RandomCollection(8, 32, 24, 0.3);
  SubCollection sub = SubCollection::Full(&c);
  auto [in, out] = sub.Partition(3, false);
  EntityCounter counter;
  counter.CountDense(in);
  std::span<const uint32_t> dense = counter.dense();
  std::vector<uint32_t> want(c.universe_size(), 0);
  for (SetId s : in.ids()) {
    for (EntityId e : c.set(s)) ++want[e];
  }
  for (EntityId e = 0; e < c.universe_size(); ++e) {
    ASSERT_EQ(dense[e], want[e]) << "entity " << e;
  }
  // The residue must be cleared by the next counting pass.
  std::vector<EntityCount> got;
  counter.CountInformative(out, &got);
  EXPECT_EQ(got, BruteInformative(out, nullptr));
}

// ---------------------------------------------------------------------------
// Scratch storage: the counts are calloc'd and the touched list is left
// uninitialised (util/scratch_array.h), yet a reused counter must still
// start every pass from all-zero counts, whatever it counted before.

void ExpectAllZero(std::span<const uint32_t> scratch, const std::string& where) {
  const auto it = std::find_if(scratch.begin(), scratch.end(),
                               [](uint32_t v) { return v != 0; });
  EXPECT_EQ(it, scratch.end())
      << where << ": entry " << (it - scratch.begin()) << " is nonzero";
}

/// Counts the whole of `c` and a three-set view of it (the sweep and the
/// sort emit paths) on the shared `counter`, checks each list against a
/// fresh counter's, and checks that the lent scratch is all zero after.
void ExpectMatchesFresh(EntityCounter& counter, const SetCollection& c,
                        const std::string& where) {
  for (SubCollection sub :
       {SubCollection::Full(&c), SubCollection(&c, {0, 1, 2})}) {
    const std::string at =
        where + " (" + std::to_string(sub.size()) + " sets)";
    EntityCounter fresh;
    std::vector<EntityCount> got, want;
    counter.CountInformative(sub, &got);
    fresh.CountInformative(sub, &want);
    EXPECT_EQ(got, want) << at;
    counter.CountAll(sub, &got);
    fresh.CountAll(sub, &want);
    EXPECT_EQ(got, want) << at;
    ExpectAllZero(counter.BorrowZeroed(c.universe_size()), at);
  }
}

TEST(ScratchStorageTest, AllZeroAcrossGrowthReleaseAndDenseResidue) {
  // The small universe's scratch comes from the heap (calloc clears reused
  // memory); the large one's is past malloc's default mmap threshold
  // (fresh pages).
  SetCollection small = RandomCollection(21, 40, 64, 0.3);
  SetCollection large = RandomCollection(22, 60, 50000, 0.002);
  ASSERT_GT(large.universe_size(), 32768u);
  EntityCounter counter;
  ExpectMatchesFresh(counter, small, "small");
  ExpectMatchesFresh(counter, large, "large, grown");
  ExpectMatchesFresh(counter, small, "small after large");
  counter.Release();
  ExpectMatchesFresh(counter, small, "small after Release");
  ExpectMatchesFresh(counter, large, "large after Release");

  // CountDense leaves its residue in place; BorrowZeroed must clear it.
  SubCollection sub = SubCollection::Full(&large);
  counter.CountDense(sub);
  std::vector<uint32_t> want(large.universe_size(), 0);
  for (SetId s : sub.ids()) {
    for (EntityId e : large.set(s)) ++want[e];
  }
  const std::span<const uint32_t> dense = counter.dense();
  ASSERT_GE(dense.size(), want.size());
  EXPECT_TRUE(std::equal(want.begin(), want.end(), dense.begin()));
  size_t nonzero = 0;
  for (uint32_t v : want) nonzero += v != 0;
  EXPECT_EQ(counter.touched().size(), nonzero);
  ExpectAllZero(counter.BorrowZeroed(large.universe_size()),
                "BorrowZeroed after CountDense");
  ExpectMatchesFresh(counter, large, "large after BorrowZeroed");
}

// ---------------------------------------------------------------------------
// Satellite: galloping posting-list intersection.

TEST(GallopingIntersectionTest, SkewedSeedsMatchBruteForce) {
  // Entity 0 is rare (few sets), entity 1 is near-universal: the running
  // intersection after entity 0 is tiny against entity 1's long posting
  // list — the galloping path. Randomized membership checks the emitted
  // ids exactly.
  for (uint64_t seed : {41u, 42u, 43u}) {
    Rng rng(seed);
    SetCollectionBuilder b;
    const uint32_t n = 800;
    std::vector<std::vector<EntityId>> sets(n);
    for (uint32_t s = 0; s < n; ++s) {
      std::vector<EntityId> elems;
      if (rng.Bernoulli(0.01)) elems.push_back(0);  // rare
      if (rng.Bernoulli(0.95)) elems.push_back(1);  // frequent
      for (EntityId e = 2; e < 12; ++e) {
        if (rng.Bernoulli(0.4)) elems.push_back(e);
      }
      elems.push_back(12 + (s % 50));  // uniqueness salt
      b.AddSet(elems, "");
      sets[s] = std::move(elems);
    }
    SetCollection c = b.Build();
    InvertedIndex idx(c);
    for (std::vector<EntityId> query :
         {std::vector<EntityId>{0, 1}, std::vector<EntityId>{0, 1, 2},
          std::vector<EntityId>{1, 3, 4}}) {
      std::vector<SetId> got = idx.SetsContainingAll(query);
      std::vector<SetId> want;
      for (SetId s = 0; s < c.num_sets(); ++s) {
        bool all = true;
        for (EntityId e : query) {
          if (!c.Contains(s, e)) {
            all = false;
            break;
          }
        }
        if (all) want.push_back(s);
      }
      EXPECT_EQ(got, want) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Retained candidate ordering: EmitMostEvenOrder must be byte-identical to
// std::sort of the same emission by (imbalance, entity), across chains whose
// derivations repair the order in place, rebuild it, or re-emit it.

uint64_t Imb(uint64_t c, uint64_t n) {
  uint64_t other = n - c;
  return c > other ? c - other : other - c;
}

std::vector<EntityCount> SortedByImbalance(std::vector<EntityCount> counts,
                                           uint64_t n) {
  std::sort(counts.begin(), counts.end(),
            [n](const EntityCount& a, const EntityCount& b) {
              uint64_t ia = Imb(a.count, n), ib = Imb(b.count, n);
              if (ia != ib) return ia < ib;
              return a.entity < b.entity;
            });
  return counts;
}

/// Random narrowing chain with order retention on: every step that counted
/// must serve EmitMostEvenOrder, and the served order must equal the sorted
/// emission exactly. Mixes don't-know re-emits (growing masks) in.
void CheckOrderedChain(uint64_t seed, uint32_t n, uint32_t m, double density,
                       bool with_exclusions) {
  SetCollection c = RandomCollection(seed, n, m, density);
  Rng rng(seed * 31 + 7);
  DeltaCounter delta;
  delta.set_retain_order(true);
  EntityExclusion excluded;
  std::vector<EntityCount> got, ordered;

  SubCollection sub = SubCollection::Full(&c);
  int guard = 0;
  while (sub.size() >= 2 && guard++ < 200) {
    const EntityExclusion* mask =
        with_exclusions && !excluded.empty() ? &excluded : nullptr;
    delta.CountInformative(sub, &got, mask);
    ASSERT_TRUE(delta.EmitMostEvenOrder(sub.Fingerprint(),
                                        static_cast<uint32_t>(sub.size()),
                                        mask, &ordered));
    ASSERT_EQ(ordered, SortedByImbalance(got, sub.size()))
        << "seed " << seed << ", step " << guard;
    if (got.empty()) break;

    const EntityCount pick = got[rng.Uniform(got.size())];
    if (with_exclusions && rng.Bernoulli(0.3)) {
      excluded.Set(pick.entity);
      continue;
    }
    auto [in, out] = sub.Partition(pick.entity, /*derive_fingerprints=*/true);
    bool keep_in = rng.Bernoulli(0.5);
    if (keep_in) {
      delta.NotePartition(sub, in, std::move(out));
      sub = std::move(in);
    } else {
      delta.NotePartition(sub, out, std::move(in));
      sub = std::move(out);
    }
  }
  EXPECT_GT(delta.stats().total(), 0u);
}

TEST(OrderedEmitTest, MatchesSortAcrossChains) {
  for (uint64_t seed : {61u, 62u, 63u, 64u, 65u}) {
    CheckOrderedChain(seed, 40, 30, 0.3, /*with_exclusions=*/false);
  }
}

TEST(OrderedEmitTest, MatchesSortUnderGrowingMasks) {
  for (uint64_t seed : {71u, 72u, 73u, 74u, 75u}) {
    CheckOrderedChain(seed, 40, 30, 0.3, /*with_exclusions=*/true);
  }
}

TEST(OrderedEmitTest, MatchesSortDense) {
  // Dense collections → skewed splits → the subtraction path with its
  // in-place order repair fires most steps.
  for (uint64_t seed : {81u, 82u, 83u}) {
    CheckOrderedChain(seed, 60, 16, 0.7, /*with_exclusions=*/false);
  }
}

TEST(OrderedEmitTest, RefusesWhenStateDoesNotMatch) {
  SetCollection c = RandomCollection(91, 32, 24, 0.3);
  DeltaCounter delta;
  delta.set_retain_order(true);
  std::vector<EntityCount> got, ordered;
  SubCollection sub = SubCollection::Full(&c);

  // Nothing counted yet: nothing to serve.
  EXPECT_FALSE(delta.EmitMostEvenOrder(
      sub.Fingerprint(), static_cast<uint32_t>(sub.size()), nullptr, &ordered));

  delta.CountInformative(sub, &got, nullptr);
  // Wrong fingerprint (a different view).
  EXPECT_FALSE(delta.EmitMostEvenOrder(
      sub.Fingerprint() + 1, static_cast<uint32_t>(sub.size()), nullptr,
      &ordered));
  // Broken chain: a partition the counter was never told about.
  auto [in, out] = sub.Partition(got.front().entity, true);
  EXPECT_FALSE(delta.EmitMostEvenOrder(
      in.Fingerprint(), static_cast<uint32_t>(in.size()), nullptr, &ordered));
  // Retention off: never serves.
  delta.set_retain_order(false);
  EXPECT_FALSE(delta.EmitMostEvenOrder(
      sub.Fingerprint(), static_cast<uint32_t>(sub.size()), nullptr, &ordered));
  // And a full count after the break recovers the serveable state.
  delta.set_retain_order(true);
  delta.CountInformative(in, &got, nullptr);
  EXPECT_TRUE(delta.EmitMostEvenOrder(
      in.Fingerprint(), static_cast<uint32_t>(in.size()), nullptr, &ordered));
  EXPECT_EQ(ordered, SortedByImbalance(got, in.size()));
}

TEST(OrderedEmitTest, SeededChildServesOrder) {
  // The k-LP shape: SeedChild installs the child's counts, the next count is
  // a re-emit, and the ordered emission must match the sort of that output.
  SetCollection c = RandomCollection(95, 48, 20, 0.4);
  for (bool keep_in : {true, false}) {
    DeltaCounter delta;
    delta.set_retain_order(true);
    std::vector<EntityCount> parent_counts, got, ordered;
    SubCollection sub = SubCollection::Full(&c);
    delta.CountInformative(sub, &parent_counts, nullptr);
    ASSERT_FALSE(parent_counts.empty());
    EntityId e = parent_counts[parent_counts.size() / 2].entity;
    auto [in, out] = sub.Partition(e, true);
    const SubCollection& small = in.size() <= out.size() ? in : out;
    std::vector<uint32_t> dense(c.universe_size(), 0);
    for (SetId s : small.ids()) {
      for (EntityId el : c.set(s)) ++dense[el];
    }
    std::vector<EntityCount> half;
    for (const EntityCount& pc : parent_counts) {
      if (dense[pc.entity] != 0) {
        half.push_back(EntityCount{pc.entity, dense[pc.entity]});
      }
    }
    const SubCollection& kept = keep_in ? in : out;
    delta.SeedChild(sub, kept, half, /*half_is_kept=*/&small == &kept);
    delta.CountInformative(kept, &got, nullptr);
    ASSERT_TRUE(delta.EmitMostEvenOrder(kept.Fingerprint(),
                                        static_cast<uint32_t>(kept.size()),
                                        nullptr, &ordered));
    EXPECT_EQ(ordered, SortedByImbalance(got, kept.size()))
        << "keep_in " << keep_in;
  }
}

}  // namespace
}  // namespace setdisc
