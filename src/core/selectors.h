#pragma once

/// \file selectors.h
/// The 1-step baseline strategies of §4.2:
///
///  * MostEvenSelector            — Adler & Heeringa's (ln n + 1)-approximate
///                                  greedy: most even partition (§4.2.1);
///  * InfoGainSelector            — ID3/C4.5 information gain (§4.2.2, Eq. 9);
///  * IndistinguishablePairsSelector — Roy et al.'s minimum indistinguishable
///                                  pairs (§4.2.3, Eq. 10);
///  * RandomSelector              — uniform over informative entities (sanity
///                                  floor, not in the paper).
///
/// Lemma 4.3: the first three select the same entity (ties aside); the
/// selector_test property sweep verifies that on random collections.
///
/// Each strategy is a counting pass followed by a pure scoring pass over the
/// (entity, count) list.

#include <string_view>
#include <vector>

#include "core/selector.h"
#include "util/rng.h"

namespace setdisc {

/// Common base of the counting-pass selectors: owns the DeltaCounter and
/// routes the differential-counting hooks to it, so each strategy is just
/// "count (or derive), then score". `differential = false` pins the
/// full-recount path — the baseline bench_counting measures against.
class CountingSelector : public EntitySelector {
 public:
  explicit CountingSelector(bool differential = true) {
    counter_.set_enabled(differential);
  }

  void NotePartition(const SubCollection& parent, EntityId e,
                     bool kept_contains, const SubCollection& kept,
                     SubCollection dropped) override {
    (void)e;
    (void)kept_contains;
    counter_.NotePartition(parent, kept, std::move(dropped));
  }
  void InvalidateCountState() override { counter_.Invalidate(); }
  void ReleaseMemory() override {
    counter_.Release();
    counts_ = {};
  }

  /// Full/delta/re-emit breakdown of the counting passes so far.
  const DeltaCounterStats& counting_stats() const { return counter_.stats(); }

 protected:
  DeltaCounter counter_;
  std::vector<EntityCount> counts_;
};

/// Picks the entity minimizing | |C1| - |C2| |; ties broken by entity id.
class MostEvenSelector : public CountingSelector {
 public:
  using CountingSelector::CountingSelector;
  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded = nullptr) override;
  std::string_view name() const override { return "MostEven"; }
};

/// Picks the entity maximizing information gain (Eq. 9); ties broken by the
/// most even partition, then entity id.
class InfoGainSelector : public CountingSelector {
 public:
  using CountingSelector::CountingSelector;
  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded = nullptr) override;
  std::string_view name() const override { return "InfoGain"; }
  void ReleaseMemory() override {
    CountingSelector::ReleaseMemory();
    split_table_ = {};
  }

 private:
  std::vector<double> split_table_;
};

/// Picks the entity minimizing the number of indistinguishable pairs
/// (Eq. 10); ties broken by the most even partition, then entity id.
class IndistinguishablePairsSelector : public CountingSelector {
 public:
  using CountingSelector::CountingSelector;
  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded = nullptr) override;
  std::string_view name() const override { return "IndgPairs"; }
};

/// Picks a uniformly random informative entity. Deterministic given the seed
/// (and counting mode cannot change a draw: the candidate list is identical
/// either way).
class RandomSelector : public CountingSelector {
 public:
  explicit RandomSelector(uint64_t seed = 42, bool differential = true)
      : CountingSelector(differential), rng_(seed) {}
  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded = nullptr) override;
  std::string_view name() const override { return "Random"; }

 private:
  Rng rng_;
};

}  // namespace setdisc
