#pragma once

/// \file weighted.h
/// §7 future-work extension: "study scenarios where the sets to be discovered
/// are not equally likely". Sets carry prior weights; the cost of a tree is
/// the *weighted* average leaf depth (expected number of questions under the
/// prior), and selection balances probability mass instead of set counts.

#include <string_view>
#include <vector>

#include "collection/delta_counter.h"
#include "core/decision_tree.h"
#include "core/selector.h"
#include "util/scratch_array.h"

namespace setdisc {

/// Picks the entity whose partition splits the candidates' total prior
/// weight most evenly — the weighted generalization of §4.2.1's most-even
/// strategy (and of 1-step lookahead, by the weighted analogue of Lemma 4.3).
///
/// Two costs per step, both kept off the quadratic path: the candidate list
/// comes from a DeltaCounter (derived from the parent step's counts when the
/// session reports partitions via NotePartition, like the unweighted
/// selectors), and the per-candidate weight mass is accumulated in ONE dense
/// pass over the view's sets instead of a membership probe per (candidate,
/// set) pair. The weight pass is recomputed every step — prior mass is a
/// double, and deriving child sums by subtraction would not be bit-identical
/// to summing them fresh — but for any fixed entity the fresh sum adds the
/// same weights in the same member order as the old probe loop, so decisions
/// are unchanged.
class WeightedMostEvenSelector : public EntitySelector {
 public:
  /// `weights` is indexed by SetId over the full collection; it must outlive
  /// the selector. Weights must be non-negative (not necessarily normalized).
  /// `differential = false` pins the full-recount counting baseline (the
  /// weighting pass is identical either way).
  explicit WeightedMostEvenSelector(const std::vector<double>* weights,
                                    bool differential = true)
      : weights_(weights) {
    counter_.set_enabled(differential);
  }

  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded = nullptr) override;
  std::string_view name() const override { return "WeightedMostEven"; }

  /// The name doesn't encode the prior, but the decisions depend on it.
  uint64_t DecisionFingerprint() const override;

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
    weight_acc_.Reset();
    weight_stamp_.Reset();
  }

  /// Full/delta/re-emit breakdown of the counting passes so far.
  const DeltaCounterStats& counting_stats() const { return counter_.stats(); }

 private:
  const std::vector<double>* weights_;
  DeltaCounter counter_;
  std::vector<EntityCount> counts_;
  /// Dense per-entity weight accumulator, epoch-stamped so it never needs a
  /// clear pass: a stale stamp reads as "no mass yet". The stamps start
  /// zeroed and the accumulator uninitialised (util/scratch_array.h), so a
  /// fresh selector faults in only the pages a pass writes.
  ScratchArray<double> weight_acc_;
  ScratchArray<uint32_t> weight_stamp_;
  uint32_t weight_epoch_ = 0;
};

/// Extends fingerprint `h` with a prior vector's bit patterns — the
/// DecisionFingerprint() helper shared by the weighted selectors.
uint64_t FingerprintWeights(uint64_t h, const std::vector<double>& weights);

/// Shannon lower bound on the expected number of yes/no questions needed to
/// identify a set drawn from prior `weights` over `ids`: H(p) bits.
double WeightedEntropyLowerBound(const std::vector<double>& weights,
                                 const std::vector<SetId>& ids);

/// Expected questions of `tree` under the prior (weights indexed by SetId).
double ExpectedQuestions(const DecisionTree& tree,
                         const std::vector<double>& weights);

}  // namespace setdisc
