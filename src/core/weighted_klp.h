#pragma once

/// \file weighted_klp.h
/// Weighted k-LP — the §7 future-work extension "scenarios where the sets to
/// be discovered are not equally likely", carried through the full k-LP
/// machinery rather than just the 1-step greedy of weighted.h.
///
/// Cost model: each set s has prior weight w_s; the cost of a tree is the
/// expected number of questions under the prior, i.e. the *weighted* average
/// leaf depth. Internally costs are weighted-total-depth integers over
/// quantized weights (so pruning comparisons stay exact, as in cost.h):
///
///   WTD(T) = Σ_s qw_s · depth(s),   expected questions = WTD / W.
///
/// Lower bound: Shannon's noiseless-coding bound — leaf depths form a
/// prefix code, so E[depth] >= H(p) and
///
///   LB0_w(C) = floor( Σ_s qw_s · log2(W(C)/qw_s) ).
///
/// The §4.1 recurrences carry over verbatim in weighted units:
///   Combine_w(c1, c2, W) = c1 + c2 + W,  UL_w analogous to Eqs. 11-14.
/// The entropy chain rule gives LB1_w(e) = W·H(C) − W·h2(W1/W) + W, a
/// decreasing function of the *weighted* split evenness — so the sorted
/// early break of Algorithm 1 remains sound with weighted-imbalance order.

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "collection/delta_counter.h"
#include "collection/entity_counter.h"
#include "collection/sub_collection.h"
#include "core/cost.h"
#include "core/selector.h"
#include "util/scratch_array.h"

namespace setdisc {

/// Options for the weighted search (a subset of KlpOptions).
struct WeightedKlpOptions {
  int k = 2;
  int beam_width = -1;          ///< q; <= 0 unlimited
  bool enable_early_break = true;
  bool enable_upper_limits = true;
  bool enable_memoization = true;

  /// Serve the top-level counting pass differentially from the previous
  /// step's retained counts (collection/delta_counter.h) when the session
  /// reports partitions via NotePartition. Decision-neutral — counts are
  /// exact on every path.
  bool enable_delta_counting = true;

  /// Quantization target: the largest weight maps to this many integer
  /// units. Larger = finer prior resolution, smaller = more headroom.
  uint64_t weight_resolution = 1 << 20;
};

/// Result of a weighted selection: entity plus its weighted k-step bound
/// (weighted-total-depth units; divide by the sub-collection's total weight
/// for expected questions).
struct WeightedSelection {
  EntityId entity = kNoEntity;
  Cost bound = kInfiniteCost;
};

/// Entity selection minimizing the k-step lower bound on expected questions
/// under a set prior.
class WeightedKlpSelector : public EntitySelector {
 public:
  /// `weights` is indexed by SetId over the parent collection and must
  /// outlive the selector; entries must be positive where used.
  WeightedKlpSelector(const std::vector<double>* weights,
                      WeightedKlpOptions options);
  ~WeightedKlpSelector() override;

  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded = nullptr) override;

  WeightedSelection SelectWithBound(const SubCollection& sub,
                                    Cost upper_limit,
                                    const EntityExclusion* excluded = nullptr);

  std::string_view name() const override { return name_; }

  /// The name encodes k but not the prior; the decisions depend on both.
  uint64_t DecisionFingerprint() const override;

  /// Quantized weight of one set (>= 1).
  Cost QuantizedWeight(SetId s) const;

  /// Total quantized weight of a sub-collection.
  Cost TotalWeight(const SubCollection& sub) const;

  /// Shannon lower bound LB0_w in weighted-total-depth units.
  Cost WeightedLb0(const SubCollection& sub) const;

  /// Differential-counting hooks: the top-level counting pass (the only one
  /// over the full candidate view, hence the dominant one) is served by a
  /// DeltaCounter; the lookahead recursion's passes keep their own plain
  /// counter, since they sweep sibling views that would break the chain.
  void NotePartition(const SubCollection& parent, EntityId e,
                     bool kept_contains, const SubCollection& kept,
                     SubCollection dropped) override {
    (void)e;
    (void)kept_contains;
    delta_counter_.NotePartition(parent, kept, std::move(dropped));
  }
  void InvalidateCountState() override { delta_counter_.Invalidate(); }
  void ReleaseMemory() override;

  /// Full/delta/re-emit breakdown of the top-level counting passes.
  const DeltaCounterStats& counting_stats() const {
    return delta_counter_.stats();
  }

  /// Drops the (ids, k) memo only — benches clear it between conversations
  /// so the uncached counting cost is what gets measured.
  void ClearCache() { cache_.clear(); }

 private:
  struct MemoKey {
    std::vector<SetId> ids;
    int32_t k;
    bool operator==(const MemoKey&) const = default;
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& key) const;
  };
  struct MemoEntry {
    EntityId entity;
    Cost bound;
  };

  WeightedSelection SelectImpl(const SubCollection& sub, int k,
                               Cost upper_limit,
                               const EntityExclusion* excluded);

  /// Fills `candidates` with per-entity split sums for every entry of
  /// `counts`, via one dense epoch-stamped pass over the view's sets:
  /// contained set count, contained quantized mass (integer — exact
  /// regardless of accumulation order), and contained Σ qw·log2(qw). With
  /// the view's own totals, those three numbers give both halves' sizes,
  /// weights, and Shannon floors (Lb0FromSums) — so a candidate's 1-step
  /// bound costs O(1), leaf nodes (k <= 1) never call Partition at all,
  /// and interior nodes partition only candidates that survive the
  /// early-break check.
  struct Candidate {
    EntityId entity;
    uint32_t count;
    Cost weight_in;
    double qlog_in;
  };
  void WeighCandidates(const SubCollection& sub,
                       const std::vector<EntityCount>& counts,
                       std::vector<Candidate>* candidates);

  /// Shannon floor from a view's weight sums: Σ qw·log2(W/qw) =
  /// log2(W)·W − Σ qw·log2(qw), so a view's bound needs only its total
  /// weight and its Σ qw·log2(qw) — both one-lookup-per-set accumulations
  /// over the tables below, and both derivable for a partition's second
  /// half by subtraction from the parent's sums.
  static Cost Lb0FromSums(Cost total_weight, double qlog_sum);

  const std::vector<double>* weights_;
  WeightedKlpOptions options_;
  std::string name_;
  double quantization_scale_ = 1.0;
  /// Per-set quantized weight and qw·log2(qw), fixed at construction (the
  /// prior is immutable): the recursion's bound math never recomputes
  /// llround or log2 per call.
  std::vector<Cost> quantized_;
  std::vector<double> weight_log_;
  EntityCounter counter_;
  /// Top-level counting state; armed by NotePartition between steps.
  DeltaCounter delta_counter_;
  std::unordered_map<MemoKey, MemoEntry, MemoKeyHash> cache_;
  int depth_ = 0;
  std::vector<std::unique_ptr<std::vector<EntityCount>>> scratch_;
  /// Dense per-entity accumulators for WeighCandidates (quantized mass and
  /// qw·log2(qw) mass), epoch-stamped so they never need clearing. The
  /// stamps start zeroed and the accumulators uninitialised
  /// (util/scratch_array.h), so a fresh selector faults in only the pages a
  /// pass writes.
  ScratchArray<Cost> weight_acc_;
  ScratchArray<double> qlog_acc_;
  ScratchArray<uint32_t> weight_stamp_;
  uint32_t weight_epoch_ = 0;
};

/// Unpruned exhaustive weighted k-step bound — the test reference for the
/// pruned search (analogous to bounds.h's LbKAllEntities). Runs the same
/// recursion with every pruning switch off. Use on small inputs only.
Cost WeightedLbKReference(const SubCollection& sub,
                          const std::vector<double>* weights,
                          WeightedKlpOptions options);

}  // namespace setdisc
