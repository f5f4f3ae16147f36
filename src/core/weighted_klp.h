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
///   LB0_w(C) = floor( Σ_s qw_s · log2(W(C)/qw_s) )
///            = floor( log2(W)·W − Σ_s qw_s·log2(qw_s) ).
///
/// The §4.1 recurrences carry over verbatim in weighted units:
///   Combine_w(c1, c2, W) = c1 + c2 + W,  UL_w analogous to Eqs. 11-14.
/// The entropy chain rule gives LB1_w(e) = W·H(C) − W·h2(W1/W) + W, which
/// in real arithmetic decreases with the *weighted* split evenness; the
/// floors can reorder near-ties, so the line-14 check skips a candidate
/// instead of ending the loop.
///
/// The search is klp.h's one Algorithm 1 recursion (LookaheadSelector) run
/// over WeightedCost, sharing k-LP's memo, duplicate-partition skip,
/// differential counting and pruning telemetry; this file holds the cost
/// model: the prior's quantized tables and the bound math over them.

#include <string>
#include <string_view>
#include <vector>

#include "core/klp.h"
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
  /// reports partitions via NotePartition, and derive lookahead children's
  /// counts from their parent's. Decision-neutral — counts are exact on
  /// every path.
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

/// The prior's cost model. Every bound comes from three sums over a view's
/// sets — count, quantized mass and Σ qw·log2(qw) — so a candidate's 1-step
/// bound is O(1) from its contained sums and the node's totals.
class WeightedCost {
 public:
  struct Candidate {
    EntityId entity;
    uint32_t count;
    Cost weight_in;  ///< quantized mass of the sets containing `entity`
    double qlog_in;  ///< their Σ qw·log2(qw), summed here (see klp.h)
  };
  struct Node {
    uint64_t n;
    Cost weight;  ///< total quantized mass W
    double qlog;  ///< Σ qw·log2(qw) over the node's sets
  };
  static constexpr bool kMonotoneLb1 = false;
  /// A child with no entity while upper limits are off (only possible under
  /// exclusions) stands at its Shannon floor, as WeightedLbKReference's
  /// exhaustive search expects.
  static constexpr bool kNoEntityFallsBackToLb0 = true;
  static constexpr bool kCandidatesAreCounts = false;
  /// The out-half's floor subtracts a double, so swapped halves can round
  /// across an integer: the duplicate skip matches only a repeat with the
  /// same containing half (identical sums, identical bounds).
  static constexpr bool kSwappedHalvesAlike = false;

  /// Quantizes `weights` (indexed by SetId) so the largest maps to
  /// `resolution` units and every set keeps at least one.
  WeightedCost(const std::vector<double>* weights, uint64_t resolution);

  /// Quantized weight of one set (>= 1; out-of-range ids weigh one unit).
  Cost QuantizedWeight(SetId s) const {
    return s < quantized_.size() ? quantized_[s] : 1;
  }
  /// Shannon floor from a view's sums: floor(log2(W)·W − Σ qw·log2(qw)).
  static Cost Lb0FromSums(Cost total_weight, double qlog_sum);

  /// The view's totals, summed over its ids in ascending order.
  Node MakeNode(const SubCollection& sub) const;
  Cost Lb0(const Node& node) const {
    return Lb0FromSums(node.weight, node.qlog);
  }
  /// LB0 floors a view's Shannon sum once, but a k-step value floors each
  /// node of its frontier separately. Each floor drops less than one unit
  /// and the real sums chain (W·h2 <= W in Combine), so a k-step value can
  /// sit below LB0 by about one unit per frontier node of two or more sets,
  /// of which there are at most n/2 (a uniform prior over 6 sets split 3/3
  /// already gives one). Pruning compares against LB0 less n units, which
  /// also covers the rounding of the double sums. A view of at most one set
  /// is exact.
  static Cost Lb0Slack(uint64_t n) {
    return n < 2 ? 0 : static_cast<Cost>(n);
  }
  /// The split sums of every entry of `counts`, in `out`.
  std::vector<Candidate>& Weigh(const SubCollection& sub, const Node& node,
                                std::vector<EntityCount>* counts,
                                std::vector<Candidate>* out);
  /// Most weight-even first (ties: lowest id).
  void Sort(const Node& node, std::vector<Candidate>* candidates) const;
  SplitLb0 SplitOf(const Node& node, const Candidate& c) const {
    const uint64_t c2 = node.n - c.count;
    return {c.count <= 1 ? 0 : Lb0FromSums(c.weight_in, c.qlog_in),
            c2 <= 1 ? 0
                    : Lb0FromSums(node.weight - c.weight_in,
                                  node.qlog - c.qlog_in)};
  }
  Cost Combine(const Node& node, Cost left, Cost right) const {
    return left + right + node.weight;
  }
  Cost UpperLimitFirst(const Node& node, Cost best, Cost other_lb0) const {
    return best - node.weight - other_lb0;
  }
  Cost UpperLimitSecond(const Node& node, Cost best, Cost first) const {
    return best - node.weight - first;
  }
  /// k = 1: the minimum (1-step bound, weight imbalance, entity) among the
  /// q most weight-even candidates (all when beam <= 0) whose bound goes
  /// below `upper_limit`; kNoEntity with the limit otherwise.
  KlpSelection PickLeaf(const Node& node, std::vector<Candidate>* candidates,
                        Cost upper_limit, int beam) const;
  /// The same pick for a lookahead child from one pass over its own sets,
  /// which its Σ qw·log2(qw) needs anyway; the hint is not used.
  KlpSelection PickHintedLeaf(const SubCollection& sub, const Node& node,
                              Cost upper_limit,
                              const DeltaHint<Candidate>& hint,
                              const EntityExclusion* excluded, int beam,
                              bool sorted);
  /// Frees the dense accumulators (the tables stay).
  void Release();

 private:
  /// One pass over the view's sets: per touched entity, the count, mass
  /// and Σ qw·log2(qw) of the sets containing it, in ascending set order.
  void Accumulate(const SubCollection& sub);

  struct Sums {
    uint32_t stamp;
    uint32_t count;
    Cost weight;
    double qlog;
  };

  /// Per-set quantized weight and qw·log2(qw), fixed at construction.
  std::vector<Cost> quantized_;
  std::vector<double> weight_log_;
  /// Accumulate's per-entity sums, epoch-stamped so they never need
  /// clearing; calloc'd, so a fresh selector faults in only what it writes.
  ScratchArray<Sums> sums_;
  uint32_t epoch_ = 0;
  std::vector<EntityId> touched_;
  std::vector<Candidate> leaf_;  ///< PickHintedLeaf's candidate list
};

extern template class LookaheadSelector<WeightedCost>;

/// Entity selection minimizing the k-step lower bound on expected questions
/// under a set prior.
class WeightedKlpSelector : public LookaheadSelector<WeightedCost> {
 public:
  /// `weights` is indexed by SetId over the parent collection and must
  /// outlive the selector; entries must be positive where used.
  WeightedKlpSelector(const std::vector<double>* weights,
                      WeightedKlpOptions options);

  WeightedSelection SelectWithBound(const SubCollection& sub,
                                    Cost upper_limit,
                                    const EntityExclusion* excluded = nullptr) {
    const KlpSelection r = Search(sub, upper_limit, excluded);
    return {r.entity, r.bound};
  }

  std::string_view name() const override { return name_; }

  /// The name encodes k but not the prior; the decisions depend on both.
  uint64_t DecisionFingerprint() const override;

  /// Quantized weight of one set (>= 1).
  Cost QuantizedWeight(SetId s) const { return model().QuantizedWeight(s); }

  /// Total quantized weight of a sub-collection.
  Cost TotalWeight(const SubCollection& sub) const {
    return model().MakeNode(sub).weight;
  }

  /// Shannon lower bound LB0_w in weighted-total-depth units.
  Cost WeightedLb0(const SubCollection& sub) const {
    return sub.size() <= 1 ? 0 : model().Lb0(model().MakeNode(sub));
  }

 private:
  const std::vector<double>* weights_;
  std::string name_;
};

/// Unpruned exhaustive weighted k-step bound — the test reference for the
/// pruned search (analogous to bounds.h's LbKAllEntities). Runs the same
/// recursion with every pruning switch off. Use on small inputs only.
Cost WeightedLbKReference(const SubCollection& sub,
                          const std::vector<double>* weights,
                          WeightedKlpOptions options);

}  // namespace setdisc
