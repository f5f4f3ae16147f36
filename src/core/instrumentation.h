#pragma once

/// \file instrumentation.h
/// Counters for the pruning-effectiveness experiments (Table 4, Fig. 4,
/// §5.3.3). Recording is optional and cheap; when disabled only aggregate
/// totals are kept.

#include <cstdint>
#include <vector>

namespace setdisc {

/// Pruning statistics for one top-level entity selection (one decision-tree
/// node in Algorithm 3 terms).
struct NodeStats {
  uint64_t candidates = 0;        ///< informative entities at the node
  uint64_t fully_evaluated = 0;   ///< entities whose k-step bound completed
  uint64_t pruned_by_break = 0;   ///< skipped by the sorted early break (l.14)
  uint64_t pruned_by_child = 0;   ///< abandoned when a child hit its UL
  uint64_t pruned_by_duplicate = 0;  ///< same split as an earlier candidate
  uint64_t excluded_by_beam = 0;  ///< outside the k-LPLE/k-LPLVE beam

  /// Fraction of candidate entities whose k-step evaluation was avoided —
  /// the quantity Table 4 reports per node.
  double PrunedFraction() const {
    if (candidates == 0) return 0.0;
    return 1.0 -
           static_cast<double>(fully_evaluated) / static_cast<double>(candidates);
  }
};

/// Aggregate statistics across a whole search / tree construction.
struct KlpStats {
  NodeStats totals;                 ///< summed over top-level selections
  uint64_t recursive_calls = 0;     ///< SelectImpl invocations (all depths)
  uint64_t cache_hits = 0;          ///< memo hits (all depths)
  uint64_t cache_misses = 0;
  uint64_t entities_evaluated_deep = 0;  ///< full evaluations at any depth
  std::vector<NodeStats> per_node;  ///< one entry per top-level Select when
                                    ///< recording is enabled

  void Reset() { *this = KlpStats(); }
};

}  // namespace setdisc
