#include "core/selectors.h"

#include <cmath>
#include <limits>
#include <span>

#include "obs/trace.h"

namespace setdisc {

namespace {

/// Imbalance of a split of n sets with |C1| = c: | |C1| - |C2| |.
inline uint64_t Imbalance(uint64_t c, uint64_t n) {
  uint64_t other = n - c;
  return c > other ? c - other : other - c;
}

/// Most even partition: the entity minimizing | |C1| - |C2| | among
/// `counts` (informative entities of an n-set candidate collection, in
/// ascending entity order — ties go to the smallest id). kNoEntity if empty.
EntityId PickMostEven(std::span<const EntityCount> counts, uint64_t n) {
  EntityId best = kNoEntity;
  uint64_t best_imbalance = 0;
  for (const EntityCount& ec : counts) {
    uint64_t imb = Imbalance(ec.count, n);
    if (best == kNoEntity || imb < best_imbalance) {
      best = ec.entity;
      best_imbalance = imb;
    }
  }
  return best;  // counts is entity-ordered, so ties go to the smallest id
}

/// Information gain (Eq. 9): minimizes |C1|log|C1| + |C2|log|C2|; ties broken
/// by the most even partition, then entity id. kNoEntity if empty.
EntityId PickInfoGain(std::span<const EntityCount> counts, uint64_t n) {
  EntityId best = kNoEntity;
  double best_split_entropy = 0.0;  // |C1| log|C1| + |C2| log|C2|, minimized
  uint64_t best_imbalance = 0;
  for (const EntityCount& ec : counts) {
    double c1 = static_cast<double>(ec.count);
    double c2 = static_cast<double>(n - ec.count);
    // Maximizing Eq. (9) is minimizing this quantity (|C| is constant).
    double split = c1 * std::log2(c1) + c2 * std::log2(c2);
    uint64_t imb = Imbalance(ec.count, n);
    if (best == kNoEntity || split < best_split_entropy - 1e-12 ||
        (split < best_split_entropy + 1e-12 && imb < best_imbalance)) {
      best = ec.entity;
      best_split_entropy = split;
      best_imbalance = imb;
    }
  }
  return best;
}

/// PickInfoGain with a caller-owned memo table for the split score. The
/// score depends only on (count, n), and counts repeat heavily on real
/// collections, so the two log2 calls per candidate — the scoring pass's
/// entire cost — collapse to one table fill per *distinct* count. The table
/// is lazily filled per call (it is n-specific); entries hold the exact
/// double the unmemoized loop computes, so decisions are byte-identical.
/// Falls back to the plain loop when the O(n) table reset would cost more
/// than it saves.
EntityId PickInfoGain(std::span<const EntityCount> counts, uint64_t n,
                      std::vector<double>* split_table) {
  // The memo only pays when candidates outnumber the O(n) sentinel reset —
  // a vectorized fill, so a modest multiple is enough slack.
  if (split_table == nullptr || n > counts.size() * 4) {
    return PickInfoGain(counts, n);
  }
  std::vector<double>& table = *split_table;
  table.assign(n, std::numeric_limits<double>::quiet_NaN());
  EntityId best = kNoEntity;
  double best_split_entropy = 0.0;
  uint64_t best_imbalance = 0;
  for (const EntityCount& ec : counts) {
    double split = table[ec.count];
    if (std::isnan(split)) {  // real scores are finite: c1, c2 >= 1
      double c1 = static_cast<double>(ec.count);
      double c2 = static_cast<double>(n - ec.count);
      split = c1 * std::log2(c1) + c2 * std::log2(c2);
      table[ec.count] = split;
    }
    uint64_t imb = Imbalance(ec.count, n);
    if (best == kNoEntity || split < best_split_entropy - 1e-12 ||
        (split < best_split_entropy + 1e-12 && imb < best_imbalance)) {
      best = ec.entity;
      best_split_entropy = split;
      best_imbalance = imb;
    }
  }
  return best;
}

/// Minimum indistinguishable pairs (Eq. 10): minimizes C(|C1|,2) + C(|C2|,2);
/// ties broken by the most even partition, then entity id. kNoEntity if
/// empty.
EntityId PickIndistinguishablePairs(std::span<const EntityCount> counts,
                                    uint64_t n) {
  EntityId best = kNoEntity;
  uint64_t best_pairs = 0;
  uint64_t best_imbalance = 0;
  for (const EntityCount& ec : counts) {
    uint64_t c1 = ec.count;
    uint64_t c2 = n - ec.count;
    // Eq. (10) numerator; the /2 is constant and dropped.
    uint64_t pairs = c1 * (c1 - 1) + c2 * (c2 - 1);
    uint64_t imb = Imbalance(ec.count, n);
    if (best == kNoEntity || pairs < best_pairs ||
        (pairs == best_pairs && imb < best_imbalance)) {
      best = ec.entity;
      best_pairs = pairs;
      best_imbalance = imb;
    }
  }
  return best;
}

}  // namespace

EntityId MostEvenSelector::Select(const SubCollection& sub,
                                  const EntityExclusion* excluded) {
  if (sub.size() < 2) return kNoEntity;
  counter_.CountInformative(sub, &counts_, excluded);
  obs::PhaseTimer order_timer(obs::Phase::kOrder);
  return PickMostEven(counts_, sub.size());
}

EntityId InfoGainSelector::Select(const SubCollection& sub,
                                  const EntityExclusion* excluded) {
  if (sub.size() < 2) return kNoEntity;
  counter_.CountInformative(sub, &counts_, excluded);
  obs::PhaseTimer order_timer(obs::Phase::kOrder);
  return PickInfoGain(counts_, sub.size(), &split_table_);
}

EntityId IndistinguishablePairsSelector::Select(const SubCollection& sub,
                                                const EntityExclusion* excluded) {
  if (sub.size() < 2) return kNoEntity;
  counter_.CountInformative(sub, &counts_, excluded);
  obs::PhaseTimer order_timer(obs::Phase::kOrder);
  return PickIndistinguishablePairs(counts_, sub.size());
}

EntityId RandomSelector::Select(const SubCollection& sub,
                                const EntityExclusion* excluded) {
  if (sub.size() < 2) return kNoEntity;
  counter_.CountInformative(sub, &counts_, excluded);
  if (counts_.empty()) return kNoEntity;
  return counts_[rng_.Uniform(counts_.size())].entity;
}

}  // namespace setdisc
