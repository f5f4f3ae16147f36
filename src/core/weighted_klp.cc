#include "core/weighted_klp.h"

#include <algorithm>
#include <cmath>

#include "core/weighted.h"
#include "util/table_printer.h"

namespace setdisc {

namespace {

/// |2·W1 − W|: the weight imbalance of a split with contained mass W1.
inline Cost WeightImbalance(Cost weight_in, Cost total) {
  return std::llabs(2 * weight_in - total);
}

/// Scan order and beam order: most weight-even first, then lowest id.
struct MoreWeightEven {
  Cost total;
  bool operator()(const WeightedCost::Candidate& a,
                  const WeightedCost::Candidate& b) const {
    const Cost ia = WeightImbalance(a.weight_in, total);
    const Cost ib = WeightImbalance(b.weight_in, total);
    if (ia != ib) return ia < ib;
    return a.entity < b.entity;
  }
};

}  // namespace

WeightedCost::WeightedCost(const std::vector<double>* weights,
                           uint64_t resolution) {
  SETDISC_CHECK(weights != nullptr);
  double max_w = 0.0;
  for (double w : *weights) max_w = std::max(max_w, w);
  const double scale =
      max_w > 0.0 ? static_cast<double>(resolution) / max_w : 1.0;
  quantized_.reserve(weights->size());
  weight_log_.reserve(weights->size());
  for (double w : *weights) {
    // Every set keeps at least one unit of weight so it stays discoverable
    // (a zero-weight set could otherwise be placed arbitrarily deep).
    Cost q = static_cast<Cost>(std::llround(w * scale));
    if (q < 1) q = 1;
    quantized_.push_back(q);
    weight_log_.push_back(static_cast<double>(q) *
                          std::log2(static_cast<double>(q)));
  }
}

Cost WeightedCost::Lb0FromSums(Cost total_weight, double qlog_sum) {
  const double total = static_cast<double>(total_weight);
  double bits = std::log2(total) * total - qlog_sum;
  // floor() keeps the Shannon bound a valid *lower* bound after quantizing.
  return static_cast<Cost>(std::floor(bits));
}

WeightedCost::Node WeightedCost::MakeNode(const SubCollection& sub) const {
  Node node{sub.size(), 0, 0.0};
  for (SetId s : sub.ids()) {
    node.weight += QuantizedWeight(s);
    if (s < weight_log_.size()) node.qlog += weight_log_[s];
  }
  return node;
}

void WeightedCost::Accumulate(const SubCollection& sub) {
  const SetCollection& collection = sub.collection();
  if (sums_.size() < collection.universe_size()) {
    sums_.AllocateZeroed(collection.universe_size());
  }
  if (++epoch_ == 0) {  // stamp wrap-around: invalidate everything
    for (size_t e = 0; e < sums_.size(); ++e) sums_[e].stamp = 0;
    epoch_ = 1;
  }
  const uint32_t epoch = epoch_;
  touched_.clear();
  for (SetId s : sub.ids()) {
    const Cost w = QuantizedWeight(s);
    const double wl = s < weight_log_.size() ? weight_log_[s] : 0.0;
    for (EntityId e : collection.set(s)) {
      Sums& acc = sums_[e];
      if (acc.stamp != epoch) {
        acc = {epoch, 1, w, wl};
        touched_.push_back(e);
      } else {
        ++acc.count;
        acc.weight += w;
        acc.qlog += wl;
      }
    }
  }
}

std::vector<WeightedCost::Candidate>& WeightedCost::Weigh(
    const SubCollection& sub, const Node& /*node*/,
    std::vector<EntityCount>* counts, std::vector<Candidate>* out) {
  Accumulate(sub);
  out->resize(counts->size());
  for (size_t i = 0; i < counts->size(); ++i) {
    const EntityCount ec = (*counts)[i];
    const Sums& acc = sums_[ec.entity];
    (*out)[i] = {ec.entity, ec.count, acc.weight, acc.qlog};
  }
  return *out;
}

void WeightedCost::Sort(const Node& node,
                        std::vector<Candidate>* candidates) const {
  std::sort(candidates->begin(), candidates->end(),
            MoreWeightEven{node.weight});
}

KlpSelection WeightedCost::PickLeaf(const Node& node,
                                    std::vector<Candidate>* candidates,
                                    Cost upper_limit, int beam) const {
  if (beam > 0 && static_cast<size_t>(beam) < candidates->size()) {
    // The beam keeps the q most weight-even candidates; the scan below is
    // order-independent, so a partition suffices in place of the sort.
    std::nth_element(candidates->begin(), candidates->begin() + beam,
                     candidates->end(), MoreWeightEven{node.weight});
    candidates->resize(static_cast<size_t>(beam));
  }
  // The 1-step bound lb0_in + lb0_out + W is fully determined by the
  // candidate's split sums, so no candidate needs a Partition. Scanning for
  // the lexicographic minimum of (bound, weight imbalance, entity) selects
  // exactly what a sorted sweep's first-strict-improvement rule would.
  Cost best = upper_limit;
  EntityId best_entity = kNoEntity;
  Cost best_imb = 0;
  for (const Candidate& cand : *candidates) {
    const SplitLb0 split = SplitOf(node, cand);
    const Cost l = Combine(node, split.lb0_in, split.lb0_out);
    const Cost imb = WeightImbalance(cand.weight_in, node.weight);
    if (l < best ||
        (l == best && best_entity != kNoEntity &&
         (imb < best_imb || (imb == best_imb && cand.entity < best_entity)))) {
      best = l;
      best_entity = cand.entity;
      best_imb = imb;
    }
  }
  return {best_entity, best};
}

KlpSelection WeightedCost::PickHintedLeaf(const SubCollection& sub,
                                          const Node& node, Cost upper_limit,
                                          const DeltaHint<Candidate>& /*hint*/,
                                          const EntityExclusion* excluded,
                                          int beam, bool /*sorted*/) {
  // The child's candidates are exactly what CountInformative would emit:
  // touched, not in every set, not excluded.
  Accumulate(sub);
  leaf_.clear();
  for (const EntityId e : touched_) {
    const Sums& acc = sums_[e];
    if (acc.count == node.n) continue;
    if (excluded != nullptr && excluded->Test(e)) continue;
    leaf_.push_back({e, acc.count, acc.weight, acc.qlog});
  }
  return PickLeaf(node, &leaf_, upper_limit, beam);
}

void WeightedCost::Release() {
  sums_.Reset();
  touched_ = {};
  leaf_ = {};
}

WeightedKlpSelector::WeightedKlpSelector(const std::vector<double>* weights,
                                         WeightedKlpOptions options)
    : LookaheadSelector(WeightedCost(weights, options.weight_resolution),
                        {.k = options.k,
                         .beam_width = options.beam_width,
                         .enable_early_break = options.enable_early_break,
                         .enable_upper_limits = options.enable_upper_limits,
                         .enable_memoization = options.enable_memoization,
                         .enable_delta_counting =
                             options.enable_delta_counting}),
      weights_(weights),
      name_(Format("Weighted-%d-LP", options.k)) {
  SETDISC_CHECK(options.k >= 1);
}

uint64_t WeightedKlpSelector::DecisionFingerprint() const {
  return FingerprintWeights(FingerprintString(name()), *weights_);
}

Cost WeightedLbKReference(const SubCollection& sub,
                          const std::vector<double>* weights,
                          WeightedKlpOptions options) {
  options.enable_early_break = false;
  options.enable_upper_limits = false;
  options.enable_memoization = false;
  options.beam_width = -1;
  WeightedKlpSelector reference(weights, options);
  return reference.SelectWithBound(sub, kInfiniteCost).bound;
}

}  // namespace setdisc
