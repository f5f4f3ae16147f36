#include "core/weighted.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/trace.h"
#include "util/status.h"

namespace setdisc {

/// Sequence fingerprint of a prior vector (bit patterns, so -0.0 != 0.0 is
/// the only surprise — and those never both appear as set weights).
uint64_t FingerprintWeights(uint64_t h, const std::vector<double>& weights) {
  for (double w : weights) {
    uint64_t bits;
    std::memcpy(&bits, &w, sizeof bits);
    h = FingerprintAppend(h, bits);
  }
  return h;
}

uint64_t WeightedMostEvenSelector::DecisionFingerprint() const {
  return FingerprintWeights(FingerprintString(name()), *weights_);
}

EntityId WeightedMostEvenSelector::Select(const SubCollection& sub,
                                          const EntityExclusion* excluded) {
  if (sub.size() < 2) return kNoEntity;
  counter_.CountInformative(sub, &counts_, excluded);
  if (counts_.empty()) return kNoEntity;

  // One dense pass accumulates every entity's contained mass. For a fixed
  // entity the adds happen in ascending member order — the same sequence the
  // per-candidate probe loop produced — so w_in is bit-identical and the
  // epsilon tie-break below decides exactly as before.
  obs::PhaseTimer order_timer(obs::Phase::kOrder);
  const SetCollection& collection = sub.collection();
  if (weight_stamp_.size() < collection.universe_size()) {
    // Only the stamps need zeros; an accumulator entry is read only where
    // its stamp says this pass wrote it.
    weight_stamp_.AllocateZeroed(collection.universe_size());
    weight_acc_.AllocateUninitialized(collection.universe_size());
  }
  if (++weight_epoch_ == 0) {  // stamp wrap-around: invalidate everything
    std::fill_n(weight_stamp_.data(), weight_stamp_.size(), 0u);
    weight_epoch_ = 1;
  }
  const uint32_t epoch = weight_epoch_;
  double total = 0.0;
  for (SetId s : sub.ids()) {
    const double w = s < weights_->size() ? (*weights_)[s] : 0.0;
    total += w;
    for (EntityId e : collection.set(s)) {
      if (weight_stamp_[e] != epoch) {
        weight_stamp_[e] = epoch;
        weight_acc_[e] = w;  // == 0.0 + w: same double as the old loop's start
      } else {
        weight_acc_[e] += w;
      }
    }
  }

  EntityId best = kNoEntity;
  double best_gap = 0.0;
  for (const EntityCount& ec : counts_) {
    const double w_in =
        weight_stamp_[ec.entity] == epoch ? weight_acc_[ec.entity] : 0.0;
    double gap = std::fabs(2.0 * w_in - total);
    if (best == kNoEntity || gap < best_gap - 1e-12) {
      best = ec.entity;
      best_gap = gap;
    }
  }
  return best;
}

double WeightedEntropyLowerBound(const std::vector<double>& weights,
                                 const std::vector<SetId>& ids) {
  double total = 0.0;
  for (SetId s : ids) total += s < weights.size() ? weights[s] : 0.0;
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (SetId s : ids) {
    double w = s < weights.size() ? weights[s] : 0.0;
    if (w <= 0.0) continue;
    double p = w / total;
    h -= p * std::log2(p);
  }
  return h;
}

double ExpectedQuestions(const DecisionTree& tree,
                         const std::vector<double>& weights) {
  std::unordered_map<SetId, double> by_set;
  for (SetId s = 0; s < weights.size(); ++s) by_set[s] = weights[s];
  return tree.WeightedAvgDepth(by_set);
}

}  // namespace setdisc
