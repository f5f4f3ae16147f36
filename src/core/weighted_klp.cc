#include "core/weighted_klp.h"

#include <algorithm>
#include <cmath>

#include "core/weighted.h"
#include "util/table_printer.h"

namespace setdisc {

WeightedKlpSelector::WeightedKlpSelector(const std::vector<double>* weights,
                                         WeightedKlpOptions options)
    : weights_(weights), options_(options) {
  SETDISC_CHECK(options_.k >= 1);
  SETDISC_CHECK(weights_ != nullptr);
  delta_counter_.set_enabled(options_.enable_delta_counting);
  double max_w = 0.0;
  for (double w : *weights_) max_w = std::max(max_w, w);
  quantization_scale_ =
      max_w > 0.0 ? static_cast<double>(options_.weight_resolution) / max_w
                  : 1.0;
  quantized_.reserve(weights_->size());
  weight_log_.reserve(weights_->size());
  for (double w : *weights_) {
    Cost q = static_cast<Cost>(std::llround(w * quantization_scale_));
    if (q < 1) q = 1;
    quantized_.push_back(q);
    weight_log_.push_back(static_cast<double>(q) *
                          std::log2(static_cast<double>(q)));
  }
  name_ = Format("Weighted-%d-LP", options_.k);
}

WeightedKlpSelector::~WeightedKlpSelector() = default;

void WeightedKlpSelector::ReleaseMemory() {
  delta_counter_.Release();
  counter_.Release();
  cache_.clear();
  scratch_.clear();
  weight_acc_.Reset();
  qlog_acc_.Reset();
  weight_stamp_.Reset();
}

Cost WeightedKlpSelector::QuantizedWeight(SetId s) const {
  // Every set keeps at least one unit of weight so it stays discoverable
  // (a zero-weight set could otherwise be placed arbitrarily deep);
  // out-of-range ids quantize as weight zero, i.e. one unit.
  return s < quantized_.size() ? quantized_[s] : 1;
}

Cost WeightedKlpSelector::TotalWeight(const SubCollection& sub) const {
  Cost total = 0;
  for (SetId s : sub.ids()) total += QuantizedWeight(s);
  return total;
}

Cost WeightedKlpSelector::Lb0FromSums(Cost total_weight, double qlog_sum) {
  const double total = static_cast<double>(total_weight);
  double bits = std::log2(total) * total - qlog_sum;
  // floor() keeps the Shannon bound a valid *lower* bound after quantizing.
  return static_cast<Cost>(std::floor(bits));
}

Cost WeightedKlpSelector::WeightedLb0(const SubCollection& sub) const {
  if (sub.size() <= 1) return 0;
  Cost total = 0;
  double qlog = 0.0;
  for (SetId s : sub.ids()) {
    total += QuantizedWeight(s);
    if (s < weight_log_.size()) qlog += weight_log_[s];
  }
  return Lb0FromSums(total, qlog);
}

size_t WeightedKlpSelector::MemoKeyHash::operator()(const MemoKey& key) const {
  uint64_t h = 1469598103934665603ULL;
  for (SetId s : key.ids) {
    h ^= s;
    h *= 1099511628211ULL;
    h ^= h >> 29;
  }
  h ^= static_cast<uint64_t>(key.k) * 0x9E3779B97F4A7C15ULL;
  return static_cast<size_t>(h);
}

EntityId WeightedKlpSelector::Select(const SubCollection& sub,
                                     const EntityExclusion* excluded) {
  return SelectWithBound(sub, kInfiniteCost, excluded).entity;
}

uint64_t WeightedKlpSelector::DecisionFingerprint() const {
  return FingerprintWeights(FingerprintString(name()), *weights_);
}

WeightedSelection WeightedKlpSelector::SelectWithBound(
    const SubCollection& sub, Cost upper_limit,
    const EntityExclusion* excluded) {
  if (sub.size() < 2) return {kNoEntity, 0};
  depth_ = 0;
  return SelectImpl(sub, options_.k, upper_limit, excluded);
}

WeightedSelection WeightedKlpSelector::SelectImpl(
    const SubCollection& sub, int k, Cost upper_limit,
    const EntityExclusion* excluded) {
  const uint64_t n = sub.size();
  SETDISC_CHECK(n >= 2);
  if (k > static_cast<int>(n)) k = static_cast<int>(n);

  // Fast reject: every bound is >= the Shannon floor.
  if (options_.enable_upper_limits && upper_limit <= WeightedLb0(sub)) {
    return {kNoEntity, upper_limit};
  }

  const bool use_memo = options_.enable_memoization && excluded == nullptr;
  MemoKey key;
  if (use_memo) {
    key.ids.assign(sub.ids().begin(), sub.ids().end());
    key.k = k;
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      if (upper_limit <= it->second.bound) {
        return {kNoEntity, it->second.bound};
      }
      if (it->second.entity != kNoEntity) {
        return {it->second.entity, it->second.bound};
      }
    }
  }

  if (depth_ >= static_cast<int>(scratch_.size())) {
    scratch_.emplace_back(std::make_unique<std::vector<EntityCount>>());
  }
  std::vector<EntityCount>& counts = *scratch_[depth_];
  // Only the top-level pass runs over a view the session narrows step to
  // step; the recursion sweeps sibling views that would break its chain.
  if (depth_ == 0) {
    delta_counter_.CountInformative(sub, &counts, excluded);
  } else {
    counter_.CountInformative(sub, &counts, excluded);
  }
  if (counts.empty()) return {kNoEntity, upper_limit};

  Cost total_weight = 0;
  double qlog_total = 0.0;
  for (SetId s : sub.ids()) {
    total_weight += QuantizedWeight(s);
    if (s < weight_log_.size()) qlog_total += weight_log_[s];
  }

  // Weighted split sums per candidate entity: one dense pass over the
  // view's sets (exact integer mass + qlog mass), not a probe per
  // (candidate, set) and not a Partition per candidate.
  std::vector<Candidate> candidates;
  WeighCandidates(sub, counts, &candidates);

  if (k <= 1) {
    // Leaf: the 1-step bound lb0_in + lb0_out + W is fully determined by
    // the candidate's split sums, so no candidate needs a Partition — and
    // no sort either: scanning for the lexicographic minimum of
    // (bound, weight imbalance, entity) selects exactly the candidate the
    // sorted sweep's first-strict-improvement rule would have kept.
    if (options_.beam_width > 0 &&
        static_cast<size_t>(options_.beam_width) < candidates.size()) {
      // The beam keeps the q most weight-even candidates; the scan below is
      // order-independent, so a partition suffices in place of the sort.
      std::nth_element(
          candidates.begin(), candidates.begin() + options_.beam_width,
          candidates.end(),
          [total_weight](const Candidate& a, const Candidate& b) {
            Cost ia = std::llabs(2 * a.weight_in - total_weight);
            Cost ib = std::llabs(2 * b.weight_in - total_weight);
            if (ia != ib) return ia < ib;
            return a.entity < b.entity;
          });
      candidates.resize(static_cast<size_t>(options_.beam_width));
    }
    Cost best = upper_limit;
    EntityId best_entity = kNoEntity;
    Cost best_imb = 0;
    for (const Candidate& cand : candidates) {
      const uint64_t c1 = cand.count;
      const uint64_t c2 = n - c1;
      const Cost lb0_in = c1 <= 1 ? 0 : Lb0FromSums(cand.weight_in,
                                                    cand.qlog_in);
      const Cost lb0_out =
          c2 <= 1 ? 0 : Lb0FromSums(total_weight - cand.weight_in,
                                    qlog_total - cand.qlog_in);
      const Cost l = lb0_in + lb0_out + total_weight;
      const Cost imb = std::llabs(2 * cand.weight_in - total_weight);
      if (l < best ||
          (l == best && best_entity != kNoEntity &&
           (imb < best_imb ||
            (imb == best_imb && cand.entity < best_entity)))) {
        best = l;
        best_entity = cand.entity;
        best_imb = imb;
      }
    }
    if (use_memo) cache_[key] = MemoEntry{best_entity, best};
    return {best_entity, best};
  }

  // Most weight-even order (heuristic order; per-entity pruning below stays
  // sound regardless, unlike the unweighted sorted early break).
  std::sort(candidates.begin(), candidates.end(),
            [total_weight](const Candidate& a, const Candidate& b) {
              Cost ia = std::llabs(2 * a.weight_in - total_weight);
              Cost ib = std::llabs(2 * b.weight_in - total_weight);
              if (ia != ib) return ia < ib;
              return a.entity < b.entity;
            });
  size_t limit = candidates.size();
  if (options_.beam_width > 0 &&
      static_cast<size_t>(options_.beam_width) < limit) {
    limit = static_cast<size_t>(options_.beam_width);
  }

  Cost best = upper_limit;
  EntityId best_entity = kNoEntity;

  for (size_t i = 0; i < limit; ++i) {
    const EntityId e = candidates[i].entity;
    // Both halves' sizes, weights, and Shannon floors come from the
    // weighting pass's split sums (c_out's by subtraction from the
    // parent's), so the line-14 pruning check runs before — and for pruned
    // candidates instead of — the Partition.
    const uint64_t c1 = candidates[i].count;
    const uint64_t c2 = n - c1;
    const Cost w_in = candidates[i].weight_in;
    Cost lb0_in = c1 <= 1 ? 0 : Lb0FromSums(w_in, candidates[i].qlog_in);
    Cost lb0_out = c2 <= 1 ? 0
                           : Lb0FromSums(total_weight - w_in,
                                         qlog_total - candidates[i].qlog_in);

    // Per-entity analogue of Algorithm 1 line 14: the recursion value for e
    // is >= lb0_in + lb0_out + W (induction on k), so e cannot win.
    Cost lb1 = lb0_in + lb0_out + total_weight;
    if (options_.enable_early_break && lb1 >= best) continue;

    auto [c_in, c_out] = sub.Partition(e);

    Cost l_in;
    if (c_in.size() <= 1) {
      l_in = 0;
    } else {
      Cost ul_in = options_.enable_upper_limits
                       ? best - total_weight - lb0_out
                       : kInfiniteCost;
      ++depth_;
      WeightedSelection r = SelectImpl(c_in, k - 1, ul_in, excluded);
      --depth_;
      if (r.entity == kNoEntity && options_.enable_upper_limits) continue;
      l_in = r.entity == kNoEntity ? lb0_in : r.bound;
    }

    Cost l_out;
    if (c_out.size() <= 1) {
      l_out = 0;
    } else {
      Cost ul_out = options_.enable_upper_limits
                        ? best - total_weight - l_in
                        : kInfiniteCost;
      ++depth_;
      WeightedSelection r = SelectImpl(c_out, k - 1, ul_out, excluded);
      --depth_;
      if (r.entity == kNoEntity && options_.enable_upper_limits) continue;
      l_out = r.entity == kNoEntity ? lb0_out : r.bound;
    }

    Cost l = l_in + l_out + total_weight;
    if (l < best) {
      best = l;
      best_entity = e;
    }
  }

  if (use_memo) cache_[key] = MemoEntry{best_entity, best};
  return {best_entity, best};
}

void WeightedKlpSelector::WeighCandidates(const SubCollection& sub,
                                          const std::vector<EntityCount>& counts,
                                          std::vector<Candidate>* candidates) {
  candidates->clear();
  candidates->reserve(counts.size());
  const SetCollection& collection = sub.collection();
  if (weight_stamp_.size() < collection.universe_size()) {
    // Only the stamps need zeros; an accumulator entry is read only where
    // its stamp says this pass wrote it.
    weight_stamp_.AllocateZeroed(collection.universe_size());
    weight_acc_.AllocateUninitialized(collection.universe_size());
    qlog_acc_.AllocateUninitialized(collection.universe_size());
  }
  if (++weight_epoch_ == 0) {  // stamp wrap-around: invalidate everything
    std::fill_n(weight_stamp_.data(), weight_stamp_.size(), 0u);
    weight_epoch_ = 1;
  }
  const uint32_t epoch = weight_epoch_;
  for (SetId s : sub.ids()) {
    const Cost w = QuantizedWeight(s);
    const double wl = s < weight_log_.size() ? weight_log_[s] : 0.0;
    for (EntityId e : collection.set(s)) {
      if (weight_stamp_[e] != epoch) {
        weight_stamp_[e] = epoch;
        weight_acc_[e] = w;
        qlog_acc_[e] = wl;
      } else {
        weight_acc_[e] += w;
        qlog_acc_[e] += wl;
      }
    }
  }
  for (const EntityCount& ec : counts) {
    const bool touched = weight_stamp_[ec.entity] == epoch;
    candidates->push_back({ec.entity, ec.count,
                           touched ? weight_acc_[ec.entity] : 0,
                           touched ? qlog_acc_[ec.entity] : 0.0});
  }
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
