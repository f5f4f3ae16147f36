#include "core/klp.h"

#include <algorithm>

#include "collection/count_kernels.h"
#include "collection/fingerprint.h"
#include "core/weighted_klp.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "util/table_printer.h"

namespace setdisc {

namespace {

/// Live pruning-effectiveness totals (satellite of the per-instance
/// KlpStats, which die with their session's selector): every top-level
/// Select publishes its NodeStats deltas here, so the registry always has
/// the process-wide k-LP candidate/evaluated/pruned mix.
void PublishNodeStats(const NodeStats& node) {
  static obs::Counter* const candidates =
      obs::MetricsRegistry::Default().GetCounter(
          "setdisc_klp_candidates_total");
  static obs::Counter* const fully_evaluated =
      obs::MetricsRegistry::Default().GetCounter(
          "setdisc_klp_fully_evaluated_total");
  static obs::Counter* const pruned_break =
      obs::MetricsRegistry::Default().GetCounter("setdisc_klp_pruned_total",
                                                 {{"reason", "break"}});
  static obs::Counter* const pruned_child =
      obs::MetricsRegistry::Default().GetCounter("setdisc_klp_pruned_total",
                                                 {{"reason", "child"}});
  static obs::Counter* const pruned_beam =
      obs::MetricsRegistry::Default().GetCounter("setdisc_klp_pruned_total",
                                                 {{"reason", "beam"}});
  static obs::Counter* const pruned_duplicate =
      obs::MetricsRegistry::Default().GetCounter("setdisc_klp_pruned_total",
                                                 {{"reason", "duplicate"}});
  candidates->Add(node.candidates);
  fully_evaluated->Add(node.fully_evaluated);
  pruned_break->Add(node.pruned_by_break);
  pruned_child->Add(node.pruned_by_child);
  pruned_beam->Add(node.excluded_by_beam);
  pruned_duplicate->Add(node.pruned_by_duplicate);
}

/// Imbalance | |C1| - |C2| | of a split with |C1| = c out of n sets. Sorting
/// candidates by imbalance is the paper's line-11 "most even partitioning"
/// order and, as LB_1 is monotone in the imbalance for both metrics, it is
/// simultaneously the non-decreasing 1-step-bound order the early break
/// (line 14) relies on.
inline uint64_t Imbalance(uint64_t c, uint64_t n) {
  uint64_t other = n - c;
  return c > other ? c - other : other - c;
}

/// The smallest imbalance whose 1-step bound reaches `limit` for a split of
/// n sets (informative splits only: imbalance <= n - 2, same parity as n),
/// or UINT64_MAX when even the least even split stays below it. LB_1 is
/// monotone in the imbalance, so a binary search over the parity class
/// finds it.
uint64_t ImbalanceReaching(CostMetric metric, Cost limit, uint64_t n) {
  // Search over the smaller half s in [1, n/2]: the imbalance n - 2s falls
  // as s grows, so LB_1 is non-increasing in s. Find the largest s whose
  // bound still reaches the limit.
  if (Lb1(metric, 1, n - 1) < limit) return UINT64_MAX;
  uint64_t lo = 1, hi = n / 2;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo + 1) / 2;
    if (Lb1(metric, mid, n - mid) >= limit) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return n - 2 * lo;
}

/// Keeps the lower (imbalance, entity) of `pick` and a candidate.
inline void Consider(LeafPick* pick, EntityId e, uint64_t c, uint64_t n) {
  const uint64_t imb = Imbalance(c, n);
  if (imb < pick->imbalance || (imb == pick->imbalance && e < pick->entity)) {
    *pick = {e, c, imb};
  }
}

}  // namespace

LeafPick MostEvenSmallerHalf(std::span<const EntityId> touched,
                             std::span<const uint32_t> dense, uint64_t n,
                             const EntityExclusion* excluded) {
  // The child's entities are exactly the ones its dense count touched. One
  // in every child set is uninformative; one present but not full here is
  // informative at the parent too, so only the exclusion mask remains.
  LeafPick pick;
  for (const EntityId e : touched) {
    const uint64_t c = dense[e];
    if (c == n) continue;
    if (excluded != nullptr && e < excluded->size() && (*excluded)[e]) {
      continue;
    }
    Consider(&pick, e, c, n);
  }
  return pick;
}

LeafPick MostEvenLargerHalf(std::span<const EntityCount> parent,
                            bool most_even_order,
                            std::span<const uint32_t> small_dense,
                            uint64_t small_n, uint64_t n,
                            uint64_t stop_imbalance) {
  // Child count c' = c - d with 0 <= d <= small_n, so the child imbalance
  // |2c' - n| = |(2c - n_parent) - (2d - small_n)| is at least
  // |2c - n_parent| - small_n. Ties keep walking: the lowest id wins.
  const uint64_t parent_n = n + small_n;
  LeafPick pick;
  for (const EntityCount& ec : parent) {
    if (most_even_order) {
      const uint64_t parent_imb = Imbalance(ec.count, parent_n);
      const uint64_t lower = parent_imb > small_n ? parent_imb - small_n : 0;
      if (lower > pick.imbalance || lower >= stop_imbalance) break;
    }
    const EntityId e = ec.entity;
    const uint64_t c = ec.count - (e < small_dense.size() ? small_dense[e] : 0);
    if (c == 0 || c == n) continue;
    Consider(&pick, e, c, n);
  }
  return pick;
}

KlpOptions KlpOptions::MakeKlp(int k, CostMetric metric) {
  KlpOptions o;
  o.k = k;
  o.metric = metric;
  return o;
}

KlpOptions KlpOptions::MakeKlple(int k, int q, CostMetric metric) {
  KlpOptions o = MakeKlp(k, metric);
  o.beam_width = q;
  return o;
}

KlpOptions KlpOptions::MakeKlplve(int k, int q, CostMetric metric) {
  KlpOptions o = MakeKlple(k, q, metric);
  o.variable_beam = true;
  return o;
}

KlpOptions KlpOptions::MakeGainK(int k, CostMetric metric) {
  KlpOptions o = MakeKlp(k, metric);
  o.enable_early_break = false;
  o.enable_upper_limits = false;
  o.enable_memoization = false;
  return o;
}

KlpOptions KlpOptions::MakeOptimal(CostMetric metric) {
  // k is clamped to the sub-collection size inside the search; any tree over
  // n sets has height <= n - 1, so this lookahead is exact (§4.4.1).
  KlpOptions o = MakeKlp(INT32_MAX / 2, metric);
  return o;
}

namespace {

/// Transposed view of one node for the duplicate-partition skip: for each
/// candidate (by scan-order index), the positions in C of the sets holding
/// it, and an XOR hash of them. Two candidates split C identically iff the
/// position sets are equal or complementary; a complement's hash is the
/// all-positions hash XOR the candidate's, so the smaller is the key.
class PartitionIndex {
 public:
  /// Builds the index for `sub` over `candidates` (anything with `entity`
  /// and `count`), borrowing `counter`'s all-zero dense array as the
  /// entity -> candidate map.
  template <class Candidate>
  void Build(const SubCollection& sub,
             const std::vector<Candidate>& candidates, EntityCounter* counter) {
    const size_t m = candidates.size();
    n_ = static_cast<uint32_t>(sub.size());
    offsets_.resize(m + 1);
    offsets_[0] = 0;
    for (size_t i = 0; i < m; ++i) {
      offsets_[i + 1] = offsets_[i] + candidates[i].count;
    }
    positions_.resize(offsets_[m]);
    keys_.assign(m, 0);
    // The counter's dense array is all-zero between counts: borrow it as
    // the entity -> (candidate index + 1) map instead of keeping a
    // universe-sized array per level, and use positions' own offsets as
    // fill cursors.
    const SetCollection& c = sub.collection();
    const std::span<uint32_t> slot = counter->BorrowZeroed(c.universe_size());
    for (size_t i = 0; i < m; ++i) {
      slot[candidates[i].entity] = static_cast<uint32_t>(i + 1);
    }
    const std::span<const SetId> ids = sub.ids();
    for (uint32_t p = 0; p < n_; ++p) {
      const uint64_t bit = FingerprintBit(p);
      for (const EntityId e : c.set(ids[p])) {
        const uint32_t j = slot[e];
        if (j == 0) continue;
        positions_[offsets_[j - 1]++] = p;
        keys_[j - 1] ^= bit;
      }
    }
    // Each start was used as its candidate's fill cursor and now holds that
    // candidate's end, which is the next one's start: shift them back.
    for (size_t i = m; i > 0; --i) offsets_[i] = offsets_[i - 1];
    offsets_[0] = 0;
    uint64_t all = 0;
    for (uint32_t p = 0; p < n_; ++p) all ^= FingerprintBit(p);
    for (size_t i = 0; i < m; ++i) {
      slot[candidates[i].entity] = 0;
      const uint64_t key = std::min(keys_[i], keys_[i] ^ all);
      keys_[i] = key == 0 ? 1 : key;
    }
    size_t cap = 16;
    while (cap < 2 * m) cap <<= 1;
    table_keys_.assign(cap, 0);
    table_slots_.resize(cap);
  }

  /// True when candidate i splits C like an earlier examined candidate —
  /// with the same containing half, or with the halves swapped when
  /// `swapped_too` — otherwise records i as examined.
  bool SeenSplit(size_t i, bool swapped_too) {
    const size_t mask = table_keys_.size() - 1;
    for (size_t h = keys_[i] & mask; table_keys_[h] != 0; h = (h + 1) & mask) {
      if (table_keys_[h] == keys_[i] &&
          SameSplit(i, table_slots_[h], swapped_too)) {
        return true;
      }
    }
    Insert(i);
    return false;
  }

  /// Records candidate i as examined without checking it.
  void Insert(size_t i) {
    const size_t mask = table_keys_.size() - 1;
    size_t h = keys_[i] & mask;
    while (table_keys_[h] != 0) h = (h + 1) & mask;
    table_keys_[h] = keys_[i];
    table_slots_[h] = static_cast<uint32_t>(i);
  }

  /// Partition of `sub` on candidate i, read off the index.
  std::pair<SubCollection, SubCollection> Cut(const SubCollection& sub,
                                              size_t i) const {
    const std::span<const SetId> ids = sub.ids();
    const uint32_t* pos = positions_.data() + offsets_[i];
    const size_t c = offsets_[i + 1] - offsets_[i];
    std::vector<SetId> in(c), out;
    out.reserve(n_ - c);
    uint32_t p = 0;
    for (size_t t = 0; t < c; ++t) {
      for (; p < pos[t]; ++p) out.push_back(ids[p]);
      in[t] = ids[p++];
    }
    for (; p < n_; ++p) out.push_back(ids[p]);
    return {SubCollection(&sub.collection(), std::move(in)),
            SubCollection(&sub.collection(), std::move(out))};
  }

 private:
  bool SameSplit(size_t i, size_t j, bool swapped_too) const {
    const uint32_t* a = positions_.data() + offsets_[i];
    const uint32_t* a_end = positions_.data() + offsets_[i + 1];
    const uint32_t* b = positions_.data() + offsets_[j];
    const uint32_t* b_end = positions_.data() + offsets_[j + 1];
    const size_t size_a = a_end - a, size_b = b_end - b;
    if (size_a == size_b && std::equal(a, a_end, b)) return true;
    if (!swapped_too || size_a + size_b != n_) return false;
    // Complementary halves: sizes add up to |C|, so disjoint means exact.
    while (a != a_end && b != b_end) {
      if (*a == *b) return false;
      if (*a < *b) {
        ++a;
      } else {
        ++b;
      }
    }
    return true;
  }

  std::vector<uint32_t> offsets_;    ///< candidate i: [offsets_[i], [i+1])
  std::vector<uint32_t> positions_;  ///< ascending positions per candidate
  std::vector<uint64_t> keys_;       ///< split key per candidate
  /// Open-addressing table of examined splits: key and candidate index
  /// (0 = empty; stored keys are forced nonzero).
  std::vector<uint64_t> table_keys_;
  std::vector<uint32_t> table_slots_;
  uint32_t n_ = 0;  ///< |C| of the indexed node
};

/// Fills `counts` with what CountInformative(sub, excluded) would emit: the
/// smaller half's counts filtered (sub is that half) or subtracted from the
/// parent's list (sub is the larger).
template <class Candidate>
void MaterializeFromHint(const SubCollection& sub,
                         const DeltaHint<Candidate>& hint,
                         std::vector<EntityCount>* counts) {
  const uint32_t n = static_cast<uint32_t>(sub.size());
  const std::span<const uint32_t> dense = hint.SmallCounts().dense();
  const size_t m = hint.parent_asc->size();
  counts->resize(m);
  // Entities uninformative at the parent (in all or none of its sets) are
  // uninformative in both children, and the exclusion mask is fixed for the
  // whole Select(), so walking the parent's informative list covers every
  // child candidate with every filter already applied except the child's
  // own informative test — which is the kernels' drop_full filter.
  const size_t w =
      &sub == hint.small
          ? kernels::GatherChild(hint.parent_asc->data(), m, dense.data(),
                                 dense.size(), n, /*drop_full=*/true,
                                 counts->data())
          : kernels::SubtractChild(hint.parent_asc->data(), m, dense.data(),
                                   dense.size(), n, /*drop_full=*/true,
                                   counts->data());
  counts->resize(w);
}

}  // namespace

void CountCost::Sort(const Node& node,
                     std::vector<EntityCount>* candidates) const {
  const uint64_t n = node.n;
  std::sort(candidates->begin(), candidates->end(),
            [n](const EntityCount& a, const EntityCount& b) {
              uint64_t ia = Imbalance(a.count, n);
              uint64_t ib = Imbalance(b.count, n);
              if (ia != ib) return ia < ib;
              return a.entity < b.entity;
            });
}

KlpSelection CountCost::PickLeaf(const Node& node,
                                 std::vector<EntityCount>* candidates,
                                 Cost /*upper_limit*/, int /*beam*/) const {
  LeafPick pick;
  for (const EntityCount& ec : *candidates) {
    Consider(&pick, ec.entity, ec.count, node.n);
  }
  return {pick.entity, Lb1(metric_, pick.count, node.n - pick.count)};
}

KlpSelection CountCost::PickHintedLeaf(const SubCollection& sub,
                                       const Node& node, Cost upper_limit,
                                       const DeltaHint<EntityCount>& hint,
                                       const EntityExclusion* excluded,
                                       int /*beam*/, bool sorted) const {
  const uint64_t n = node.n;
  const EntityCounter& small = hint.SmallCounts();
  LeafPick pick;
  if (&sub == hint.small) {
    pick = MostEvenSmallerHalf(small.touched(), small.dense(), n, excluded);
  } else {
    // Entries whose imbalance reaches the limit cannot answer below it, so
    // the walk may stop there as well.
    const uint64_t stop = upper_limit < kInfiniteCost
                              ? ImbalanceReaching(metric_, upper_limit, n)
                              : UINT64_MAX;
    pick = MostEvenLargerHalf(*hint.parent_order, sorted, small.dense(),
                              hint.small->size(), n, stop);
  }
  if (pick.entity == kNoEntity) return {kNoEntity, upper_limit};
  const Cost bound = Lb1(metric_, pick.count, n - pick.count);
  // What a memo hit with this bound answers: nothing below the limit.
  if (upper_limit <= bound) return {kNoEntity, bound};
  return {pick.entity, bound};
}

/// Per-recursion-level scratch; each level's counter keeps its node's
/// smaller-half counts live while the children derive from them.
template <class Model>
struct LookaheadSelector<Model>::LevelScratch {
  std::vector<EntityCount> counts;  ///< informative counts, ascending
  std::vector<EntityCount> asc;     ///< ascending copy when sorted in place
  std::vector<Candidate> weighed;   ///< the model's candidates, if separate
  EntityCounter counter;            ///< smaller-half dense counts
  PartitionIndex index;             ///< this level's node, built lazily
};

template <class Model>
LookaheadSelector<Model>::LookaheadSelector(Model model,
                                            const KlpOptions& options)
    : options_(options), model_(std::move(model)) {
  delta_counter_.set_enabled(options_.enable_delta_counting);
  // Only a count-ordered scan can take its order from the delta counter,
  // so only then is the retained list kept sorted across the chain.
  delta_counter_.set_retain_order(Model::kCandidatesAreCounts &&
                                  options_.sort_candidates);
}

template <class Model>
LookaheadSelector<Model>::~LookaheadSelector() = default;

template <class Model>
size_t LookaheadSelector<Model>::MemoKeyHash::operator()(
    const MemoKey& key) const {
  uint64_t h = 1469598103934665603ULL;
  for (SetId s : key.ids) {
    h ^= s;
    h *= 1099511628211ULL;
    h ^= h >> 29;
  }
  h ^= static_cast<uint64_t>(key.k) * 0x9E3779B97F4A7C15ULL;
  h ^= static_cast<uint64_t>(static_cast<uint32_t>(key.beam)) *
       0xC2B2AE3D27D4EB4FULL;
  return static_cast<size_t>(h);
}

template <class Model>
void LookaheadSelector<Model>::NotePartition(const SubCollection& parent,
                                             EntityId e, bool kept_contains,
                                             const SubCollection& kept,
                                             SubCollection dropped) {
  if (best_small_valid_ && e == best_small_entity_) {
    // This selector just chose e, and its lookahead counted the smaller half
    // of exactly this split: the kept child's counts derive right now,
    // making the next top-level count a free re-emit.
    delta_counter_.SeedChild(parent, kept, best_small_counts_,
                             /*half_is_kept=*/best_small_is_in_ ==
                                 kept_contains);
  } else {
    delta_counter_.NotePartition(parent, kept, std::move(dropped));
  }
  best_small_valid_ = false;
}

template <class Model>
void LookaheadSelector<Model>::InvalidateCountState() {
  delta_counter_.Invalidate();
  best_small_valid_ = false;
}

template <class Model>
void LookaheadSelector<Model>::ReleaseMemory() {
  delta_counter_.Release();
  counter_.Release();
  cache_.clear();
  cache_.rehash(0);
  scratch_.clear();
  best_small_counts_ = {};
  best_small_valid_ = false;
  model_.Release();
}

template <class Model>
KlpSelection LookaheadSelector<Model>::Search(const SubCollection& sub,
                                              Cost upper_limit,
                                              const EntityExclusion* excluded) {
  if (sub.size() < 2) return {kNoEntity, 0};
  if (cache_.size() > options_.max_cache_entries) ClearCache();
  NodeStats node;
  depth_ = 0;
  // A fresh top-level search invalidates any winner snapshot from the last
  // one (it described the previous view's candidates).
  best_small_valid_ = false;
  // effective_k() == options_.k at effort 0, so the undegraded path is
  // byte-identical to pre-effort behavior (including memo keys).
  KlpSelection result = SelectImpl(sub, effective_k(), upper_limit,
                                   /*top=*/true, excluded, &node,
                                   /*hint=*/nullptr);
  stats_.totals.candidates += node.candidates;
  stats_.totals.fully_evaluated += node.fully_evaluated;
  stats_.totals.pruned_by_break += node.pruned_by_break;
  stats_.totals.pruned_by_child += node.pruned_by_child;
  stats_.totals.excluded_by_beam += node.excluded_by_beam;
  stats_.totals.pruned_by_duplicate += node.pruned_by_duplicate;
  if (options_.record_per_node_stats) stats_.per_node.push_back(node);
  if (obs::Enabled()) PublishNodeStats(node);
  obs::NoteLookahead({sub.size(), node.candidates, node.fully_evaluated,
                      node.pruned_by_duplicate});
  return result;
}

template <class Model>
KlpSelection LookaheadSelector<Model>::SelectImpl(
    const SubCollection& sub, int k, Cost upper_limit, bool top,
    const EntityExclusion* excluded, NodeStats* node_stats, const Hint* hint) {
  ++stats_.recursive_calls;
  const uint64_t n = sub.size();
  SETDISC_CHECK(n >= 2);

  // Exactness clamp: lookahead deeper than n - 1 cannot refine the bound
  // (no tree over n sets is taller), and clamping canonicalizes memo keys so
  // the "Optimal" configuration becomes a proper dynamic program.
  if (k > static_cast<int>(n)) k = static_cast<int>(n);

  // Fast reject (pruning): every k-step bound is >= LB_0(C) less the
  // model's slack, so if the limit is already at or below that nothing can
  // qualify.
  const typename Model::Node node = model_.MakeNode(sub);
  if (options_.enable_upper_limits &&
      upper_limit <= model_.Lb0(node) - Model::Lb0Slack(n)) {
    return {kNoEntity, upper_limit};
  }

  const int effective_beam =
      top ? options_.beam_width
          : (options_.variable_beam ? 1 : options_.beam_width);

  // The last lookahead level of a hinted child: one fused scan, no memo.
  if (k <= 1 && hint != nullptr) {
    return model_.PickHintedLeaf(sub, node, upper_limit, *hint, excluded,
                                 effective_beam, options_.sort_candidates);
  }

  // Memo lookup (Algorithm 1, lines 1-6). Entries keyed on the exact id
  // vector, the (clamped) k, and the beam in force at this level.
  const bool use_memo = options_.enable_memoization && excluded == nullptr;
  MemoKey key;
  if (use_memo) {
    key.ids.assign(sub.ids().begin(), sub.ids().end());
    key.k = k;
    key.beam = effective_beam;
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++stats_.cache_hits;
      if (upper_limit <= it->second.bound) {
        return {kNoEntity, it->second.bound};
      }
      if (it->second.entity != kNoEntity) {
        return {it->second.entity, it->second.bound};
      }
      // Stored "no entity below bound" with a laxer limit than ours:
      // recompute (falls through; the store below overwrites).
    } else {
      ++stats_.cache_misses;
    }
  }

  if (depth_ >= static_cast<int>(scratch_.size())) {
    scratch_.emplace_back(std::make_unique<LevelScratch>());
  }
  LevelScratch& level = *scratch_[depth_];
  std::vector<EntityCount>& counts = level.counts;
  if (hint != nullptr) {
    // Lookahead child: derive from the parent node's counts (one scan of
    // the smaller half, shared with the sibling) instead of recounting.
    MaterializeFromHint(sub, *hint, &counts);
  } else if (top) {
    // Session-facing root: chains across steps via NotePartition.
    delta_counter_.CountInformative(sub, &counts, excluded);
  } else {
    counter_.CountInformative(sub, &counts, excluded);
  }
  if (counts.empty()) {
    // Only possible under exclusions (unique sets always admit an
    // informative entity): the sub-collection cannot be narrowed further.
    return {kNoEntity, upper_limit};
  }
  if (top && node_stats != nullptr) node_stats->candidates = counts.size();

  // The model's per-candidate split sums (the count list for CountCost).
  std::vector<Candidate>& candidates =
      model_.Weigh(sub, node, &counts, &level.weighed);

  // Base case (lines 7-10): the model's 1-step pick.
  if (k <= 1) {
    if (top && node_stats != nullptr) {
      node_stats->fully_evaluated = candidates.size();
    }
    const KlpSelection r =
        model_.PickLeaf(node, &candidates, upper_limit, effective_beam);
    if (use_memo) cache_[key] = MemoEntry{r.entity, r.bound};
    return r;
  }

  // Children derive their counts from the ascending list: keep a copy when
  // the sort below reorders it in place.
  const bool delta_children = options_.enable_delta_counting;
  const std::vector<EntityCount>* asc = &counts;
  if constexpr (Model::kCandidatesAreCounts) {
    if (delta_children) {
      level.asc.assign(counts.begin(), counts.end());
      asc = &level.asc;
    }
  }

  // Line 11: the model's scan order (most even first).
  if (options_.sort_candidates) {
    // Only the top-level sort is charged to the order phase: recursion
    // nodes sort too, but timing each would put clock reads on every
    // lookahead node.
    obs::PhaseTimer order_timer(obs::Phase::kOrder, /*armed=*/top);
    bool served = false;
    if constexpr (Model::kCandidatesAreCounts) {
      // Top level first asks the delta counter: its retained list stays
      // (count, entity)-sorted across the chain, and its wing merge emits
      // this exact order in O(m). The sort is the fallback whenever the
      // chain cannot serve — byte-identical either way (ordering parity
      // tests).
      served = top && delta_children &&
               delta_counter_.EmitMostEvenOrder(sub.Fingerprint(),
                                                static_cast<uint32_t>(n),
                                                excluded, &candidates);
    }
    if (!served) model_.Sort(node, &candidates);
  }

  size_t limit = candidates.size();
  if (effective_beam > 0 && static_cast<size_t>(effective_beam) < limit) {
    if (top && node_stats != nullptr) {
      node_stats->excluded_by_beam = limit - effective_beam;
    }
    limit = static_cast<size_t>(effective_beam);
  }

  Cost best = upper_limit;  // AFLV; exclusive — candidates must go below it
  EntityId best_entity = kNoEntity;

  // Duplicate-partition skip. The index that detects duplicates (and then
  // serves the partitions) costs about one pass over C's incidences, so it
  // is built ski-rental style: once the per-candidate partitions done so
  // far have cost as much. Steps that break after a candidate or two never
  // pay for it. A split with its halves swapped counts as a repeat only
  // for a model whose bounds do not depend on which half is which.
  PartitionIndex& index = level.index;
  bool indexed = false;
  uint64_t partitioned_sets = 0;
  uint64_t index_cost = UINT64_MAX;  // never, unless the skip is on
  if (options_.enable_memoization && limit > 1) {
    // Position offsets are 32-bit; a node past that simply never indexes.
    const uint64_t incidences = sub.TotalElements();
    if (incidences <= UINT32_MAX) index_cost = incidences;
  }

  for (size_t i = 0; i < limit; ++i) {
    const EntityId e = candidates[i].entity;
    const SplitLb0 split = model_.SplitOf(node, candidates[i]);
    // The halves' sound floors: what no (k-1)-step value goes below.
    const Cost floor_in = split.lb0_in - Model::Lb0Slack(candidates[i].count);
    const Cost floor_out =
        split.lb0_out - Model::Lb0Slack(n - candidates[i].count);

    // Line 14: prune by the 1-step bound (Lemma 4.4 with l = 1).
    if (options_.enable_early_break &&
        model_.Combine(node, floor_in, floor_out) >= best) {
      if (Model::kMonotoneLb1 && options_.sort_candidates) {
        // Sorted order: every remaining candidate is at least as bad.
        if (top && node_stats != nullptr) {
          node_stats->pruned_by_break += limit - i;
        }
        break;
      }
      if (top && node_stats != nullptr) ++node_stats->pruned_by_break;
      continue;
    }

    if (!indexed && partitioned_sets >= index_cost) {
      index.Build(sub, candidates, &level.counter);
      indexed = true;
      // Splits examined before the index existed still count as seen.
      for (size_t j = 0; j < i; ++j) index.Insert(j);
    }
    if (indexed && index.SeenSplit(i, Model::kSwappedHalvesAlike)) {
      if (top && node_stats != nullptr) ++node_stats->pruned_by_duplicate;
      continue;
    }
    auto [c_in, c_out] = indexed ? index.Cut(sub, i) : sub.Partition(e);
    partitioned_sets += n;

    // Differential counting for the recursion: both children's counts come
    // from one (lazy) dense scan of the smaller half plus derivation from
    // this node's lists. A deeper child materializes only after its memo
    // lookup misses, so memo hits still skip counting; a leaf is the
    // model's fused pick.
    bool dense_valid = false;
    const Hint child_hint{asc, &candidates,
                          c_in.size() <= c_out.size() ? &c_in : &c_out,
                          &level.counter, &dense_valid};
    const Hint* hint_ptr = delta_children ? &child_hint : nullptr;

    // Lines 18-32: each half's (k-1)-step bound under its derived upper
    // limit — C+ first, then C- under the tighter limit that l_in gives. A
    // child with no entity below its limit drops the candidate, unless the
    // model falls back to the half's LB_0 while upper limits are off.
    auto half_bound = [&](const SubCollection& half, Cost ul, Cost lb0,
                          Cost* bound) {
      if (half.size() <= 1) {
        *bound = 0;
        return true;
      }
      ++depth_;
      const KlpSelection r = SelectImpl(
          half, k - 1, options_.enable_upper_limits ? ul : kInfiniteCost,
          /*top=*/false, excluded, nullptr, hint_ptr);
      --depth_;
      if (r.entity != kNoEntity) {
        *bound = r.bound;
      } else if (Model::kNoEntityFallsBackToLb0 &&
                 !options_.enable_upper_limits) {
        *bound = lb0;
      } else {
        if (top && node_stats != nullptr) ++node_stats->pruned_by_child;
        return false;
      }
      return true;
    };
    Cost l_in, l_out;
    if (!half_bound(c_in, model_.UpperLimitFirst(node, best, floor_out),
                    split.lb0_in, &l_in) ||
        !half_bound(c_out, model_.UpperLimitSecond(node, best, l_in),
                    split.lb0_out, &l_out)) {
      continue;
    }

    // Lines 33-36: keep the strict minimum; ties resolve to the earlier
    // (more even) candidate by construction.
    Cost l = model_.Combine(node, l_in, l_out);
    ++stats_.entities_evaluated_deep;
    if (top && node_stats != nullptr) ++node_stats->fully_evaluated;
    if (l < best) {
      best = l;
      best_entity = e;
      if (top && delta_children) {
        // Snapshot the leader's smaller-half counts (restricted to this
        // node's list, the shape SeedChild wants): if the session partitions
        // on this entity, NotePartition seeds the child's counts from them
        // and the next top-level count is free. The leader rarely changes;
        // one whose children never read the dense scan (memo hits,
        // singleton halves, the weighted leaves) pays for it here.
        const std::span<const uint32_t> dense =
            child_hint.SmallCounts().dense();
        best_small_counts_.resize(asc->size());
        const size_t w = kernels::GatherChild(
            asc->data(), asc->size(), dense.data(), dense.size(),
            /*n=*/0, /*drop_full=*/false, best_small_counts_.data());
        best_small_counts_.resize(w);
        best_small_entity_ = e;
        best_small_is_in_ = child_hint.small == &c_in;
        best_small_valid_ = true;
      }
    }
  }

  // Line 37: cache (entity, AFLV); entity may be kNoEntity, meaning
  // "no candidate achieves a bound below `best`".
  if (use_memo) cache_[key] = MemoEntry{best_entity, best};
  return {best_entity, best};
}

template class LookaheadSelector<CountCost>;
template class LookaheadSelector<WeightedCost>;

KlpSelector::KlpSelector(KlpOptions options)
    : LookaheadSelector(CountCost(options.metric), options) {
  SETDISC_CHECK(options_.k >= 1);
  const char* metric_tag =
      options_.metric == CostMetric::kAvgDepth ? "AD" : "H";
  if (options_.k >= INT32_MAX / 4) {
    name_ = Format("Optimal(%s)", metric_tag);
  } else if (!options_.enable_early_break && !options_.enable_upper_limits &&
             !options_.enable_memoization) {
    name_ = Format("Gain-%d(%s)", options_.k, metric_tag);
  } else if (options_.variable_beam) {
    name_ = Format("%d-LPLVE(q=%d,%s)", options_.k, options_.beam_width,
                   metric_tag);
  } else if (options_.beam_width > 0) {
    name_ = Format("%d-LPLE(q=%d,%s)", options_.k, options_.beam_width,
                   metric_tag);
  } else {
    name_ = Format("%d-LP(%s)", options_.k, metric_tag);
  }
}

}  // namespace setdisc
