#include "core/klp.h"

#include <algorithm>

#include "collection/count_kernels.h"
#include "collection/fingerprint.h"
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

KlpSelector::KlpSelector(KlpOptions options) : options_(options) {
  SETDISC_CHECK(options_.k >= 1);
  delta_counter_.set_enabled(options_.enable_delta_counting);
  // k-LP is the only selector that orders its candidates (line 11), so it is
  // the only one that pays for keeping the retained list sorted across the
  // chain — the 1-step selectors scan linearly and leave this off.
  delta_counter_.set_retain_order(options_.sort_candidates);
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

KlpSelector::~KlpSelector() = default;

size_t KlpSelector::MemoKeyHash::operator()(const MemoKey& key) const {
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

void KlpSelector::ClearCache() { cache_.clear(); }

size_t KlpSelector::cache_size() const { return cache_.size(); }

void KlpSelector::NotePartition(const SubCollection& parent, EntityId e,
                                bool kept_contains, const SubCollection& kept,
                                SubCollection dropped) {
  if (best_small_valid_ && e == best_small_entity_) {
    // The partition entity is the candidate this selector just chose, and
    // its lookahead counted the smaller half of exactly this split: the
    // kept child's counts derive right now, making the next top-level
    // count a free re-emit.
    delta_counter_.SeedChild(parent, kept, best_small_counts_,
                             /*half_is_kept=*/best_small_is_in_ ==
                                 kept_contains);
  } else {
    delta_counter_.NotePartition(parent, kept, std::move(dropped));
  }
  best_small_valid_ = false;
}

void KlpSelector::InvalidateCountState() {
  delta_counter_.Invalidate();
  best_small_valid_ = false;
}

void KlpSelector::ReleaseMemory() {
  delta_counter_.Release();
  counter_.Release();
  cache_.clear();
  cache_.rehash(0);
  scratch_.clear();
  best_small_counts_ = {};
  best_small_valid_ = false;
}

EntityId KlpSelector::Select(const SubCollection& sub,
                             const EntityExclusion* excluded) {
  return SelectWithBound(sub, kInfiniteCost, excluded).entity;
}

KlpSelection KlpSelector::SelectWithBound(const SubCollection& sub,
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

KlpSelection KlpSelector::SelectLeaf(const SubCollection& sub,
                                     Cost upper_limit, const DeltaHint& hint,
                                     const EntityExclusion* excluded) {
  const uint64_t n = sub.size();
  if (!*hint.dense_valid) {
    hint.counter->CountDense(*hint.small);
    *hint.dense_valid = true;
  }
  LeafPick pick;
  if (&sub == hint.small) {
    pick = MostEvenSmallerHalf(hint.counter->touched(), hint.counter->dense(),
                               n, excluded);
  } else {
    // Entries whose imbalance reaches the limit cannot answer below it, so
    // the walk may stop there as well.
    const uint64_t stop = upper_limit < kInfiniteCost
                              ? ImbalanceReaching(options_.metric,
                                                  upper_limit, n)
                              : UINT64_MAX;
    pick = MostEvenLargerHalf(*hint.parent_order, options_.sort_candidates,
                              hint.counter->dense(), hint.small->size(), n,
                              stop);
  }
  if (pick.entity == kNoEntity) return {kNoEntity, upper_limit};
  const Cost bound = Lb1(options_.metric, pick.count, n - pick.count);
  // What a memo hit with this bound answers: nothing below the limit.
  if (upper_limit <= bound) return {kNoEntity, bound};
  return {pick.entity, bound};
}

void KlpSelector::PartitionIndex::Build(const SubCollection& sub,
                                        const std::vector<EntityCount>& counts,
                                        EntityCounter* counter) {
  const size_t m = counts.size();
  n = static_cast<uint32_t>(sub.size());
  offsets.resize(m + 1);
  offsets[0] = 0;
  for (size_t i = 0; i < m; ++i) offsets[i + 1] = offsets[i] + counts[i].count;
  positions.resize(offsets[m]);
  keys.assign(m, 0);
  // The counter's dense array is all-zero between counts: borrow it as the
  // entity -> (candidate index + 1) map instead of keeping a universe-sized
  // array per level, and use positions' own offsets as fill cursors.
  const SetCollection& c = sub.collection();
  const std::span<uint32_t> slot = counter->BorrowZeroed(c.universe_size());
  for (size_t i = 0; i < m; ++i) {
    slot[counts[i].entity] = static_cast<uint32_t>(i + 1);
  }
  const std::span<const SetId> ids = sub.ids();
  for (uint32_t p = 0; p < n; ++p) {
    const uint64_t bit = FingerprintBit(p);
    for (const EntityId e : c.set(ids[p])) {
      const uint32_t j = slot[e];
      if (j == 0) continue;
      positions[offsets[j - 1]++] = p;
      keys[j - 1] ^= bit;
    }
  }
  // Each start was used as its candidate's fill cursor and now holds that
  // candidate's end, which is the next one's start: shift them back.
  for (size_t i = m; i > 0; --i) offsets[i] = offsets[i - 1];
  offsets[0] = 0;
  uint64_t all = 0;
  for (uint32_t p = 0; p < n; ++p) all ^= FingerprintBit(p);
  for (size_t i = 0; i < m; ++i) {
    slot[counts[i].entity] = 0;
    const uint64_t key = std::min(keys[i], keys[i] ^ all);
    keys[i] = key == 0 ? 1 : key;
  }
  size_t cap = 16;
  while (cap < 2 * m) cap <<= 1;
  table_keys.assign(cap, 0);
  table_slots.resize(cap);
}

bool KlpSelector::PartitionIndex::SameSplit(size_t i, size_t j) const {
  const uint32_t* a = positions.data() + offsets[i];
  const uint32_t* a_end = positions.data() + offsets[i + 1];
  const uint32_t* b = positions.data() + offsets[j];
  const uint32_t* b_end = positions.data() + offsets[j + 1];
  const size_t size_a = a_end - a, size_b = b_end - b;
  if (size_a == size_b && std::equal(a, a_end, b)) return true;
  if (size_a + size_b != n) return false;
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

bool KlpSelector::PartitionIndex::SeenSplit(size_t i) {
  const size_t mask = table_keys.size() - 1;
  for (size_t h = keys[i] & mask; table_keys[h] != 0; h = (h + 1) & mask) {
    if (table_keys[h] == keys[i] && SameSplit(i, table_slots[h])) return true;
  }
  Insert(i);
  return false;
}

void KlpSelector::PartitionIndex::Insert(size_t i) {
  const size_t mask = table_keys.size() - 1;
  size_t h = keys[i] & mask;
  while (table_keys[h] != 0) h = (h + 1) & mask;
  table_keys[h] = keys[i];
  table_slots[h] = static_cast<uint32_t>(i);
}

std::pair<SubCollection, SubCollection> KlpSelector::PartitionIndex::Cut(
    const SubCollection& sub, size_t i) const {
  const std::span<const SetId> ids = sub.ids();
  const uint32_t* pos = positions.data() + offsets[i];
  const size_t c = offsets[i + 1] - offsets[i];
  std::vector<SetId> in(c), out;
  out.reserve(n - c);
  uint32_t p = 0;
  for (size_t t = 0; t < c; ++t) {
    for (; p < pos[t]; ++p) out.push_back(ids[p]);
    in[t] = ids[p++];
  }
  for (; p < n; ++p) out.push_back(ids[p]);
  return {SubCollection(&sub.collection(), std::move(in)),
          SubCollection(&sub.collection(), std::move(out))};
}

void KlpSelector::MaterializeFromHint(const SubCollection& sub,
                                      const DeltaHint& hint,
                                      const EntityExclusion* excluded,
                                      std::vector<EntityCount>* counts) {
  (void)excluded;  // parent_asc already carries the mask (fixed per Select)
  const uint32_t n = static_cast<uint32_t>(sub.size());
  if (!*hint.dense_valid) {
    // One dense scan of the smaller half serves both children of the
    // candidate: no touched-list sort, no list emission — the children read
    // it by random access below while walking the parent's sorted list.
    hint.counter->CountDense(*hint.small);
    *hint.dense_valid = true;
  }
  const std::span<const uint32_t> dense = hint.counter->dense();
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

KlpSelection KlpSelector::SelectImpl(const SubCollection& sub, int k,
                                     Cost upper_limit, bool top,
                                     const EntityExclusion* excluded,
                                     NodeStats* node_stats,
                                     const DeltaHint* hint) {
  ++stats_.recursive_calls;
  const uint64_t n = sub.size();
  SETDISC_CHECK(n >= 2);

  // Exactness clamp: lookahead deeper than n - 1 cannot refine the bound
  // (no tree over n sets is taller), and clamping canonicalizes memo keys so
  // the "Optimal" configuration becomes a proper dynamic program.
  if (k > static_cast<int>(n)) k = static_cast<int>(n);

  // Fast reject (pruning): every k-step bound is >= LB_0(C), so if the limit
  // is already at or below LB_0 nothing can qualify.
  if (options_.enable_upper_limits && upper_limit <= Lb0(options_.metric, n)) {
    return {kNoEntity, upper_limit};
  }

  // The last lookahead level of a hinted child: one fused scan, no memo.
  if (k <= 1 && hint != nullptr) {
    return SelectLeaf(sub, upper_limit, *hint, excluded);
  }

  const int effective_beam =
      top ? options_.beam_width
          : (options_.variable_beam ? 1 : options_.beam_width);

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
    MaterializeFromHint(sub, *hint, excluded, &counts);
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

  // Base case (lines 7-10): the 1-step bound selects the most even
  // partitioner; ascending entity order in `counts` makes ties deterministic.
  if (k <= 1) {
    EntityId best_e = counts[0].entity;
    uint64_t best_c = counts[0].count;
    uint64_t best_imb = Imbalance(best_c, n);
    for (const EntityCount& ec : counts) {
      uint64_t imb = Imbalance(ec.count, n);
      if (imb < best_imb) {
        best_imb = imb;
        best_e = ec.entity;
        best_c = ec.count;
      }
    }
    Cost bound = Lb1(options_.metric, best_c, n - best_c);
    if (use_memo) cache_[key] = MemoEntry{best_e, bound};
    if (top && node_stats != nullptr) {
      node_stats->fully_evaluated = counts.size();
    }
    return {best_e, bound};
  }

  // Keep an ascending copy before the sort below destroys entity order: the
  // children's count derivation is a merge against this list.
  const bool delta_children = options_.enable_delta_counting;
  if (delta_children) level.asc.assign(counts.begin(), counts.end());

  // Line 11: most-even (equivalently, non-decreasing 1-step-bound) order.
  if (options_.sort_candidates) {
    // Only the top-level sort is charged to the order phase: recursion
    // nodes sort too, but timing each would put clock reads on every
    // lookahead node.
    obs::PhaseTimer order_timer(obs::Phase::kOrder, /*armed=*/top);
    // Top level first asks the delta counter for the order: the retained
    // list it just served `counts` from stays (count, entity)-sorted across
    // the chain (repaired per step, not re-sorted), and its wing merge
    // emits this exact comparator's output in O(m). Falls back to the sort
    // whenever the chain cannot serve (delta counting off, chain broken) —
    // byte-identical either way, pinned by the ordering parity tests.
    const bool served =
        top && delta_children &&
        delta_counter_.EmitMostEvenOrder(sub.Fingerprint(),
                                         static_cast<uint32_t>(n), excluded,
                                         &counts);
    if (!served) {
      std::sort(counts.begin(), counts.end(),
                [n](const EntityCount& a, const EntityCount& b) {
                  uint64_t ia = Imbalance(a.count, n);
                  uint64_t ib = Imbalance(b.count, n);
                  if (ia != ib) return ia < ib;
                  return a.entity < b.entity;
                });
    }
  }

  size_t limit = counts.size();
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
  // pay for it.
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
    const EntityId e = counts[i].entity;
    const uint64_t c1 = counts[i].count;
    const uint64_t c2 = n - c1;

    // Line 14: prune by the 1-step bound (Lemma 4.4 with l = 1).
    if (options_.enable_early_break &&
        Lb1(options_.metric, c1, c2) >= best) {
      if (options_.sort_candidates) {
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
      index.Build(sub, counts, &level.counter);
      indexed = true;
      // Splits examined before the index existed still count as seen.
      for (size_t j = 0; j < i; ++j) index.Insert(j);
    }
    if (indexed && index.SeenSplit(i)) {
      if (top && node_stats != nullptr) ++node_stats->pruned_by_duplicate;
      continue;
    }
    auto [c_in, c_out] = indexed ? index.Cut(sub, i) : sub.Partition(e);
    partitioned_sets += n;

    // Differential counting for the recursion: both children's counts come
    // from one (lazy) dense scan of the smaller half plus derivation from
    // this node's lists. A deeper child materializes only after its memo
    // lookup misses, so memo hits still skip counting; a leaf reads the
    // scan directly (SelectLeaf).
    bool dense_valid = false;
    const DeltaHint child_hint{&level.asc, &counts,
                               c_in.size() <= c_out.size() ? &c_in : &c_out,
                               &level.counter, &dense_valid};
    const DeltaHint* hint_ptr = delta_children ? &child_hint : nullptr;

    // Lines 18-25: (k-1)-step bound of C+ under its derived upper limit.
    Cost l_in;
    if (c_in.size() <= 1) {
      l_in = 0;
    } else {
      Cost ul_in = options_.enable_upper_limits
                       ? UpperLimitFirst(options_.metric, best, n,
                                         Lb0(options_.metric, c_out.size()))
                       : kInfiniteCost;
      ++depth_;
      KlpSelection r = SelectImpl(c_in, k - 1, ul_in, /*top=*/false, excluded,
                                  nullptr, hint_ptr);
      --depth_;
      if (r.entity == kNoEntity) {
        if (top && node_stats != nullptr) ++node_stats->pruned_by_child;
        continue;
      }
      l_in = r.bound;
    }

    // Lines 26-32: C- under the tighter limit now that l_in is known.
    Cost l_out;
    if (c_out.size() <= 1) {
      l_out = 0;
    } else {
      Cost ul_out = options_.enable_upper_limits
                        ? UpperLimitSecond(options_.metric, best, n, l_in)
                        : kInfiniteCost;
      ++depth_;
      KlpSelection r = SelectImpl(c_out, k - 1, ul_out, /*top=*/false,
                                  excluded, nullptr, hint_ptr);
      --depth_;
      if (r.entity == kNoEntity) {
        if (top && node_stats != nullptr) ++node_stats->pruned_by_child;
        continue;
      }
      l_out = r.bound;
    }

    // Lines 33-36: keep the strict minimum; ties resolve to the earlier
    // (more even) candidate by construction.
    Cost l = Combine(options_.metric, l_in, l_out, n);
    ++stats_.entities_evaluated_deep;
    if (top && node_stats != nullptr) ++node_stats->fully_evaluated;
    if (l < best) {
      best = l;
      best_entity = e;
      if (top) {
        // Snapshot the winning candidate's smaller-half counts (restricted
        // to this node's list, the shape SeedChild wants): if the session
        // partitions on this entity — it returns as the selection —
        // NotePartition seeds the child's counts from them and the next
        // top-level count is free. Overwritten whenever a later candidate
        // takes the lead; ~one pass per step in the sorted-candidates
        // regime, where the leader rarely changes.
        if (delta_children && dense_valid) {
          const std::span<const uint32_t> dense = level.counter.dense();
          best_small_counts_.resize(level.asc.size());
          const size_t w = kernels::GatherChild(
              level.asc.data(), level.asc.size(), dense.data(), dense.size(),
              /*n=*/0, /*drop_full=*/false, best_small_counts_.data());
          best_small_counts_.resize(w);
          best_small_entity_ = e;
          best_small_is_in_ = child_hint.small == &c_in;
          best_small_valid_ = true;
        } else {
          best_small_valid_ = false;
        }
      }
    }
  }

  // Line 37: cache (entity, AFLV); entity may be kNoEntity, meaning
  // "no candidate achieves a bound below `best`".
  if (use_memo) cache_[key] = MemoEntry{best_entity, best};
  return {best_entity, best};
}

}  // namespace setdisc
