#pragma once

/// \file klp.h
/// Algorithm 1 of the paper — K-Lookahead with Pruning (k-LP) — and its
/// beam-limited variants k-LPLE and k-LPLVE (§4.4), plus the unpruned
/// exhaustive lookahead ("gain-k", Esmeir & Markovitch style) used as the
/// Fig. 4 comparator. One implementation, options-controlled, so ablations
/// isolate exactly the paper's pruning contributions:
///
///  * sorted candidate order + early break         (Algorithm 1, lines 11/14)
///  * upper limits passed to recursive calls        (Eqs. 11–14, lines 22/29)
///  * memoization of (sub-collection, k) results    (lines 1–6, 9, 37)
///  * duplicate-partition skip: a candidate that splits the node into the
///    same two halves as one already examined there has the same k-step
///    bound, which already failed to beat the running best (memoization at
///    the partition level, so it rides on enable_memoization)
///  * beam limits q (k-LPLE) / variable beam (k-LPLVE)
///
/// One recursion, three cost models: LookaheadSelector<Model>::SelectImpl
/// is the only Algorithm 1 recursion in the tree. The model supplies what
/// differs — node totals and split sums, LB_0 / LB_1 / Combine and the child
/// upper limits, the scan order and whether LB_1 is monotone in it, the leaf
/// pick, and what a child with no entity means. CountCost covers AD and H
/// (counts only); WeightedCost (weighted_klp.h) covers the §7 prior. The
/// memo, beam, duplicate skip, DeltaHint child derivation, top-level
/// DeltaCounter and lookahead-reuse seeding are shared. The model is a
/// template parameter, so no per-candidate call is indirect.
///
/// The last lookahead level (a k = 1 child reached through a DeltaHint) is
/// one fused scan with no memo entry: cheaper than copying and hashing the
/// child's id vector. The count models read the smaller half's dense counts
/// and the parent's most-even list; the weighted model sums the child's own
/// sets once.
///
/// Cost bookkeeping is exact-integer (see cost.h), which Lemma 4.4's safety
/// argument requires; integer sums (counts, quantized mass) may be derived
/// by subtraction. The weighted Σ qw·log2(qw) is a double that feeds
/// floor(), so it is never derived across nodes: each node accumulates it
/// over its own sets in ascending set-id order, or a bound could move by
/// one at an integer boundary.

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "collection/delta_counter.h"
#include "collection/entity_counter.h"
#include "collection/sub_collection.h"
#include "core/cost.h"
#include "core/instrumentation.h"
#include "core/selector.h"

namespace setdisc {

/// Configuration of the lookahead family.
struct KlpOptions {
  /// Lookahead depth k (>= 1). k = 1 degenerates to MostEven / InfoGain
  /// (Lemma 4.3). Use MakeOptimal() for the exact search.
  int k = 2;

  CostMetric metric = CostMetric::kAvgDepth;

  /// Beam width q: number of candidate entities considered per step, in
  /// most-even order. <= 0 means unlimited (plain k-LP).
  int beam_width = -1;

  /// k-LPLVE: beam_width applies to the top-level call only; recursive
  /// lower-bound steps greedily consider a single entity.
  bool variable_beam = false;

  /// Master switches for the ablation study; production defaults are all on.
  bool enable_early_break = true;   ///< sorted early break (line 14)
  bool enable_upper_limits = true;  ///< child ULs, Eqs. 11–14
  bool enable_memoization = true;   ///< Cache[(C, k)]
  /// When false, candidates are scanned in entity-id order instead of
  /// most-even order (disables the line-11 sort; forces early break off
  /// since the break is only sound on sorted candidates).
  bool sort_candidates = true;

  /// Differential counting (collection/delta_counter.h). Inside the
  /// lookahead, both children of a candidate partition are counted by
  /// scanning only the smaller half and deriving the larger from the node's
  /// own counts by subtraction — the dominant saving, since k-LP counts at
  /// every lookahead child; across steps, the top-level counts are derived
  /// from the previous step's via the NotePartition chain. Decisions are
  /// byte-identical either way (the delta parity suite pins it); off is the
  /// full-recount baseline for bench_counting and ablations.
  bool enable_delta_counting = true;

  /// Record per-node pruning stats (Table 4) in stats().per_node.
  bool record_per_node_stats = false;

  /// Safety valve for the memo cache (entries), cleared when exceeded.
  size_t max_cache_entries = 1 << 22;

  /// Named presets matching the paper's configurations.
  static KlpOptions MakeKlp(int k, CostMetric metric);
  static KlpOptions MakeKlple(int k, int q, CostMetric metric);
  static KlpOptions MakeKlplve(int k, int q, CostMetric metric);
  /// Unpruned exhaustive k-step lookahead (the paper's gain-k comparator).
  static KlpOptions MakeGainK(int k, CostMetric metric);
  /// Exact optimal search: k-LP with k >= height of any tree (§4.4.1).
  static KlpOptions MakeOptimal(CostMetric metric);
};

/// Result of one lookahead selection.
struct KlpSelection {
  EntityId entity = kNoEntity;  ///< kNoEntity if everything was pruned
  Cost bound = kInfiniteCost;   ///< the k-step lower bound of `entity`
};

/// The most-even informative entity of one last-level lookahead child
/// (ties: lowest id), as the fused leaf scans below find it; entity is
/// kNoEntity when the child has no informative, non-excluded entity.
struct LeafPick {
  EntityId entity = kNoEntity;
  uint64_t count = 0;  ///< sets of the child containing `entity`
  uint64_t imbalance = UINT64_MAX;
};

/// Leaf scan for the smaller half of a split: `touched` and `dense` are that
/// half's own dense count (EntityCounter::CountDense over its n sets).
LeafPick MostEvenSmallerHalf(std::span<const EntityId> touched,
                             std::span<const uint32_t> dense, uint64_t n,
                             const EntityExclusion* excluded);

/// Leaf scan for the larger half (n sets) of a split whose smaller half has
/// `small_n` sets and dense counts `small_dense`: walks the parent node's
/// candidate list with child count = parent count - smaller-half count.
/// When `most_even_order` says `parent` is sorted by parent imbalance (then
/// entity), |2c - n_parent| - small_n lower-bounds the child imbalance of
/// every later entry, and the walk stops once that bound exceeds the best
/// imbalance or reaches `stop_imbalance`. Stopping on the latter means only
/// that no entity below `stop_imbalance` exists; pass UINT64_MAX for an
/// exact pick.
LeafPick MostEvenLargerHalf(std::span<const EntityCount> parent,
                            bool most_even_order,
                            std::span<const uint32_t> small_dense,
                            uint64_t small_n, uint64_t n,
                            uint64_t stop_imbalance);

/// What a lookahead child needs to derive its counts from its parent's
/// instead of recounting: Algorithm 1 counts BOTH halves of every candidate
/// partition, and this makes it one lazy dense scan of the smaller half,
/// shared by the two children (a memo hit never triggers it).
template <class Candidate>
struct DeltaHint {
  /// The parent's informative, exclusion-filtered counts, ascending.
  const std::vector<EntityCount>* parent_asc;
  /// The parent's candidates in scan order (a larger-half leaf walks it).
  const std::vector<Candidate>* parent_order;
  /// The smaller partition half by set count (ties: the containing half).
  const SubCollection* small;
  EntityCounter* counter;  ///< the parent level's; holds *small's counts
  bool* dense_valid;       ///< whether it already does

  /// CountDense(*small) on first use; both children read it by O(1) dense
  /// lookup while walking the parent's lists.
  const EntityCounter& SmallCounts() const {
    if (!*dense_valid) {
      counter->CountDense(*small);
      *dense_valid = true;
    }
    return *counter;
  }
};

/// LB_0 of the two halves of one candidate's split.
struct SplitLb0 {
  Cost lb0_in;
  Cost lb0_out;
};

/// The AD and H cost models: every bound is a function of set counts alone
/// (cost.h). The candidates are the count list itself.
class CountCost {
 public:
  using Candidate = EntityCount;
  struct Node {
    uint64_t n;
  };
  /// LB_1 is non-decreasing in the most-even order: the early break ends
  /// the loop. A child with no entity below its limit drops the candidate.
  /// The candidates are the count list, sorted in place (the top-level
  /// DeltaCounter can serve that order). Bounds are symmetric in the
  /// halves, so the duplicate skip also matches swapped halves.
  static constexpr bool kMonotoneLb1 = true;
  static constexpr bool kNoEntityFallsBackToLb0 = false;
  static constexpr bool kCandidatesAreCounts = true;
  static constexpr bool kSwappedHalvesAlike = true;

  explicit CountCost(CostMetric metric) : metric_(metric) {}

  Node MakeNode(const SubCollection& sub) const { return {sub.size()}; }
  Cost Lb0(const Node& node) const { return setdisc::Lb0(metric_, node.n); }
  /// How far a k-step value of a view of `n` sets may sit below its LB_0:
  /// never, for the count bounds.
  static constexpr Cost Lb0Slack(uint64_t /*n*/) { return 0; }
  std::vector<EntityCount>& Weigh(const SubCollection&, const Node&,
                                  std::vector<EntityCount>* counts,
                                  std::vector<EntityCount>*) {
    return *counts;
  }
  void Sort(const Node& node, std::vector<EntityCount>* candidates) const;
  SplitLb0 SplitOf(const Node& node, const EntityCount& c) const {
    return {setdisc::Lb0(metric_, c.count),
            setdisc::Lb0(metric_, node.n - c.count)};
  }
  Cost Combine(const Node& node, Cost left, Cost right) const {
    return setdisc::Combine(metric_, left, right, node.n);
  }
  Cost UpperLimitFirst(const Node& node, Cost best, Cost other_lb0) const {
    return setdisc::UpperLimitFirst(metric_, best, node.n, other_lb0);
  }
  Cost UpperLimitSecond(const Node& node, Cost best, Cost first) const {
    return setdisc::UpperLimitSecond(metric_, best, node.n, first);
  }
  /// k = 1 over an ascending list: the most even partitioner (ties: lowest
  /// id) and its 1-step bound; the caller compares it with the limit.
  KlpSelection PickLeaf(const Node& node, std::vector<EntityCount>* candidates,
                        Cost upper_limit, int beam) const;
  /// The same pick for a hinted child in one scan, from the smaller half's
  /// dense counts; kNoEntity when its bound does not go below the limit.
  KlpSelection PickHintedLeaf(const SubCollection& sub, const Node& node,
                              Cost upper_limit,
                              const DeltaHint<EntityCount>& hint,
                              const EntityExclusion* excluded, int beam,
                              bool sorted) const;
  void Release() {}

 private:
  CostMetric metric_;
};

/// Algorithm 1 over a cost model (see the file comment) in the Υ
/// interface, with all of its shared state. Instantiated in klp.cc for
/// CountCost and WeightedCost.
template <class Model>
class LookaheadSelector : public EntitySelector {
 public:
  /// `options.metric` is the model's business; the rest applies as is.
  LookaheadSelector(Model model, const KlpOptions& options);
  ~LookaheadSelector() override;

  const KlpStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Drops all memoized results (e.g. between unrelated collections).
  void ClearCache() { cache_.clear(); }
  size_t cache_size() const { return cache_.size(); }

  /// Differential-counting hooks: the top-level count chains across steps
  /// through delta_counter_, and a partition on the entity just chosen is
  /// seeded from the lookahead's own counts (SeedChild), making the next
  /// count a free re-emit. A broken chain falls back to a full count.
  void NotePartition(const SubCollection& parent, EntityId e,
                     bool kept_contains, const SubCollection& kept,
                     SubCollection dropped) override;
  void InvalidateCountState() override;
  void ReleaseMemory() override;

  /// Full/delta/re-emit breakdown of the top-level (cross-step) counting.
  const DeltaCounterStats& counting_stats() const {
    return delta_counter_.stats();
  }

  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded = nullptr) override {
    return Search(sub, kInfiniteCost, excluded).entity;
  }

  /// Effective lookahead depth: options.k less the effort level, >= 1.
  int effective_k() const {
    int k = options_.k - effort_;
    return k < 1 ? 1 : k;
  }

 protected:
  /// Top-level Algorithm 1 call at effective_k(), publishing the node's
  /// pruning telemetry (KlpStats, setdisc_klp_* counters, lookahead note).
  KlpSelection Search(const SubCollection& sub, Cost upper_limit,
                      const EntityExclusion* excluded);
  const Model& model() const { return model_; }

  KlpOptions options_;
  /// Degradation level (0 = full effort); only KlpSelector sets it.
  int effort_ = 0;

 private:
  struct MemoKey {
    std::vector<SetId> ids;
    int32_t k;
    int32_t beam;
    bool operator==(const MemoKey&) const = default;
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& key) const;
  };
  struct MemoEntry {
    EntityId entity;
    Cost bound;
  };
  struct LevelScratch;  ///< per recursion level (klp.cc)
  using Candidate = typename Model::Candidate;
  using Hint = DeltaHint<Candidate>;

  KlpSelection SelectImpl(const SubCollection& sub, int k, Cost upper_limit,
                          bool top, const EntityExclusion* excluded,
                          NodeStats* node_stats, const Hint* hint);

  Model model_;
  /// Counting for recursion nodes with no hint (differential counting off).
  EntityCounter counter_;
  /// Top-level cross-step counting state; recursion levels use the
  /// DeltaHint scheme instead (their parent's counts are on the stack).
  DeltaCounter delta_counter_;
  KlpStats stats_;
  std::unordered_map<MemoKey, MemoEntry, MemoKeyHash> cache_;
  std::vector<std::unique_ptr<LevelScratch>> scratch_;
  int depth_ = 0;

  /// Lookahead reuse: the smaller-half counts (restricted to the top node's
  /// candidate list) of the candidate currently winning the loop,
  /// snapshotted each time `best` improves. If the session then partitions
  /// on exactly that entity, NotePartition seeds the child's counts from it
  /// — the dominant cross-step saving for k-LP, since the winning candidate
  /// is precisely the one whose halves the lookahead counted.
  std::vector<EntityCount> best_small_counts_;
  EntityId best_small_entity_ = kNoEntity;
  bool best_small_is_in_ = false;  ///< smaller half == containing half?
  bool best_small_valid_ = false;
};

extern template class LookaheadSelector<CountCost>;

/// The k-LP selector family over the AD and H metrics.
class KlpSelector : public LookaheadSelector<CountCost> {
 public:
  explicit KlpSelector(KlpOptions options);

  /// Full Algorithm 1 entry point: selection plus its k-step bound, with a
  /// caller-supplied upper limit (kInfiniteCost for unconstrained).
  KlpSelection SelectWithBound(const SubCollection& sub, Cost upper_limit,
                               const EntityExclusion* excluded = nullptr) {
    return Search(sub, upper_limit, excluded);
  }

  std::string_view name() const override { return name_; }
  const KlpOptions& options() const { return options_; }

  /// Load-adaptive degradation: each effort level shaves one step off the
  /// lookahead depth, clamped so even a saturated controller still gets a
  /// 1-step (MostEven-equivalent, Lemma 4.3) decision — degraded answers
  /// are worse questions, never wrong ones. Level 0 is byte-identical to a
  /// selector without the knob: the same k reaches SelectImpl and the
  /// fingerprint below is untouched. The memo cache needs no flush on
  /// transition because k is part of the memo key.
  void SetEffort(int level) override { effort_ = level < 0 ? 0 : level; }
  int effort() const { return effort_; }

  /// Mixes the effective depth in whenever degradation actually changes it,
  /// so shared SelectionCache entries written by a degraded session are
  /// never served to a full-effort one (or vice versa). When effort leaves
  /// the depth unchanged (level 0, or k == 1 already), the fingerprint is
  /// bit-equal to the undegraded one and cache hits keep flowing.
  uint64_t DecisionFingerprint() const override {
    uint64_t fp = FingerprintString(name_);
    if (effective_k() != options_.k) {
      fp ^= 0x9E3779B97F4A7C15ULL *
            (static_cast<uint64_t>(effective_k()) + 0x51ED2701);
    }
    return fp;
  }

 private:
  std::string name_;
};

}  // namespace setdisc
