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
/// The last lookahead level (a k = 1 child reached through a DeltaHint) is
/// one fused scan: the most-even entity of the child is found straight from
/// the smaller half's dense counts and the parent's most-even list, with no
/// child list, no sort, and no memo entry — leaves bypass the memo, since
/// the scan costs less than copying and hashing the child's id vector.
///
/// Cost bookkeeping is exact-integer (see cost.h), which Lemma 4.4's safety
/// argument requires.

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

/// The k-LP selector family (Algorithm 1 wrapped in the Υ interface).
class KlpSelector : public EntitySelector {
 public:
  explicit KlpSelector(KlpOptions options);
  ~KlpSelector() override;

  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded = nullptr) override;

  /// Full Algorithm 1 entry point: selection plus its k-step bound, with a
  /// caller-supplied upper limit (kInfiniteCost for unconstrained).
  KlpSelection SelectWithBound(const SubCollection& sub, Cost upper_limit,
                               const EntityExclusion* excluded = nullptr);

  std::string_view name() const override { return name_; }
  const KlpOptions& options() const { return options_; }

  /// Load-adaptive degradation: each effort level shaves one step off the
  /// lookahead depth, clamped so even a saturated controller still gets a
  /// 1-step (MostEven-equivalent, Lemma 4.3) decision — degraded answers
  /// are worse questions, never wrong ones. Level 0 is byte-identical to a
  /// selector without the knob: the same k reaches SelectImpl and the
  /// fingerprint below is untouched. The memo cache needs no flush on
  /// transition because k is part of MemoKey.
  void SetEffort(int level) override { effort_ = level < 0 ? 0 : level; }
  int effort() const { return effort_; }

  /// Effective lookahead depth under the current effort level.
  int effective_k() const {
    int k = options_.k - effort_;
    return k < 1 ? 1 : k;
  }

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

  const KlpStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Drops all memoized results (e.g. between unrelated collections).
  void ClearCache();
  size_t cache_size() const;

  /// Differential-counting hooks: the top-level counting pass of each
  /// Select() chains across session steps through delta_counter_ — and when
  /// the answered entity is the one this selector just chose, its lookahead
  /// already counted both partition halves, so the next step's top counts
  /// are seeded outright (SeedChild) and that count becomes a free re-emit.
  /// Memo hits skip the chain, and the fingerprint check falls back to a
  /// full count whenever it broke.
  void NotePartition(const SubCollection& parent, EntityId e,
                     bool kept_contains, const SubCollection& kept,
                     SubCollection dropped) override;
  void InvalidateCountState() override;
  void ReleaseMemory() override;

  /// Full/delta/re-emit breakdown of the top-level (cross-step) counting.
  const DeltaCounterStats& counting_stats() const {
    return delta_counter_.stats();
  }

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

  /// Ingredients for deriving a lookahead child's counts from its parent
  /// node's instead of recounting (Algorithm 1's recursion counts BOTH
  /// halves of every candidate partition — this collapses that to one
  /// dense scan of the smaller half per candidate, shared by the two
  /// children, with no sort and no list emission). Built per candidate in
  /// the parent's loop; materialized lazily so a child that memo-hits never
  /// triggers the scan.
  struct DeltaHint {
    /// The parent node's candidate list in ascending entity order (the
    /// pre-sort copy) — informative for the parent, exclusion-filtered.
    const std::vector<EntityCount>* parent_asc;
    /// The same list in the parent's scan order (most-even first when
    /// sort_candidates is on), which a larger-half leaf walks so it can stop
    /// early.
    const std::vector<EntityCount>* parent_order;
    /// The smaller partition half by set count (ties: the containing half).
    const SubCollection* small;
    /// The parent level's counter; lazily holds CountDense(*small), which
    /// both children read by O(1) dense lookup while walking parent_asc.
    EntityCounter* counter;
    bool* dense_valid;
  };

  KlpSelection SelectImpl(const SubCollection& sub, int k, Cost upper_limit,
                          bool top, const EntityExclusion* excluded,
                          NodeStats* node_stats, const DeltaHint* hint);

  /// The k = 1 base case of a hinted child in one scan: the child's
  /// most-even informative entity (ties: lowest id) and its 1-step bound,
  /// or kNoEntity when that bound does not go below `upper_limit`.
  KlpSelection SelectLeaf(const SubCollection& sub, Cost upper_limit,
                          const DeltaHint& hint,
                          const EntityExclusion* excluded);

  /// Fills `counts` with what CountInformative(sub, excluded) would emit,
  /// using the hint: count the smaller half once (lazily), then either
  /// filter it (we are the smaller half) or subtract it from the parent's
  /// list (we are the larger).
  void MaterializeFromHint(const SubCollection& sub, const DeltaHint& hint,
                           const EntityExclusion* excluded,
                           std::vector<EntityCount>* counts);

  KlpOptions options_;
  std::string name_;
  /// Current degradation level (0 = full effort); see SetEffort().
  int effort_ = 0;
  EntityCounter counter_;
  /// Top-level cross-step counting state; recursion levels use the
  /// DeltaHint scheme instead (their parent's counts are on the stack).
  DeltaCounter delta_counter_;
  KlpStats stats_;
  std::unordered_map<MemoKey, MemoEntry, MemoKeyHash> cache_;
  /// Transposed view of one node for the duplicate-partition skip: for each
  /// candidate (by its index in the node's scan order), the positions in C
  /// of the sets containing it, plus an order-free hash of that position
  /// set. Two candidates split C identically iff their position sets are
  /// equal or complementary; the hash is XOR-based so a complement's hash is
  /// the all-positions hash XOR the candidate's, and the smaller of the two
  /// is the split's key.
  struct PartitionIndex {
    std::vector<uint32_t> offsets;    ///< candidate i: [offsets[i], offsets[i+1])
    std::vector<uint32_t> positions;  ///< ascending positions per candidate
    std::vector<uint64_t> keys;       ///< split key per candidate
    /// Open-addressing table of examined splits: key and candidate index
    /// (0 = empty; stored keys are forced nonzero).
    std::vector<uint64_t> table_keys;
    std::vector<uint32_t> table_slots;
    uint32_t n = 0;  ///< |C| of the indexed node

    /// Builds the index for `sub` over `counts`, borrowing `counter`'s
    /// all-zero dense array as the entity -> candidate map.
    void Build(const SubCollection& sub,
               const std::vector<EntityCount>& counts,
               EntityCounter* counter);
    /// True when candidate i splits C like an earlier examined candidate;
    /// otherwise records i as examined.
    bool SeenSplit(size_t i);
    /// Records candidate i as examined without checking it.
    void Insert(size_t i);
    /// Partition of `sub` on candidate i, read off the index.
    std::pair<SubCollection, SubCollection> Cut(const SubCollection& sub,
                                                size_t i) const;

   private:
    bool SameSplit(size_t i, size_t j) const;
  };

  /// Reusable per-recursion-level scratch. Each level owns a counter so a
  /// node's dense smaller-half counts stay live while its children (which
  /// dense-count on their own level) derive from them.
  struct LevelScratch {
    std::vector<EntityCount> counts;  ///< candidate list (sorted in place)
    std::vector<EntityCount> asc;     ///< ascending copy for child hints
    EntityCounter counter;            ///< smaller-half dense counts
    PartitionIndex index;             ///< this level's node, built lazily
  };
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

}  // namespace setdisc
