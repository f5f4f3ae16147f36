#pragma once

/// \file delta_counter.h
/// Differential counting: derive a child's entity counts from its parent's
/// instead of recounting.
///
/// The paper's cost model makes the per-step counting pass over the
/// candidate sub-collection the dominant cost of every selector. But the
/// steps of a session are not independent scans: `Partition(e)` splits C
/// into (C1, C2) with counts(C2) = counts(C) - counts(C1) exactly, and the
/// parent's counts were just computed. A DeltaCounter therefore retains the
/// counts of the last view it counted, and when told that the next view is
/// one half of a partition of that view, produces the child's counts by
/// dense-counting only the *smaller* half of the partition — the kept view
/// itself or the dropped sibling, whichever has fewer elements — and
/// deriving the rest with one sequential pass over the parent's list
/// (collection/count_kernels.h: GatherChild when the kept half was scanned,
/// SubtractChild when the sibling was). Either way the derivation skips the
/// touched-list sort and separate emission a recount pays, which is why it
/// serves even for the ~even splits the 1-step selectors produce.
///
/// Four paths, chosen per call (CountChain::Classify plus the cost check):
///
///   * full     — the view is unknown: count it, retain, emit;
///   * delta    — the view is the expected child of the retained parent and
///                scanning the smaller half plus one derivation pass is
///                cheaper than rescanning the view: do that;
///   * seeded   — the caller already counted one half of the partition
///                (k-LP's lookahead counts both halves of the candidate it
///                chooses) and handed it to SeedChild: the child's counts
///                were derived at partition time, so this count is a
///                re-emit;
///   * re-emit  — the view IS the retained view: no counting at all, just
///                re-filter the retained list (also the §6 don't-know loop:
///                exclusion added, re-select on the same candidates).
///
/// Representation: the retained state is the *informative* count list of
/// the view — exactly what CountInformative emits, entities with
/// 0 < c < |view| in ascending order, filtered by the exclusion mask in
/// force when it was computed — plus a snapshot of which entities that mask
/// excluded. That closure is what makes derivation sound: an entity
/// uninformative at any ancestor (present in all or none of its sets) is
/// uninformative in every descendant, and an entity masked out at retention
/// time can only be re-admitted by *removing* it from the mask — which the
/// serve gate detects: retained state is served only while every
/// snapshotted exclusion is still excluded (O(snapshot) per check; §6 masks
/// are small and only grow, so in sessions the gate always passes), any
/// other mask falls back to a full recount. Every emit path additionally
/// re-applies the current mask, so output stays byte-identical to
/// EntityCounter::CountInformative on the same (view, mask) for ARBITRARY
/// mask sequences — not just growing ones — the invariant the randomized
/// delta parity suite pins.
///
/// Retained candidate ORDER (set_retain_order): alongside the counts, the
/// counter can keep the same list sorted by (count, entity) and maintain it
/// across the chain — repaired in place on a sibling-subtraction (only the
/// entities the sibling touched move; untouched entities keep their relative
/// order), rebuilt by an O(m + n) counting sort when the derivation rewrote
/// every count (gather path, SeedChild) or the chain broke. From that list
/// EmitMostEvenOrder produces the (imbalance, entity)-sorted candidate
/// order k-LP's line 11 needs with a two-wing merge around the n/2 fold —
/// byte-identical to std::sort with the comparator, at O(m) per emit and
/// never an O(m log m) comparison sort on the serve path. Memory cost: one
/// extra EntityCount (8 B) per retained candidate plus an O(n) bucket
/// array, both freed by Release().
///
/// Who arms it: the discovery session reports each answer's partition via
/// EntitySelector::NotePartition (service/discovery_session.cc), handing
/// over the dropped half it would otherwise free. Anything that breaks the
/// parent chain — a backtrack, a cache hit that skipped counting, a fresh
/// session on other candidates — just fails the fingerprint check and falls
/// back to a full count, which re-seeds the state. Single-thread confinement
/// like every counting scratch: one DeltaCounter per selector per session.

#include <cstdint>
#include <vector>

#include "collection/count_chain.h"
#include "collection/entity_counter.h"
#include "collection/sub_collection.h"
#include "collection/types.h"

namespace setdisc {

/// A counting workspace that retains the last result for derivation.
/// Drop-in for EntityCounter::CountInformative; not thread-safe.
class DeltaCounter {
 public:
  DeltaCounter() = default;

  /// When disabled, every call recounts from scratch with no retention —
  /// the full-recount baseline bench_counting compares against.
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    if (!enabled_) Release();
  }
  bool enabled() const { return enabled_; }

  /// Opts into maintaining the (count, entity)-sorted view of the retained
  /// list for EmitMostEvenOrder. Off by default: the 1-step selectors scan
  /// their candidates linearly and would pay the upkeep for nothing.
  void set_retain_order(bool retain) {
    retain_order_ = retain;
    if (!retain) {
      order_ = {};
      order_state_ = OrderState::kStale;
    }
  }

  /// Appends to `out` every informative entity of `sub` with its count, in
  /// ascending entity-id order, skipping entities marked in `excluded` —
  /// byte-identical to EntityCounter::CountInformative — via whichever of
  /// the paths above is valid and cheapest.
  void CountInformative(const SubCollection& sub, std::vector<EntityCount>* out,
                        const EntityExclusion* excluded = nullptr);

  /// Fills `out` with exactly the entries the last CountInformative for the
  /// view with fingerprint `fp` (of size `n`) emitted, ordered by
  /// (imbalance vs n, entity) — byte-identical to std::sort of that
  /// emission under the same comparator. Serves from the retained order
  /// (repairing or rebuilding it as needed) in O(m + n); returns false —
  /// leaving `out` untouched — when order retention is off or the retained
  /// state does not describe this (view, mask), in which case the caller
  /// sorts for itself.
  bool EmitMostEvenOrder(uint64_t fp, uint32_t n,
                         const EntityExclusion* excluded,
                         std::vector<EntityCount>* out);

  /// Declares that `kept` and `dropped` are the two halves of a partition of
  /// `parent`. If the retained counts describe `parent`, arms the delta path
  /// for the next CountInformative(kept); otherwise invalidates. Takes
  /// ownership of `dropped` (the caller was about to free it anyway).
  void NotePartition(const SubCollection& parent, const SubCollection& kept,
                     SubCollection dropped);

  /// NotePartition for a caller that already counted one half of the
  /// partition. `half_counts` are that half's counts restricted to the
  /// parent's retained list (which is how k-LP's lookahead derives them):
  /// ascending, every entity of the parent list whose count in the half is
  /// non-zero, uninformative-within-the-half entries included. If the
  /// retained counts describe `parent`, the kept child's list is derived
  /// right here — filtering `half_counts` if `half_is_kept`, subtracting it
  /// from the parent list otherwise — and the next CountInformative(kept)
  /// is a count-free re-emit; otherwise invalidates.
  void SeedChild(const SubCollection& parent, const SubCollection& kept,
                 const std::vector<EntityCount>& half_counts,
                 bool half_is_kept);

  /// Forgets the retained counts and any armed partition; the next count is
  /// full. Called on backtracks and verify failures, where the candidate
  /// view jumps to an ancestor state.
  void Invalidate();

  /// Invalidate() plus freeing all retained memory, including the inner
  /// counter's dense scratch — the shrink-on-idle hook SessionManager calls
  /// on parked sessions.
  void Release();

  const DeltaCounterStats& stats() const { return chain_.stats(); }

 private:
  /// Lifecycle of the retained (count, entity)-sorted order relative to
  /// retained_: in sync, out of sync with a pending one-step repair already
  /// applied eagerly (repairs happen inside the derivation while the dense
  /// scratch is live), or stale (rebuild from retained_ on next emit).
  enum class OrderState : uint8_t { kStale, kValid };

  /// out = retained_, minus entities the (current) mask excludes. The
  /// retained list is informative by construction, so this is the whole
  /// emit filter.
  static void EmitFiltered(const std::vector<EntityCount>& retained,
                           const EntityExclusion* excluded,
                           std::vector<EntityCount>* out);

  /// Repairs order_ after a sibling subtraction: entities with a zero dense
  /// count kept their count (and relative order); the touched survivors are
  /// re-sorted and merged back. Falls back to marking the order stale (the
  /// counting-sort rebuild) when the touched set is large enough that its
  /// sort would cost more than rebuilding — the "repair never loses to
  /// re-sort" check.
  void RepairOrderAfterSubtract(std::span<const uint32_t> dense, uint32_t n);

  /// Counting-sort rebuild of order_ from retained_ (counts are in
  /// [1, n - 1]): O(m + n), stable, so entity order within a count group is
  /// ascending — exactly std::sort by (count, entity).
  void RebuildOrder(uint32_t n);

  EntityCounter counter_;
  bool enabled_ = true;
  bool retain_order_ = false;

  /// Retained state: the informative count list of the view the chain's
  /// counted_fp describes, filtered by the mask snapshotted in the chain;
  /// emits re-apply the current mask.
  std::vector<EntityCount> retained_;
  /// retained_ sorted by (count, entity) when order_state_ == kValid.
  std::vector<EntityCount> order_;
  OrderState order_state_ = OrderState::kStale;
  /// The mask the last CountInformative emitted under: what a
  /// SeedChild list (derived from that emitted output) is filtered by.
  std::vector<EntityId> last_emit_mask_;

  /// The fingerprint-chain state machine (shared shape with the weighted
  /// selectors; collection/count_chain.h).
  CountChain chain_;
  /// Armed derivation payload: the dropped half of the partition whose kept
  /// half the chain expects next.
  SubCollection sibling_;

  std::vector<EntityCount> scratch_;
  std::vector<EntityCount> moved_;
  std::vector<uint32_t> bucket_;
  std::vector<EntityId> mask_scratch_;
};

}  // namespace setdisc
