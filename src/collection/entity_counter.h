#pragma once

/// \file entity_counter.h
/// Hot path: counting, for a sub-collection C, how many member sets contain
/// each entity — the |C1| of every candidate partition.
///
/// §3 of the paper divides entities into informative (0 < count < |C|) and
/// uninformative; only informative entities are eligible for decision-tree
/// nodes. The counter emits informative entities only.
///
/// Implementation: a scratch array of counts indexed by EntityId plus a
/// touched list, reused across calls, giving O(total elements of C) per pass
/// with no hashing. The gather-increment itself is a flat, branchless kernel
/// (collection/count_kernels.h): first-touch tracking is a conditional
/// post-increment of the touched write index, not an if-push_back, so the
/// hot loop carries only the counts[e]++ data dependence.
///
/// Both arrays are universe-sized but allocated, not filled
/// (util/scratch_array.h): the counts come from calloc and the touched list
/// is left uninitialised, because it is written before it is read. A fresh
/// counter therefore faults in only the pages its counts write instead of
/// both arrays over the whole universe (on a million-entity corpus, filling
/// them would be most of a new session's first question). Between counts
/// the scratch is all-zero because every pass clears what it wrote, entry
/// by entry.

#include <span>
#include <vector>

#include "collection/entity_exclusion.h"
#include "collection/sub_collection.h"
#include "collection/types.h"
#include "util/scratch_array.h"

namespace setdisc {

/// One candidate entity with its partition size within a sub-collection.
struct EntityCount {
  EntityId entity = kNoEntity;
  uint32_t count = 0;  ///< number of sets in the sub-collection containing it

  bool operator==(const EntityCount&) const = default;
};

// EntityExclusion — the optional predicate for excluding entities (e.g.
// "don't know" answers, §6 of the paper) — lives in entity_exclusion.h; it
// is re-exported here because every selector includes this header.

/// Reusable counting workspace. Not thread-safe; use one per thread.
class EntityCounter {
 public:
  EntityCounter() = default;

  /// Appends to `out` every informative entity of `sub` with its count,
  /// in ascending entity-id order (deterministic). `out` is cleared first.
  ///
  /// \param excluded  if non-null, entities marked true are skipped.
  void CountInformative(const SubCollection& sub, std::vector<EntityCount>* out,
                        const EntityExclusion* excluded = nullptr);

  /// Like CountInformative but returns *all* entities with non-zero count,
  /// including uninformative ones (used by generators and diagnostics).
  ///
  /// \param excluded  if non-null, entities marked true are skipped.
  void CountAll(const SubCollection& sub, std::vector<EntityCount>* out,
                const EntityExclusion* excluded = nullptr);

  /// Counts `sub` into the dense scratch and leaves it there: dense()[e] is
  /// the count of e until the next Count* call on this counter. No touched
  /// sort, no list emission — the shape differential derivations want,
  /// since they walk an already-sorted parent list and only need random
  /// access to this half's counts (delta_counter.h, klp.cc). The next
  /// Count* call clears the residue by touched list as usual.
  void CountDense(const SubCollection& sub);

  /// The dense count array after CountDense (indexed by EntityId; valid up
  /// to the counted sub-collection's universe).
  std::span<const uint32_t> dense() const { return counts_.span(); }

  /// The entities CountDense touched, in first-occurrence order: exactly
  /// the nonzero entries of dense(), so a caller can visit them without
  /// walking a longer list that happens to contain them.
  std::span<const EntityId> touched() const {
    return {touched_.data(), num_touched_};
  }

  /// Lends the all-zero dense array (sized for `universe`) as scratch, e.g.
  /// an entity -> slot map, so a caller needs no universe-sized array of
  /// its own. Any live CountDense residue is cleared first. The caller must
  /// zero every entry it wrote before the next Count* call on this counter.
  std::span<uint32_t> BorrowZeroed(EntityId universe) {
    if (dense_live_) ClearDense();
    EnsureCapacity(universe);
    return counts_.span();
  }

  /// Sweep-vs-sort crossover: the dense sweep wins once at least
  /// universe / kDenseSweepDivisor entities were touched. Calibrated by
  /// bench_micro's BM_EmitCrossover sweep (RelWithDebInfo, x86-64: the sort
  /// overtakes the sweep between universe/8 and universe/32 touched; 16 sits
  /// mid-band and is within a few percent of either extreme's best case).
  /// Retune there before changing it here; delta_counter_test pins output
  /// parity on both sides of the boundary.
  static constexpr size_t kDenseSweepDivisor = 16;

  /// Emitting in ascending entity order costs either a sort of the touched
  /// list (O(t log t)) or an in-order sweep of the dense count array
  /// (O(m') sequential reads). The sweep wins once a meaningful fraction of
  /// the universe was touched — which is the normal shape for root-level
  /// counting over a large collection. Public so the boundary test can place
  /// its inputs exactly at the crossover.
  static bool DenseSweepIsCheaper(size_t touched, EntityId universe) {
    return touched >= universe / kDenseSweepDivisor;
  }

  /// Returns the dense scratch (O(universe) ints) and the touched list to
  /// the allocator. The next count allocates them again, lazily zeroed as
  /// in the file comment, so it pays only for the pages it writes; results
  /// are unaffected. Called by ReleaseMemory() chains when a session goes
  /// idle so parked sessions do not pin per-universe scratch each.
  void Release() {
    counts_.Reset();
    touched_.Reset();
    num_touched_ = 0;
    dense_live_ = false;
  }

 private:
  void EnsureCapacity(EntityId universe);

  /// Zeroes a live CountDense residue (by touched list) so the scratch is
  /// all-zero again — the invariant every counting pass starts from.
  void ClearDense() {
    for (size_t i = 0; i < num_touched_; ++i) counts_[touched_[i]] = 0;
    num_touched_ = 0;
    dense_live_ = false;
  }

  /// All-zero between counts (calloc'd; see the file comment).
  ScratchArray<uint32_t> counts_;
  /// Universe + 1 entries so the branchless kernel can store
  /// unconditionally; num_touched_ is the live prefix, and nothing past it
  /// is ever read, so the storage is left uninitialised.
  ScratchArray<EntityId> touched_;
  size_t num_touched_ = 0;
  bool dense_live_ = false;
};

}  // namespace setdisc
