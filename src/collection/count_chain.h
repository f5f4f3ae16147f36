#pragma once

/// \file count_chain.h
/// The fingerprint-chain state machine behind DeltaCounter (and, through it,
/// the weighted selectors' retained top-level counts).
///
/// The owner keeps "the counts of the last view I computed" and decides, per
/// call, whether the incoming view can be served from that state:
///
///   * re-emit — the view IS the retained view (same fingerprint, no armed
///               derivation): serve without counting;
///   * delta   — an armed partition's kept half arrived (expected
///               fingerprint): derive the child from the parent state;
///   * full    — anything else: recount and re-seed.
///
/// The chain also owns the retention-time exclusion-mask snapshot and its
/// serve gate: retained state is only served while every entity the mask
/// excluded at retention time is still excluded (masks only grow within a
/// session, so the gate normally passes; arbitrary callers fall back to a
/// full count). The retained payload itself stays with the owner; this class
/// only answers "which path serves" and keeps the stats straight.

#include <cstdint>
#include <span>
#include <vector>

#include "collection/entity_exclusion.h"
#include "collection/types.h"

namespace setdisc {

/// Where each retained-counting call was served. `full` seeds the state,
/// `delta` covers the sibling-count derivations (including SeedChild
/// handoffs), `reemits` are the count-free paths; invalidations count
/// explicit resets (backtracks) plus chain breaks detected by the
/// fingerprint check.
struct DeltaCounterStats {
  uint64_t full = 0;
  uint64_t delta = 0;
  uint64_t reemits = 0;
  uint64_t invalidations = 0;

  uint64_t total() const { return full + delta + reemits; }
};

/// The serve path Classify() picks for one counting call.
enum class CountServe : uint8_t { kFull, kDelta, kReemit };

/// Fingerprint-chain + mask-snapshot state machine. Owners drive it in
/// lock-step with their retained payload: Classify, then serve the payload
/// accordingly, then Commit the path taken. Not thread-safe (confined with
/// the counting scratch it guards).
class CountChain {
 public:
  /// Which path would serve a view with fingerprint `fp` under `excluded`.
  CountServe Classify(uint64_t fp, const EntityExclusion* excluded) const {
    if (valid_ && MaskStillCovers(excluded)) {
      if (!pending_ && fp == counted_fp_) return CountServe::kReemit;
      if (pending_ && fp == expected_fp_) return CountServe::kDelta;
    }
    return CountServe::kFull;
  }

  /// Arms a derivation: the view with fingerprint `kept_fp` is one half of a
  /// partition of the retained view `parent_fp`. Returns false — after
  /// invalidating — when the retained state does not describe the parent
  /// (cache hit answered the last step, fresh session, backtrack).
  bool Arm(uint64_t parent_fp, uint64_t kept_fp) {
    if (!valid_ || parent_fp != counted_fp_) {
      Invalidate();
      return false;
    }
    expected_fp_ = kept_fp;
    pending_ = true;
    return true;
  }

  /// Consumes an armed derivation without serving it (the owner decided to
  /// recount, or classified the view as neither child nor re-emit). Chain
  /// breaks with a derivation armed count as invalidations.
  void ConsumePending(bool broken) {
    if (pending_ && broken) ++stats_.invalidations;
    pending_ = false;
  }

  /// Retained payload re-seeded by a full count of `fp` under `excluded`.
  void CommitFull(uint64_t fp, const EntityExclusion* excluded) {
    SnapshotMask(excluded);
    counted_fp_ = fp;
    valid_ = true;
    pending_ = false;
    ++stats_.full;
  }

  /// Retained payload derived from the parent's; the parent's mask snapshot
  /// stays in force (the derivation inherited its filtering).
  void CommitDelta(uint64_t fp) {
    counted_fp_ = fp;
    valid_ = true;
    pending_ = false;
    ++stats_.delta;
  }

  void CommitReemit() { ++stats_.reemits; }

  /// Forgets the chain (not the owner's payload buffers). Counted as an
  /// invalidation when there was state to lose.
  void Invalidate() {
    if (valid_ || pending_) ++stats_.invalidations;
    valid_ = false;
    pending_ = false;
  }

  /// Invalidate() plus freeing the mask snapshot storage.
  void Release() {
    Invalidate();
    retained_mask_ = {};
  }

  bool valid() const { return valid_; }
  uint64_t counted_fp() const { return counted_fp_; }

  /// Serve gate: every entity the retention-time mask excluded must still be
  /// excluded, or the retained payload may be missing candidates the current
  /// mask would admit. (Entities the current mask excludes *beyond* the
  /// snapshot are the owner's emit filter's job.)
  bool MaskStillCovers(const EntityExclusion* excluded) const {
    for (EntityId e : retained_mask_) {
      if (excluded == nullptr || e >= excluded->size() || !(*excluded)[e]) {
        return false;
      }
    }
    return true;
  }

  /// Snapshots the current mask's excluded ids alongside a fresh retention.
  void SnapshotMask(const EntityExclusion* excluded) {
    CopyMaskIds(excluded, &retained_mask_);
  }

  /// Installs an explicit snapshot (SeedChild adopts the last emit's mask).
  void SetMaskSnapshot(const std::vector<EntityId>& ids) {
    retained_mask_ = ids;
  }

  static void CopyMaskIds(const EntityExclusion* excluded,
                          std::vector<EntityId>* out) {
    if (excluded == nullptr) {
      out->clear();
    } else {
      std::span<const EntityId> ids = excluded->excluded_ids();
      out->assign(ids.begin(), ids.end());
    }
  }

  const DeltaCounterStats& stats() const { return stats_; }

 private:
  std::vector<EntityId> retained_mask_;
  uint64_t counted_fp_ = 0;
  uint64_t expected_fp_ = 0;
  bool valid_ = false;
  bool pending_ = false;
  DeltaCounterStats stats_;
};

}  // namespace setdisc
