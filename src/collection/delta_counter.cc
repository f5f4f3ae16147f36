#include "collection/delta_counter.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "collection/count_kernels.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace setdisc {

namespace {

/// Process-wide serve-path mix {full, delta, reemit}: the per-instance
/// DeltaCounterStats die with their selector, the registry counters are
/// what live monitoring reads.
obs::Counter* ServeCounter(obs::ServePath path) {
  static obs::Counter* const full = obs::MetricsRegistry::Default().GetCounter(
      "setdisc_delta_serves_total", {{"path", "full"}});
  static obs::Counter* const delta = obs::MetricsRegistry::Default().GetCounter(
      "setdisc_delta_serves_total", {{"path", "delta"}});
  static obs::Counter* const reemit =
      obs::MetricsRegistry::Default().GetCounter("setdisc_delta_serves_total",
                                                 {{"path", "reemit"}});
  switch (path) {
    case obs::ServePath::kDelta: return delta;
    case obs::ServePath::kReemit: return reemit;
    default: return full;
  }
}

void NoteServe(obs::ServePath path) {
  obs::NoteServePath(path);
  if (obs::Enabled()) ServeCounter(path)->Add(1);
}

bool ByCountEntity(const EntityCount& a, const EntityCount& b) {
  return a.count != b.count ? a.count < b.count : a.entity < b.entity;
}

}  // namespace

void DeltaCounter::EmitFiltered(const std::vector<EntityCount>& retained,
                                const EntityExclusion* excluded,
                                std::vector<EntityCount>* out) {
  out->clear();
  out->reserve(retained.size());
  for (const EntityCount& ec : retained) {
    if (excluded != nullptr && ec.entity < excluded->size() &&
        (*excluded)[ec.entity]) {
      continue;
    }
    out->push_back(ec);
  }
}

void DeltaCounter::CountInformative(const SubCollection& sub,
                                    std::vector<EntityCount>* out,
                                    const EntityExclusion* excluded) {
  obs::PhaseTimer timer(obs::Phase::kCount);
  if (!enabled_) {
    NoteServe(obs::ServePath::kFull);
    counter_.CountInformative(sub, out, excluded);
    return;
  }
  const uint32_t n = static_cast<uint32_t>(sub.size());
  const uint64_t fp = sub.Fingerprint();
  const CountServe serve = chain_.Classify(fp, excluded);

  if (serve == CountServe::kDelta) {
    // Derivation armed and the view is the expected child. Deriving scans
    // the SMALLER half of the partition dense (its elements) plus one pass
    // over the parent list; recounting scans the kept view's own elements
    // and then pays roughly twice the touched set again for the
    // sort-or-sweep emission and the scratch clear — min(kept, m) is the
    // stand-in for that touched volume. The margin this widens over the
    // old "sibling + m < kept" check is exactly what lets ~even splits
    // (every 1-step selector's steady state) serve differentially.
    const size_t m = retained_.size();
    const size_t kept_cost = sub.TotalElements();
    const size_t sib_cost = sibling_.TotalElements();
    const size_t derive_cost = std::min(kept_cost, sib_cost) + m;
    const size_t full_cost = kept_cost + 2 * std::min(kept_cost, m);
    if (derive_cost < full_cost) {
      if (sib_cost < kept_cost) {
        // Dropped sibling is the smaller half: subtract it out of the
        // parent list. Every child entity appears in the parent list
        // (closure; see header), so nothing is missed. The dense scratch
        // is still live for the order repair.
        counter_.CountDense(sibling_);
        const std::span<const uint32_t> dense = counter_.dense();
        const size_t w =
            kernels::SubtractChild(retained_.data(), m, dense.data(),
                                   dense.size(), n,
                                   /*drop_full=*/true, retained_.data());
        if (retain_order_) RepairOrderAfterSubtract(dense, n);
        retained_.resize(w);
      } else {
        // Kept view is the smaller half: count it dense and read the
        // child's own counts straight off while walking the parent list —
        // the emission order comes from the parent, so the recount's
        // touched-sort/sweep is skipped entirely.
        counter_.CountDense(sub);
        const std::span<const uint32_t> dense = counter_.dense();
        const size_t w = kernels::GatherChild(retained_.data(), m,
                                              dense.data(), dense.size(), n,
                                              /*drop_full=*/true,
                                              retained_.data());
        retained_.resize(w);
        order_state_ = OrderState::kStale;  // every count was rewritten
      }
      sibling_ = SubCollection();
      chain_.CommitDelta(fp);
      NoteServe(obs::ServePath::kDelta);
      EmitFiltered(retained_, excluded, out);
      CountChain::CopyMaskIds(excluded, &last_emit_mask_);
      return;
    }
    // Derivation armed but recounting is cheaper (e.g. the parent list far
    // outgrew the kept view): fall through to the full path. Not a chain
    // break — the recount re-seeds the state as usual.
    chain_.ConsumePending(/*broken=*/false);
    sibling_ = SubCollection();
  } else if (serve == CountServe::kReemit) {
    // Same view again — a SeedChild handoff, the §6 don't-know loop
    // (exclusion grew, candidates did not), or a repeated root Select. No
    // counting: re-filter under the current mask.
    chain_.CommitReemit();
    NoteServe(obs::ServePath::kReemit);
    EmitFiltered(retained_, excluded, out);
    CountChain::CopyMaskIds(excluded, &last_emit_mask_);
    return;
  } else {
    // Unknown view: the chain broke (cache hit skipped a count, backtrack,
    // different collection, first call). Full count re-seeds the state.
    chain_.ConsumePending(/*broken=*/true);
    sibling_ = SubCollection();
  }

  counter_.CountInformative(sub, &retained_, excluded);
  chain_.CommitFull(fp, excluded);
  order_state_ = OrderState::kStale;
  NoteServe(obs::ServePath::kFull);
  out->assign(retained_.begin(), retained_.end());
  CountChain::CopyMaskIds(excluded, &last_emit_mask_);
}

void DeltaCounter::RepairOrderAfterSubtract(std::span<const uint32_t> dense,
                                            uint32_t n) {
  if (order_state_ != OrderState::kValid) return;
  // One pass splits the old order: entities the sibling never touched kept
  // their count, so compacting them in place preserves their (count,
  // entity) order; touched survivors land in moved_ with their new counts.
  moved_.clear();
  size_t w = 0;
  for (const EntityCount& ec : order_) {
    const EntityId e = ec.entity;
    const uint32_t d = e < dense.size() ? dense[e] : 0;
    if (d == 0) {
      // Untouched — but a count equal to the CHILD's size is uninformative
      // now even though the count itself did not move.
      if (ec.count != n) order_[w++] = ec;
      continue;
    }
    const uint32_t c = ec.count - d;
    if (c != 0 && c != n) moved_.push_back(EntityCount{e, c});
  }
  const size_t t = moved_.size();
  // Repair must never lose to re-sorting: sorting the moved set costs about
  // t * log t, the counting-sort rebuild costs untouched + n sequential
  // steps. When the sibling touched most of the list, rebuild instead (the
  // in-place compaction above is then garbage, which is fine — the stale
  // path rebuilds from retained_).
  if (t * std::bit_width(t) > w + static_cast<size_t>(n)) {
    order_state_ = OrderState::kStale;
    return;
  }
  std::sort(moved_.begin(), moved_.end(), ByCountEntity);
  scratch_.clear();
  scratch_.reserve(w + t);
  size_t ui = 0;
  size_t mi = 0;
  while (ui < w && mi < t) {
    if (ByCountEntity(order_[ui], moved_[mi])) {
      scratch_.push_back(order_[ui++]);
    } else {
      scratch_.push_back(moved_[mi++]);
    }
  }
  scratch_.insert(scratch_.end(), order_.begin() + ui, order_.begin() + w);
  scratch_.insert(scratch_.end(), moved_.begin() + mi, moved_.end());
  order_.swap(scratch_);
}

void DeltaCounter::RebuildOrder(uint32_t n) {
  const size_t m = retained_.size();
  order_.resize(m);
  if (m == 0) {
    order_state_ = OrderState::kValid;
    return;
  }
  // Counts are informative, i.e. in [1, n - 1]: one bucket per count value.
  bucket_.assign(n, 0);
  for (const EntityCount& ec : retained_) ++bucket_[ec.count];
  uint32_t sum = 0;
  for (uint32_t c = 0; c < n; ++c) {
    const uint32_t b = bucket_[c];
    bucket_[c] = sum;
    sum += b;
  }
  // retained_ is entity-ascending and the scatter is stable, so within a
  // count group entities stay ascending — exactly std::sort by (count,
  // entity).
  for (const EntityCount& ec : retained_) order_[bucket_[ec.count]++] = ec;
  order_state_ = OrderState::kValid;
}

bool DeltaCounter::EmitMostEvenOrder(uint64_t fp, uint32_t n,
                                     const EntityExclusion* excluded,
                                     std::vector<EntityCount>* out) {
  if (!enabled_ || !retain_order_) return false;
  if (chain_.Classify(fp, excluded) != CountServe::kReemit) return false;
  if (order_state_ != OrderState::kValid) RebuildOrder(n);
  const size_t m = order_.size();
  out->clear();
  out->reserve(m);
  // order_ is (count, entity)-ascending; the target key is
  // (|2c - n|, entity). Split at the n/2 fold: in the low wing (2c <= n)
  // the imbalance FALLS as the count rises, so its equal-count runs are
  // visited back to front (each run forward, keeping entities ascending);
  // the high wing (2c > n) is already imbalance-ascending. A two-pointer
  // merge of the two streams by (imbalance, entity) — every key is unique,
  // entities are distinct — reproduces std::sort's output byte for byte in
  // O(m).
  const size_t fold =
      std::partition_point(order_.begin(), order_.end(),
                           [n](const EntityCount& ec) {
                             return 2 * static_cast<uint64_t>(ec.count) <= n;
                           }) -
      order_.begin();
  size_t run_begin = fold;  // begin of the NEXT low run to produce
  size_t run_end = fold;
  size_t li = fold;
  const auto next_low_run = [&] {
    run_end = run_begin;
    if (run_end == 0) {
      li = 0;
      run_begin = 0;
      return;
    }
    const uint32_t c = order_[run_end - 1].count;
    run_begin = run_end - 1;
    while (run_begin > 0 && order_[run_begin - 1].count == c) --run_begin;
    li = run_begin;
  };
  next_low_run();
  size_t hi = fold;
  while (true) {
    if (li == run_end && run_end > 0) next_low_run();
    const bool low = li < run_end;
    const bool high = hi < m;
    if (!low && !high) break;
    bool take_low;
    if (low && high) {
      const uint64_t limb = n - 2 * static_cast<uint64_t>(order_[li].count);
      const uint64_t himb = 2 * static_cast<uint64_t>(order_[hi].count) - n;
      take_low = limb != himb ? limb < himb
                              : order_[li].entity < order_[hi].entity;
    } else {
      take_low = low;
    }
    const EntityCount& ec = take_low ? order_[li++] : order_[hi++];
    if (excluded != nullptr && ec.entity < excluded->size() &&
        (*excluded)[ec.entity]) {
      continue;
    }
    out->push_back(ec);
  }
  return true;
}

void DeltaCounter::NotePartition(const SubCollection& parent,
                                 const SubCollection& kept,
                                 SubCollection dropped) {
  if (!enabled_) return;
  if (!chain_.Arm(parent.Fingerprint(), kept.Fingerprint())) {
    // We never counted this parent (a cache hit answered the last step, or
    // the session started elsewhere): nothing to derive from.
    sibling_ = SubCollection();
    return;
  }
  sibling_ = std::move(dropped);
}

void DeltaCounter::SeedChild(const SubCollection& parent,
                             const SubCollection& kept,
                             const std::vector<EntityCount>& half_counts,
                             bool half_is_kept) {
  if (!enabled_) return;
  if (!chain_.valid() || parent.Fingerprint() != chain_.counted_fp()) {
    Invalidate();
    return;
  }
  const uint32_t n = static_cast<uint32_t>(kept.size());
  if (half_is_kept) {
    // The counted half IS the next view: keep its informative entries.
    scratch_.clear();
    scratch_.reserve(half_counts.size());
    for (const EntityCount& ec : half_counts) {
      if (ec.count != n) scratch_.push_back(ec);
    }
    retained_.swap(scratch_);
  } else {
    // kept = parent - half: subtract with a two-pointer merge (half_counts
    // is restricted to the parent list, so every entry lines up). Entities
    // masked at the parent's emit are absent from half_counts — subtracting
    // nothing would leave them with a stale parent count, possibly past the
    // child's size. The snapshot gate keeps them masked for as long as this
    // state serves, so dropping them outright loses no candidate, and it
    // keeps every retained count a true child count in [1, n - 1] — the
    // invariant the counting-sort order rebuild indexes buckets by.
    mask_scratch_.assign(last_emit_mask_.begin(), last_emit_mask_.end());
    std::sort(mask_scratch_.begin(), mask_scratch_.end());
    size_t write = 0;
    size_t hi = 0;
    size_t mi = 0;
    for (const EntityCount& pc : retained_) {
      while (mi < mask_scratch_.size() && mask_scratch_[mi] < pc.entity) ++mi;
      if (mi < mask_scratch_.size() && mask_scratch_[mi] == pc.entity) continue;
      uint32_t c = pc.count;
      if (hi < half_counts.size() && half_counts[hi].entity == pc.entity) {
        c -= half_counts[hi].count;
        ++hi;
      }
      if (c != 0 && c != n) retained_[write++] = EntityCount{pc.entity, c};
    }
    retained_.resize(write);
  }
  // The seeded list derives from the last emitted output, so it carries
  // that emit's mask filtering — snapshot accordingly.
  chain_.SetMaskSnapshot(last_emit_mask_);
  sibling_ = SubCollection();
  chain_.CommitDelta(kept.Fingerprint());
  order_state_ = OrderState::kStale;
  // A seeded derivation is a delta serve in the registry mix too; the
  // step's own serve path stays whatever its CountInformative reports
  // (typically a re-emit of this list).
  if (obs::Enabled()) ServeCounter(obs::ServePath::kDelta)->Add(1);
}

void DeltaCounter::Invalidate() {
  chain_.Invalidate();
  sibling_ = SubCollection();
  order_state_ = OrderState::kStale;
}

void DeltaCounter::Release() {
  Invalidate();
  chain_.Release();
  retained_ = {};
  order_ = {};
  last_emit_mask_ = {};
  scratch_ = {};
  moved_ = {};
  bucket_ = {};
  mask_scratch_ = {};
  counter_.Release();
}

}  // namespace setdisc
