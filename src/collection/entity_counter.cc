#include "collection/entity_counter.h"

#include <algorithm>

#include "collection/count_kernels.h"

namespace setdisc {

void EntityCounter::EnsureCapacity(EntityId universe) {
  // Callers come here with no live residue: the counts are all zero and
  // the touched list is dead, so growing reallocates without copying.
  if (counts_.size() < universe) counts_.AllocateZeroed(universe);
  // The kernel writes touched_[t] unconditionally, so the list needs room
  // for every possibly-distinct entity up front PLUS one spare slot: once
  // every entity has been touched, subsequent iterations keep overwriting
  // the slot just past the live prefix.
  if (touched_.size() < static_cast<size_t>(universe) + 1) {
    touched_.AllocateUninitialized(static_cast<size_t>(universe) + 1);
  }
}

void EntityCounter::CountDense(const SubCollection& sub) {
  if (dense_live_) ClearDense();
  EnsureCapacity(sub.collection().universe_size());
  num_touched_ =
      kernels::AccumulateCounts(sub, counts_.data(), touched_.data());
  dense_live_ = true;
}

void EntityCounter::CountInformative(const SubCollection& sub,
                                     std::vector<EntityCount>* out,
                                     const EntityExclusion* excluded) {
  out->clear();
  if (dense_live_) ClearDense();
  const EntityId universe = sub.collection().universe_size();
  EnsureCapacity(universe);
  num_touched_ =
      kernels::AccumulateCounts(sub, counts_.data(), touched_.data());
  const uint32_t n = static_cast<uint32_t>(sub.size());
  // Ascending entity order keeps all downstream tie-breaking deterministic.
  // Two ways to get it: sort the touched list (O(t log t) — wins when few
  // entities were touched) or sweep the dense count array in id order
  // (O(m') sequential — wins when t approaches the universe, the usual
  // root-of-a-large-collection shape). Either way the scratch is cleared
  // entry-by-entry as it is read, never wholesale.
  out->reserve(num_touched_);
  if (DenseSweepIsCheaper(num_touched_, universe)) {
    num_touched_ = 0;
    for (EntityId e = 0; e < universe; ++e) {
      uint32_t c = counts_[e];
      if (c == 0) continue;
      counts_[e] = 0;
      if (c == n) continue;  // uninformative
      if (excluded != nullptr && e < excluded->size() && (*excluded)[e]) {
        continue;
      }
      out->push_back(EntityCount{e, c});
    }
    return;
  }
  std::sort(touched_.data(), touched_.data() + num_touched_);
  for (size_t i = 0; i < num_touched_; ++i) {
    const EntityId e = touched_[i];
    uint32_t c = counts_[e];
    counts_[e] = 0;
    if (c == 0 || c == n) continue;  // uninformative
    if (excluded != nullptr && e < excluded->size() && (*excluded)[e]) continue;
    out->push_back(EntityCount{e, c});
  }
  num_touched_ = 0;
}

void EntityCounter::CountAll(const SubCollection& sub,
                             std::vector<EntityCount>* out,
                             const EntityExclusion* excluded) {
  out->clear();
  if (dense_live_) ClearDense();
  const EntityId universe = sub.collection().universe_size();
  EnsureCapacity(universe);
  num_touched_ =
      kernels::AccumulateCounts(sub, counts_.data(), touched_.data());
  out->reserve(num_touched_);
  if (DenseSweepIsCheaper(num_touched_, universe)) {
    num_touched_ = 0;
    for (EntityId e = 0; e < universe; ++e) {
      uint32_t c = counts_[e];
      if (c == 0) continue;
      counts_[e] = 0;
      if (excluded != nullptr && e < excluded->size() && (*excluded)[e]) {
        continue;
      }
      out->push_back(EntityCount{e, c});
    }
    return;
  }
  std::sort(touched_.data(), touched_.data() + num_touched_);
  for (size_t i = 0; i < num_touched_; ++i) {
    const EntityId e = touched_[i];
    uint32_t c = counts_[e];
    counts_[e] = 0;
    if (excluded != nullptr && e < excluded->size() && (*excluded)[e]) continue;
    out->push_back(EntityCount{e, c});
  }
  num_touched_ = 0;
}

}  // namespace setdisc
