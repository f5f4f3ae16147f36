#pragma once

/// \file entity_dict.h
/// String interning for entity names.
///
/// The algorithms operate on dense EntityIds only; the dictionary is an
/// optional sidecar so that examples and interactive sessions can display
/// human-readable names (e.g. web-table cell values, disease symptoms).
///
/// Each name is stored once, in `names_` (indexed by id, so ids are dense and
/// in first-seen order). The name → id direction is a flat open-addressing
/// index over those ids: a power-of-two array of slots, each holding an id
/// and the low 32 bits of its name's hash, probed linearly and kept at most
/// half full. A probe hashes the caller's `string_view` and compares bytes
/// against `names_` only when the stored hash bits match, so probing
/// allocates nothing; only storing a new name does. Growing the index
/// re-places slots from their stored hash bits without touching the names.
/// Ids never move, and the index holds no second copy of any name.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "collection/types.h"
#include "util/status.h"

namespace setdisc {

/// Bidirectional mapping between entity names and dense EntityIds.
class EntityDict {
 public:
  /// Returns the id for `name`, interning it if unseen.
  EntityId Intern(std::string_view name) {
    if (2 * (names_.size() + 1) > slots_.size()) Grow();
    return InternHashed(name, Hash(name));
  }

  /// Interns `names` in order, as Intern on each would, and appends their
  /// ids to `ids`. Names go through in batches: a batch is hashed and the
  /// slots and names it will compare against are prefetched before any of
  /// it is probed, so the cache misses of a batch overlap.
  void InternAll(std::span<const std::string_view> names,
                 std::vector<EntityId>* ids) {
    constexpr size_t kBatch = 16;
    uint32_t hashes[kBatch] = {};
    for (size_t i = 0; i < names.size(); i += kBatch) {
      const size_t n = std::min(kBatch, names.size() - i);
      while (2 * (names_.size() + n) > slots_.size()) Grow();
      const size_t mask = slots_.size() - 1;
      for (size_t j = 0; j < n; ++j) {
        hashes[j] = Hash(names[i + j]);
        __builtin_prefetch(&slots_[hashes[j] & mask]);
      }
      for (size_t j = 0; j < n; ++j) {
        const Slot& slot = slots_[hashes[j] & mask];
        if (slot.id != kNoEntity) __builtin_prefetch(&names_[slot.id]);
      }
      for (size_t j = 0; j < n; ++j) {
        ids->push_back(InternHashed(names[i + j], hashes[j]));
      }
    }
  }

  /// Returns the id for `name` or kNoEntity if never interned.
  EntityId Lookup(std::string_view name) const {
    if (slots_.empty()) return kNoEntity;
    return slots_[FindSlot(name, Hash(name))].id;
  }

  /// Returns the name for `id`; id must have been interned.
  const std::string& Name(EntityId id) const {
    SETDISC_CHECK(id < names_.size());
    return names_[id];
  }

  size_t size() const { return names_.size(); }

 private:
  /// One index entry; `id == kNoEntity` marks an empty slot.
  struct Slot {
    EntityId id = kNoEntity;
    uint32_t hash = 0;
  };

  /// The slot holding `name`, or the empty slot where it would go. The
  /// index must be non-empty (it is never full).
  size_t FindSlot(std::string_view name, uint32_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].id != kNoEntity &&
           (slots_[i].hash != hash || names_[slots_[i].id] != name)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Intern with `name`'s hash precomputed; the index has room for a new
  /// name.
  EntityId InternHashed(std::string_view name, uint32_t hash) {
    Slot& slot = slots_[FindSlot(name, hash)];
    if (slot.id == kNoEntity) {
      SETDISC_CHECK(names_.size() < kNoEntity);
      slot = {static_cast<EntityId>(names_.size()), hash};
      names_.emplace_back(name);
    }
    return slot.id;
  }

  static uint32_t Hash(std::string_view name) {
    return static_cast<uint32_t>(std::hash<std::string_view>{}(name));
  }

  /// Doubles the index (16 slots at first) and re-places every id.
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id == kNoEntity) continue;
      size_t i = s.hash & mask;
      while (slots_[i].id != kNoEntity) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<std::string> names_;
  std::vector<Slot> slots_;
};

}  // namespace setdisc
