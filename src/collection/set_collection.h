#pragma once

/// \file set_collection.h
/// Immutable collection of unique finite sets — the paper's input object.
///
/// Storage is CSR (one offsets array, one concatenated sorted-elements array),
/// which keeps the hot loops — entity counting and membership tests — cache
/// friendly. The builder removes duplicate elements within each set and
/// duplicate sets across the collection ("Without loss of generality, we
/// assume the sets are all unique" — §3).

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "collection/entity_dict.h"
#include "collection/types.h"
#include "util/status.h"

namespace setdisc {

class SetCollection;

/// Accumulates sets and produces a deduplicated, sorted SetCollection.
class SetCollectionBuilder {
 public:
  SetCollectionBuilder() = default;

  /// Adds a set of entity ids (duplicates within the set are removed at
  /// Build time). Returns the provisional index of the added set.
  size_t AddSet(std::vector<EntityId> elements,
                std::string label = std::string());

  /// Adds a set of entity names, interning them in the builder's dictionary.
  size_t AddSetNamed(const std::vector<std::string>& names,
                     std::string label = std::string());

  /// Number of sets added so far (before dedup).
  size_t num_pending() const { return pending_.size(); }

  /// Builds the immutable collection. Identical sets collapse into one; if
  /// `original_to_final` is non-null it receives, for every AddSet call, the
  /// final SetId its set mapped to.
  ///
  /// Build() consumes the builder's contents and resets it to the
  /// just-constructed state: pending sets, labels, and the name dictionary
  /// are all cleared, so a reused builder starts an independent collection
  /// (entity ids interned for a previous Build are NOT preserved).
  SetCollection Build(std::vector<SetId>* original_to_final = nullptr);

  /// Access to the name dictionary for callers that interleave interning
  /// with set construction. Build() hands the collection the dictionary
  /// whenever it holds a name, however the names got there.
  EntityDict& dict() { return dict_; }

 private:
  std::vector<std::vector<EntityId>> pending_;
  std::vector<std::string> labels_;
  EntityDict dict_;
};

/// An immutable collection of n unique sets over a universe of m entities.
class SetCollection {
 public:
  SetCollection() = default;

  /// Number of sets n.
  SetId num_sets() const { return static_cast<SetId>(offsets_.size() - 1); }

  /// Universe size m' = max entity id + 1. Note: this is an id-space bound;
  /// the number of *distinct* entities actually present is
  /// num_distinct_entities().
  EntityId universe_size() const { return universe_size_; }

  /// Number of distinct entities appearing in at least one set.
  EntityId num_distinct_entities() const { return num_distinct_; }

  /// Total number of (set, entity) incidences.
  size_t total_elements() const { return elements_.size(); }

  /// The sorted elements of set `s`.
  std::span<const EntityId> set(SetId s) const {
    SETDISC_CHECK(s < num_sets());
    return {elements_.data() + offsets_[s],
            elements_.data() + offsets_[s + 1]};
  }

  size_t set_size(SetId s) const {
    SETDISC_CHECK(s < num_sets());
    return offsets_[s + 1] - offsets_[s];
  }

  /// True iff entity `e` is a member of set `s` (binary search).
  bool Contains(SetId s, EntityId e) const;

  /// Optional human-readable label of set `s` (may be empty).
  const std::string& label(SetId s) const {
    SETDISC_CHECK(s < labels_.size());
    return labels_[s];
  }

  /// Optional entity-name dictionary; nullptr when sets were built from raw
  /// ids.
  const EntityDict* dict() const { return dict_.get(); }

  /// Name of entity `e` — the interned name when a dictionary exists, else
  /// "e<id>".
  std::string EntityName(EntityId e) const;

  /// Content fingerprint (set boundaries + elements), computed once at
  /// Build()/load time, O(1) to read and safe to read concurrently. Set and
  /// entity ids are dense per collection, so id-based keys (sub-collection
  /// fingerprints) collide across collections; cross-collection caches mix
  /// this in to tell them apart (service/selection_cache.h). Identical
  /// content — e.g. the same file reloaded — fingerprints identically.
  uint64_t Fingerprint() const { return fingerprint_; }

 private:
  friend class SetCollectionBuilder;
  friend Status LoadCollectionBinary(const std::string& path, SetCollection* out);

  std::vector<size_t> offsets_ = {0};
  std::vector<EntityId> elements_;
  std::vector<std::string> labels_;
  EntityId universe_size_ = 0;
  EntityId num_distinct_ = 0;
  uint64_t fingerprint_ = 0;
  std::shared_ptr<EntityDict> dict_;
};

}  // namespace setdisc
