#include "collection/set_collection.h"

#include <algorithm>

#include "collection/fingerprint.h"

namespace setdisc {

namespace {

/// 64-bit content hash of a sorted element vector (FNV-1a over ids).
uint64_t HashElements(const std::vector<EntityId>& elems) {
  uint64_t h = 1469598103934665603ULL;
  for (EntityId e : elems) {
    h ^= e;
    h *= 1099511628211ULL;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace

size_t SetCollectionBuilder::AddSet(std::vector<EntityId> elements,
                                    std::string label) {
  pending_.push_back(std::move(elements));
  labels_.push_back(std::move(label));
  return pending_.size() - 1;
}

size_t SetCollectionBuilder::AddSetNamed(const std::vector<std::string>& names,
                                         std::string label) {
  std::vector<EntityId> ids;
  ids.reserve(names.size());
  for (const auto& n : names) ids.push_back(dict_.Intern(n));
  return AddSet(std::move(ids), std::move(label));
}

SetCollection SetCollectionBuilder::Build(std::vector<SetId>* original_to_final) {
  SetCollection out;
  if (original_to_final != nullptr) {
    original_to_final->assign(pending_.size(), kNoSet);
  }

  size_t total = 0;
  for (const auto& elems : pending_) total += elems.size();
  out.elements_.reserve(total);
  out.offsets_.reserve(pending_.size() + 1);
  out.labels_.reserve(pending_.size());

  // Deduplicate by content hash with full-equality confirmation: a flat
  // linear-probing table of (hash, final id), at most half full.
  struct Slot {
    uint64_t hash = 0;
    SetId id = kNoSet;
  };
  size_t capacity = 16;
  while (capacity < 2 * pending_.size()) capacity *= 2;
  std::vector<Slot> by_hash(capacity);
  const size_t mask = capacity - 1;

  std::vector<bool> seen_entity;
  for (size_t i = 0; i < pending_.size(); ++i) {
    auto& elems = pending_[i];
    std::sort(elems.begin(), elems.end());
    elems.erase(std::unique(elems.begin(), elems.end()), elems.end());

    uint64_t h = HashElements(elems);
    SetId final_id = kNoSet;
    size_t slot = h & mask;
    for (; by_hash[slot].id != kNoSet; slot = (slot + 1) & mask) {
      if (by_hash[slot].hash != h) continue;
      const SetId cand = by_hash[slot].id;
      auto existing = std::span<const EntityId>(
          out.elements_.data() + out.offsets_[cand],
          out.elements_.data() + out.offsets_[cand + 1]);
      if (std::equal(existing.begin(), existing.end(), elems.begin(),
                     elems.end())) {
        final_id = cand;
        break;
      }
    }
    if (final_id == kNoSet) {
      final_id = static_cast<SetId>(out.offsets_.size() - 1);
      out.elements_.insert(out.elements_.end(), elems.begin(), elems.end());
      out.offsets_.push_back(out.elements_.size());
      out.labels_.push_back(labels_[i]);
      by_hash[slot] = {h, final_id};
      for (EntityId e : elems) {
        if (e >= out.universe_size_) out.universe_size_ = e + 1;
        if (e >= seen_entity.size()) seen_entity.resize(e + 1, false);
        if (!seen_entity[e]) {
          seen_entity[e] = true;
          ++out.num_distinct_;
        }
      }
    } else if (out.labels_[final_id].empty() && !labels_[i].empty()) {
      // Keep the first non-empty label for a deduplicated set.
      out.labels_[final_id] = labels_[i];
    }
    if (original_to_final != nullptr) (*original_to_final)[i] = final_id;
  }

  if (dict_.size() > 0) {
    out.dict_ = std::make_shared<EntityDict>(std::move(dict_));
  }
  // Content fingerprint, fixed for the collection's lifetime so reads never
  // race (the collection is shared read-only across sessions and threads).
  {
    uint64_t h = kFingerprintSeed;
    for (size_t offset : out.offsets_) h = FingerprintAppend(h, offset);
    for (EntityId e : out.elements_) h = FingerprintAppend(h, e);
    out.fingerprint_ = h;
  }
  // Build() consumes the builder: reset to a pristine state so reuse starts
  // a fresh collection instead of silently reading a moved-from dictionary.
  pending_.clear();
  labels_.clear();
  dict_ = EntityDict();
  return out;
}

bool SetCollection::Contains(SetId s, EntityId e) const {
  auto elems = set(s);
  return std::binary_search(elems.begin(), elems.end(), e);
}

std::string SetCollection::EntityName(EntityId e) const {
  if (dict_ != nullptr && e < dict_->size()) return dict_->Name(e);
  return "e" + std::to_string(e);
}

}  // namespace setdisc
