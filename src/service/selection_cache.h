#pragma once

/// \file selection_cache.h
/// Cross-session memo of Select() decisions (the ROADMAP's "result caching
/// across sessions" item).
///
/// Every new session over a warm collection starts from the same root
/// candidate set and — with a deterministic selector — recomputes the same
/// first questions; as sessions narrow, common answer prefixes keep
/// producing identical (candidate set, exclusion mask) states. The cache
/// memoizes the decision itself:
///
///   (collection fingerprint, candidate-set fingerprint,
///    exclusion-mask fingerprint, selector tag) -> chosen EntityId
///
/// so for a warm collection the first questions of a new session cost a hash
/// lookup instead of a full counting scan (bench_service measures the gap).
///
/// Concurrency model: the cache is fully thread-safe — sharded, one mutex
/// stripe per shard — which is exactly what lets many sessions share one
/// memo even though the selectors themselves stay per-session and
/// non-thread-safe. Sessions wrap their private selector in a
/// CachingSelector decorator pointing at the shared cache; the decorator
/// inherits the inner selector's single-thread contract, the cache behind it
/// does not.
///
/// Bounding: each shard runs CLOCK replacement (second-chance) over a
/// fixed-capacity slot array — O(1) amortized eviction, no list splicing on
/// the hit path (a hit only sets a reference bit). Hit / miss / insertion /
/// eviction counters are maintained under the shard mutexes, so after any
/// quiescent point `hits + misses == lookups` exactly (the stress suite
/// asserts this under TSan).
///
/// The collection fingerprint component makes sharing one cache across
/// managers over *different* collections safe: sub-collection fingerprints
/// hash dense per-collection set ids, which would otherwise collide between
/// any two collections (SubCollection::Full always has ids 0..n-1).
///
/// Caveats, enforced by the caller:
///  * only deterministic selectors may share a cache (RandomSelector must
///    not be wrapped — a memoized "random" pick replays the first draw);
///  * selectors are distinguished by EntitySelector::DecisionFingerprint()
///    (a name() hash by default; selectors with instance state the name
///    doesn't encode, like the weighted selectors' priors, override it) —
///    two selectors with equal fingerprints must implement the same
///    decision function;
///  * fingerprints are 64-bit: collisions are astronomically unlikely, not
///    impossible. The randomized parity suite exists to catch construction
///    bugs that would make them likely.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "collection/fingerprint.h"
#include "collection/types.h"
#include "core/selector.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "service/durability.h"
#include "util/status.h"

namespace setdisc {

/// Identity of one memoizable selection decision.
struct SelectionKey {
  uint64_t collection_fingerprint = 0;  ///< SetCollection::Fingerprint()
  uint64_t sub_fingerprint = 0;         ///< SubCollection::Fingerprint()
  uint64_t exclusion_fingerprint = 0;   ///< EntityExclusion::Fingerprint(), 0 = none
  uint64_t selector_tag = 0;            ///< SelectionCache::SelectorTag(name)

  bool operator==(const SelectionKey&) const = default;
};

struct SelectionCacheOptions {
  /// Total entry bound across all shards (minimum one slot per shard).
  size_t capacity = size_t{1} << 20;

  /// Mutex stripes; rounded up to a power of two. More shards = less
  /// contention, slightly worse space utilization at tiny capacities.
  size_t num_shards = 16;

  /// Admission policy for one-shot states: when true, selection states whose
  /// exclusion mask holds exactly ONE entity bypass the cache entirely (no
  /// lookup, no insert). The first "don't know" of a session produces a
  /// singleton mask that is usually unique to that conversation — caching it
  /// costs a slot (and an eviction under pressure) for an entry nobody else
  /// will hit. States with deeper masks, and the empty mask, are cached as
  /// usual. Bypassed decisions are counted in SelectionCacheStats::bypasses
  /// and never touch hit/miss counters, so the hit rate reflects only
  /// admitted traffic. Off by default; transcripts are identical either way
  /// (the parity suite runs with the policy on).
  bool skip_singleton_exclusions = false;

  /// When set, the cache registers a probe with this registry that adopts
  /// its counters (setdisc_selection_cache_*_total, _size) into every
  /// snapshot. The registry must outlive the cache.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Aggregated counters. Consistent at any quiescent point:
/// hits + misses == lookups, and insertions >= size() + evictions (an
/// insertion can overwrite an existing key — racing sessions recompute the
/// same miss — and Clear() drops entries while keeping counters).
struct SelectionCacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Decisions that skipped the cache under the one-shot admission policy
  /// (skip_singleton_exclusions); not part of lookups/hits/misses.
  uint64_t bypasses = 0;

  double HitRate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

/// Sharded, bounded, thread-safe Select() memo.
class SelectionCache {
 public:
  explicit SelectionCache(SelectionCacheOptions options = {});

  SelectionCache(const SelectionCache&) = delete;
  SelectionCache& operator=(const SelectionCache&) = delete;

  /// Returns true and writes the memoized entity (possibly kNoEntity — "no
  /// informative entity" is a valid, cacheable decision) on a hit.
  bool Lookup(const SelectionKey& key, EntityId* out);

  /// Lookup that counts only a hit: on a hit it is a full Lookup (counted,
  /// reference bit set); on a miss it returns false and changes nothing, so
  /// a caller that then falls back to Select() — whose own Lookup counts
  /// the miss — keeps `hits + misses == lookups` and one lookup per
  /// decision.
  bool Probe(const SelectionKey& key, EntityId* out);

  /// Memoizes `value` for `key`, evicting (CLOCK) when the shard is full.
  /// Re-inserting an existing key overwrites in place.
  void Insert(const SelectionKey& key, EntityId value);

  /// Stable tag for a selector name — what the default
  /// EntitySelector::DecisionFingerprint() produces for the selector_tag
  /// key component.
  static uint64_t SelectorTag(std::string_view name) {
    return FingerprintString(name);
  }

  SelectionCacheStats stats() const;

  /// Warm-start persistence: writes every live entry to `path` atomically
  /// (CRC-framed, durability.h format). Keys embed the collection
  /// fingerprint, so one file can safely hold entries for several
  /// collections — stale ones are simply never hit. Safe to call while
  /// other threads use the cache (per-shard snapshot).
  Status Save(const std::string& path, StoreFs* fs = nullptr) const;

  /// Re-inserts entries previously Save()d; returns how many were loaded.
  /// Corrupt or torn files load their intact prefix (possibly zero entries)
  /// — a warm start must never block serving. A missing file is OK with 0.
  Result<size_t> Load(const std::string& path, StoreFs* fs = nullptr);

  /// Live entries across all shards.
  size_t size() const;

  /// Drops all entries (counters are kept).
  void Clear();

  size_t capacity() const { return capacity_per_shard_ * num_shards_; }
  size_t num_shards() const { return num_shards_; }

  /// True when the admission policy says this state should bypass the cache
  /// (singleton exclusion mask under skip_singleton_exclusions).
  bool Bypasses(const EntityExclusion* excluded) const {
    return skip_singleton_exclusions_ && excluded != nullptr &&
           excluded->num_excluded() == 1;
  }

  /// Counts one bypassed decision (called by CachingSelector when
  /// Bypasses() fired).
  void CountBypass() { bypasses_.fetch_add(1, std::memory_order_relaxed); }

 private:
  struct Slot {
    SelectionKey key;
    EntityId value = kNoEntity;
    bool referenced = false;
  };

  struct KeyHash {
    size_t operator()(const SelectionKey& key) const {
      return static_cast<size_t>(HashKey(key));
    }
  };

  /// One stripe: mutex, index, CLOCK slot array, counters. Padded to a cache
  /// line so neighboring stripes don't false-share.
  struct alignas(64) Shard {
    std::mutex mu;
    std::unordered_map<SelectionKey, size_t, KeyHash> index;  // key -> slot
    std::vector<Slot> slots;
    size_t hand = 0;
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  /// Lookup and Probe: a hit counts as a lookup; a miss does iff
  /// `count_miss`.
  bool Find(const SelectionKey& key, EntityId* out, bool count_miss);
  static uint64_t HashKey(const SelectionKey& key);
  Shard& ShardFor(const SelectionKey& key);

  std::unique_ptr<Shard[]> shards_;
  size_t num_shards_ = 0;
  size_t capacity_per_shard_ = 0;
  int shard_shift_ = 0;  ///< top bits of HashKey pick the shard
  bool skip_singleton_exclusions_ = false;
  /// Outside the shards (a bypass touches no shard); relaxed is enough for
  /// a statistics counter.
  std::atomic<uint64_t> bypasses_{0};
  /// Last member: deregisters first, so the probe can never sample a
  /// partially-destroyed cache.
  obs::MetricsRegistry::ProbeHandle probe_;
};

/// EntitySelector decorator that consults a shared SelectionCache before
/// delegating to the wrapped selector, and memoizes what the latter decides.
///
/// One CachingSelector per session, exactly like any other selector (the
/// decorator is stateless beyond its members but the inner selector is not);
/// the SelectionCache it points at is shared and must outlive it. Wrap only
/// deterministic selectors.
class CachingSelector : public EntitySelector {
 public:
  CachingSelector(std::unique_ptr<EntitySelector> inner, SelectionCache* cache)
      : inner_(std::move(inner)),
        cache_(cache),
        tag_(inner_->DecisionFingerprint()) {}

  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded = nullptr) override {
    from_cache_ = false;
    if (cache_->Bypasses(excluded)) {
      // One-shot state under the admission policy: don't spend a slot (or a
      // guaranteed miss) on it — compute directly.
      cache_->CountBypass();
      return inner_->Select(sub, excluded);
    }
    const SelectionKey key = KeyFor(sub, excluded);
    EntityId entity = kNoEntity;
    {
      obs::PhaseTimer timer(obs::Phase::kCacheLookup);
      if (cache_->Lookup(key, &entity)) {
        obs::NoteServePath(obs::ServePath::kCacheHit);
        from_cache_ = true;
        return entity;
      }
    }
    entity = inner_->Select(sub, excluded);
    {
      obs::PhaseTimer timer(obs::Phase::kCacheLookup);
      cache_->Insert(key, entity);
    }
    return entity;
  }

  /// Select() without computing: true writes the decision the shared cache
  /// holds for this state, counted as the decision's one lookup; false
  /// (miss, or a state the admission policy bypasses) counts nothing and
  /// leaves the next Select() to decide. The inner selector is not called
  /// either way, so its counting state is untouched.
  bool TrySelectCached(const SubCollection& sub,
                       const EntityExclusion* excluded, EntityId* out) {
    if (cache_->Bypasses(excluded)) return false;
    obs::PhaseTimer timer(obs::Phase::kCacheLookup);
    if (!cache_->Probe(KeyFor(sub, excluded), out)) return false;
    obs::NoteServePath(obs::ServePath::kCacheHit);
    from_cache_ = true;
    return true;
  }

  /// Whether the last decision this selector made (Select, or a served
  /// TrySelectCached) came from the cache rather than the inner selector.
  bool last_from_cache() const { return from_cache_; }

  std::string_view name() const override { return inner_->name(); }

  /// Differential-counting hooks pass straight through: the inner selector
  /// owns the counting state. Composition with the cache is automatic — a
  /// cache hit skips the inner Select(), so the inner state's fingerprint
  /// check fails on the NEXT miss and that miss recounts in full, re-seeding
  /// the chain; misses along an uncached suffix then ride the delta path.
  void NotePartition(const SubCollection& parent, EntityId e,
                     bool kept_contains, const SubCollection& kept,
                     SubCollection dropped) override {
    inner_->NotePartition(parent, e, kept_contains, kept, std::move(dropped));
  }
  void InvalidateCountState() override { inner_->InvalidateCountState(); }
  void ReleaseMemory() override { inner_->ReleaseMemory(); }

  /// Effort changes may change the inner decision function, and tag_ was
  /// snapshotted at construction — refresh it so degraded decisions land
  /// under a different cache key than full-effort ones (the shared cache
  /// must never cross-serve them).
  void SetEffort(int level) override {
    inner_->SetEffort(level);
    tag_ = inner_->DecisionFingerprint();
  }

  EntitySelector& inner() { return *inner_; }

 private:
  SelectionKey KeyFor(const SubCollection& sub,
                      const EntityExclusion* excluded) const {
    return SelectionKey{sub.collection().Fingerprint(), sub.Fingerprint(),
                        excluded != nullptr ? excluded->Fingerprint() : 0,
                        tag_};
  }

  std::unique_ptr<EntitySelector> inner_;
  SelectionCache* cache_;
  uint64_t tag_;
  bool from_cache_ = false;
};

}  // namespace setdisc
