#include "service/selection_cache.h"

#include <algorithm>

#include "util/status.h"

namespace setdisc {

namespace {

size_t RoundUpPow2(size_t x) {
  size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace

SelectionCache::SelectionCache(SelectionCacheOptions options) {
  skip_singleton_exclusions_ = options.skip_singleton_exclusions;
  num_shards_ = RoundUpPow2(std::max<size_t>(1, options.num_shards));
  capacity_per_shard_ =
      std::max<size_t>(1, (std::max<size_t>(1, options.capacity) +
                           num_shards_ - 1) /
                              num_shards_);
  shards_ = std::make_unique<Shard[]>(num_shards_);
  int bits = 0;
  while ((size_t{1} << bits) < num_shards_) ++bits;
  shard_shift_ = 64 - bits;
  if (options.metrics != nullptr) {
    probe_ = options.metrics->AddProbe([this](obs::SampleSink& sink) {
      const SelectionCacheStats s = stats();
      sink.Counter("setdisc_selection_cache_lookups_total", s.lookups);
      sink.Counter("setdisc_selection_cache_hits_total", s.hits);
      sink.Counter("setdisc_selection_cache_misses_total", s.misses);
      sink.Counter("setdisc_selection_cache_insertions_total", s.insertions);
      sink.Counter("setdisc_selection_cache_evictions_total", s.evictions);
      sink.Counter("setdisc_selection_cache_bypasses_total", s.bypasses);
      sink.Gauge("setdisc_selection_cache_size",
                 static_cast<int64_t>(size()));
    });
  }
}

uint64_t SelectionCache::HashKey(const SelectionKey& key) {
  uint64_t h = FingerprintAppend(kFingerprintSeed, key.collection_fingerprint);
  h = FingerprintAppend(h, key.sub_fingerprint);
  h = FingerprintAppend(h, key.exclusion_fingerprint);
  h = FingerprintAppend(h, key.selector_tag);
  return h;
}

SelectionCache::Shard& SelectionCache::ShardFor(const SelectionKey& key) {
  // Top bits pick the shard; unordered_map consumes the low bits, so one
  // hash serves both without correlation.
  uint64_t h = HashKey(key);
  size_t index = shard_shift_ >= 64 ? 0 : static_cast<size_t>(h >> shard_shift_);
  return shards_[index];
}

bool SelectionCache::Lookup(const SelectionKey& key, EntityId* out) {
  return Find(key, out, /*count_miss=*/true);
}

bool SelectionCache::Probe(const SelectionKey& key, EntityId* out) {
  return Find(key, out, /*count_miss=*/false);
}

bool SelectionCache::Find(const SelectionKey& key, EntityId* out,
                          bool count_miss) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    if (count_miss) {
      ++shard.lookups;
      ++shard.misses;
    }
    return false;
  }
  ++shard.lookups;
  ++shard.hits;
  Slot& slot = shard.slots[it->second];
  slot.referenced = true;  // second chance for the CLOCK sweep
  if (out != nullptr) *out = slot.value;
  return true;
}

void SelectionCache::Insert(const SelectionKey& key, EntityId value) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.insertions;
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    Slot& slot = shard.slots[it->second];
    slot.value = value;
    slot.referenced = true;
    return;
  }
  size_t slot_index;
  if (shard.slots.size() < capacity_per_shard_) {
    slot_index = shard.slots.size();
    shard.slots.emplace_back();
  } else {
    // CLOCK sweep: clear reference bits until an unreferenced victim turns
    // up. Terminates within two revolutions even if everything was
    // referenced.
    for (;;) {
      Slot& candidate = shard.slots[shard.hand];
      if (candidate.referenced) {
        candidate.referenced = false;
        shard.hand = (shard.hand + 1) % shard.slots.size();
      } else {
        slot_index = shard.hand;
        shard.hand = (shard.hand + 1) % shard.slots.size();
        break;
      }
    }
    shard.index.erase(shard.slots[slot_index].key);
    ++shard.evictions;
  }
  Slot& slot = shard.slots[slot_index];
  slot.key = key;
  slot.value = value;
  slot.referenced = true;
  shard.index.emplace(key, slot_index);
}

SelectionCacheStats SelectionCache::stats() const {
  SelectionCacheStats total;
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    total.lookups += shard.lookups;
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.insertions += shard.insertions;
    total.evictions += shard.evictions;
  }
  total.bypasses = bypasses_.load(std::memory_order_relaxed);
  return total;
}

size_t SelectionCache::size() const {
  size_t n = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.index.size();
  }
  return n;
}

namespace {

// Cache snapshot file: CRC-framed records (durability.h), each holding a
// bounded batch of entries — [u8 version][u32 n][n × (4×u64 key, u32
// value)]. Batching keeps a torn tail from discarding the whole file: replay
// keeps every intact batch.
constexpr uint8_t kCacheSnapshotVersion = 1;
constexpr size_t kEntriesPerRecord = 4096;

}  // namespace

Status SelectionCache::Save(const std::string& path, StoreFs* fs) const {
  if (fs == nullptr) fs = StoreFs::Real();
  std::string data;
  std::string payload;
  size_t in_payload = 0;
  auto flush_payload = [&] {
    if (in_payload == 0) return;
    std::string framed_payload;
    ByteWriter w(&framed_payload);
    w.PutU8(kCacheSnapshotVersion);
    w.PutU32(static_cast<uint32_t>(in_payload));
    framed_payload.append(payload);
    AppendRecord(&data, framed_payload);
    payload.clear();
    in_payload = 0;
  };
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, slot_index] : shard.index) {
      ByteWriter w(&payload);
      w.PutU64(key.collection_fingerprint);
      w.PutU64(key.sub_fingerprint);
      w.PutU64(key.exclusion_fingerprint);
      w.PutU64(key.selector_tag);
      w.PutU32(shard.slots[slot_index].value);
      if (++in_payload >= kEntriesPerRecord) flush_payload();
    }
  }
  flush_payload();
  return fs->WriteFileAtomic(path, data, /*sync=*/false);
}

Result<size_t> SelectionCache::Load(const std::string& path, StoreFs* fs) {
  if (fs == nullptr) fs = StoreFs::Real();
  if (!fs->FileExists(path)) return size_t{0};
  Result<std::string> data = fs->ReadFile(path);
  if (!data.ok()) return data.status();
  size_t loaded = 0;
  ScanRecords(data.value(), [&](std::string_view record) {
    ByteReader r(record);
    uint8_t version = 0;
    uint32_t n = 0;
    if (!r.GetU8(&version) || version != kCacheSnapshotVersion ||
        !r.GetU32(&n)) {
      return;
    }
    for (uint32_t i = 0; i < n; ++i) {
      SelectionKey key;
      EntityId value = kNoEntity;
      if (!r.GetU64(&key.collection_fingerprint) ||
          !r.GetU64(&key.sub_fingerprint) ||
          !r.GetU64(&key.exclusion_fingerprint) ||
          !r.GetU64(&key.selector_tag) || !r.GetU32(&value)) {
        return;  // malformed interior; keep what decoded so far
      }
      Insert(key, value);
      ++loaded;
    }
  });
  return loaded;
}

void SelectionCache::Clear() {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.index.clear();
    shard.slots.clear();
    shard.hand = 0;
  }
}

}  // namespace setdisc
