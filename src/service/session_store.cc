#include "service/session_store.h"

#include <utility>

#include "obs/registry.h"

namespace setdisc {

namespace {

/// Version 1: answers only. Version 2 adds each answer event's question,
/// the pending question, and the journey trace id.
constexpr uint8_t kRecordVersionV1 = 1;
constexpr uint8_t kRecordVersion = 2;
constexpr uint8_t kWalPut = 1;
constexpr uint8_t kWalErase = 2;

/// Events and initial ids get a sanity bound far above anything a real
/// conversation produces; a corrupt count must not drive a giant resize.
constexpr uint32_t kMaxVectorLen = 1u << 24;

}  // namespace

std::vector<EntityId> RecordedQuestions(const SessionRecord& record) {
  std::vector<EntityId> questions;
  questions.reserve(record.events.size() + 1);
  for (const SessionEvent& ev : record.events) {
    if (ev.kind != kEventAnswer) continue;
    if (ev.entity == kNoEntity) return {};
    questions.push_back(ev.entity);
  }
  if (record.next_question != kNoEntity) {
    questions.push_back(record.next_question);
  }
  return questions;
}

void EncodeSessionRecord(const SessionRecord& record, std::string* out) {
  ByteWriter w(out);
  w.PutU8(kRecordVersion);
  w.PutU64(record.id);
  w.PutU64(record.token);
  w.PutU64(record.collection_fingerprint);
  w.PutString(record.selector);
  w.PutU32(static_cast<uint32_t>(record.options.max_questions));
  w.PutU8(record.options.handle_dont_know ? 1 : 0);
  w.PutU8(record.options.verify_and_backtrack ? 1 : 0);
  w.PutU32(static_cast<uint32_t>(record.options.max_backtracks));
  w.PutU8(record.flags);
  w.PutU8(record.create_effort);
  w.PutU32(static_cast<uint32_t>(record.initial.size()));
  for (EntityId e : record.initial) w.PutU32(e);
  w.PutU32(static_cast<uint32_t>(record.events.size()));
  for (const SessionEvent& ev : record.events) {
    w.PutU8(ev.kind);
    w.PutU8(ev.value);
    w.PutU8(ev.effort);
    if (ev.kind == kEventAnswer) w.PutU32(ev.entity);
  }
  w.PutU32(record.next_question);
  w.PutU64(record.journey_trace.hi);
  w.PutU64(record.journey_trace.lo);
}

bool DecodeSessionRecord(std::string_view data, SessionRecord* out) {
  ByteReader r(data);
  uint8_t version = 0;
  if (!r.GetU8(&version) ||
      (version != kRecordVersionV1 && version != kRecordVersion)) {
    return false;
  }
  const bool v2 = version == kRecordVersion;
  SessionRecord rec;
  uint32_t max_questions = 0, max_backtracks = 0;
  uint8_t dont_know = 0, verify = 0;
  if (!r.GetU64(&rec.id) || !r.GetU64(&rec.token) ||
      !r.GetU64(&rec.collection_fingerprint) || !r.GetString(&rec.selector) ||
      !r.GetU32(&max_questions) || !r.GetU8(&dont_know) ||
      !r.GetU8(&verify) || !r.GetU32(&max_backtracks) ||
      !r.GetU8(&rec.flags) || !r.GetU8(&rec.create_effort)) {
    return false;
  }
  rec.options.max_questions = static_cast<int32_t>(max_questions);
  rec.options.handle_dont_know = dont_know != 0;
  rec.options.verify_and_backtrack = verify != 0;
  rec.options.max_backtracks = static_cast<int32_t>(max_backtracks);
  uint32_t n = 0;
  if (!r.GetU32(&n) || n > kMaxVectorLen) return false;
  rec.initial.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!r.GetU32(&rec.initial[i])) return false;
  }
  if (!r.GetU32(&n) || n > kMaxVectorLen) return false;
  rec.events.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    SessionEvent& ev = rec.events[i];
    if (!r.GetU8(&ev.kind) || !r.GetU8(&ev.value) || !r.GetU8(&ev.effort)) {
      return false;
    }
    if (ev.kind > kEventVerify) return false;
    if (v2 && ev.kind == kEventAnswer && !r.GetU32(&ev.entity)) return false;
  }
  if (v2 && (!r.GetU32(&rec.next_question) ||
             !r.GetU64(&rec.journey_trace.hi) ||
             !r.GetU64(&rec.journey_trace.lo))) {
    return false;
  }
  if (!r.Exhausted()) return false;
  *out = std::move(rec);
  return true;
}

SessionStore::SessionStore(SessionStoreOptions options)
    : options_(std::move(options)),
      fs_(options_.fs != nullptr ? options_.fs : StoreFs::Real()) {
  if (options_.wal_batch_records == 0) options_.wal_batch_records = 1;
  if (obs::Enabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    wal_records_counter_ = reg.GetCounter("setdisc_store_wal_records_total");
    wal_bytes_counter_ = reg.GetCounter("setdisc_store_wal_bytes_total");
    checkpoints_counter_ = reg.GetCounter("setdisc_store_checkpoints_total");
    io_errors_counter_ = reg.GetCounter("setdisc_store_io_errors_total");
  }
}

SessionStore::~SessionStore() {
  std::lock_guard<std::mutex> lock(mu_);
  (void)FlushLocked();
}

void SessionStore::ReplayPayload(std::string_view payload) {
  ByteReader r(payload);
  uint8_t kind = 0;
  if (!r.GetU8(&kind)) {
    ++stats_.dropped;
    return;
  }
  std::string_view body = payload.substr(1);
  if (kind == kWalPut) {
    SessionRecord rec;
    if (!DecodeSessionRecord(body, &rec)) {
      ++stats_.dropped;
      return;
    }
    // Track the id even for dropped records: a restart over a different
    // collection must still never reissue an id some old record holds.
    if (rec.id > max_id_) max_id_ = rec.id;
    if (rec.collection_fingerprint != collection_fp_) {
      ++stats_.dropped;
      return;
    }
    records_[rec.id].assign(body);
    ++stats_.replayed;
  } else if (kind == kWalErase) {
    uint64_t id = 0;
    ByteReader er(body);
    if (!er.GetU64(&id) || !er.Exhausted()) {
      ++stats_.dropped;
      return;
    }
    records_.erase(id);
    ++stats_.replayed;
  }
  // Unknown kinds are skipped: a newer writer's record types must not brick
  // replay on an older binary.
}

Status SessionStore::Open(uint64_t collection_fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  collection_fp_ = collection_fingerprint;
  Status dir_status = fs_->CreateDir(options_.dir);
  if (!dir_status.ok()) return dir_status;

  auto replay_file = [this](const std::string& path) {
    if (!fs_->FileExists(path)) return;
    Result<std::string> data = fs_->ReadFile(path);
    if (!data.ok()) {
      ++stats_.io_errors;
      return;
    }
    RecordScan scan = ScanRecords(
        data.value(), [this](std::string_view payload) { ReplayPayload(payload); },
        options_.max_record_bytes + 64);
    if (scan.torn_tail) {
      stats_.torn_bytes += data.value().size() - scan.valid_bytes;
    }
  };
  replay_file(CheckpointPath());
  replay_file(WalPath());
  open_ = true;

  // Compact immediately: the replayed WAL (torn tail and all) is folded
  // into a fresh checkpoint and the WAL restarts empty, so a crash loop
  // cannot grow the log without bound and the torn bytes are gone for good.
  // A compaction failure is not fatal — it leaves the store degraded and
  // the old files intact, which replays identically next time.
  (void)CheckpointLocked();
  return Status::OK();
}

bool SessionStore::Put(const SessionRecord& record) {
  std::string body;
  EncodeSessionRecord(record, &body);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.puts;
  if (record.id > max_id_) max_id_ = record.id;
  records_[record.id] = body;
  if (degraded_) return false;
  AppendWalLocked(kWalPut, body);
  return !degraded_;
}

void SessionStore::Erase(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.erase(id) == 0) return;
  ++stats_.erases;
  if (degraded_) return;
  std::string body;
  ByteWriter(&body).PutU64(id);
  AppendWalLocked(kWalErase, body);
}

bool SessionStore::Get(uint64_t id, SessionRecord* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) return false;
  return DecodeSessionRecord(it->second, out);
}

bool SessionStore::Contains(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.find(id) != records_.end();
}

std::vector<uint64_t> SessionStore::Ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> ids;
  ids.reserve(records_.size());
  for (const auto& [id, body] : records_) ids.push_back(id);
  return ids;
}

void SessionStore::AppendWalLocked(uint8_t kind, std::string_view body) {
  std::string payload;
  payload.reserve(body.size() + 1);
  payload.push_back(static_cast<char>(kind));
  payload.append(body);
  AppendRecord(&pending_, payload);
  ++pending_records_;
  if (pending_records_ >= options_.wal_batch_records) {
    (void)FlushLocked();
  }
}

Status SessionStore::FlushLocked() {
  if (pending_.empty() || !open_ || degraded_) {
    pending_.clear();
    pending_records_ = 0;
    return Status::OK();
  }
  if (wal_ == nullptr) {
    Result<std::unique_ptr<WritableFile>> file =
        fs_->OpenAppendable(WalPath());
    if (!file.ok()) {
      ++stats_.io_errors;
      if (io_errors_counter_ != nullptr) io_errors_counter_->Add();
      degraded_ = true;
      pending_.clear();
      pending_records_ = 0;
      return file.status();
    }
    wal_ = std::move(file.value());
  }
  Status s = wal_->Append(pending_);
  if (s.ok() && options_.fsync) s = wal_->Sync();
  if (!s.ok()) {
    // The file may now end in a torn record; appending more after it would
    // make everything past the tear unreadable on replay. Stop writing —
    // the next successful Checkpoint() rewrites the world and heals this.
    ++stats_.io_errors;
    if (io_errors_counter_ != nullptr) io_errors_counter_->Add();
    degraded_ = true;
    wal_.reset();
    pending_.clear();
    pending_records_ = 0;
    return s;
  }
  stats_.wal_bytes += pending_.size();
  ++stats_.wal_flushes;
  if (wal_records_counter_ != nullptr) {
    wal_records_counter_->Add(pending_records_);
  }
  if (wal_bytes_counter_ != nullptr) wal_bytes_counter_->Add(pending_.size());
  pending_.clear();
  pending_records_ = 0;
  return Status::OK();
}

Status SessionStore::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status SessionStore::CheckpointLocked() {
  if (!open_) return Status::Error("session store not open");
  std::string data;
  for (const auto& [id, body] : records_) {
    std::string payload;
    payload.reserve(body.size() + 1);
    payload.push_back(static_cast<char>(kWalPut));
    payload.append(body);
    AppendRecord(&data, payload);
  }
  Status s = fs_->WriteFileAtomic(CheckpointPath(), data, options_.fsync);
  if (!s.ok()) {
    ++stats_.io_errors;
    if (io_errors_counter_ != nullptr) io_errors_counter_->Add();
    degraded_ = true;
    return s;
  }
  // Everything pending is inside the checkpoint; the WAL restarts empty.
  pending_.clear();
  pending_records_ = 0;
  wal_.reset();
  Status t = fs_->Truncate(WalPath());
  ++stats_.checkpoints;
  if (checkpoints_counter_ != nullptr) checkpoints_counter_->Add();
  if (!t.ok()) {
    // The state itself is safe (the checkpoint holds everything), but new
    // appends after the old WAL content — possibly ending in a torn record —
    // would be unreadable on replay. Stay degraded until a truncate works.
    ++stats_.io_errors;
    if (io_errors_counter_ != nullptr) io_errors_counter_->Add();
    degraded_ = true;
    return t;
  }
  degraded_ = false;
  return Status::OK();
}

Status SessionStore::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

uint64_t SessionStore::max_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_id_;
}

size_t SessionStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

bool SessionStore::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

SessionStoreStats SessionStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace setdisc
