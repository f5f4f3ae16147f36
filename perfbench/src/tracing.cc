#include "tracing.h"

#include <chrono>
#include <utility>

#include "obs/journey.h"

namespace perfbench {

using setdisc::EntityExclusion;
using setdisc::EntityId;
using setdisc::EntitySelector;
using setdisc::Result;
using setdisc::Status;
using setdisc::SubCollection;
using setdisc::WritableFile;

namespace {

thread_local std::vector<SpanRecord>* t_buffer = nullptr;
thread_local SpanScope* t_scope = nullptr;

/// Fills the parent/trace fields a wrapper span inherits from its context:
/// the enclosing same-thread scope, else the server request's trace id.
void Inherit(SpanRecord* span) {
  if (t_scope != nullptr) {
    span->parent = t_scope->id();
  } else {
    span->trace = CurrentTraceLo();
  }
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRpcCreate: return "rpc.create";
    case SpanKind::kRpcAnswer: return "rpc.answer";
    case SpanKind::kCallCreate: return "manager.create";
    case SpanKind::kCallAnswer: return "manager.answer";
    case SpanKind::kSelect: return "core.select";
    case SpanKind::kNotePartition: return "collection.note_partition";
    case SpanKind::kStoreAppend: return "store.append";
    case SpanKind::kStoreSync: return "store.sync";
    case SpanKind::kStoreAtomicWrite: return "store.atomic_write";
  }
  return "?";
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const SpanRecord& span) {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    t_buffer = &buffers_.emplace_back();
    t_buffer->reserve(1 << 14);
  }
  t_buffer->push_back(span);
}

std::vector<SpanRecord> Tracer::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (std::vector<SpanRecord>& buffer : buffers_) {
    out.insert(out.end(), buffer.begin(), buffer.end());
    buffer.clear();
  }
  return out;
}

uint64_t CurrentTraceLo() {
  const setdisc::obs::JourneyContext* jc = setdisc::obs::CurrentJourney();
  return jc != nullptr ? jc->trace.lo : 0;
}

SpanScope::SpanScope(SpanKind kind) : prev_(t_scope) {
  span_.kind = kind;
  span_.id = Tracer::Get().NextId();
  span_.parent = prev_ != nullptr ? prev_->id() : 0;
  span_.start_ns = NowNs();
  t_scope = this;
}

SpanScope::~SpanScope() {
  span_.dur_ns = NowNs() - span_.start_ns;
  t_scope = prev_;
  Tracer::Get().Record(span_);
}

TimedSelector::TimedSelector(std::unique_ptr<EntitySelector> inner)
    : inner_(std::move(inner)) {
  if (t_scope != nullptr && t_scope->kind() == SpanKind::kCallAnswer) {
    birth_answer_scope_ = t_scope->id();
  }
}

EntityId TimedSelector::Select(const SubCollection& sub,
                               const EntityExclusion* excluded) {
  if (!Tracer::Get().enabled()) return inner_->Select(sub, excluded);
  SpanRecord span;
  span.kind = SpanKind::kSelect;
  Inherit(&span);
  span.replay = birth_answer_scope_ != 0 && t_scope != nullptr &&
                t_scope->id() == birth_answer_scope_;
  span.start_ns = NowNs();
  EntityId e = inner_->Select(sub, excluded);
  span.dur_ns = NowNs() - span.start_ns;
  Tracer::Get().Record(span);
  return e;
}

void TimedSelector::NotePartition(const SubCollection& parent, EntityId e,
                                  bool kept_contains, const SubCollection& kept,
                                  SubCollection dropped) {
  if (!Tracer::Get().enabled()) {
    inner_->NotePartition(parent, e, kept_contains, kept, std::move(dropped));
    return;
  }
  SpanRecord span;
  span.kind = SpanKind::kNotePartition;
  Inherit(&span);
  span.start_ns = NowNs();
  inner_->NotePartition(parent, e, kept_contains, kept, std::move(dropped));
  span.dur_ns = NowNs() - span.start_ns;
  Tracer::Get().Record(span);
}

std::function<std::unique_ptr<EntitySelector>()> TimedFactory(
    std::function<std::unique_ptr<EntitySelector>()> inner,
    std::atomic<uint64_t>* calls) {
  return [inner = std::move(inner), calls]() -> std::unique_ptr<EntitySelector> {
    calls->fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<TimedSelector>(inner());
  };
}

namespace {

/// Times one store operation of `kind` around `fn`.
template <typename Fn>
auto TimeStoreOp(SpanKind kind, uint64_t bytes, Fn&& fn) {
  if (!Tracer::Get().enabled()) return fn();
  SpanRecord span;
  span.kind = kind;
  span.bytes = bytes;
  Inherit(&span);
  span.start_ns = NowNs();
  auto result = fn();
  span.dur_ns = NowNs() - span.start_ns;
  Tracer::Get().Record(span);
  return result;
}

class TimedFile : public WritableFile {
 public:
  explicit TimedFile(std::unique_ptr<WritableFile> inner)
      : inner_(std::move(inner)) {}
  Status Append(std::string_view data) override {
    return TimeStoreOp(SpanKind::kStoreAppend, data.size(),
                       [&] { return inner_->Append(data); });
  }
  Status Sync() override {
    return TimeStoreOp(SpanKind::kStoreSync, 0, [&] { return inner_->Sync(); });
  }

 private:
  std::unique_ptr<WritableFile> inner_;
};

}  // namespace

Result<std::unique_ptr<WritableFile>> TimedFs::OpenAppendable(
    const std::string& path) {
  Result<std::unique_ptr<WritableFile>> file = base_->OpenAppendable(path);
  if (!file.ok()) return file;
  return std::unique_ptr<WritableFile>(
      std::make_unique<TimedFile>(std::move(file).value()));
}

Status TimedFs::WriteFileAtomic(const std::string& path, std::string_view data,
                                bool sync) {
  return TimeStoreOp(SpanKind::kStoreAtomicWrite, data.size(), [&] {
    return base_->WriteFileAtomic(path, data, sync);
  });
}

}  // namespace perfbench
