#pragma once

/// \file tracing.h
/// The benchmark's own span recorder and the forwarding wrappers that feed
/// it. Spans are timed around calls into the program's public interfaces —
/// the selector (`EntitySelector::Select` / `NotePartition`), the store's
/// filesystem seam (`StoreFs` / `WritableFile`), the manager's calls, and
/// the client's RPCs — so nothing inside the program changes.
///
/// Spans stay in per-thread in-memory buffers while the run is measured and
/// are merged, linked and written out only when it ends. A span names its
/// parent in one of two ways:
///  * same thread: a SpanScope installs itself as the thread's current
///    parent, and every span recorded underneath it on that thread links to
///    it (the in-process replay, where the bench thread calls the manager);
///  * across the wire: a server-side span carries the conversation's trace
///    id, read from `obs::CurrentJourney()`, and is linked after the run to
///    the client RPC span of the same trace whose interval contains it.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/selector.h"
#include "service/durability.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kRpcCreate,    ///< client CreateSession round trip (TCP)
  kRpcAnswer,    ///< client Answer round trip (TCP)
  kCallCreate,   ///< in-process SessionManager::Create
  kCallAnswer,   ///< in-process SessionManager::SubmitAnswer
  kSelect,       ///< EntitySelector::Select under the caching layer
  kNotePartition,
  kStoreAppend,  ///< WritableFile::Append on the WAL
  kStoreSync,
  kStoreAtomicWrite,  ///< StoreFs::WriteFileAtomic (checkpoint)
};

const char* SpanKindName(SpanKind kind);

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = none recorded (linked after the run)
  uint64_t trace = 0;   ///< low half of the journey trace id; 0 = none
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t bytes = 0;   ///< payload bytes of a store append or atomic write
  SpanKind kind = SpanKind::kSelect;
  /// Select made by a selector that was built to rehydrate a spilled
  /// session, inside the call that rehydrated it (transcript replay plus
  /// the step itself).
  bool replay = false;
};

uint64_t NowNs();

/// Process-wide span recorder. Disabled by default: a wrapper then costs a
/// relaxed load per call, and the untraced runs install no wrappers at all.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends a finished span to the calling thread's buffer.
  void Record(const SpanRecord& span);

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Merges every thread's buffer into one list and empties the buffers.
  /// Call only while no traced work runs.
  std::vector<SpanRecord> Drain();

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  /// Owned here, not by the threads, so buffers outlive pool threads.
  std::deque<std::vector<SpanRecord>> buffers_;
};

/// Low half of the trace id of the request the calling thread serves, read
/// from the server's journey context (0 outside one).
uint64_t CurrentTraceLo();

/// Times one call as a span and makes it the parent of every span the same
/// thread records until it closes. Scopes nest.
class SpanScope {
 public:
  explicit SpanScope(SpanKind kind);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint64_t id() const { return span_.id; }
  SpanKind kind() const { return span_.kind; }

 private:
  SpanRecord span_;
  SpanScope* prev_;
};

/// Forwards every EntitySelector virtual to `inner`, timing Select and
/// NotePartition. Decisions are unchanged: the wrapper keeps no state that
/// reaches the inner selector.
class TimedSelector : public setdisc::EntitySelector {
 public:
  explicit TimedSelector(std::unique_ptr<setdisc::EntitySelector> inner);

  setdisc::EntityId Select(const setdisc::SubCollection& sub,
                           const setdisc::EntityExclusion* excluded) override;
  std::string_view name() const override { return inner_->name(); }
  uint64_t DecisionFingerprint() const override {
    return inner_->DecisionFingerprint();
  }
  void NotePartition(const setdisc::SubCollection& parent, setdisc::EntityId e,
                     bool kept_contains, const setdisc::SubCollection& kept,
                     setdisc::SubCollection dropped) override;
  void InvalidateCountState() override { inner_->InvalidateCountState(); }
  void ReleaseMemory() override { inner_->ReleaseMemory(); }
  void SetEffort(int level) override { inner_->SetEffort(level); }

 private:
  std::unique_ptr<setdisc::EntitySelector> inner_;
  /// Id of the Answer-call scope this selector was built in (a
  /// rehydration), 0 otherwise. Selects made while that scope is still the
  /// thread's current one are replay.
  uint64_t birth_answer_scope_ = 0;
};

/// Wraps a selector factory so every product is a TimedSelector, and counts
/// the calls into `*calls`: every rehydration builds a fresh selector.
std::function<std::unique_ptr<setdisc::EntitySelector>()> TimedFactory(
    std::function<std::unique_ptr<setdisc::EntitySelector>()> inner,
    std::atomic<uint64_t>* calls);

/// A StoreFs that forwards to the real filesystem and times appends, syncs
/// and atomic writes.
class TimedFs : public setdisc::StoreFs {
 public:
  TimedFs() : base_(setdisc::StoreFs::Real()) {}

  setdisc::Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  setdisc::Result<std::unique_ptr<setdisc::WritableFile>> OpenAppendable(
      const std::string& path) override;
  setdisc::Status WriteFileAtomic(const std::string& path,
                                  std::string_view data, bool sync) override;
  setdisc::Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  setdisc::Status Truncate(const std::string& path) override {
    return base_->Truncate(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  setdisc::Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }

 private:
  setdisc::StoreFs* base_;
};

}  // namespace perfbench
