#pragma once

/// \file session_store.h
/// Crash-safe persistence of DiscoverySession resumable state.
///
/// A conversation's resumable state is tiny and fully replayable: the
/// initial examples, the discovery options, the selector it runs, and the
/// ordered answer/verify events. Replaying those events through a fresh
/// engine reproduces the exact candidate state, exclusion mask, and
/// transcript — DiscoverySession is deterministic by construction — so
/// the store persists the *inputs* of a session, not its derived state.
/// That keeps records a few dozen bytes a step and makes rehydration
/// byte-parity with a never-evicted session testable (the parity suite
/// drives both and compares transcripts).
///
/// In the paper's decision-tree view (Algorithm 2) a conversation is a path
/// from the root, each node labelled by the question asked there and the
/// answer taken. Records since version 2 journal both labels: every answer
/// event carries the entity it answered, and the record carries the
/// question pending after its last event. Rehydration hands those recorded
/// questions to the session (DiscoverySession's replay constructor),
/// which replays partitions only — no Select() per node — after checking
/// each one names an entity of the collection that is not excluded and is
/// the question pending at that point. That is sound because a selector's
/// decision is a function of (sub-collection, exclusions, effort) only
/// (core/selector.h), and it binds each stored answer to the question the
/// user actually saw. Version-1 records (answers only) still decode and
/// replay through the selector, pinned to each event's recorded effort.
///
/// On-disk layout (inside `options.dir`):
///
///   sessions.ckpt   checkpoint: every live record, rewritten atomically
///                   (temp file + rename) by Checkpoint()
///   sessions.wal    write-ahead log: one framed record per Put/Erase since
///                   the last checkpoint, group-commit batched
///
/// Both files are sequences of CRC-framed records (durability.h); each
/// payload is [u8 wal_kind][body] where kind 1 = put (body = encoded
/// SessionRecord) and kind 2 = erase (body = u64 id). Replay applies the
/// checkpoint, then the WAL in order; a torn or CRC-failing tail — the
/// normal shape of a crash mid-append — is discarded, which loses at most
/// the last few un-flushed steps of some sessions. Clients re-answer those
/// questions on resume; with a deterministic oracle the transcript converges
/// to the uninterrupted one (crash_recovery_test asserts this).
///
/// Failure policy: persistence must never take serving down. An append or
/// checkpoint failure (ENOSPC, bad disk) marks the store degraded — puts
/// keep updating the in-memory map, WAL appends stop — and the next
/// successful Checkpoint() heals it (the checkpoint rewrites everything the
/// WAL missed). fsync is off by default: the crash model this tier defends
/// against is a killed *process* (SIGKILL, OOM), and written-but-unsynced
/// pages survive that in the page cache; machine-crash durability is one
/// `fsync = true` away for those who want it.
///
/// Thread safety: all public methods are safe to call concurrently; one
/// mutex serializes the map and the WAL tail. Callers (SessionManager)
/// already serialize per-session steps, so the store never sees two
/// concurrent puts of the same id with different orderings that matter.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "collection/types.h"
#include "core/discovery.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "service/durability.h"
#include "util/status.h"

namespace setdisc {

/// One answered step of a conversation, as replayable input.
struct SessionEvent {
  /// 0 = SubmitAnswer (value is an Oracle::Answer), 1 = Verify (value is
  /// confirmed 0/1).
  uint8_t kind = 0;
  uint8_t value = 0;
  /// Effort level the step ran at (load-adaptive degradation): replay pins
  /// the selector to this level before re-applying the event, so a session
  /// degraded mid-conversation rehydrates byte-identically.
  uint8_t effort = 0;
  /// For answer events, the question answered (kNoEntity in records
  /// written before version 2, which replay through the selector instead).
  /// Unused for verify events.
  EntityId entity = kNoEntity;
};

inline constexpr uint8_t kEventAnswer = 0;
inline constexpr uint8_t kEventVerify = 1;

/// Everything needed to rebuild one session by replay.
struct SessionRecord {
  uint64_t id = 0;
  /// Session auth token (0 = none issued).
  uint64_t token = 0;
  /// Collection identity: SetCollection::Fingerprint(), a function of the
  /// collection's content alone (SessionManager computes it). Records whose
  /// fingerprint does not match the serving collection are dropped on
  /// replay — resuming a conversation over different data would silently
  /// answer wrong questions.
  uint64_t collection_fingerprint = 0;
  /// Selector the session runs; must match the manager's configured
  /// selector name for the record to rehydrate.
  std::string selector;
  DiscoveryOptions options;
  /// bit 0: session was created with enable_trace.
  uint8_t flags = 0;
  /// Effort level in force when the session was created — the first Select
  /// (inside the constructor) ran at it, so replay must pin it before
  /// rebuilding the session.
  uint8_t create_effort = 0;
  std::vector<EntityId> initial;
  std::vector<SessionEvent> events;
  /// The question pending after the last event (kNoEntity when none is:
  /// the session awaits a verification or has finished, or the record
  /// predates version 2).
  EntityId next_question = kNoEntity;
  /// Request-journey trace id the conversation was created under (invalid
  /// if none), restored on rehydration so a resumed session's spans keep
  /// their trace.
  obs::TraceId journey_trace;

  bool trace_enabled() const { return (flags & 1) != 0; }
  void set_trace_enabled(bool on) {
    flags = static_cast<uint8_t>(on ? (flags | 1) : (flags & ~1u));
  }
};

/// The questions a rehydration replays instead of calling Select(), in
/// the order the session's Advance() reaches them: each answer event's
/// question, then next_question when set. Empty — replay through the
/// selector — unless every answer event carries its question.
std::vector<EntityId> RecordedQuestions(const SessionRecord& record);

/// Serializes `record` (versioned — always the current version 2 —
/// little-endian; durability.h header comment has the conventions) onto
/// `out`.
void EncodeSessionRecord(const SessionRecord& record, std::string* out);

/// Decodes a serialized SessionRecord of version 1 or 2; false on
/// truncation, trailing garbage, an unknown version, or implausible
/// lengths. Version-1 records decode with no recorded questions and no
/// trace id.
bool DecodeSessionRecord(std::string_view data, SessionRecord* out);

struct SessionStoreOptions {
  /// Directory holding sessions.ckpt / sessions.wal; created if missing.
  std::string dir;

  /// Group commit: WAL appends are flushed once this many records are
  /// pending (1 = every Put/Erase hits the file immediately). Unflushed
  /// records live only in memory and are lost by a crash — bounded,
  /// documented staleness traded for fewer write() calls per step.
  size_t wal_batch_records = 1;

  /// fsync the WAL after every flush and the checkpoint after every write.
  /// Off by default — see the failure-policy note in the file comment.
  bool fsync = false;

  /// Filesystem seam; nullptr = the real one. Tests inject a FaultFs.
  StoreFs* fs = nullptr;

  /// Replay refuses single records larger than this (a garbage length field
  /// must not drive a giant allocation).
  size_t max_record_bytes = size_t{1} << 26;
};

/// Counters, readable at any time (snapshot under the store mutex).
struct SessionStoreStats {
  uint64_t puts = 0;
  uint64_t erases = 0;
  uint64_t wal_flushes = 0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoints = 0;
  uint64_t io_errors = 0;
  /// Replay: records applied, records dropped (decode failure or
  /// collection-fingerprint mismatch), and torn-tail bytes discarded.
  uint64_t replayed = 0;
  uint64_t dropped = 0;
  uint64_t torn_bytes = 0;
};

/// The WAL + checkpoint store. Construct, Open() once, then Put/Erase/Get
/// freely from any thread.
class SessionStore {
 public:
  explicit SessionStore(SessionStoreOptions options);
  ~SessionStore();

  SessionStore(const SessionStore&) = delete;
  SessionStore& operator=(const SessionStore&) = delete;

  /// Loads the checkpoint and replays the WAL, dropping records of other
  /// collections and any torn tail, then compacts (checkpoint + WAL
  /// truncate) so a crash loop cannot grow the WAL without bound. Returns
  /// non-OK only when the directory cannot be created — unreadable or
  /// missing files replay as empty (first boot looks exactly like a lost
  /// disk, and serving must start either way).
  Status Open(uint64_t collection_fingerprint);

  /// Upserts one session record (in memory immediately; WAL-appended per
  /// the batching policy). Returns false when the store is degraded and the
  /// record reached memory only.
  bool Put(const SessionRecord& record);

  /// Removes a session record (tombstoned in the WAL).
  void Erase(uint64_t id);

  /// Copies the record for `id` into `*out`; false if absent.
  bool Get(uint64_t id, SessionRecord* out) const;

  bool Contains(uint64_t id) const;

  /// Ids of every live record, unordered (restart scan).
  std::vector<uint64_t> Ids() const;

  /// Flushes pending WAL records to the file now.
  Status Flush();

  /// Rewrites the checkpoint atomically from the in-memory map, truncates
  /// the WAL, and clears the degraded flag on success.
  Status Checkpoint();

  /// Largest session id ever seen (puts + replay, including dropped
  /// records) — the manager seeds its id counter past this so a restart
  /// never reissues a persisted id.
  uint64_t max_id() const;

  size_t size() const;
  bool degraded() const;
  SessionStoreStats stats() const;

  const std::string& dir() const { return options_.dir; }
  std::string WalPath() const { return options_.dir + "/sessions.wal"; }
  std::string CheckpointPath() const { return options_.dir + "/sessions.ckpt"; }

 private:
  /// Applies one framed payload ([wal_kind][body]) during replay.
  void ReplayPayload(std::string_view payload);
  /// Frames [kind][body] into the pending batch and flushes it when the
  /// batch bound is reached. Requires mu_.
  void AppendWalLocked(uint8_t kind, std::string_view body);
  Status FlushLocked();
  Status CheckpointLocked();

  SessionStoreOptions options_;
  StoreFs* fs_;
  uint64_t collection_fp_ = 0;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::string> records_;  // id -> encoded record
  std::string pending_;
  size_t pending_records_ = 0;
  std::unique_ptr<WritableFile> wal_;
  uint64_t max_id_ = 0;
  bool degraded_ = false;
  bool open_ = false;
  SessionStoreStats stats_;

  /// Process-wide durability counters (null when obs was disabled at
  /// construction); mirrors of the per-store stats_ fields.
  obs::Counter* wal_records_counter_ = nullptr;
  obs::Counter* wal_bytes_counter_ = nullptr;
  obs::Counter* checkpoints_counter_ = nullptr;
  obs::Counter* io_errors_counter_ = nullptr;
};

}  // namespace setdisc
