// Tests for the durability tier: the CRC record framing and SessionRecord
// codec (versions 1 and 2), SessionStore WAL/checkpoint semantics under fault
// injection (FaultFs), spill-to-disk + rehydration byte-parity against
// never-evicted sessions across selectors, §6 configs, effort changes, and
// a shared selection cache, replay of recorded questions
// without Select() and its rejection of corrupt journals, resume across a
// simulated restart (store reopened from disk), and the reaper/evictor vs.
// resume race under a tiny capacity and millisecond reap ticks.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/klp.h"
#include "core/selectors.h"
#include "obs/journey.h"
#include "obs/registry.h"
#include "service/durability.h"
#include "service/session_manager.h"
#include "service/session_store.h"
#include "test_util.h"
#include "util/clock.h"

namespace setdisc {
namespace {

using namespace setdisc::testing;

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "setdisc_store_" + tag + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

SessionRecord MakeRecord(uint64_t id) {
  SessionRecord rec;
  rec.id = id;
  rec.token = 0x1234567890abcdefULL + id;
  rec.collection_fingerprint = 42;
  rec.selector = "MostEven";
  rec.options.verify_and_backtrack = true;
  rec.options.handle_dont_know = true;
  rec.options.max_questions = 17;
  rec.options.max_backtracks = 3;
  rec.set_trace_enabled(true);
  rec.create_effort = 2;
  rec.initial = {kA, kB, kC};
  rec.events = {{kEventAnswer, 0, 0, kD},
                {kEventAnswer, 2, 1, kE},
                {kEventVerify, 1, 0}};
  rec.next_question = kF;
  rec.journey_trace = obs::TraceId{0x0123456789abcdefULL + id, 0xfeedULL};
  return rec;
}

// The version-1 record layout, frozen: what stores written before records
// journaled their questions hold on disk. No entities, no pending question,
// no trace id.
std::string EncodeV1Record(const SessionRecord& rec) {
  std::string out;
  ByteWriter w(&out);
  w.PutU8(1);
  w.PutU64(rec.id);
  w.PutU64(rec.token);
  w.PutU64(rec.collection_fingerprint);
  w.PutString(rec.selector);
  w.PutU32(static_cast<uint32_t>(rec.options.max_questions));
  w.PutU8(rec.options.handle_dont_know ? 1 : 0);
  w.PutU8(rec.options.verify_and_backtrack ? 1 : 0);
  w.PutU32(static_cast<uint32_t>(rec.options.max_backtracks));
  w.PutU8(rec.flags);
  w.PutU8(rec.create_effort);
  w.PutU32(static_cast<uint32_t>(rec.initial.size()));
  for (EntityId e : rec.initial) w.PutU32(e);
  w.PutU32(static_cast<uint32_t>(rec.events.size()));
  for (const SessionEvent& ev : rec.events) {
    w.PutU8(ev.kind);
    w.PutU8(ev.value);
    w.PutU8(ev.effort);
  }
  return out;
}

// ---------------------------------------------------------------------------
// SessionRecord codec
// ---------------------------------------------------------------------------

TEST(SessionRecordCodec, Roundtrip) {
  SessionRecord rec = MakeRecord(7);
  std::string buf;
  EncodeSessionRecord(rec, &buf);

  SessionRecord back;
  ASSERT_TRUE(DecodeSessionRecord(buf, &back));
  EXPECT_EQ(back.id, rec.id);
  EXPECT_EQ(back.token, rec.token);
  EXPECT_EQ(back.collection_fingerprint, rec.collection_fingerprint);
  EXPECT_EQ(back.selector, rec.selector);
  EXPECT_EQ(back.options.verify_and_backtrack, rec.options.verify_and_backtrack);
  EXPECT_EQ(back.options.handle_dont_know, rec.options.handle_dont_know);
  EXPECT_EQ(back.options.max_questions, rec.options.max_questions);
  EXPECT_EQ(back.options.max_backtracks, rec.options.max_backtracks);
  EXPECT_EQ(back.flags, rec.flags);
  EXPECT_TRUE(back.trace_enabled());
  EXPECT_EQ(back.create_effort, rec.create_effort);
  EXPECT_EQ(back.initial, rec.initial);
  ASSERT_EQ(back.events.size(), rec.events.size());
  for (size_t i = 0; i < rec.events.size(); ++i) {
    EXPECT_EQ(back.events[i].kind, rec.events[i].kind) << i;
    EXPECT_EQ(back.events[i].value, rec.events[i].value) << i;
    EXPECT_EQ(back.events[i].effort, rec.events[i].effort) << i;
    EXPECT_EQ(back.events[i].entity, rec.events[i].entity) << i;
  }
  EXPECT_EQ(back.next_question, rec.next_question);
  EXPECT_EQ(back.journey_trace, rec.journey_trace);
  EXPECT_EQ(RecordedQuestions(back), (std::vector<EntityId>{kD, kE, kF}));
}

TEST(SessionRecordCodec, DecodesVersion1WithoutRecordedQuestions) {
  SessionRecord rec = MakeRecord(5);
  const std::string v1 = EncodeV1Record(rec);
  SessionRecord back;
  ASSERT_TRUE(DecodeSessionRecord(v1, &back));
  EXPECT_EQ(back.id, rec.id);
  EXPECT_EQ(back.token, rec.token);
  EXPECT_EQ(back.selector, rec.selector);
  EXPECT_EQ(back.create_effort, rec.create_effort);
  EXPECT_EQ(back.initial, rec.initial);
  ASSERT_EQ(back.events.size(), rec.events.size());
  for (size_t i = 0; i < rec.events.size(); ++i) {
    EXPECT_EQ(back.events[i].kind, rec.events[i].kind) << i;
    EXPECT_EQ(back.events[i].value, rec.events[i].value) << i;
    EXPECT_EQ(back.events[i].effort, rec.events[i].effort) << i;
    EXPECT_EQ(back.events[i].entity, kNoEntity) << i;
  }
  EXPECT_EQ(back.next_question, kNoEntity);
  EXPECT_FALSE(back.journey_trace.valid());
  EXPECT_TRUE(RecordedQuestions(back).empty())
      << "a version-1 record must replay through the selector";

  for (size_t len = 0; len < v1.size(); ++len) {
    EXPECT_FALSE(DecodeSessionRecord(std::string_view(v1).substr(0, len), &back))
        << "accepted a " << len << "-byte prefix of a version-1 record";
  }
  EXPECT_FALSE(DecodeSessionRecord(v1 + '\0', &back));
}

TEST(SessionRecordCodec, RecordedQuestionsNeedEveryAnswerEntity) {
  SessionRecord rec = MakeRecord(4);
  rec.next_question = kNoEntity;
  EXPECT_EQ(RecordedQuestions(rec), (std::vector<EntityId>{kD, kE}));
  // One answer without its question (a record upgraded mid-way, or
  // hand-made) replays wholly through the selector: the recorded questions
  // are positional, so a gap would shift every later one.
  rec.events[1].entity = kNoEntity;
  rec.next_question = kF;
  EXPECT_TRUE(RecordedQuestions(rec).empty());
}

TEST(SessionRecordCodec, RejectsEveryTruncation) {
  std::string buf;
  EncodeSessionRecord(MakeRecord(9), &buf);
  SessionRecord out;
  for (size_t len = 0; len < buf.size(); ++len) {
    EXPECT_FALSE(DecodeSessionRecord(std::string_view(buf).substr(0, len), &out))
        << "accepted a " << len << "-byte prefix of a " << buf.size()
        << "-byte record";
  }
  ASSERT_TRUE(DecodeSessionRecord(buf, &out));
}

TEST(SessionRecordCodec, RejectsTrailingGarbageAndBadVersion) {
  std::string buf;
  EncodeSessionRecord(MakeRecord(3), &buf);
  SessionRecord out;
  std::string longer = buf + '\0';
  EXPECT_FALSE(DecodeSessionRecord(longer, &out));

  std::string wrong_version = buf;
  wrong_version[0] = static_cast<char>(0x7f);
  EXPECT_FALSE(DecodeSessionRecord(wrong_version, &out));
}

// ---------------------------------------------------------------------------
// CRC record framing
// ---------------------------------------------------------------------------

TEST(RecordFraming, ScanStopsAtEveryTornBoundary) {
  std::string file;
  std::vector<std::string> payloads = {"alpha", "bee", "the third payload"};
  for (const auto& p : payloads) AppendRecord(&file, p);

  // Record boundaries (end offsets) within the file.
  std::vector<size_t> ends;
  {
    size_t off = 0;
    for (const auto& p : payloads) {
      off += 8 + p.size();
      ends.push_back(off);
    }
  }
  ASSERT_EQ(ends.back(), file.size());

  for (size_t cut = 0; cut <= file.size(); ++cut) {
    std::vector<std::string> seen;
    RecordScan scan =
        ScanRecords(std::string_view(file).substr(0, cut),
                    [&seen](std::string_view p) { seen.emplace_back(p); });
    size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) ++expect;
    ASSERT_EQ(seen.size(), expect) << "cut at byte " << cut;
    for (size_t i = 0; i < expect; ++i) EXPECT_EQ(seen[i], payloads[i]);
    EXPECT_EQ(scan.records, expect);
    EXPECT_EQ(scan.torn_tail, cut != (expect == 0 ? 0 : ends[expect - 1]))
        << "cut at byte " << cut;
  }
}

TEST(RecordFraming, ScanStopsAtCorruptInterior) {
  std::string file;
  AppendRecord(&file, "first");
  size_t second_at = file.size();
  AppendRecord(&file, "second");
  AppendRecord(&file, "third");

  // Flip one payload byte of the middle record: the scan must deliver only
  // the first record and flag the rest as torn.
  file[second_at + 8] ^= 0x01;
  std::vector<std::string> seen;
  RecordScan scan = ScanRecords(
      file, [&seen](std::string_view p) { seen.emplace_back(p); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "first");
  EXPECT_TRUE(scan.torn_tail);
}

TEST(RecordFraming, ScanRefusesGiantLength) {
  std::string file;
  ByteWriter w(&file);
  w.PutU32(0x7fffffff);  // length far past max_payload
  w.PutU32(0);
  file.append(64, 'x');
  RecordScan scan = ScanRecords(file, [](std::string_view) {});
  EXPECT_EQ(scan.records, 0u);
  EXPECT_TRUE(scan.torn_tail);
}

// ---------------------------------------------------------------------------
// SessionStore: persistence across reopen, torn tails, compaction
// ---------------------------------------------------------------------------

TEST(SessionStore, PersistsAcrossReopen) {
  const std::string dir = FreshDir("reopen");
  constexpr uint64_t kFp = 42;
  {
    SessionStoreOptions opt;
    opt.dir = dir;
    SessionStore store(opt);
    ASSERT_TRUE(store.Open(kFp).ok());
    for (uint64_t id = 1; id <= 5; ++id) EXPECT_TRUE(store.Put(MakeRecord(id)));
    store.Erase(3);
    ASSERT_TRUE(store.Flush().ok());
  }
  SessionStoreOptions opt;
  opt.dir = dir;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(kFp).ok());
  EXPECT_EQ(store.size(), 4u);
  EXPECT_FALSE(store.Contains(3));
  EXPECT_GE(store.max_id(), 5u);
  SessionRecord rec;
  ASSERT_TRUE(store.Get(4, &rec));
  EXPECT_EQ(rec.token, MakeRecord(4).token);
  EXPECT_EQ(rec.events.size(), 3u);
}

TEST(SessionStore, TornWalTailDiscardedOnReplay) {
  const std::string dir = FreshDir("torn");
  constexpr uint64_t kFp = 42;
  {
    SessionStoreOptions opt;
    opt.dir = dir;
    SessionStore store(opt);
    ASSERT_TRUE(store.Open(kFp).ok());
    for (uint64_t id = 1; id <= 3; ++id) EXPECT_TRUE(store.Put(MakeRecord(id)));
    ASSERT_TRUE(store.Flush().ok());
  }
  const std::string wal = dir + "/sessions.wal";
  std::string bytes = Slurp(wal);
  ASSERT_FALSE(bytes.empty());
  // Simulate a crash mid-append: a half-written frame at the WAL tail.
  {
    std::ofstream f(wal, std::ios::binary | std::ios::app);
    f.write("\x40\x00\x00\x00\xde\xad\xbe\xef\x01half", 12);
  }
  SessionStoreOptions opt;
  opt.dir = dir;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(kFp).ok());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_GT(store.stats().torn_bytes, 0u);
  // Open compacts: the rebuilt files replay clean a second time.
  SessionStore again(opt);
  ASSERT_TRUE(again.Open(kFp).ok());
  EXPECT_EQ(again.size(), 3u);
  EXPECT_EQ(again.stats().torn_bytes, 0u);
}

TEST(SessionStore, CheckpointCompactsWalAndTombstones) {
  const std::string dir = FreshDir("compact");
  SessionStoreOptions opt;
  opt.dir = dir;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(1).ok());
  for (uint64_t id = 1; id <= 20; ++id) {
    SessionRecord rec = MakeRecord(id);
    rec.collection_fingerprint = 1;
    EXPECT_TRUE(store.Put(rec));
  }
  for (uint64_t id = 1; id <= 20; id += 2) store.Erase(id);
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_GT(std::filesystem::file_size(store.WalPath()), 0u);

  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_EQ(std::filesystem::file_size(store.WalPath()), 0u);

  // The checkpoint holds exactly the 10 survivors, no tombstones.
  size_t records = 0;
  ScanRecords(Slurp(store.CheckpointPath()),
              [&records](std::string_view) { ++records; });
  EXPECT_EQ(records, 10u);

  SessionStore again(opt);
  ASSERT_TRUE(again.Open(1).ok());
  EXPECT_EQ(again.size(), 10u);
  EXPECT_FALSE(again.Contains(1));
  EXPECT_TRUE(again.Contains(2));
}

TEST(SessionStore, FingerprintMismatchDropsRecords) {
  const std::string dir = FreshDir("fp");
  {
    SessionStoreOptions opt;
    opt.dir = dir;
    SessionStore store(opt);
    ASSERT_TRUE(store.Open(42).ok());
    EXPECT_TRUE(store.Put(MakeRecord(1)));  // fingerprint 42
    ASSERT_TRUE(store.Flush().ok());
  }
  SessionStoreOptions opt;
  opt.dir = dir;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(43).ok());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_GT(store.stats().dropped, 0u);
  // The id is still reserved: a restarted manager must not reissue it even
  // when the record itself was dropped.
  EXPECT_GE(store.max_id(), 1u);
}

TEST(SessionStore, GroupCommitBatchesAppends) {
  const std::string dir = FreshDir("batch");
  FaultFs fs;
  SessionStoreOptions opt;
  opt.dir = dir;
  opt.wal_batch_records = 4;
  opt.fs = &fs;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(42).ok());
  const uint64_t appends_after_open = fs.appends();

  for (uint64_t id = 1; id <= 3; ++id) EXPECT_TRUE(store.Put(MakeRecord(id)));
  EXPECT_EQ(fs.appends(), appends_after_open) << "flushed before the batch bound";
  EXPECT_TRUE(store.Put(MakeRecord(4)));
  EXPECT_EQ(fs.appends(), appends_after_open + 1)
      << "the 4th record must flush the batch in one append";
  EXPECT_EQ(store.stats().wal_flushes, 1u);

  // An explicit Flush drains a partial batch.
  EXPECT_TRUE(store.Put(MakeRecord(5)));
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(fs.appends(), appends_after_open + 2);
}

TEST(SessionStore, FsyncPolicyHonored) {
  const std::string dir = FreshDir("fsync");
  FaultFs fs;
  SessionStoreOptions opt;
  opt.dir = dir;
  opt.fsync = true;
  opt.fs = &fs;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(42).ok());
  EXPECT_TRUE(store.Put(MakeRecord(1)));
  EXPECT_GT(fs.syncs(), 0u);
}

// ---------------------------------------------------------------------------
// SessionStore: fault injection and degraded mode
// ---------------------------------------------------------------------------

TEST(SessionStore, EnospcDegradesThenCheckpointHeals) {
  const std::string dir = FreshDir("enospc");
  FaultFs fs;
  SessionStoreOptions opt;
  opt.dir = dir;
  opt.fs = &fs;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(42).ok());
  EXPECT_TRUE(store.Put(MakeRecord(1)));
  ASSERT_FALSE(store.degraded());

  // Disk full: the next WAL flush tears mid-record and fails. The store must
  // keep serving from memory, flagged degraded.
  fs.FailAppendsAfterBytes(10);
  EXPECT_FALSE(store.Put(MakeRecord(2)));
  EXPECT_TRUE(store.degraded());
  EXPECT_GT(store.stats().io_errors, 0u);
  SessionRecord rec;
  EXPECT_TRUE(store.Get(2, &rec)) << "degraded store must still serve memory";

  // While degraded, appends stop — no point tearing more records.
  const uint64_t appends_before = fs.appends();
  EXPECT_FALSE(store.Put(MakeRecord(3)));
  EXPECT_EQ(fs.appends(), appends_before);

  // Space returns: one successful checkpoint rewrites everything the WAL
  // missed and clears the flag.
  fs.FailAppendsAfterBytes(-1);
  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_FALSE(store.degraded());
  EXPECT_TRUE(store.Put(MakeRecord(4)));

  SessionStoreOptions plain;
  plain.dir = dir;
  SessionStore again(plain);
  ASSERT_TRUE(again.Open(42).ok());
  EXPECT_EQ(again.size(), 4u) << "healed store must have persisted 1..4";
  // The torn bytes written before the failure must not confuse replay.
  EXPECT_TRUE(again.Contains(2));
  EXPECT_TRUE(again.Contains(3));
}

TEST(SessionStore, FailedCheckpointStaysDegradedAndKeepsOldFile) {
  const std::string dir = FreshDir("ckptfail");
  FaultFs fs;
  SessionStoreOptions opt;
  opt.dir = dir;
  opt.fs = &fs;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(42).ok());
  EXPECT_TRUE(store.Put(MakeRecord(1)));
  ASSERT_TRUE(store.Checkpoint().ok());
  const std::string ckpt_before = Slurp(store.CheckpointPath());

  EXPECT_TRUE(store.Put(MakeRecord(2)));
  fs.set_fail_atomic_write(true);
  EXPECT_FALSE(store.Checkpoint().ok());
  EXPECT_TRUE(store.degraded());
  // Atomic write: the failed rewrite must not have touched the target.
  EXPECT_EQ(Slurp(store.CheckpointPath()), ckpt_before);

  fs.set_fail_atomic_write(false);
  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_FALSE(store.degraded());
}

TEST(SessionStore, CrashHookProducesRecoverablePrefix) {
  const std::string dir = FreshDir("crashpt");
  constexpr uint64_t kFp = 42;
  // Kill the WAL at every append ordinal in turn; whatever was appended
  // before the "crash" must replay, and never anything after it.
  for (uint64_t crash_at = 1; crash_at <= 4; ++crash_at) {
    std::filesystem::remove_all(dir);
    FaultFs fs;
    SessionStoreOptions opt;
    opt.dir = dir;
    opt.fs = &fs;
    uint64_t survived = 0;
    {
      SessionStore store(opt);
      ASSERT_TRUE(store.Open(kFp).ok());
      fs.set_crash_hook([crash_at](uint64_t ordinal) {
        return ordinal < crash_at;
      });
      for (uint64_t id = 1; id <= 6; ++id) {
        if (store.Put(MakeRecord(id))) survived = id;
      }
    }
    SessionStoreOptions plain;
    plain.dir = dir;
    SessionStore again(plain);
    ASSERT_TRUE(again.Open(kFp).ok());
    EXPECT_EQ(again.size(), survived) << "crash at append " << crash_at;
    for (uint64_t id = 1; id <= survived; ++id) {
      EXPECT_TRUE(again.Contains(id)) << "crash at append " << crash_at;
    }
  }
}

// ---------------------------------------------------------------------------
// Manager integration: spill + rehydrate byte-parity
// ---------------------------------------------------------------------------

struct LiveSession {
  SessionView view;
  // Kept aside: the token is delivered exactly once, in the Create view, and
  // later step views carry 0.
  uint64_t token = 0;
  std::unique_ptr<SimulatedOracle> oracle;
};

// One step of a conversation against a manager; returns false once finished.
bool StepOnce(SessionManager& manager, LiveSession& s) {
  if (s.view.state == SessionState::kFinished) return false;
  SessionStatus st;
  if (s.view.state == SessionState::kAwaitingAnswer) {
    st = manager.SubmitAnswer(s.view.id,
                              s.oracle->AskMembership(s.view.question),
                              &s.view, s.token);
  } else {
    st = manager.Verify(s.view.id, s.oracle->ConfirmTarget(s.view.verify_set),
                        &s.view, s.token);
  }
  EXPECT_EQ(st, SessionStatus::kOk) << "session " << s.view.id;
  return st == SessionStatus::kOk && s.view.state != SessionState::kFinished;
}

void ExpectSameOutcome(const SessionView& a, const SessionView& b,
                       const char* what) {
  EXPECT_EQ(a.state, b.state) << what;
  EXPECT_EQ(a.result.candidates, b.result.candidates) << what;
  EXPECT_EQ(a.result.questions, b.result.questions) << what;
  EXPECT_EQ(a.result.backtracks, b.result.backtracks) << what;
  EXPECT_EQ(a.result.confirmed, b.result.confirmed) << what;
  ASSERT_EQ(a.result.transcript.size(), b.result.transcript.size()) << what;
  for (size_t i = 0; i < a.result.transcript.size(); ++i) {
    EXPECT_EQ(a.result.transcript[i], b.result.transcript[i])
        << what << " step " << i;
  }
}

// Optional knobs of CheckSpillParity beyond the §6 config and selector.
struct SpillParityExtras {
  /// Collection to converse over; nullptr = the paper's Fig. 1 collection.
  const SetCollection* collection = nullptr;
  /// Shared selection cache for the store-backed side only.
  SelectionCache* cache = nullptr;
  /// Effort level both managers serve round `r` at (load-adaptive
  /// degradation mid-conversation); null = full effort throughout.
  std::function<int(int round)> effort_at;
};

// Drives every target of the collection round-robin through two managers —
// a RAM-only reference and a store-backed one whose capacity of 2 forces
// constant spilling, so nearly every step rehydrates — and asserts
// byte-identical transcripts. The spilled side issues tokens, so the test
// also proves rehydration preserves token checks.
void CheckSpillParity(const DiscoveryOptions& discovery,
                      std::function<std::unique_ptr<EntitySelector>()> factory,
                      double dont_know_rate, const char* tag,
                      const SpillParityExtras& extras = {}) {
  const SetCollection paper = MakePaperCollection();
  const SetCollection& c =
      extras.collection != nullptr ? *extras.collection : paper;
  InvertedIndex idx(c);

  SessionManagerOptions ram;
  ram.discovery = discovery;
  ram.selector_factory = factory;
  ram.background_reap = false;

  const std::string dir = FreshDir(std::string("parity_") + tag);
  SessionStoreOptions sopt;
  sopt.dir = dir;
  SessionStore store(sopt);
  ASSERT_TRUE(store.Open(c.Fingerprint()).ok());

  SessionManagerOptions spill = ram;
  spill.max_sessions = 2;
  spill.session_store = &store;
  spill.selection_cache = extras.cache;

  SessionManager ref(c, idx, ram);
  SessionManager spilly(c, idx, spill);

  std::vector<LiveSession> ref_s, spill_s;
  for (SetId target = 0; target < c.num_sets(); ++target) {
    for (auto* vec : {&ref_s, &spill_s}) {
      LiveSession s;
      s.oracle = std::make_unique<SimulatedOracle>(
          &c, target, /*error_rate=*/discovery.verify_and_backtrack ? 0.2 : 0.0,
          dont_know_rate, /*seed=*/100 + target);
      vec->push_back(std::move(s));
    }
    ref_s[target].view = ref.Create({});
    spill_s[target].view =
        spilly.Create({}, /*enable_trace=*/false, /*journey_trace=*/{},
                      /*issue_token=*/true);
    spill_s[target].token = spill_s[target].view.token;
    EXPECT_NE(spill_s[target].token, 0u);
  }

  // Round-robin stepping: with capacity 2 and 7 live conversations, the
  // store-backed manager rehydrates almost every touched session.
  bool any = true;
  int guard = 0;
  while (any) {
    if (extras.effort_at) {
      ref.SetEffortLevel(extras.effort_at(guard));
      spilly.SetEffortLevel(extras.effort_at(guard));
    }
    ASSERT_LT(guard++, 100000) << "sessions failed to terminate";
    any = false;
    for (size_t i = 0; i < ref_s.size(); ++i) {
      bool more_ref = StepOnce(ref, ref_s[i]);
      bool more_spill = StepOnce(spilly, spill_s[i]);
      ASSERT_EQ(more_ref, more_spill) << "session " << i << " diverged";
      any = any || more_ref;
    }
  }
  for (size_t i = 0; i < ref_s.size(); ++i) {
    ExpectSameOutcome(ref_s[i].view, spill_s[i].view, tag);
    // Only clean conversations are guaranteed to converge to their target;
    // with don't-knows the exclusions can leave sets indistinguishable, and
    // with errors the budgeted backtracking can end elsewhere. Parity above
    // is the property under test either way.
    if (dont_know_rate == 0.0 && !discovery.verify_and_backtrack) {
      EXPECT_TRUE(ref_s[i].view.result.found()) << tag;
      EXPECT_EQ(ref_s[i].view.result.discovered(), static_cast<SetId>(i))
          << tag;
    }
  }
}

TEST(SpillParity, MostEvenClean) {
  CheckSpillParity(DiscoveryOptions{},
                   [] { return std::make_unique<MostEvenSelector>(); }, 0.0,
                   "mosteven");
}

TEST(SpillParity, InfoGainClean) {
  CheckSpillParity(DiscoveryOptions{},
                   [] { return std::make_unique<InfoGainSelector>(); }, 0.0,
                   "infogain");
}

TEST(SpillParity, DontKnowAnswers) {
  DiscoveryOptions options;
  options.handle_dont_know = true;
  CheckSpillParity(options, [] { return std::make_unique<MostEvenSelector>(); },
                   0.3, "dontknow");
}

TEST(SpillParity, VerifyAndBacktrack) {
  DiscoveryOptions options;
  options.verify_and_backtrack = true;
  CheckSpillParity(options, [] { return std::make_unique<MostEvenSelector>(); },
                   0.1, "backtrack");
}

// 2-LP degraded to 1-step lookahead for rounds 1-2 and restored after:
// sessions spilled while degraded hold events at both effort levels, and
// their recorded questions must replay exactly what each level asked. On
// this sparse collection 1-LP and 2-LP ask differently for every target.
TEST(SpillParity, KlpEffortChangeMidConversation) {
  const SetCollection c = RandomCollection(/*seed=*/31, /*n=*/40, /*m=*/28, 0.15);
  DiscoveryOptions options;
  options.handle_dont_know = true;
  SpillParityExtras extras;
  extras.collection = &c;
  extras.effort_at = [](int round) { return round >= 1 && round <= 2 ? 1 : 0; };
  CheckSpillParity(
      options,
      [] {
        return std::make_unique<KlpSelector>(
            KlpOptions::MakeKlp(2, CostMetric::kAvgDepth));
      },
      0.2, "klp_effort", extras);
}

TEST(SpillParity, SharedSelectionCache) {
  const SetCollection c = RandomCollection(/*seed=*/32, /*n=*/40, /*m=*/28, 0.3);
  SelectionCache cache;
  DiscoveryOptions options;
  options.handle_dont_know = true;
  SpillParityExtras extras;
  extras.collection = &c;
  extras.cache = &cache;
  CheckSpillParity(options, [] { return std::make_unique<MostEvenSelector>(); },
                   0.2, "cache", extras);
  EXPECT_GT(cache.stats().hits, 0u)
      << "the cache never served the spilled side; the test lost its point";
}

// ---------------------------------------------------------------------------
// Manager integration: recorded-question replay
// ---------------------------------------------------------------------------

// MostEven counting its Select() calls into a shared counter.
class CountedMostEven : public MostEvenSelector {
 public:
  explicit CountedMostEven(std::atomic<int>* selects) : selects_(selects) {}
  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded) override {
    selects_->fetch_add(1);
    return MostEvenSelector::Select(sub, excluded);
  }

 private:
  std::atomic<int>* selects_;
};

// A store-backed manager with capacity 1 (any Create spills the previous
// session) over a random collection with don't-know handling on.
struct ReplayFixture {
  SetCollection c = RandomCollection(/*seed=*/77, /*n=*/48, /*m=*/32, 0.3);
  InvertedIndex idx{c};
  std::atomic<int> selects{0};
  std::unique_ptr<SessionStore> store;
  std::unique_ptr<SessionManager> manager;

  explicit ReplayFixture(const std::string& tag) {
    SessionStoreOptions sopt;
    sopt.dir = FreshDir(tag);
    store = std::make_unique<SessionStore>(sopt);
    EXPECT_TRUE(store->Open(c.Fingerprint()).ok());
    SessionManagerOptions o;
    o.discovery.handle_dont_know = true;
    o.selector_factory = [this] {
      return std::make_unique<CountedMostEven>(&selects);
    };
    o.background_reap = false;
    o.max_sessions = 1;
    o.session_store = store.get();
    manager = std::make_unique<SessionManager>(c, idx, o);
  }
};

// With a store, every Answer journals a record, and a journal write can
// wait behind a checkpoint: no Create or Answer is served without blocking,
// and a Get is only while the session is resident — a spilled one would
// rehydrate.
TEST(RecordedReplay, StoreKeepsCreatesAndAnswersOffTheNonBlockingPath) {
  ReplayFixture f("inline");
  SessionView first = f.manager->Create({});
  ASSERT_EQ(first.state, SessionState::kAwaitingAnswer);
  EXPECT_FALSE(f.manager->TryCreateInline({}, false, {}, false).has_value());
  SessionView view;
  EXPECT_EQ(f.manager->TryGetInline(first.id, &view, 0), SessionStatus::kOk);
  EXPECT_EQ(view.question, first.question);
  DiscoverySession::PreparedAnswer prepared;
  EXPECT_FALSE(f.manager
                   ->TryStepInline(first.id, Oracle::Answer::kYes, &view, 0,
                                   &prepared)
                   .has_value());
  f.manager->Create({});  // capacity 1: spills the first session
  EXPECT_FALSE(f.manager->TryGetInline(first.id, &view, 0).has_value());
  EXPECT_EQ(f.manager->Get(first.id, &view), SessionStatus::kOk);
  EXPECT_EQ(view.question, first.question);
}

TEST(RecordedReplay, RehydrationMakesNoSelectCalls) {
  ReplayFixture f("noselect");
  SimulatedOracle oracle(&f.c, /*target=*/5, 0.0, /*dont_know_rate=*/0.3, 9);
  constexpr int kEvents = 4;
  SessionView before = f.manager->Create({});
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_EQ(before.state, SessionState::kAwaitingAnswer);
    ASSERT_EQ(f.manager->SubmitAnswer(
                  before.id, oracle.AskMembership(before.question), &before),
              SessionStatus::kOk);
  }
  ASSERT_EQ(before.state, SessionState::kAwaitingAnswer);
  f.manager->Create({});  // capacity 1: spills `before.id`

  // The record journals every question asked and the one now pending.
  SessionRecord rec;
  ASSERT_TRUE(f.store->Get(before.id, &rec));
  ASSERT_EQ(rec.events.size(), static_cast<size_t>(kEvents));
  EXPECT_EQ(rec.next_question, before.question);

  f.selects = 0;
  SessionView resumed;
  ASSERT_EQ(f.manager->Get(before.id, &resumed), SessionStatus::kOk);
  EXPECT_EQ(f.selects.load(), 0)
      << "rehydrating a " << kEvents << "-event record called Select()";
  EXPECT_EQ(resumed.question, before.question);
  EXPECT_EQ(resumed.questions_asked, kEvents);

  // The next live step selects exactly once, through the real selector.
  SessionView after;
  ASSERT_EQ(f.manager->SubmitAnswer(
                before.id, oracle.AskMembership(resumed.question), &after),
            SessionStatus::kOk);
  ASSERT_EQ(after.state, SessionState::kAwaitingAnswer);
  EXPECT_EQ(f.selects.load(), 1);
}

// Fed a finished conversation's questions, a fresh DiscoverySession
// reproduces it without one Select() call, and EndReplay() reports whether
// the questions matched the conversation exactly — a question left over
// means they did not.
TEST(RecordedReplay, SessionReplaysRecordedQuestions) {
  const SetCollection c = MakePaperCollection();
  const InvertedIndex idx(c);
  std::atomic<int> selects{0};
  CountedMostEven selector(&selects);
  auto make = [&](std::vector<EntityId> recorded) {
    return DiscoverySession(c, idx, std::span<const EntityId>{}, selector,
                            DiscoveryOptions{}, std::move(recorded));
  };
  for (SetId target = 0; target < c.num_sets(); ++target) {
    SimulatedOracle oracle(&c, target, 0.0, 0.0, 1);
    DiscoverySession live = make({});
    std::vector<EntityId> asked;
    std::vector<Oracle::Answer> answers;
    while (!live.done()) {
      asked.push_back(live.NextQuestion());
      answers.push_back(oracle.AskMembership(asked.back()));
      live.SubmitAnswer(answers.back());
    }
    for (bool extra : {false, true}) {
      std::vector<EntityId> recorded = asked;
      if (extra) recorded.push_back(asked.front());
      selects = 0;
      DiscoverySession replayed = make(recorded);
      for (Oracle::Answer a : answers) {
        ASSERT_EQ(replayed.state(), SessionState::kAwaitingAnswer);
        replayed.SubmitAnswer(a);
      }
      EXPECT_EQ(selects.load(), 0) << "target " << target;
      EXPECT_TRUE(replayed.done());
      EXPECT_EQ(replayed.result().transcript, live.result().transcript);
      EXPECT_EQ(replayed.result().candidates, live.result().candidates);
      EXPECT_EQ(replayed.EndReplay(), !extra) << "target " << target;
    }
  }
}

// Crafted journals: each corruption of an otherwise valid record must fail
// the rehydration cleanly (kNotFound, counted as a failed rehydration),
// never reach a partition with a bad entity.
TEST(RecordedReplay, CorruptRecordedQuestionsFailRehydration) {
  ReplayFixture f("corrupt");
  SimulatedOracle oracle(&f.c, /*target=*/11, 0.0, 0.0, 3);
  // First answer "don't know", so the record holds an exclusion.
  SessionView view = f.manager->Create({});
  ASSERT_EQ(view.state, SessionState::kAwaitingAnswer);
  ASSERT_EQ(f.manager->SubmitAnswer(view.id, Oracle::Answer::kDontKnow, &view),
            SessionStatus::kOk);
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(view.state, SessionState::kAwaitingAnswer);
    ASSERT_EQ(f.manager->SubmitAnswer(
                  view.id, oracle.AskMembership(view.question), &view),
              SessionStatus::kOk);
  }
  ASSERT_EQ(view.state, SessionState::kAwaitingAnswer);
  const SessionId id = view.id;
  f.manager->Create({});  // spill
  SessionRecord good;
  ASSERT_TRUE(f.store->Get(id, &good));
  ASSERT_EQ(good.events.size(), 3u);
  ASSERT_EQ(RecordedQuestions(good).size(), 4u);

  obs::Counter* failed = obs::MetricsRegistry::Default().GetCounter(
      "setdisc_sessions_rehydrate_failed_total");
  struct Corruption {
    const char* what;
    std::function<void(SessionRecord*)> apply;
  };
  const EntityId universe = f.c.universe_size();
  const std::vector<Corruption> corruptions = {
      {"first question out of range",
       [universe](SessionRecord* r) { r->events[0].entity = universe; }},
      {"pending question out of range",
       [](SessionRecord* r) { r->next_question = kNoEntity - 1; }},
      {"question already excluded by a don't-know",
       [](SessionRecord* r) { r->events[1].entity = r->events[0].entity; }},
      {"answer bound to a question the selector did not ask",
       [](SessionRecord* r) {
         // No recorded questions for event 0 forces selector replay; event
         // 1 then names a question other than the one pending.
         r->events[0].entity = kNoEntity;
         r->events[1].entity = r->events[2].entity;
       }},
  };
  for (const Corruption& corruption : corruptions) {
    SessionRecord bad = good;
    corruption.apply(&bad);
    ASSERT_TRUE(f.store->Put(bad));
    const uint64_t failed_before = failed->Value();
    SessionView probe;
    EXPECT_EQ(f.manager->Get(id, &probe), SessionStatus::kNotFound)
        << corruption.what;
    if (obs::Enabled()) {
      EXPECT_EQ(failed->Value(), failed_before + 1) << corruption.what;
    }
  }

  // The intact record still resumes.
  ASSERT_TRUE(f.store->Put(good));
  SessionView resumed;
  ASSERT_EQ(f.manager->Get(id, &resumed), SessionStatus::kOk);
  EXPECT_EQ(resumed.question, view.question);
}

// A store written before records journaled their questions: the session
// resumes by selector replay and finishes byte-identically to one that was
// never evicted, and its record is version 2 from its next step on.
TEST(RecordedReplay, Version1RecordResumesByteIdentically) {
  SetCollection c = RandomCollection(/*seed=*/41, /*n=*/40, /*m=*/28, 0.3);
  InvertedIndex idx(c);
  DiscoveryOptions discovery;
  discovery.handle_dont_know = true;
  auto options = [&] {
    SessionManagerOptions o;
    o.discovery = discovery;
    o.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
    o.background_reap = false;
    return o;
  };
  for (SetId target : {SetId{3}, SetId{17}, SetId{29}}) {
    SessionManager ref(c, idx, options());
    SimulatedOracle ref_oracle(&c, target, 0.0, 0.25, 100 + target);
    const SessionView want = ref.Drive(ref.Create({}), ref_oracle);
    ASSERT_EQ(want.state, SessionState::kFinished);

    const std::string tag = "v1_" + std::to_string(target);
    const std::string dir = FreshDir(tag);
    SimulatedOracle oracle(&c, target, 0.0, 0.25, 100 + target);
    LiveSession s;
    SessionRecord rec;
    {
      SessionStoreOptions sopt;
      sopt.dir = dir + "_writer";
      SessionStore store(sopt);
      ASSERT_TRUE(store.Open(c.Fingerprint()).ok());
      SessionManagerOptions o = options();
      o.session_store = &store;
      SessionManager writer(c, idx, o);
      s.view = writer.Create({}, false, {}, /*issue_token=*/true);
      s.token = s.view.token;
      s.oracle = std::make_unique<SimulatedOracle>(oracle);
      for (int i = 0; i < 3; ++i) StepOnce(writer, s);
      ASSERT_NE(s.view.state, SessionState::kFinished);
      ASSERT_TRUE(store.Get(s.view.id, &rec));
    }
    // Lay the record down on disk in the version-1 layout.
    std::filesystem::create_directories(dir);
    {
      std::string wal;
      AppendRecord(&wal, std::string(1, '\x01') + EncodeV1Record(rec));
      std::ofstream(dir + "/sessions.wal", std::ios::binary) << wal;
    }
    SessionStoreOptions sopt;
    sopt.dir = dir;
    SessionStore store(sopt);
    ASSERT_TRUE(store.Open(c.Fingerprint()).ok());
    SessionRecord on_disk;
    ASSERT_TRUE(store.Get(s.view.id, &on_disk));
    ASSERT_TRUE(RecordedQuestions(on_disk).empty());

    SessionManagerOptions o = options();
    o.session_store = &store;
    SessionManager manager(c, idx, o);
    SessionView resumed;
    ASSERT_EQ(manager.Get(s.view.id, &resumed, s.token), SessionStatus::kOk);
    EXPECT_EQ(resumed.question, s.view.question);
    // One live step re-Puts the record — as version 2, every answer bound
    // to its question.
    ASSERT_TRUE(StepOnce(manager, s));
    SessionRecord now;
    ASSERT_TRUE(store.Get(s.view.id, &now));
    const std::vector<EntityId> questions = RecordedQuestions(now);
    ASSERT_EQ(questions.size(), static_cast<size_t>(s.view.questions_asked) + 1);
    EXPECT_EQ(questions.back(), s.view.question);

    int guard = 0;
    while (StepOnce(manager, s)) ASSERT_LT(guard++, 10000);
    ExpectSameOutcome(want, s.view, tag.c_str());
  }
}

// The journey trace id rides in the record: a resumed session's steps keep
// their conversation's trace, after a spill and after a full restart.
TEST(RecordedReplay, ResumedSessionKeepsItsJourneyTrace) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  const std::string dir = FreshDir("trace");
  const obs::TraceId trace = obs::MakeTraceId();
  auto options = [](SessionStore* store) {
    SessionManagerOptions o;
    o.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
    o.background_reap = false;
    o.max_sessions = 1;
    o.session_store = store;
    return o;
  };
  SessionStoreOptions sopt;
  sopt.dir = dir;
  SessionId id = kNoSession;
  {
    SessionStore store(sopt);
    ASSERT_TRUE(store.Open(c.Fingerprint()).ok());
    SessionManager manager(c, idx, options(&store));
    SessionView view = manager.Create({}, false, trace);
    ASSERT_EQ(view.state, SessionState::kAwaitingAnswer);
    id = view.id;
    manager.Create({});  // spill
    ASSERT_EQ(manager.num_active(), 1u);

    obs::JourneyContext jc;
    obs::JourneyScope scope(&jc);
    ASSERT_EQ(manager.SubmitAnswer(id, Oracle::Answer::kYes, &view),
              SessionStatus::kOk);
    EXPECT_EQ(jc.trace, trace) << "spilled session lost its trace id";
    ASSERT_EQ(view.state, SessionState::kAwaitingAnswer);
    ASSERT_TRUE(store.Flush().ok());
  }
  SessionStore store(sopt);
  ASSERT_TRUE(store.Open(c.Fingerprint()).ok());
  SessionManager manager(c, idx, options(&store));
  obs::JourneyContext jc;
  obs::JourneyScope scope(&jc);
  SessionView view;
  ASSERT_EQ(manager.SubmitAnswer(id, Oracle::Answer::kNo, &view),
            SessionStatus::kOk);
  EXPECT_EQ(jc.trace, trace) << "restarted session lost its trace id";
}

// ---------------------------------------------------------------------------
// Manager integration: resume across a restart
// ---------------------------------------------------------------------------

// Partially drives sessions under one manager, tears the whole stack down,
// reopens the store from disk under a fresh manager, and finishes the
// conversations — outcomes must match an uninterrupted reference run.
// Deterministic oracles (no errors, no don't-knows) so the continuation is a
// pure function of the questions.
TEST(RestartResume, Unsharded) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  const std::string dir = FreshDir("restart");

  auto make_options = [] {
    SessionManagerOptions o;
    o.background_reap = false;
    o.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
    return o;
  };

  // Uninterrupted reference.
  std::vector<DiscoveryResult> want;
  {
    SessionManagerOptions o = make_options();
    SessionManager ref(c, idx, o);
    for (SetId target = 0; target < c.num_sets(); ++target) {
      SimulatedOracle oracle(&c, target, 0.0, 0.0, 1);
      SessionView view = ref.Drive(ref.Create({}), oracle);
      ASSERT_EQ(view.state, SessionState::kFinished);
      want.push_back(view.result);
    }
  }

  struct Handle {
    uint64_t id;
    uint64_t token;
    int asked_before_crash;
  };
  std::vector<Handle> handles;
  {
    SessionStoreOptions sopt;
    sopt.dir = dir;
    SessionStore store(sopt);
    ASSERT_TRUE(store.Open(c.Fingerprint()).ok());
    SessionManagerOptions o = make_options();
    o.session_store = &store;
    SessionManager manager(c, idx, o);
    for (SetId target = 0; target < c.num_sets(); ++target) {
      LiveSession s;
      s.oracle = std::make_unique<SimulatedOracle>(&c, target, 0.0, 0.0, 1);
      s.view = manager.Create({}, false, {}, /*issue_token=*/true);
      s.token = s.view.token;
      // Answer (target % 3) questions, then "crash".
      for (SetId step = 0; step < target % 3; ++step) {
        if (s.view.state == SessionState::kFinished) break;
        StepOnce(manager, s);
      }
      handles.push_back({s.view.id, s.token, s.view.questions_asked});
    }
    ASSERT_TRUE(store.Flush().ok());
    // Managers and store destroyed here: the only surviving state is disk.
  }

  SessionStoreOptions sopt;
  sopt.dir = dir;
  SessionStore store(sopt);
  ASSERT_TRUE(store.Open(c.Fingerprint()).ok());
  EXPECT_EQ(store.size(), handles.size());
  SessionManagerOptions o = make_options();
  o.session_store = &store;
  SessionManager manager(c, idx, o);

  // A restarted manager must never reissue a persisted id.
  SessionView fresh = manager.Create({});
  EXPECT_GT(fresh.id, handles.back().id);

  for (SetId target = 0; target < c.num_sets(); ++target) {
    LiveSession s;
    s.oracle = std::make_unique<SimulatedOracle>(&c, target, 0.0, 0.0, 1);
    // Wrong token: same answer as an unknown id.
    SessionView probe;
    EXPECT_EQ(manager.Get(handles[target].id, &probe,
                          handles[target].token ^ 1),
              SessionStatus::kNotFound);
    ASSERT_EQ(manager.Get(handles[target].id, &s.view, handles[target].token),
              SessionStatus::kOk)
        << "session " << handles[target].id << " did not survive the restart";
    s.token = handles[target].token;
    EXPECT_EQ(s.view.questions_asked, handles[target].asked_before_crash)
        << "resumed session lost or replayed steps";
    int guard = 0;
    while (StepOnce(manager, s)) ASSERT_LT(guard++, 10000);
    ASSERT_EQ(s.view.state, SessionState::kFinished);
    EXPECT_EQ(s.view.result.candidates, want[target].candidates);
    EXPECT_EQ(s.view.result.questions, want[target].questions);
    ASSERT_EQ(s.view.result.transcript.size(), want[target].transcript.size());
    for (size_t i = 0; i < want[target].transcript.size(); ++i) {
      EXPECT_EQ(s.view.result.transcript[i], want[target].transcript[i])
          << "target " << target << " step " << i;
    }
  }
}

TEST(RestartResume, CloseErasesTheRecord) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  const std::string dir = FreshDir("close");
  SessionStoreOptions sopt;
  sopt.dir = dir;
  SessionStore store(sopt);
  ASSERT_TRUE(store.Open(c.Fingerprint()).ok());
  SessionManagerOptions o;
  o.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
  o.background_reap = false;
  o.session_store = &store;
  SessionManager manager(c, idx, o);

  SessionView view = manager.Create({});
  ASSERT_TRUE(store.Contains(view.id));
  EXPECT_EQ(manager.Close(view.id), SessionStatus::kOk);
  EXPECT_FALSE(store.Contains(view.id))
      << "a closed conversation must not be resumable";
  SessionView again;
  EXPECT_EQ(manager.Get(view.id, &again), SessionStatus::kNotFound);
}

// ---------------------------------------------------------------------------
// Reaper / evictor vs. resume: the spill race under a tiny capacity
// ---------------------------------------------------------------------------

// Hammers a store-backed manager whose reaper ticks every millisecond with a
// 5 ms TTL and a capacity of 3: every conversation is spilled out from under
// its driver over and over, and every touch races the evictor. Run under
// ASan/TSan this is the locking proof; functionally every conversation must
// still converge to its target with zero wrong answers.
TEST(SpillRace, ReaperAndEvictorVsResume) {
  SetCollection c = RandomCollection(/*seed=*/99, /*n=*/32, /*m=*/24, 0.3);
  InvertedIndex idx(c);
  const std::string dir = FreshDir("race");
  SessionStoreOptions sopt;
  sopt.dir = dir;
  SessionStore store(sopt);
  ASSERT_TRUE(store.Open(c.Fingerprint()).ok());

  SessionManagerOptions o;
  o.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
  o.session_store = &store;
  o.max_sessions = 3;
  o.session_ttl = std::chrono::milliseconds(5);
  o.background_reap = true;
  o.reap_interval = std::chrono::milliseconds(1);
  o.num_threads = 4;
  SessionManager manager(c, idx, o);

  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kSessionsPerThread; ++i) {
        SetId target =
            static_cast<SetId>((t * kSessionsPerThread + i) % c.num_sets());
        SimulatedOracle oracle(&c, target, 0.0, 0.0, /*seed=*/t * 100 + i);
        SessionView view = manager.Create({}, false, {}, /*issue_token=*/true);
        const uint64_t token = view.token;
        int guard = 0;
        while (view.state != SessionState::kFinished && guard++ < 10000) {
          // Loiter occasionally so the TTL reaper gets a real shot at
          // spilling this session mid-conversation.
          if (guard % 3 == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(7));
          }
          SessionStatus st;
          if (view.state == SessionState::kAwaitingAnswer) {
            st = manager.SubmitAnswer(
                view.id, oracle.AskMembership(view.question), &view, token);
          } else {
            st = manager.Verify(view.id,
                                oracle.ConfirmTarget(view.verify_set), &view,
                                token);
          }
          if (st != SessionStatus::kOk) {
            ++failures;
            break;
          }
        }
        if (view.state != SessionState::kFinished ||
            !view.result.found() || view.result.discovered() != target) {
          ++failures;
        }
        manager.Close(view.id, token);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0)
      << "conversations lost or diverted by the spill/resume race";
}

}  // namespace
}  // namespace setdisc
