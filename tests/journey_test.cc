// Request-journey tracing tests (src/obs/journey.h, src/obs/event_log.h):
// the lock-free span ring (including a concurrent hammer meant to run under
// TSan), span-tree emission through JourneyContext, slow-step exemplar
// capture, the flight recorder, and the Chrome trace-event renderers.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace setdisc::obs {
namespace {

// ---------------------------------------------------------------------------
// Identifiers
// ---------------------------------------------------------------------------

TEST(TraceIdTest, MakeTraceIdIsValidAndDistinct) {
  TraceId a = MakeTraceId();
  TraceId b = MakeTraceId();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(TraceId{}.valid());
}

TEST(TraceIdTest, NextSpanIdIsNonzeroAndMonotonic) {
  uint64_t a = NextSpanId();
  uint64_t b = NextSpanId();
  EXPECT_NE(a, 0u);
  EXPECT_GT(b, a);
}

// ---------------------------------------------------------------------------
// Span field handling
// ---------------------------------------------------------------------------

TEST(SpanTest, NameAndAnnotationsTruncateSafely) {
  Span span;
  span.SetName("a-very-long-span-name-that-exceeds-the-field");
  EXPECT_EQ(span.name[kMaxSpanName - 1], '\0');
  EXPECT_EQ(std::string(span.name).size(), kMaxSpanName - 1);

  span.Annotate("a-key-that-is-too-long-to-fit", "a-value-also-much-too-long");
  ASSERT_EQ(span.num_annotations, 1);
  EXPECT_EQ(span.ann_key[0][kMaxAnnotationKey - 1], '\0');
  EXPECT_EQ(span.ann_value[0][kMaxAnnotationValue - 1], '\0');

  // The fifth annotation is dropped, not overflowed.
  for (int i = 0; i < 5; ++i) span.AnnotateU64("k", i);
  EXPECT_EQ(span.num_annotations, kMaxSpanAnnotations);
}

// ---------------------------------------------------------------------------
// JourneyRing
// ---------------------------------------------------------------------------

TEST(JourneyRingTest, PushAndSnapshotPreserveOrderAndContent) {
  JourneyRing ring(16);
  for (uint64_t i = 1; i <= 5; ++i) {
    Span span;
    span.trace_hi = i;
    span.trace_lo = ~i;
    span.span_id = i * 10;
    span.start_ns = i * 100;
    span.duration_ns = i;
    span.SetName("s");
    ring.Push(span);
  }
  EXPECT_EQ(ring.total(), 5u);
  std::vector<Span> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 5u);
  for (uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(spans[i - 1].trace_hi, i);
    EXPECT_EQ(spans[i - 1].trace_lo, ~i);
    EXPECT_EQ(spans[i - 1].span_id, i * 10);
  }
}

TEST(JourneyRingTest, WrapKeepsTheNewestSpans) {
  JourneyRing ring(8);
  for (uint64_t i = 0; i < 20; ++i) {
    Span span;
    span.span_id = i + 1;
    ring.Push(span);
  }
  EXPECT_EQ(ring.total(), 20u);
  EXPECT_EQ(ring.capacity(), 8u);
  std::vector<Span> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 8u);
  // Oldest-first of the surviving window: span ids 13..20.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].span_id, 13 + i);
  }
}

// Concurrent hammer: writers race each other (and the ring wrap) while
// readers snapshot continuously. Every span a snapshot returns must be
// internally consistent — the seqlock may skip torn slots but never emit
// one. Run under TSan this also proves the fence pairing is clean.
TEST(JourneyRingTest, ConcurrentPushAndSnapshotNeverReturnTornSpans) {
  JourneyRing ring(64);  // small: heavy wrap pressure
  constexpr int kWriters = 4;
  constexpr int kPushesPerWriter = 4000;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> seen{0};

  auto check = [&](const std::vector<Span>& spans) {
    for (const Span& s : spans) {
      // Writers encode a per-span checksum across the word boundaries the
      // seqlock protects; any mix of two writes breaks it.
      if (s.trace_lo != ~s.trace_hi || s.duration_ns != s.span_id * 3 ||
          s.start_ns != (s.span_id ^ s.trace_hi)) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
      seen.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        check(ring.Snapshot());
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPushesPerWriter; ++i) {
        Span span;
        span.span_id = static_cast<uint64_t>(w) * kPushesPerWriter + i + 1;
        span.trace_hi = span.span_id * 0x9e3779b97f4a7c15ull;
        span.trace_lo = ~span.trace_hi;
        span.start_ns = span.span_id ^ span.trace_hi;
        span.duration_ns = span.span_id * 3;
        span.SetName("hammer");
        span.AnnotateU64("w", w);
        ring.Push(span);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  check(ring.Snapshot());  // final quiescent read sees a full ring
  EXPECT_EQ(ring.total(), uint64_t{kWriters} * kPushesPerWriter);
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(seen.load(), 0u);
}

// ---------------------------------------------------------------------------
// Span-tree emission (EmitStepSpans + FinishRequestJourney)
// ---------------------------------------------------------------------------

std::vector<Span> SpansOfTrace(const TraceId& trace) {
  std::vector<Span> out;
  for (const Span& s : Journey().Snapshot()) {
    if (s.trace_hi == trace.hi && s.trace_lo == trace.lo) out.push_back(s);
  }
  return out;
}

const Span* FindSpan(const std::vector<Span>& spans, uint64_t span_id) {
  for (const Span& s : spans) {
    if (s.span_id == span_id) return &s;
  }
  return nullptr;
}

TEST(JourneyEmissionTest, StepSpanWithPhaseChildrenLandsUnderRequestSpan) {
  JourneyContext ctx;
  ctx.trace = MakeTraceId();
  ctx.request_span = NextSpanId();
  ctx.session_id = 77;

  PhaseAccum accum;
  accum.ns[static_cast<size_t>(Phase::kCount)] = 2'000'000;   // 2ms
  accum.ns[static_cast<size_t>(Phase::kOrder)] = 500'000;     // 0.5ms
  accum.ns[static_cast<size_t>(Phase::kEmit)] = 400;          // < 1us: folded
  accum.ns[static_cast<size_t>(Phase::kSelect)] = 2'500'000;
  accum.serve_path = 2;
  EmitStepSpans(ctx, /*kind=*/0, /*step_index=*/3, /*entity=*/12,
                /*total_ns=*/3'000'000, accum);

  EXPECT_TRUE(ctx.have_step);
  EXPECT_EQ(ctx.step_kind, 0);
  EXPECT_EQ(ctx.step_index, 3u);
  EXPECT_EQ(ctx.step_total_ns, 3'000'000u);
  EXPECT_NE(ctx.step_span, 0u);

  std::vector<Span> spans = SpansOfTrace(ctx.trace);
  const Span* step = FindSpan(spans, ctx.step_span);
  ASSERT_NE(step, nullptr);
  EXPECT_STREQ(step->name, "step:answer");
  EXPECT_EQ(step->parent_id, ctx.request_span);
  EXPECT_EQ(step->duration_ns, 3'000'000u);

  // Exactly the >= 1us phases became children, parented to the step and
  // laid out back-to-back from its start.
  std::vector<const Span*> children;
  for (const Span& s : spans) {
    if (s.parent_id == ctx.step_span) children.push_back(&s);
  }
  ASSERT_EQ(children.size(), 2u);
  EXPECT_STREQ(children[0]->name, PhaseName(Phase::kCount));
  EXPECT_EQ(children[0]->start_ns, step->start_ns);
  EXPECT_EQ(children[0]->duration_ns, 2'000'000u);
  EXPECT_STREQ(children[1]->name, PhaseName(Phase::kOrder));
  EXPECT_EQ(children[1]->start_ns, step->start_ns + 2'000'000u);
  EXPECT_EQ(children[1]->duration_ns, 500'000u);
}

std::string Annotation(const Span& span, const char* key) {
  for (uint8_t i = 0; i < span.num_annotations; ++i) {
    if (std::string(span.ann_key[i]) == key) return span.ann_value[i];
  }
  return "";
}

TEST(JourneyEmissionTest, KlpStepCarriesItsTopLookaheadNode) {
  JourneyContext ctx;
  ctx.trace = MakeTraceId();
  PhaseAccum accum;
  accum.ns[static_cast<size_t>(Phase::kSelect)] = 1'000'000;
  accum.lookahead = {/*sets=*/140, /*candidates=*/8000, /*evaluated=*/3,
                     /*duplicates=*/7100};
  EmitStepSpans(ctx, /*kind=*/0, /*step_index=*/5, /*entity=*/9,
                /*total_ns=*/1'200'000, accum);
  const Span* lookahead = nullptr;
  std::vector<Span> spans = SpansOfTrace(ctx.trace);
  for (const Span& s : spans) {
    if (std::string(s.name) == "lookahead") lookahead = &s;
  }
  ASSERT_NE(lookahead, nullptr);
  EXPECT_EQ(lookahead->parent_id, ctx.step_span);
  EXPECT_EQ(lookahead->duration_ns, 1'000'000u);  // the Select it ran in
  EXPECT_EQ(Annotation(*lookahead, "sets"), "140");
  EXPECT_EQ(Annotation(*lookahead, "candidates"), "8000");
  EXPECT_EQ(Annotation(*lookahead, "evaluated"), "3");
  EXPECT_EQ(Annotation(*lookahead, "duplicates"), "7100");

  // A step that ran no k-LP Select gets no lookahead span.
  JourneyContext plain;
  plain.trace = MakeTraceId();
  EmitStepSpans(plain, /*kind=*/0, /*step_index=*/0, /*entity=*/9,
                /*total_ns=*/1000, PhaseAccum{});
  for (const Span& s : SpansOfTrace(plain.trace)) {
    EXPECT_STRNE(s.name, "lookahead");
  }
}

TEST(JourneyEmissionTest, EmitGeneratesATraceIdWhenTheStackHadNone) {
  JourneyContext ctx;  // invalid trace, no request span
  PhaseAccum accum;
  EmitStepSpans(ctx, /*kind=*/1, /*step_index=*/0, /*entity=*/UINT32_MAX,
                /*total_ns=*/10'000, accum);
  EXPECT_TRUE(ctx.trace.valid());
  std::vector<Span> spans = SpansOfTrace(ctx.trace);
  const Span* step = FindSpan(spans, ctx.step_span);
  ASSERT_NE(step, nullptr);
  EXPECT_STREQ(step->name, "step:verify");
}

TEST(JourneyEmissionTest, FinishRequestJourneyEmitsRequestAndQueueWaitSpans) {
  JourneyContext ctx;
  ctx.trace = MakeTraceId();
  ctx.request_span = NextSpanId();
  ctx.session_id = 5;

  const uint64_t now = NowNanos();
  const uint64_t decode_ns = now - 3'000'000;  // decoded 3ms ago
  const uint64_t start_ns = now - 1'000'000;   // queued 2ms, ran ~1ms
  FinishRequestJourney(ctx, "answer", decode_ns, start_ns, /*slow_ns=*/0);

  std::vector<Span> spans = SpansOfTrace(ctx.trace);
  const Span* req = FindSpan(spans, ctx.request_span);
  ASSERT_NE(req, nullptr);
  EXPECT_STREQ(req->name, "req:answer");
  EXPECT_EQ(req->parent_id, 0u);  // root of its trace
  EXPECT_EQ(req->start_ns, decode_ns);
  EXPECT_GE(req->duration_ns, 3'000'000u);

  const Span* wait = nullptr;
  for (const Span& s : spans) {
    if (s.parent_id == ctx.request_span && std::string(s.name) == "queue_wait") {
      wait = &s;
    }
  }
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->start_ns, decode_ns);
  EXPECT_EQ(wait->duration_ns, start_ns - decode_ns);
}

TEST(JourneyEmissionTest, SlowStepThresholdCapturesAnExemplar) {
  const uint64_t before = ExemplarStore::Global().total();

  JourneyContext ctx;
  ctx.trace = MakeTraceId();
  ctx.request_span = NextSpanId();
  PhaseAccum accum;
  accum.ns[static_cast<size_t>(Phase::kCount)] = 4'000'000;
  accum.serve_path = 1;
  EmitStepSpans(ctx, /*kind=*/0, /*step_index=*/9, /*entity=*/3,
                /*total_ns=*/5'000'000, accum);
  ctx.session_id = 123;

  const uint64_t now = NowNanos();
  // Service time = queue wait (1ms) + step execution (5ms) >= 2ms threshold.
  FinishRequestJourney(ctx, "answer", now - 1'000'000, now,
                       /*slow_ns=*/2'000'000);
  ASSERT_EQ(ExemplarStore::Global().total(), before + 1);
  std::vector<StepExemplar> exemplars = ExemplarStore::Global().Snapshot();
  ASSERT_FALSE(exemplars.empty());
  const StepExemplar& ex = exemplars.back();
  EXPECT_EQ(ex.trace.hi, ctx.trace.hi);
  EXPECT_EQ(ex.session_id, 123u);
  EXPECT_EQ(ex.step, 9u);
  EXPECT_EQ(ex.total_ns, 5'000'000u);
  EXPECT_GE(ex.queue_wait_ns, 1'000'000u);
  EXPECT_EQ(ex.phase_ns[static_cast<size_t>(Phase::kCount)], 4'000'000u);
  EXPECT_STREQ(ex.request, "answer");

  // Fast request under the same threshold: no exemplar.
  JourneyContext fast;
  fast.trace = MakeTraceId();
  fast.request_span = NextSpanId();
  PhaseAccum tiny;
  EmitStepSpans(fast, 0, 0, 3, /*total_ns=*/1'000, tiny);
  const uint64_t now2 = NowNanos();
  FinishRequestJourney(fast, "answer", now2 - 2'000, now2 - 1'000,
                       /*slow_ns=*/2'000'000);
  EXPECT_EQ(ExemplarStore::Global().total(), before + 1);

  const std::string json = ExemplarJson(ex);
  EXPECT_NE(json.find("\"session\":123"), std::string::npos) << json;
  EXPECT_NE(json.find("\"request\":\"answer\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\":"), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos) << "must be one line";
}

TEST(JourneyEmissionTest, JourneyScopeInstallsAndRestores) {
  EXPECT_EQ(CurrentJourney(), nullptr);
  JourneyContext outer;
  {
    JourneyScope scope(&outer);
    EXPECT_EQ(CurrentJourney(), &outer);
    JourneyContext inner;
    {
      JourneyScope nested(&inner);
      EXPECT_EQ(CurrentJourney(), &inner);
    }
    EXPECT_EQ(CurrentJourney(), &outer);
  }
  EXPECT_EQ(CurrentJourney(), nullptr);
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, RecordsPreRenderedEventsOldestFirst) {
  FlightRecorder rec(8);
  rec.Record(FlightEventKind::kServerStart, 9090, 9091);
  rec.Record(FlightEventKind::kAdmissionReject, 12);
  rec.Record(FlightEventKind::kEffortDegrade, 0, 1, "p99 over target");
  std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kServerStart);
  EXPECT_EQ(events[0].a, 9090);
  EXPECT_EQ(events[1].kind, FlightEventKind::kAdmissionReject);
  EXPECT_EQ(events[2].b, 1);
  EXPECT_STREQ(events[2].detail, "p99 over target");
  // Every event carries its pre-rendered crash-dump line.
  for (const FlightEvent& ev : events) {
    std::string line(ev.text);
    EXPECT_NE(line.find(FlightEventKindName(ev.kind)), std::string::npos)
        << line;
    EXPECT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
  }
}

TEST(FlightRecorderTest, RingOverwritesOldest) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.Record(FlightEventKind::kCustom, i);
  }
  std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().a, 6);
  EXPECT_EQ(events.back().a, 9);
  EXPECT_EQ(rec.total(), 10u);
}

TEST(FlightRecorderTest, DumpTailWritesNewestLinesWithWriteOnly) {
  FlightRecorder rec(8);
  rec.Record(FlightEventKind::kServerStart, 1);
  rec.Record(FlightEventKind::kSessionEvicted, 2);
  rec.Record(FlightEventKind::kServerStop, 3);

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  rec.DumpTail(fds[1], /*max_events=*/2);
  close(fds[1]);
  std::string out;
  char buf[512];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, n);
  close(fds[0]);

  // Only the newest two lines, in order.
  EXPECT_EQ(out.find("server_start"), std::string::npos) << out;
  size_t evicted = out.find("session_evicted");
  size_t stop = out.find("server_stop");
  ASSERT_NE(evicted, std::string::npos) << out;
  ASSERT_NE(stop, std::string::npos) << out;
  EXPECT_LT(evicted, stop);
}

TEST(FlightRecorderTest, EveryKindHasAName) {
  for (int k = 0; k <= static_cast<int>(FlightEventKind::kCustom); ++k) {
    const char* name = FlightEventKindName(static_cast<FlightEventKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

// ---------------------------------------------------------------------------
// ExemplarStore
// ---------------------------------------------------------------------------

TEST(ExemplarStoreTest, KeepsTheMostRecentUpToCapacity) {
  ExemplarStore& store = ExemplarStore::Global();
  const uint64_t before = store.total();
  for (uint64_t i = 0; i < ExemplarStore::kCapacity + 10; ++i) {
    StepExemplar ex;
    ex.session_id = 100000 + i;
    store.Add(ex);
  }
  EXPECT_EQ(store.total(), before + ExemplarStore::kCapacity + 10);
  std::vector<StepExemplar> all = store.Snapshot();
  ASSERT_EQ(all.size(), ExemplarStore::kCapacity);
  EXPECT_EQ(all.back().session_id, 100000 + ExemplarStore::kCapacity + 9);
  // Oldest surviving entry is capacity back from the newest.
  EXPECT_EQ(all.front().session_id, all.back().session_id -
                                        (ExemplarStore::kCapacity - 1));
}

// ---------------------------------------------------------------------------
// EventLog
// ---------------------------------------------------------------------------

TEST(EventLogTest, AppendsOneJsonObjectPerLine) {
  const std::string path = ::testing::TempDir() + "journey_event_log.jsonl";
  EventLog& log = EventLog::Global();
  ASSERT_TRUE(log.Open(path));
  EXPECT_TRUE(log.is_open());
  log.Append("{\"k\":1}");
  log.Append("{\"k\":2}");
  log.Close();
  EXPECT_FALSE(log.is_open());
  log.Append("{\"k\":3}");  // no-op when closed

  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"k\":1}");
  EXPECT_EQ(lines[1], "{\"k\":2}");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Chrome trace-event rendering
// ---------------------------------------------------------------------------

TEST(ChromeJsonTest, SpansRenderAsCompleteEventsWithEscapedStrings) {
  std::vector<Span> spans(2);
  spans[0].trace_hi = 0xabc;
  spans[0].trace_lo = 0xdef;
  spans[0].span_id = 1;
  spans[0].start_ns = 5'000;
  spans[0].duration_ns = 2'000;
  spans[0].SetName("req:\"x\"\\");
  spans[0].AnnotateU64("session", 4);
  spans[1].trace_hi = 0xabc;
  spans[1].trace_lo = 0xdef;
  spans[1].span_id = 2;
  spans[1].parent_id = 1;
  spans[1].SetName("step:answer");

  const std::string json = SpansToChromeJson(spans);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("req:\\\"x\\\"\\\\"), std::string::npos) << json;
  EXPECT_NE(json.find("\"step:answer\""), std::string::npos);
  EXPECT_NE(json.find("\"session\":\"4\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"parent_id\":1"), std::string::npos) << json;
  // Well-formed enough to be loadable: brackets balance.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.find('\0'), std::string::npos);
}

TEST(ChromeJsonTest, FlightEventsRenderAsInstants) {
  FlightRecorder::Global().Record(FlightEventKind::kCustom, 1, 2,
                                  "chrome json test");
  const std::string json = FlightChromeJson();
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"custom\""), std::string::npos) << json;
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ChromeJsonTest, WriteJourneyTraceProducesAFile) {
  SetJourneyEnabled(true);
  JourneyContext ctx;
  ctx.trace = MakeTraceId();
  ctx.request_span = NextSpanId();
  PhaseAccum accum;
  EmitStepSpans(ctx, 0, 0, 1, /*total_ns=*/50'000, accum);
  SetJourneyEnabled(false);

  const std::string path = ::testing::TempDir() + "journey_trace.json";
  ASSERT_TRUE(WriteJourneyTrace(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Signal plumbing (the flag half; the handler itself is a one-liner)
// ---------------------------------------------------------------------------

TEST(SignalTest, FlightDumpRequestFlagIsConsumedOnce) {
  InstallFlightDumpSignalHandler();
  EXPECT_FALSE(ConsumeFlightDumpRequest());
  raise(SIGUSR1);
  EXPECT_TRUE(ConsumeFlightDumpRequest());
  EXPECT_FALSE(ConsumeFlightDumpRequest());
}

}  // namespace
}  // namespace setdisc::obs
