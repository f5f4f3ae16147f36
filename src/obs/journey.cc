#include "obs/journey.h"

#include <algorithm>
#include <cstdio>
#include <random>

namespace setdisc::obs {

// ---------------------------------------------------------------------------
// Identifiers
// ---------------------------------------------------------------------------

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t ThreadSeed() {
  static std::atomic<uint64_t> process_salt{0};
  std::random_device rd;
  return (uint64_t{rd()} << 32) ^ rd() ^
         (process_salt.fetch_add(1, std::memory_order_relaxed) << 17);
}

}  // namespace

TraceId MakeTraceId() {
  thread_local uint64_t state = ThreadSeed();
  TraceId id;
  do {
    id.hi = SplitMix64(&state);
    id.lo = SplitMix64(&state);
  } while (!id.valid());
  return id;
}

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

namespace {

void CopyTruncated(char* dst, size_t cap, std::string_view src) {
  const size_t n = std::min(src.size(), cap - 1);
  if (n != 0) std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

void Span::SetName(std::string_view n) { CopyTruncated(name, sizeof(name), n); }

void Span::Annotate(std::string_view key, std::string_view value) {
  if (num_annotations >= kMaxSpanAnnotations) return;
  CopyTruncated(ann_key[num_annotations], kMaxAnnotationKey, key);
  CopyTruncated(ann_value[num_annotations], kMaxAnnotationValue, value);
  ++num_annotations;
}

void Span::AnnotateU64(std::string_view key, uint64_t value) {
  // Manual digits: this runs a few times per step on the serving hot path,
  // where snprintf's format parsing is measurable against the <2% budget.
  char buf[20];
  char* p = buf + sizeof(buf);
  do {
    *--p = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  Annotate(key, std::string_view(p, buf + sizeof(buf) - p));
}

// ---------------------------------------------------------------------------
// JourneyRing
// ---------------------------------------------------------------------------

JourneyRing::JourneyRing(size_t capacity)
    : slots_(std::max<size_t>(capacity, 1)) {}

void JourneyRing::Push(const Span& span) {
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket % slots_.size()];
  // Seqlock write: stamp odd, copy words relaxed, stamp even. The stamps are
  // ticket-derived so a reader that raced a *completed* overwrite still sees
  // the sequence change and retries/skips. Tickets t and t + capacity share
  // a slot, so the odd stamp is claimed, not stored: only from a stable
  // stamp of an older ticket. A slot mid-write, or already holding a newer
  // ticket, is abandoned — two writers never copy at once, and an older one
  // never rewinds the stamp.
  uint64_t stamp = slot.seq.load(std::memory_order_relaxed);
  do {
    if (stamp % 2 != 0 || stamp > 2 * ticket) return;
  } while (!slot.seq.compare_exchange_weak(stamp, 2 * ticket + 1,
                                           std::memory_order_relaxed));
  // Fence-to-fence pairing with Snapshot's acquire fence: a reader that sees
  // any of the data words below also sees the odd stamp above, so it cannot
  // validate a torn read.
  std::atomic_thread_fence(std::memory_order_release);
  uint64_t words[kSpanWords];
  std::memcpy(words, &span, sizeof(span));
  for (size_t i = 0; i < kSpanWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<Span> JourneyRing::Snapshot() const {
  struct Entry {
    uint64_t ticket;
    Span span;
  };
  std::vector<Entry> entries;
  entries.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 == 0) break;        // never written
      if (s1 % 2 != 0) continue; // writer mid-copy; retry
      uint64_t words[kSpanWords];
      for (size_t i = 0; i < kSpanWords; ++i) {
        words[i] = slot.words[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != s1) continue;  // torn
      Entry e;
      e.ticket = s1 / 2 - 1;
      std::memcpy(&e.span, words, sizeof(Span));
      entries.push_back(e);
      break;
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.ticket < b.ticket; });
  std::vector<Span> out;
  out.reserve(entries.size());
  for (const Entry& e : entries) out.push_back(e.span);
  return out;
}

JourneyRing& Journey() {
  static JourneyRing* ring = new JourneyRing(8192);
  return *ring;
}

namespace {
std::atomic<bool> g_journey_enabled{false};
}  // namespace

bool JourneyEnabled() {
  return g_journey_enabled.load(std::memory_order_relaxed);
}

void SetJourneyEnabled(bool enabled) {
  g_journey_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

void EmitStepSpans(JourneyContext& ctx, uint8_t kind, uint32_t step_index,
                   uint32_t entity, uint64_t total_ns,
                   const PhaseAccum& accum) {
  if (!ctx.trace.valid()) ctx.trace = MakeTraceId();
  const uint64_t end_ns = NowNanos();
  const uint64_t start_ns = end_ns - std::min(end_ns, total_ns);

  Span step;
  step.trace_hi = ctx.trace.hi;
  step.trace_lo = ctx.trace.lo;
  step.span_id = NextSpanId();
  step.parent_id = ctx.request_span;
  step.start_ns = start_ns;
  step.duration_ns = total_ns;
  step.SetName(kind == 0 ? "step:answer" : "step:verify");
  step.AnnotateU64("step", step_index);
  if (entity != UINT32_MAX) step.AnnotateU64("entity", entity);
  step.Annotate("path", ServePathName(static_cast<ServePath>(
                    accum.serve_path <= 4 ? accum.serve_path : 0)));
  // kSelect spans phases 0-2, so it would double-cover as a child; keep it
  // as an annotation instead.
  if (accum.ns[static_cast<size_t>(Phase::kSelect)] > 0) {
    step.AnnotateU64("select_ns", accum.ns[static_cast<size_t>(Phase::kSelect)]);
  }
  JourneyRing& ring = Journey();
  ring.Push(step);

  // Phase children, laid out back-to-back from the step's start. Durations
  // are exact; offsets are the approximation (phases run in roughly this
  // order but interleave). Sub-microsecond phases stay inside the step span.
  uint64_t offset = start_ns;
  for (size_t i = 0; i < static_cast<size_t>(Phase::kSelect); ++i) {
    const uint64_t ns = accum.ns[i];
    if (ns < 1000) continue;
    Span child;
    child.trace_hi = ctx.trace.hi;
    child.trace_lo = ctx.trace.lo;
    child.span_id = NextSpanId();
    child.parent_id = step.span_id;
    child.start_ns = offset;
    child.duration_ns = ns;
    child.SetName(PhaseName(static_cast<Phase>(i)));
    ring.Push(child);
    offset += ns;
  }

  // A k-LP step's top lookahead node: |C| and what became of its
  // candidates, on a child spanning the Select (the step span's annotation
  // slots are full, and widening every span would tax every push).
  if (accum.lookahead.candidates > 0) {
    Span lookahead;
    lookahead.trace_hi = ctx.trace.hi;
    lookahead.trace_lo = ctx.trace.lo;
    lookahead.span_id = NextSpanId();
    lookahead.parent_id = step.span_id;
    lookahead.start_ns = start_ns;
    lookahead.duration_ns = accum.ns[static_cast<size_t>(Phase::kSelect)];
    lookahead.SetName("lookahead");
    lookahead.AnnotateU64("sets", accum.lookahead.sets);
    lookahead.AnnotateU64("candidates", accum.lookahead.candidates);
    lookahead.AnnotateU64("evaluated", accum.lookahead.evaluated);
    lookahead.AnnotateU64("duplicates", accum.lookahead.duplicates);
    ring.Push(lookahead);
  }

  ctx.have_step = true;
  ctx.step_kind = kind;
  ctx.step_index = step_index;
  ctx.step_span = step.span_id;
  ctx.step_total_ns = total_ns;
  ctx.step_accum = accum;
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

namespace {

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

void AppendHex128(std::string* out, uint64_t hi, uint64_t lo) {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  *out += buf;
}

}  // namespace

std::string SpansToChromeJson(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    if (!first) out += ",";
    first = false;
    char buf[128];
    // tid groups one trace's spans onto one track; fold 128 bits to 31 so
    // the viewer gets a small positive integer.
    const uint64_t tid = ((s.trace_hi ^ s.trace_lo) & 0x7fffffffULL) | 1;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, s.name);
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%llu,\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<unsigned long long>(tid),
                  static_cast<double>(s.start_ns) / 1000.0,
                  static_cast<double>(s.duration_ns) / 1000.0);
    out += buf;
    out += ",\"args\":{\"trace_id\":\"";
    AppendHex128(&out, s.trace_hi, s.trace_lo);
    std::snprintf(buf, sizeof(buf), "\",\"span_id\":%llu,\"parent_id\":%llu",
                  static_cast<unsigned long long>(s.span_id),
                  static_cast<unsigned long long>(s.parent_id));
    out += buf;
    for (uint8_t i = 0; i < s.num_annotations && i < kMaxSpanAnnotations; ++i) {
      out += ",\"";
      AppendJsonEscaped(&out, s.ann_key[i]);
      out += "\":\"";
      AppendJsonEscaped(&out, s.ann_value[i]);
      out += "\"";
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string JourneyChromeJson() {
  return SpansToChromeJson(Journey().Snapshot());
}

bool WriteJourneyTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = JourneyChromeJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return (std::fclose(f) == 0) && ok;
}

}  // namespace setdisc::obs
