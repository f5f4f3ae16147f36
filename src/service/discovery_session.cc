#include "service/discovery_session.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/journey.h"
#include "obs/registry.h"
#include "util/status.h"

namespace setdisc {

namespace {

obs::Counter* StepsCounter(uint8_t kind) {
  static obs::Counter* const answers =
      obs::MetricsRegistry::Default().GetCounter("setdisc_steps_total",
                                                 {{"kind", "answer"}});
  static obs::Counter* const verifies =
      obs::MetricsRegistry::Default().GetCounter("setdisc_steps_total",
                                                 {{"kind", "verify"}});
  return kind == 0 ? answers : verifies;
}

obs::Labels SessionLabels(std::string_view selector) {
  return obs::Labels{{"selector", std::string(selector)}};
}

}  // namespace

DiscoverySession::DiscoverySession(const SetCollection& collection,
                                   const InvertedIndex& index,
                                   std::span<const EntityId> initial,
                                   EntitySelector& selector,
                                   const DiscoveryOptions& options,
                                   std::vector<EntityId> recorded_questions)
    : collection_(&collection),
      selector_(&selector),
      options_(options),
      replay_(std::move(recorded_questions)) {
  const bool metrics = obs::Enabled();
  uint64_t t0 = 0;
  if (metrics) {
    // One registry lookup per session; every Record() after this is
    // lock-free. Creation already pays index scans, so the lookup noise is
    // negligible there.
    obs::Labels labels = SessionLabels(selector.name());
    step_hist_ = obs::MetricsRegistry::Default().GetHistogram(
        "setdisc_step_latency_ns", labels);
    t0 = obs::NowNanos();
  }
  // Lines 1-4: candidates are the supersets of the initial example set I.
  candidates_ = SubCollection(collection_, index.SetsContainingAll(initial));
  if (candidates_.empty()) {
    Finish();
  } else {
    Advance();
  }
  if (metrics) {
    obs::MetricsRegistry::Default()
        .GetHistogram("setdisc_create_latency_ns",
                      SessionLabels(selector.name()))
        ->Record(obs::NowNanos() - t0);
  }
}

void DiscoverySession::Advance() {
  // Lines 5-12 of Algorithm 2, one narrowing step at a time: while several
  // candidates remain, each Advance() either parks in kAwaitingAnswer with
  // the next question or finishes; SubmitAnswer() partitions and calls
  // Advance() again, which is what iterates the original inner loop.
  if (candidates_.size() > 1) {
    if (options_.max_questions >= 0 &&
        result_.questions >= options_.max_questions) {
      result_.halted = true;  // the halt condition Γ fired
      ReportCandidates(candidates_);
      Finish();
      return;
    }
    EntityId e;
    if (replay_next_ < replay_.size()) [[unlikely]] {
      // Rehydration: the question this node was asked is on record. Check
      // it before any partition uses it — a corrupt journal must fail the
      // rehydration, not index past the collection.
      e = replay_[replay_next_++];
      if (e >= collection_->universe_size() || excluded_.Test(e)) {
        replay_rejected_ = true;
        Finish();
        return;
      }
    } else {
      obs::PhaseTimer select_timer(obs::Phase::kSelect);
      e = selector_->Select(candidates_, any_excluded_ ? &excluded_ : nullptr);
    }
    if (e == kNoEntity) {
      // Every informative entity excluded: cannot narrow further (§6).
      ReportCandidates(candidates_);
      Finish();
      return;
    }
    pending_entity_ = e;
    state_ = SessionState::kAwaitingAnswer;
    return;
  }

  ReportCandidates(candidates_);
  if (!options_.verify_and_backtrack) {
    Finish();
    return;
  }
  if (candidates_.size() == 1) {
    pending_set_ = candidates_.front();
    state_ = SessionState::kAwaitingVerify;
    return;
  }
  // Degenerate: exclusions/backtracking left no candidate at all — try the
  // remaining branches of the answer tree.
  Backtrack();
}

void DiscoverySession::SubmitAnswer(Oracle::Answer answer) {
  // Step entry is the one degradation point: the level is re-read here (not
  // mid-step) so one step runs at one effort level end to end.
  ApplyEffort();
  const bool metrics = obs::Enabled() && step_hist_ != nullptr;
  if (!metrics && trace_ == nullptr && obs::CurrentJourney() == nullptr) {
    DoSubmitAnswer(answer);
    return;
  }
  const EntityId entity = pending_entity_;
  const size_t before = candidates_.size();
  obs::PhaseAccum accum;
  const uint64_t t0 = obs::NowNanos();
  {
    obs::PhaseScope scope(&accum);
    DoSubmitAnswer(answer);
  }
  RecordStep(/*kind=*/0, entity, before, obs::NowNanos() - t0, accum);
}

void DiscoverySession::DoSubmitAnswer(Oracle::Answer answer) {
  SETDISC_CHECK_MSG(state_ == SessionState::kAwaitingAnswer,
                    "SubmitAnswer outside kAwaitingAnswer");
  EntityId e = pending_entity_;
  pending_entity_ = kNoEntity;

  ++result_.questions;
  result_.transcript.emplace_back(e, answer);

  if (answer == Oracle::Answer::kDontKnow && options_.handle_dont_know) {
    excluded_.Set(e);
    any_excluded_ = true;
    Advance();  // re-select on the same candidate collection
    return;
  }
  bool yes = answer == Oracle::Answer::kYes;
  if (options_.verify_and_backtrack) {
    Frame f;
    f.before = candidates_;
    f.entity = e;
    f.answered_yes = yes;
    frames_.push_back(std::move(f));
  }
  {
    // The emit phase: partition-on-answer plus the counting-state handoff.
    obs::PhaseTimer emit_timer(obs::Phase::kEmit);
    // Derive the children's fingerprints during the partition: when a shared
    // selection cache is on, the selector just computed this view's
    // fingerprint, and the next Select() will want the survivor's; the
    // differential counting state keys its parent/child chain on them too.
    auto [in, out] = candidates_.Partition(e, /*derive_fingerprints=*/true);
    // Report the partition to the selector's counting state, handing over the
    // dropped half: the next Select() can then derive its counts from this
    // step's instead of recounting (collection/delta_counter.h).
    if (yes) {
      selector_->NotePartition(candidates_, e, /*kept_contains=*/true, in,
                               std::move(out));
      candidates_ = std::move(in);
    } else {
      selector_->NotePartition(candidates_, e, /*kept_contains=*/false, out,
                               std::move(in));
      candidates_ = std::move(out);
    }
  }
  Advance();
}

void DiscoverySession::Verify(bool confirmed) {
  ApplyEffort();
  const bool metrics = obs::Enabled() && step_hist_ != nullptr;
  if (!metrics && trace_ == nullptr && obs::CurrentJourney() == nullptr) {
    DoVerify(confirmed);
    return;
  }
  const size_t before = candidates_.size();
  obs::PhaseAccum accum;
  const uint64_t t0 = obs::NowNanos();
  {
    obs::PhaseScope scope(&accum);
    DoVerify(confirmed);
  }
  RecordStep(/*kind=*/1, kNoEntity, before, obs::NowNanos() - t0, accum);
}

void DiscoverySession::DoVerify(bool confirmed) {
  SETDISC_CHECK_MSG(state_ == SessionState::kAwaitingVerify,
                    "Verify outside kAwaitingVerify");
  SetId s = pending_set_;
  pending_set_ = kNoSet;

  if (confirmed) {
    result_.confirmed = true;
    Finish();
    return;
  }
  // §6 error recovery: the discovered set was refuted.
  rejected_.insert(s);
  Backtrack();
}

void DiscoverySession::Backtrack() {
  // The candidate view is about to jump to an ancestor state: whatever
  // counts the selector retained describe a view the session is leaving.
  selector_->InvalidateCountState();
  // Flip the most recent unflipped answer and resume on the branch opposite
  // to the (suspected erroneous) answer.
  while (!frames_.empty()) {
    Frame& f = frames_.back();
    if (f.flipped) {
      frames_.pop_back();
      continue;
    }
    f.flipped = true;
    auto [in, out] = f.before.Partition(f.entity,
                                        /*derive_fingerprints=*/false);
    SubCollection alt =
        WithoutRejected(f.answered_yes ? std::move(out) : std::move(in));
    if (alt.empty()) continue;  // nothing viable there; keep unwinding
    if (result_.backtracks >= options_.max_backtracks) {
      ReportCandidates(alt);
      Finish();
      return;
    }
    ++result_.backtracks;
    candidates_ = std::move(alt);
    Advance();
    return;
  }
  // Exhausted the answer tree without confirmation.
  Finish();
}

SubCollection DiscoverySession::WithoutRejected(SubCollection view) const {
  if (rejected_.empty()) return view;
  std::vector<SetId> ids(view.ids().begin(), view.ids().end());
  ids.erase(std::remove_if(ids.begin(), ids.end(),
                           [&](SetId s) { return rejected_.count(s) > 0; }),
            ids.end());
  return SubCollection(collection_, std::move(ids));
}

bool DiscoverySession::EndReplay() {
  const bool ok = !replay_rejected_ && replay_next_ == replay_.size();
  replay_ = {};
  replay_next_ = 0;
  return ok;
}

void DiscoverySession::EnableTracing(size_t capacity) {
  if (trace_ == nullptr) trace_ = std::make_unique<obs::TraceRing>(capacity);
}

void DiscoverySession::RecordStep(uint8_t kind, EntityId entity,
                                               size_t candidates_before,
                                               uint64_t total_ns,
                                               const obs::PhaseAccum& accum) {
  if (obs::Enabled()) {
    if (step_hist_ != nullptr) step_hist_->Record(total_ns);
    obs::RecordStepPhases(accum);
    StepsCounter(kind)->Add(1);
  }
  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.step = step_index_;
    ev.entity = entity;
    ev.kind = kind;
    ev.serve_path = accum.serve_path;
    ev.candidates_before = static_cast<uint32_t>(candidates_before);
    ev.candidates_after = static_cast<uint32_t>(candidates_.size());
    for (size_t i = 0; i < obs::kNumPhases; ++i) ev.phase_ns[i] = accum.ns[i];
    ev.total_ns = total_ns;
    trace_->Push(ev);
  }
  // Request-journey emission: when this step ran under a JourneyContext
  // (server pool job, bench harness), its span — with the phase breakdown
  // as child spans — goes into the process journey ring, parented to the
  // enclosing request span. EmitStepSpans also copies the totals back into
  // the context for the slow-step exemplar decision upstream.
  if (obs::JourneyEnabled()) {
    if (obs::JourneyContext* jc = obs::CurrentJourney()) {
      obs::EmitStepSpans(*jc, kind, step_index_, entity, total_ns, accum);
    }
  }
  ++step_index_;
}

DiscoveryResult DiscoverySession::TakeResult() {
  SETDISC_CHECK_MSG(done(), "TakeResult on an unfinished session");
  return std::move(result_);
}

}  // namespace setdisc
