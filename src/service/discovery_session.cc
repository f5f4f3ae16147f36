#include "service/discovery_session.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/journey.h"
#include "obs/registry.h"
#include "service/selection_cache.h"
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

void DiscoverySession::Advance(const EntityId* chosen) {
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
    if (chosen != nullptr) {
      e = *chosen;
    } else if (replay_next_ < replay_.size()) [[unlikely]] {
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

bool DiscoverySession::Instrumented() const {
  return (obs::Enabled() && step_hist_ != nullptr) || trace_ != nullptr ||
         obs::CurrentJourney() != nullptr;
}

void DiscoverySession::SubmitAnswer(Oracle::Answer answer,
                                    PreparedAnswer* prepared) {
  // Step entry is the one degradation point: the level is re-read here (not
  // mid-step) so one step runs at one effort level end to end.
  ApplyEffort();
  SETDISC_CHECK_MSG(state_ == SessionState::kAwaitingAnswer,
                    "SubmitAnswer outside kAwaitingAnswer");
  // A preparation from before the session last moved describes another
  // step: recompute.
  if (prepared != nullptr && !IsCurrent(*prepared, answer)) prepared = nullptr;
  auto step = [&] {
    return prepared != nullptr ? std::move(*prepared) : Prepare(answer);
  };
  if (!Instrumented()) {
    Apply(step());
    return;
  }
  const EntityId entity = pending_entity_;
  const size_t before = candidates_.size();
  obs::PhaseAccum accum =
      prepared != nullptr ? prepared->accum_ : obs::PhaseAccum{};
  const uint64_t carried_ns = prepared != nullptr ? prepared->ns_ : 0;
  const uint64_t t0 = obs::NowNanos();
  {
    obs::PhaseScope scope(&accum);
    Apply(step());
  }
  RecordStep(/*kind=*/0, entity, before, carried_ns + obs::NowNanos() - t0,
             accum);
}

bool DiscoverySession::TrySubmitAnswerWithoutSelect(Oracle::Answer answer,
                                                    CachingSelector& memo,
                                                    PreparedAnswer* prepared) {
  ApplyEffort();
  SETDISC_CHECK_MSG(state_ == SessionState::kAwaitingAnswer,
                    "SubmitAnswer outside kAwaitingAnswer");
  if (!Instrumented()) return DoTrySubmitAnswer(answer, memo, prepared);
  const EntityId entity = pending_entity_;
  const size_t before = candidates_.size();
  obs::PhaseAccum accum;
  const uint64_t t0 = obs::NowNanos();
  bool applied;
  {
    obs::PhaseScope scope(&accum);
    applied = DoTrySubmitAnswer(answer, memo, prepared);
  }
  const uint64_t ns = obs::NowNanos() - t0;
  if (applied) {
    RecordStep(/*kind=*/0, entity, before, ns, accum);
  } else {
    prepared->accum_ = accum;
    prepared->ns_ = ns;
  }
  return applied;
}

bool DiscoverySession::DoTrySubmitAnswer(Oracle::Answer answer,
                                         CachingSelector& memo,
                                         PreparedAnswer* prepared) {
  PreparedAnswer step = Prepare(answer);
  if (!SelectsAfter(step)) {
    Apply(std::move(step));
    return true;
  }
  EntityId next = kNoEntity;
  bool hit = false;
  if (!step.exclude_) {
    obs::PhaseTimer select_timer(obs::Phase::kSelect);
    hit = memo.TrySelectCached(step.kept_,
                               any_excluded_ ? &excluded_ : nullptr, &next);
  }
  if (!hit) {
    *prepared = std::move(step);
    return false;
  }
  Apply(std::move(step), &next);
  return true;
}

bool DiscoverySession::SelectsAfter(const PreparedAnswer& step) const {
  const size_t n = step.exclude_ ? candidates_.size() : step.kept_.size();
  if (n > 1) {
    // Advance's order: the halt condition, then a recorded question, then
    // the selector.
    if (options_.max_questions >= 0 &&
        result_.questions + 1 >= options_.max_questions) {
      return false;
    }
    return replay_next_ >= replay_.size();
  }
  // One candidate verifies or finishes; none finishes, or under
  // verification backtracks, which may select.
  return n == 0 && options_.verify_and_backtrack;
}

DiscoverySession::PreparedAnswer DiscoverySession::Prepare(
    Oracle::Answer answer) const {
  PreparedAnswer step;
  step.owner_ = this;
  step.step_ = applied_steps_;
  step.entity_ = pending_entity_;
  step.answer_ = answer;
  step.exclude_ =
      answer == Oracle::Answer::kDontKnow && options_.handle_dont_know;
  if (!step.exclude_) {
    // The emit phase's first half: partition-on-answer. Derive the
    // children's fingerprints during the partition: when a shared selection
    // cache is on, the selector just computed this view's fingerprint, and
    // the next Select() will want the survivor's; the differential counting
    // state keys its parent/child chain on them too.
    obs::PhaseTimer emit_timer(obs::Phase::kEmit);
    auto [in, out] = candidates_.Partition(step.entity_,
                                           /*derive_fingerprints=*/true);
    step.kept_contains_ = answer == Oracle::Answer::kYes;
    step.kept_ = std::move(step.kept_contains_ ? in : out);
    step.dropped_ = std::move(step.kept_contains_ ? out : in);
  }
  return step;
}

void DiscoverySession::Apply(PreparedAnswer step, const EntityId* chosen) {
  const EntityId e = step.entity_;
  pending_entity_ = kNoEntity;
  ++applied_steps_;
  ++result_.questions;
  result_.transcript.emplace_back(e, step.answer_);

  if (step.exclude_) {
    excluded_.Set(e);
    any_excluded_ = true;
    Advance(chosen);  // re-select on the same candidate collection
    return;
  }
  if (options_.verify_and_backtrack) {
    Frame f;
    f.before = candidates_;
    f.entity = e;
    f.answered_yes = step.kept_contains_;
    frames_.push_back(std::move(f));
  }
  {
    // The emit phase's second half: report the partition to the selector's
    // counting state, handing over the dropped half: the next Select() can
    // then derive its counts from this step's instead of recounting
    // (collection/delta_counter.h).
    obs::PhaseTimer emit_timer(obs::Phase::kEmit);
    selector_->NotePartition(candidates_, e, step.kept_contains_, step.kept_,
                             std::move(step.dropped_));
    candidates_ = std::move(step.kept_);
  }
  Advance(chosen);
}

void DiscoverySession::Verify(bool confirmed) {
  ApplyEffort();
  if (!Instrumented()) {
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
  ++applied_steps_;

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
