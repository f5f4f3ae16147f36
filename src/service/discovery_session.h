#pragma once

/// \file discovery_session.h
/// Algorithm 2 as a resumable state machine.
///
/// The library's original `Discover()` is a blocking loop: it calls the
/// Oracle inline and holds its thread until the session ends. A serving
/// engine needs the inverse shape — the *caller* owns the conversation and
/// the engine exposes one step at a time:
///
///   DiscoverySession s(collection, index, initial, selector, options);
///   while (!s.done()) {
///     switch (s.state()) {
///       case SessionState::kAwaitingAnswer:
///         s.SubmitAnswer(AnswerFromUser(s.NextQuestion()));
///         break;
///       case SessionState::kAwaitingVerify:
///         s.Verify(UserConfirms(s.PendingVerify()));
///         break;
///       default: break;
///     }
///   }
///   DiscoveryResult r = s.TakeResult();
///
/// The state machine preserves the §6 semantics exactly — "don't know"
/// exclusion with re-selection, and verification/backtracking with answer
/// flips — and `Discover()` is now a thin wrapper that drives a session
/// against an Oracle, so the two cannot diverge.
///
/// A session is single-conversation state: it is NOT thread-safe (neither is
/// the selector it holds). Concurrency lives one layer up, in
/// SessionManager.

#include <atomic>
#include <memory>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "collection/inverted_index.h"
#include "collection/set_collection.h"
#include "collection/sub_collection.h"
#include "core/discovery.h"
#include "core/selector.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace setdisc {

class CachingSelector;

/// Where a session currently stands.
enum class SessionState {
  /// A membership question is pending: read it with NextQuestion(), answer
  /// with SubmitAnswer().
  kAwaitingAnswer,
  /// A single candidate remains and options.verify_and_backtrack is on:
  /// read it with PendingVerify(), resolve with Verify().
  kAwaitingVerify,
  /// The session is over; TakeResult()/result() hold the outcome.
  kFinished,
};


/// One interactive discovery conversation over a SetCollection + its
/// InvertedIndex, advanced step by step — the engine `Discover()`,
/// SessionManager, and the network server drive.
class DiscoverySession {
 public:
  /// One answer's effect computed before any state changes: the partition of
  /// the candidates on the answered entity. TrySubmitAnswerWithoutSelect
  /// hands one back when it declines a step; SubmitAnswer reuses it iff the
  /// session has not moved since (same session, same step, same answer) and
  /// recomputes otherwise. Opaque; copyable so it can ride in a
  /// std::function.
  class PreparedAnswer {
   private:
    friend class DiscoverySession;
    const DiscoverySession* owner_ = nullptr;
    uint64_t step_ = 0;  ///< the session's applied steps when prepared
    EntityId entity_ = kNoEntity;
    Oracle::Answer answer_ = Oracle::Answer::kNo;
    bool exclude_ = false;  ///< §6 don't-know: excludes, no partition
    bool kept_contains_ = false;
    SubCollection kept_;
    SubCollection dropped_;
    /// The preparation's own instrumented time, charged to the step that
    /// reuses it.
    obs::PhaseAccum accum_;
    uint64_t ns_ = 0;
  };

  /// Starts a session: filters candidates to the supersets of `initial`
  /// (Algorithm 2 lines 1-4) and selects the first question. The collection,
  /// index, and selector must outlive the session; the selector must not be
  /// shared with a concurrently stepping session.
  ///
  /// Rehydration passes `recorded_questions` (session_store.h's
  /// RecordedQuestions): the questions the original conversation was asked,
  /// in order. Until EndReplay(), each point where the narrowing loop would
  /// call Select() takes the next recorded question instead, once the
  /// question is checked to name an entity of the collection that is not
  /// excluded; a rejected question finishes the session and fails
  /// EndReplay(). The selector still sees every partition (NotePartition),
  /// and is called only when the list runs out.
  DiscoverySession(const SetCollection& collection, const InvertedIndex& index,
                   std::span<const EntityId> initial, EntitySelector& selector,
                   const DiscoveryOptions& options = {},
                   std::vector<EntityId> recorded_questions = {});

  DiscoverySession(DiscoverySession&&) = default;
  DiscoverySession& operator=(DiscoverySession&&) = default;

  SessionState state() const { return state_; }
  bool done() const { return state_ == SessionState::kFinished; }

  /// The entity of the pending question. Only valid in kAwaitingAnswer
  /// (returns kNoEntity otherwise).
  EntityId NextQuestion() const {
    return state_ == SessionState::kAwaitingAnswer ? pending_entity_
                                                   : kNoEntity;
  }

  /// The single remaining candidate awaiting confirmation. Only valid in
  /// kAwaitingVerify (returns kNoSet otherwise).
  SetId PendingVerify() const {
    return state_ == SessionState::kAwaitingVerify ? pending_set_ : kNoSet;
  }

  /// Answers the pending question (state must be kAwaitingAnswer) and
  /// advances: partitions the candidates — or, for kDontKnow under
  /// options.handle_dont_know, excludes the entity and re-selects on the
  /// same candidates (§6) — then picks the next question or finishes.
  /// `prepared`, when given and still current, supplies the partition.
  void SubmitAnswer(Oracle::Answer answer, PreparedAnswer* prepared = nullptr);

  /// SubmitAnswer, but only if the step makes no selection: the state after
  /// the answer needs none (at most one candidate, the question budget
  /// spent, or a verification), or `memo` — this session's own selector —
  /// can serve the decision it needs from its cache. A §6 don't-know that re-selects is never served here (its
  /// exclusion mask does not exist yet). Returns true when the step was
  /// applied — instrumented like SubmitAnswer. Returns false with the
  /// session untouched (bar the live effort level, applied at entry like
  /// any step's) and `*prepared` holding the partition it computed. State
  /// must be kAwaitingAnswer.
  bool TrySubmitAnswerWithoutSelect(Oracle::Answer answer,
                                    CachingSelector& memo,
                                    PreparedAnswer* prepared);

  /// Resolves the pending verification (state must be kAwaitingVerify).
  /// `confirmed` = true ends the session confirmed; false triggers §6
  /// backtracking: the most recent unflipped answer is flipped and the
  /// session resumes on the alternative branch (or finishes when the answer
  /// tree or the flip budget is exhausted).
  void Verify(bool confirmed);

  /// Live view of the result so far (questions, transcript, candidates...).
  /// Fully populated once done().
  const DiscoveryResult& result() const { return result_; }

  /// Moves the result out; the session must be done().
  DiscoveryResult TakeResult();

  /// Number of candidate sets still standing.
  size_t num_candidates() const { return candidates_.size(); }

  const DiscoveryOptions& options() const { return options_; }

  /// Turns on the per-step TraceEvent journal: the next `capacity` completed
  /// steps (overwrite-oldest past that) are recorded with phase latencies
  /// and serve paths. Steps taken before the call are not traced. Off by
  /// default.
  void EnableTracing(size_t capacity);

  /// The trace ring, or nullptr when tracing is off. Reading it while
  /// another thread steps the session is a race — callers serialize via
  /// whatever serializes steps (SessionManager's entry mutex).
  const obs::TraceRing* trace() const { return trace_.get(); }

  /// Load-adaptive degradation: points the session at a live effort level
  /// (service/load_controller.h writes it, SessionManager owns the cell).
  /// Each step re-reads the cell on entry and forwards changes to the
  /// selector's SetEffort, so degradation and recovery take effect on the
  /// very next step of every session without per-session bookkeeping.
  /// nullptr (the default) pins full effort. The cell must outlive the
  /// session.
  void SetEffortSource(const std::atomic<int>* source) {
    effort_source_ = source;
    ApplyEffort();
  }

  /// Ends the replay of recorded questions the session was built with (see
  /// the constructor): later selections call the selector. Returns false
  /// when a recorded question was rejected or some were never reached — the
  /// journal does not describe this conversation. A session built without
  /// recorded questions returns true.
  bool EndReplay();

 private:
  /// One answered question: the candidates before it, the entity asked,
  /// and the branch taken. Kept for §6 backtracking.
  struct Frame {
    SubCollection before;
    EntityId entity;
    bool answered_yes;
    bool flipped = false;
  };

  /// Runs the narrowing loop (Algorithm 2 lines 5-12) until it needs outside
  /// input: stops in kAwaitingAnswer with a selected question, in
  /// kAwaitingVerify with a single candidate, or in kFinished. `chosen`, when
  /// given, is the decision the selector would make here (a memo hit) and
  /// stands in for the Select() call.
  void Advance(const EntityId* chosen = nullptr);

  /// §6 error recovery after a rejected verification: flip the most recent
  /// unflipped answer and resume, or finish when nothing viable remains.
  void Backtrack();

  void Finish() { state_ = SessionState::kFinished; }

  /// Copies `view`'s set ids into the result's candidates.
  void ReportCandidates(const SubCollection& view) {
    result_.candidates.assign(view.ids().begin(), view.ids().end());
  }

  /// `view` without the sets refuted during verification.
  SubCollection WithoutRejected(SubCollection view) const;

  /// The uninstrumented step bodies; the public SubmitAnswer/Verify wrap
  /// them with the step timer, phase scope, and trace capture when metrics
  /// or tracing are on (and are plain calls when both are off). An answer
  /// is Prepare (no state change) then Apply.
  PreparedAnswer Prepare(Oracle::Answer answer) const;
  void Apply(PreparedAnswer step, const EntityId* chosen = nullptr);
  bool DoTrySubmitAnswer(Oracle::Answer answer, CachingSelector& memo,
                         PreparedAnswer* prepared);
  void DoVerify(bool confirmed);

  /// True when `p` was prepared by this session at its current step for
  /// `answer`.
  bool IsCurrent(const PreparedAnswer& p, Oracle::Answer answer) const {
    return p.owner_ == this && p.step_ == applied_steps_ &&
           p.entity_ == pending_entity_ && p.answer_ == answer;
  }

  /// True when the narrowing after `step` may call the selector.
  bool SelectsAfter(const PreparedAnswer& step) const;

  /// Whether a step is timed and recorded (metrics, tracing, or a journey).
  bool Instrumented() const;

  /// Records one completed step: the step-latency histogram, the per-phase
  /// histograms, and (when tracing) a TraceEvent.
  void RecordStep(uint8_t kind, EntityId entity, size_t candidates_before,
                  uint64_t total_ns, const obs::PhaseAccum& accum);

  /// Forwards the current effort level to the selector iff it changed since
  /// the last step — at steady level (including the idle 0) this is one
  /// relaxed load and a compare, so the undegraded path stays byte- and
  /// cost-identical to a session with no source.
  void ApplyEffort() {
    if (effort_source_ == nullptr) return;
    const int level = effort_source_->load(std::memory_order_relaxed);
    if (level != applied_effort_) {
      selector_->SetEffort(level);
      applied_effort_ = level;
    }
  }

  const SetCollection* collection_;
  EntitySelector* selector_;
  DiscoveryOptions options_;

  SessionState state_ = SessionState::kFinished;
  SubCollection candidates_;
  EntityId pending_entity_ = kNoEntity;
  SetId pending_set_ = kNoSet;

  EntityExclusion excluded_;  // §6 "don't know" entities
  bool any_excluded_ = false;
  std::unordered_set<SetId> rejected_;  // sets refuted during verification
  std::vector<Frame> frames_;
  /// Answers and verifications applied so far: what ties a PreparedAnswer
  /// to the step it was computed for.
  uint64_t applied_steps_ = 0;

  /// Recorded questions still to replay (see the constructor); empty for
  /// live sessions and once EndReplay() ran.
  std::vector<EntityId> replay_;
  size_t replay_next_ = 0;
  bool replay_rejected_ = false;

  DiscoveryResult result_;

  /// Live degradation level (see SetEffortSource); null pins full effort.
  const std::atomic<int>* effort_source_ = nullptr;
  int applied_effort_ = 0;

  /// Per-session step TraceEvent journal; null unless EnableTracing() ran.
  std::unique_ptr<obs::TraceRing> trace_;
  /// setdisc_step_latency_ns{selector} — resolved once at construction
  /// (null when metrics were disabled then).
  obs::Histogram* step_hist_ = nullptr;
  uint32_t step_index_ = 0;
};

}  // namespace setdisc
