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
/// One state machine, two engines. The Algorithm-2+§6 logic is implemented
/// once, as BasicDiscoverySession<Engine>; the Engine parameter supplies the
/// candidate representation and its primitive moves:
///
///   * UnshardedEngine — SubCollection candidates over one SetCollection +
///     InvertedIndex (the original DiscoverySession);
///   * ShardedEngine   — ShardedSubCollection candidates over a
///     ShardedCollection, with seeding, counting, and partition-on-answer
///     running per shard (collection/sharded_collection.h).
///
/// Because both instantiations share every line of control flow and all
/// decisions are taken on merged counts, sharded and unsharded sessions
/// produce byte-identical transcripts (tests/sharded_parity_test.cc).
/// Callers that don't care which engine runs — SessionManager, the network
/// server — step sessions through the type-erased DiscoveryEngine interface.
///
/// A session is single-conversation state: it is NOT thread-safe (neither is
/// the selector it holds). Concurrency lives one layer up, in
/// SessionManager; a sharded session may still fan one step's counting
/// across a pool internally.

#include <atomic>
#include <memory>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "collection/inverted_index.h"
#include "collection/set_collection.h"
#include "collection/sharded_collection.h"
#include "collection/sub_collection.h"
#include "core/discovery.h"
#include "core/selector.h"
#include "core/sharded_selectors.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace setdisc {

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

/// Type-erased stepping interface: everything a caller needs to drive one
/// conversation, independent of which engine (unsharded or sharded) runs the
/// candidate state underneath. All ids exposed here — questions, verify
/// sets, result candidates — are global.
class DiscoveryEngine {
 public:
  virtual ~DiscoveryEngine() = default;

  virtual SessionState state() const = 0;
  bool done() const { return state() == SessionState::kFinished; }

  /// The entity of the pending question. Only valid in kAwaitingAnswer
  /// (returns kNoEntity otherwise).
  virtual EntityId NextQuestion() const = 0;

  /// The single remaining candidate awaiting confirmation. Only valid in
  /// kAwaitingVerify (returns kNoSet otherwise).
  virtual SetId PendingVerify() const = 0;

  /// Answers the pending question (state must be kAwaitingAnswer) and
  /// advances: partitions the candidates — or, for kDontKnow under
  /// options.handle_dont_know, excludes the entity and re-selects on the
  /// same candidates (§6) — then picks the next question or finishes.
  virtual void SubmitAnswer(Oracle::Answer answer) = 0;

  /// Resolves the pending verification (state must be kAwaitingVerify).
  /// `confirmed` = true ends the session confirmed; false triggers §6
  /// backtracking: the most recent unflipped answer is flipped and the
  /// session resumes on the alternative branch (or finishes when the answer
  /// tree or the flip budget is exhausted).
  virtual void Verify(bool confirmed) = 0;

  /// Live view of the result so far (questions, transcript, candidates...).
  /// Fully populated once done().
  virtual const DiscoveryResult& result() const = 0;

  /// Moves the result out; the session must be done().
  virtual DiscoveryResult TakeResult() = 0;

  /// Number of candidate sets still standing.
  virtual size_t num_candidates() const = 0;

  virtual const DiscoveryOptions& options() const = 0;

  /// Turns on the per-step TraceEvent journal: the next `capacity` completed
  /// steps (overwrite-oldest past that) are recorded with phase latencies
  /// and serve paths. Steps taken before the call are not traced. Off by
  /// default; default implementation ignores the request.
  virtual void EnableTracing(size_t capacity) { (void)capacity; }

  /// The trace ring, or nullptr when tracing is off. Reading it while
  /// another thread steps the session is a race — callers serialize via
  /// whatever serializes steps (SessionManager's entry mutex).
  virtual const obs::TraceRing* trace() const { return nullptr; }

  /// Load-adaptive degradation: points the session at a live effort level
  /// (service/load_controller.h writes it, SessionManager owns the cell).
  /// Each step re-reads the cell on entry and forwards changes to the
  /// selector's SetEffort, so degradation and recovery take effect on the
  /// very next step of every session without per-session bookkeeping.
  /// nullptr (the default) pins full effort. The cell must outlive the
  /// session. Default implementation ignores the request.
  virtual void SetEffortSource(const std::atomic<int>* source) {
    (void)source;
  }

  /// Ends the replay of recorded questions a rehydrated session was built
  /// with (BasicDiscoverySession's replay constructor): later selections
  /// call the selector. Returns false when a recorded question was rejected
  /// or some were never reached — the journal does not describe this
  /// conversation. A session built without recorded questions returns true.
  virtual bool EndReplay() { return true; }
};

/// Engine over one flat SetCollection: the candidate view is a
/// SubCollection of global ids. A plain struct of borrowed pointers; the
/// collection and index must outlive the session.
struct UnshardedEngine {
  using View = SubCollection;
  using Selector = EntitySelector;

  const SetCollection* collection = nullptr;
  const InvertedIndex* index = nullptr;

  View Initial(std::span<const EntityId> initial) const {
    return View(collection, index->SetsContainingAll(initial));
  }
  std::pair<View, View> Partition(const View& view, EntityId e,
                                  bool derive_fingerprints) const {
    return view.Partition(e, derive_fingerprints);
  }
  void AppendGlobal(const View& view, std::vector<SetId>* out) const {
    out->assign(view.ids().begin(), view.ids().end());
  }
  SetId Front(const View& view) const { return view.front(); }
  View Filter(View view, const std::unordered_set<SetId>& rejected) const;
  size_t NumShards() const { return 1; }
  EntityId UniverseSize() const { return collection->universe_size(); }
};

/// Engine over a ShardedCollection: the candidate view keeps one
/// SubCollection per shard, and seeding / partition-on-answer run per shard
/// (optionally fanned across `pool`). The sharded collection must outlive
/// the session.
struct ShardedEngine {
  using View = ShardedSubCollection;
  using Selector = ShardedEntitySelector;

  const ShardedCollection* collection = nullptr;
  ThreadPool* pool = nullptr;

  View Initial(std::span<const EntityId> initial) const {
    return collection->SetsContainingAll(initial);
  }
  std::pair<View, View> Partition(const View& view, EntityId e,
                                  bool derive_fingerprints) const {
    return view.Partition(e, derive_fingerprints, pool);
  }
  void AppendGlobal(const View& view, std::vector<SetId>* out) const {
    out->clear();
    view.AppendGlobalIds(out);
  }
  SetId Front(const View& view) const { return view.FrontGlobal(); }
  View Filter(View view, const std::unordered_set<SetId>& rejected) const;
  size_t NumShards() const { return collection->num_shards(); }
  EntityId UniverseSize() const { return collection->base().universe_size(); }
};

/// The Algorithm 2 + §6 state machine, written once over an Engine.
template <typename Engine>
class BasicDiscoverySession : public DiscoveryEngine {
 public:
  using View = typename Engine::View;
  using Selector = typename Engine::Selector;

  /// Starts a session: filters candidates to the supersets of `initial`
  /// (Algorithm 2 lines 1-4, per shard under ShardedEngine) and selects the
  /// first question. The engine's referents and the selector must outlive
  /// the session; the selector must not be shared with a concurrently
  /// stepping session.
  ///
  /// Rehydration passes `recorded_questions` (session_store.h's
  /// RecordedQuestions): the questions the original conversation was asked,
  /// in order. Until EndReplay(), each point where the narrowing loop would
  /// call Select() takes the next recorded question instead, once the
  /// question is checked to name an entity of the collection that is not
  /// excluded; a rejected question finishes the session and fails
  /// EndReplay(). The selector still sees every partition (NotePartition),
  /// and is called only when the list runs out.
  BasicDiscoverySession(Engine engine, std::span<const EntityId> initial,
                        Selector& selector, const DiscoveryOptions& options,
                        std::vector<EntityId> recorded_questions = {});

  BasicDiscoverySession(BasicDiscoverySession&&) = default;
  BasicDiscoverySession& operator=(BasicDiscoverySession&&) = default;

  SessionState state() const override { return state_; }

  EntityId NextQuestion() const override {
    return state_ == SessionState::kAwaitingAnswer ? pending_entity_
                                                   : kNoEntity;
  }

  SetId PendingVerify() const override {
    return state_ == SessionState::kAwaitingVerify ? pending_set_ : kNoSet;
  }

  void SubmitAnswer(Oracle::Answer answer) override;
  void Verify(bool confirmed) override;

  const DiscoveryResult& result() const override { return result_; }
  DiscoveryResult TakeResult() override;

  size_t num_candidates() const override { return candidates_.size(); }

  const DiscoveryOptions& options() const override { return options_; }

  void EnableTracing(size_t capacity) override;
  const obs::TraceRing* trace() const override { return trace_.get(); }

  void SetEffortSource(const std::atomic<int>* source) override {
    effort_source_ = source;
    ApplyEffort();
  }

  bool EndReplay() override;

 private:
  /// One answered question: the candidate view before it, the entity asked,
  /// and the branch taken. Kept for §6 backtracking.
  struct Frame {
    View before;
    EntityId entity;
    bool answered_yes;
    bool flipped = false;
  };

  /// Runs the narrowing loop (Algorithm 2 lines 5-12) until it needs outside
  /// input: stops in kAwaitingAnswer with a selected question, in
  /// kAwaitingVerify with a single candidate, or in kFinished.
  void Advance();

  /// §6 error recovery after a rejected verification: flip the most recent
  /// unflipped answer and resume, or finish when nothing viable remains.
  void Backtrack();

  void Finish() { state_ = SessionState::kFinished; }

  /// The uninstrumented step bodies; the public SubmitAnswer/Verify wrap
  /// them with the step timer, phase scope, and trace capture when metrics
  /// or tracing are on (and are plain calls when both are off).
  void DoSubmitAnswer(Oracle::Answer answer);
  void DoVerify(bool confirmed);

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

  Engine engine_;
  Selector* selector_;
  DiscoveryOptions options_;

  SessionState state_ = SessionState::kFinished;
  View candidates_;
  EntityId pending_entity_ = kNoEntity;
  SetId pending_set_ = kNoSet;

  EntityExclusion excluded_;  // §6 "don't know" entities
  bool any_excluded_ = false;
  std::unordered_set<SetId> rejected_;  // sets refuted during verification
  std::vector<Frame> frames_;

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
  /// setdisc_step_latency_ns{selector, shards} — resolved once at
  /// construction (null when metrics were disabled then).
  obs::Histogram* step_hist_ = nullptr;
  uint32_t step_index_ = 0;
};

extern template class BasicDiscoverySession<UnshardedEngine>;
extern template class BasicDiscoverySession<ShardedEngine>;

/// One interactive discovery conversation over a flat collection, advanced
/// step by step — the engine `Discover()` and the unsharded SessionManager
/// path drive.
class DiscoverySession : public BasicDiscoverySession<UnshardedEngine> {
 public:
  DiscoverySession(const SetCollection& collection, const InvertedIndex& index,
                   std::span<const EntityId> initial, EntitySelector& selector,
                   const DiscoveryOptions& options = {},
                   std::vector<EntityId> recorded_questions = {})
      : BasicDiscoverySession(UnshardedEngine{&collection, &index}, initial,
                              selector, options,
                              std::move(recorded_questions)) {}
};

/// The same conversation over a sharded collection: candidate seeding,
/// counting, and partition-on-answer run per shard (fanned across `pool`
/// when given), transcripts stay byte-identical to DiscoverySession.
class ShardedDiscoverySession : public BasicDiscoverySession<ShardedEngine> {
 public:
  ShardedDiscoverySession(const ShardedCollection& collection,
                          std::span<const EntityId> initial,
                          ShardedEntitySelector& selector,
                          const DiscoveryOptions& options = {},
                          ThreadPool* pool = nullptr,
                          std::vector<EntityId> recorded_questions = {})
      : BasicDiscoverySession(ShardedEngine{&collection, pool}, initial,
                              selector, options,
                              std::move(recorded_questions)) {}
};

}  // namespace setdisc
