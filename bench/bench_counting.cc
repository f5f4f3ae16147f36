// Differential counting (collection/delta_counter.h): full-recount vs
// delta-derived per-step latency and session throughput.
//
// Every discovery step narrows the candidate set by Partition(e), and
// counts(C2) = counts(C) - counts(C1) exactly — so a step's counting pass
// can derive instead of rescan: the k-LP lookahead counts both children of
// every candidate from one dense scan of the smaller half, the candidate it
// chooses seeds the next step's top-level counts outright (making that
// count a free re-emit), and §6 don't-know re-selection re-emits without
// touching the collection at all. This bench drives full simulated
// conversations over the paper's §5.2.1 workload — seed-pair initial
// examples over a web-tables corpus — twice per configuration: selectors
// built with differential counting off (the recount-from-scratch baseline)
// and on. Transcript parity between the two modes is asserted inline: a
// bench that silently measured two different conversations would be
// meaningless (and the CI smoke relies on the abort). The MostEven, 2-LP
// and Weighted-2-LP rows also carry fresh_first_us: the median first
// question of a newly built selector, which the reused selectors of the
// per-step columns never pay. The manager sessions/sec section runs in a
// forked child process, so the per-step rows before it cannot move it.
//
// --json prints the machine-readable document to stdout (tables go to
// stderr); the committed BENCH_counting.json is this bench's output at
// paper scale, the baseline future PRs trend against.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/selectors.h"
#include "core/weighted.h"
#include "core/weighted_klp.h"
#include "service/discovery_session.h"
#include "service/session_manager.h"
#include "util/rng.h"

namespace setdisc::bench {
namespace {

using Transcript = std::vector<std::pair<EntityId, Oracle::Answer>>;

struct ModeSpec {
  std::string name;
  std::function<std::unique_ptr<EntitySelector>(bool differential)> make;
  /// Memo clear between conversations (null = stateless between them).
  std::function<void(EntitySelector&)> reset;
  /// Also time a fresh selector's first question (the fresh_first_us column).
  bool fresh_first = false;
};

std::vector<ModeSpec> CountingStrategies(const std::vector<double>* weights) {
  auto klp_options = [](bool differential) {
    KlpOptions o = KlpOptions::MakeKlp(2, CostMetric::kAvgDepth);
    o.enable_delta_counting = differential;
    return o;
  };
  auto wklp_options = [](bool differential) {
    WeightedKlpOptions o;
    o.k = 2;
    o.enable_delta_counting = differential;
    return o;
  };
  return {
      {"MostEven",
       [](bool d) { return std::make_unique<MostEvenSelector>(d); }, nullptr,
       /*fresh_first=*/true},
      {"InfoGain",
       [](bool d) { return std::make_unique<InfoGainSelector>(d); }, nullptr},
      {"2-LP",
       [klp_options](bool d) {
         return std::make_unique<KlpSelector>(klp_options(d));
       },
       [](EntitySelector& s) { static_cast<KlpSelector&>(s).ClearCache(); },
       /*fresh_first=*/true},
      // §7 weighted configurations: same conversations, prior-aware
      // decisions.
      {"WeightedMostEven",
       [weights](bool d) {
         return std::make_unique<WeightedMostEvenSelector>(weights, d);
       },
       nullptr},
      {"Weighted-2-LP",
       [weights, wklp_options](bool d) {
         return std::make_unique<WeightedKlpSelector>(weights,
                                                      wklp_options(d));
       },
       [](EntitySelector& s) {
         static_cast<WeightedKlpSelector&>(s).ClearCache();
       },
       /*fresh_first=*/true},
  };
}

/// One selector mode's session maker plus its between-conversation reset.
struct Runner {
  std::function<DiscoverySession(std::span<const EntityId> initial)>
      make_session;
  std::function<void()> reset;
};

/// One conversation per seed-pair sub-collection: initial examples {a, b},
/// target a member set, driven to completion. One selector per mode is
/// reused across all of them — the steady state of a serving session slot —
/// and the k-LP memo is cleared between conversations so the uncached
/// counting cost is what gets measured (memo hits skip counting in both
/// modes identically). Appends the conversation's transcript, its wall time
/// and every step's time: session creation (the first question) and each
/// answered step.
void RunConversation(const SetCollection& c, const SeedPairEntry& entry,
                     size_t i, double dont_know_rate, const Runner& runner,
                     std::vector<Transcript>* transcripts,
                     std::vector<double>* step_us, double* seconds) {
  SetId target = entry.set_ids[(i * 7919 + 13) % entry.set_ids.size()];
  SimulatedOracle oracle(&c, target, 0.0, dont_know_rate, /*seed=*/1000 + i);
  std::vector<EntityId> initial = {entry.a, entry.b};
  WallTimer total;
  WallTimer step;
  DiscoverySession session = runner.make_session(initial);
  step_us->push_back(step.Seconds() * 1e6);
  while (!session.done()) {
    const Oracle::Answer answer = oracle.AskMembership(session.NextQuestion());
    step.Reset();
    session.SubmitAnswer(answer);
    step_us->push_back(step.Seconds() * 1e6);
  }
  *seconds = total.Seconds();
  transcripts->push_back(session.TakeResult().transcript);
  runner.reset();
}

/// Full-recount vs delta for one row, interleaved per conversation (the
/// order alternates), so a slow phase of the host lands on both modes
/// instead of on whichever ran second. The speedup is the median of the
/// paired per-conversation ratios; the us/step columns are the plain means.
struct PairedTiming {
  double full_us_per_step = 0.0;
  double delta_us_per_step = 0.0;
  double full_p99_us = 0.0;
  double delta_p99_us = 0.0;
  double speedup = 0.0;
  size_t steps = 0;
};

PairedTiming RunPaired(const SetCollection& c,
                       const std::vector<SeedPairEntry>& subs,
                       double dont_know_rate, const Runner& full,
                       const Runner& delta,
                       std::vector<Transcript>* full_transcripts,
                       std::vector<Transcript>* delta_transcripts) {
  // Warm each mode's scratch (and fault in the corpus) outside the timing.
  {
    std::vector<Transcript> warmup;
    std::vector<double> unused;
    double seconds = 0.0;
    RunConversation(c, subs.front(), 0, dont_know_rate, full, &warmup,
                    &unused, &seconds);
    RunConversation(c, subs.front(), 0, dont_know_rate, delta, &warmup,
                    &unused, &seconds);
  }
  PairedTiming t;
  std::vector<double> full_steps, delta_steps, ratios;
  double full_total = 0.0, delta_total = 0.0;
  for (size_t i = 0; i < subs.size(); ++i) {
    double full_s = 0.0, delta_s = 0.0;
    for (int leg = 0; leg < 2; ++leg) {
      if ((leg == 0) == (i % 2 == 0)) {
        RunConversation(c, subs[i], i, dont_know_rate, full, full_transcripts,
                        &full_steps, &full_s);
      } else {
        RunConversation(c, subs[i], i, dont_know_rate, delta,
                        delta_transcripts, &delta_steps, &delta_s);
      }
    }
    full_total += full_s;
    delta_total += delta_s;
    ratios.push_back(full_s / delta_s);
    t.steps += delta_transcripts->back().size();
  }
  t.full_us_per_step = full_total * 1e6 / static_cast<double>(t.steps);
  t.delta_us_per_step = delta_total * 1e6 / static_cast<double>(t.steps);
  t.full_p99_us = Percentile(std::move(full_steps), 99);
  t.delta_p99_us = Percentile(std::move(delta_steps), 99);
  t.speedup = Percentile(std::move(ratios), 50);
  return t;
}

/// Median time to a fresh session's first question. Per conversation it
/// builds a new (differential) selector and a session on it, whose
/// constructor runs the first Select(), as SessionManager::Create serves a
/// new session. The per-step columns reuse one warm selector per mode, so
/// they never see what a new selector's first count costs (its scratch
/// allocation and page faults).
double FreshFirstQuestionUs(const SetCollection& c, const InvertedIndex& idx,
                            const std::vector<SeedPairEntry>& subs,
                            const DiscoveryOptions& options,
                            const ModeSpec& spec) {
  std::vector<double> us;
  for (const SeedPairEntry& entry : subs) {
    const std::vector<EntityId> initial = {entry.a, entry.b};
    WallTimer timer;
    std::unique_ptr<EntitySelector> selector = spec.make(/*differential=*/true);
    DiscoverySession session(c, idx, initial, *selector, options);
    us.push_back(timer.Seconds() * 1e6);
  }
  return Percentile(std::move(us), 50);
}

void RequireParity(const std::vector<Transcript>& full,
                   const std::vector<Transcript>& delta,
                   const std::string& where) {
  if (full == delta) return;
  std::cerr << "FATAL: delta/full transcript divergence in " << where
            << " — differential counting changed a decision\n";
  std::abort();
}

}  // namespace
}  // namespace setdisc::bench

int main(int argc, char** argv) {
  using namespace setdisc;
  using namespace setdisc::bench;

  JsonReport report("counting", HasFlag(argc, argv, "--json"));
  std::ostream& out = report.text();
  Banner("counting", "differential vs full-recount counting", out);

  const int num_conversations = ScalePick<int>(12, 24, 48);
  const SetCollection corpus = MakeWebTablesCorpus();
  InvertedIndex idx(corpus);
  const std::vector<SeedPairEntry> subcollections =
      SeedPairs(corpus, idx, num_conversations);
  const size_t threads = [] {
    const char* env = std::getenv("SETDISC_BENCH_THREADS");
    if (env != nullptr && std::atoi(env) > 0) {
      return static_cast<size_t>(std::atoi(env));
    }
    size_t hw = std::thread::hardware_concurrency();
    return hw == 0 ? 8 : hw;
  }();
  size_t sub_sets = 0;
  for (const SeedPairEntry& entry : subcollections) {
    sub_sets += entry.set_ids.size();
  }
  out << "corpus: " << corpus.num_sets() << " sets, "
      << corpus.num_distinct_entities() << " entities, "
      << corpus.total_elements() << " incidences; "
      << subcollections.size() << " seed-pair conversations, avg "
      << sub_sets / subcollections.size() << " candidate sets; manager "
      << "pool: " << threads << " threads\n\n";

  DiscoveryOptions options;
  options.max_questions = 500;  // §6 guard; never hit on this workload

  // Skewed prior for the §7 weighted configurations: most sets carry small
  // uniform mass, a few carry most of it.
  std::vector<double> weights(corpus.num_sets());
  {
    Rng wrng(4242);
    for (double& x : weights) x = 0.05 + wrng.UniformDouble();
    for (int spike = 0; spike < 64; ++spike) {
      weights[wrng.Uniform(weights.size())] = 4.0 + wrng.UniformDouble();
    }
  }

  // --assert: fail (exit 1) unless every per-step row serves delta at least
  // as fast as the full recount — the "differential never loses" gate CI
  // runs at quick scale.
  const bool assert_speedups = HasFlag(argc, argv, "--assert");
  std::vector<std::string> assert_failures;

  // ---------------------------------------- per-step latency, full vs delta
  for (double dont_know_rate : {0.0, 0.2}) {
    out << "steady-state per-step latency"
        << (dont_know_rate > 0.0
                ? Format(" (don't-know rate %.1f: the re-emit path)",
                         dont_know_rate)
                : std::string())
        << ", k-LP memo cleared per conversation (uncached regime);\n"
        << "full and delta interleaved per conversation, speedup = median "
           "paired per-conversation ratio:\n";
    TablePrinter table({"selector", "full us/step", "delta us/step",
                        "full p99 us", "delta p99 us", "speedup", "steps",
                        "fresh 1st us"});
    for (const ModeSpec& spec : CountingStrategies(&weights)) {
      std::vector<Transcript> full_transcripts, delta_transcripts;
      auto full_sel = spec.make(/*differential=*/false);
      auto delta_sel = spec.make(/*differential=*/true);
      auto runner = [&](EntitySelector* sel) {
        return Runner{[&, sel](std::span<const EntityId> initial) {
                        return DiscoverySession(corpus, idx, initial, *sel,
                                                options);
                      },
                      [&, sel] {
                        if (spec.reset) spec.reset(*sel);
                      }};
      };
      const PairedTiming t =
          RunPaired(corpus, subcollections, dont_know_rate,
                    runner(full_sel.get()), runner(delta_sel.get()),
                    &full_transcripts, &delta_transcripts);
      RequireParity(full_transcripts, delta_transcripts, spec.name);
      if (assert_speedups && t.speedup < 1.0) {
        assert_failures.push_back(Format("%s dk=%.1f: %.3fx", spec.name.c_str(),
                                         dont_know_rate, t.speedup));
      }
      const double fresh_first_us =
          spec.fresh_first ? FreshFirstQuestionUs(corpus, idx,
                                                  subcollections, options,
                                                  spec)
                           : 0.0;
      table.AddRow({spec.name, Format("%.1f", t.full_us_per_step),
                    Format("%.1f", t.delta_us_per_step),
                    Format("%.0f", t.full_p99_us),
                    Format("%.0f", t.delta_p99_us), Format("%.2fx", t.speedup),
                    Format("%zu", t.steps),
                    spec.fresh_first ? Format("%.0f", fresh_first_us) : "-"});
      JsonReport::Row row;
      row.Str("section", "per_step")
          .Str("selector", spec.name)
          .Num("dont_know_rate", dont_know_rate)
          .Num("full_us_per_step", t.full_us_per_step)
          .Num("delta_us_per_step", t.delta_us_per_step)
          .Num("full_p99_us", t.full_p99_us)
          .Num("delta_p99_us", t.delta_p99_us)
          .Num("speedup", t.speedup)
          .Int("steps", static_cast<int64_t>(t.steps))
          .Bool("parity", true);
      if (spec.fresh_first) row.Num("fresh_first_us", fresh_first_us);
      report.Add(row);
    }
    table.Print(out);
    out << "\n";
  }

  // ----------------------------------------------- manager sessions/sec
  // (delta composes with the pool: one session's counting overlaps others')
  // Timed in a forked child, so what the per-step rows left behind in this
  // process (allocator state, warmed scratch) cannot move the number: the
  // child runs the section and writes its two rates over a pipe, and the
  // parent fails on a nonzero child exit or a short read.
  {
    const int rounds = ScalePick<int>(4, 8, 8);
    const int num_sessions =
        rounds * static_cast<int>(subcollections.size());
    out << "sessions/sec through the SessionManager (" << num_sessions
        << " 2-LP conversations, " << threads
        << " pool threads, own process):\n";
    TablePrinter table({"full sess/sec", "delta sess/sec", "speedup"});
    double rates[2];
    int pipe_fds[2];
    if (pipe(pipe_fds) != 0) {
      std::cerr << "FATAL: pipe() failed for the sessions/sec section\n";
      return 1;
    }
    const pid_t child = fork();
    if (child < 0) {
      std::cerr << "FATAL: fork() failed for the sessions/sec section\n";
      return 1;
    }
    if (child == 0) {
      close(pipe_fds[0]);
      for (bool differential : {false, true}) {
        SessionManagerOptions manager_options;
        manager_options.discovery = options;
        manager_options.num_threads = threads;
        manager_options.selector_factory = [differential] {
          KlpOptions o = KlpOptions::MakeKlp(2, CostMetric::kAvgDepth);
          o.enable_delta_counting = differential;
          return std::make_unique<KlpSelector>(o);
        };
        SessionManager manager(corpus, idx, manager_options);
        WallTimer timer;
        std::vector<std::future<bool>> jobs;
        jobs.reserve(num_sessions);
        for (int i = 0; i < num_sessions; ++i) {
          const SeedPairEntry& entry =
              subcollections[i % subcollections.size()];
          SetId target =
              entry.set_ids[(i * 7919 + 13) % entry.set_ids.size()];
          jobs.push_back(manager.pool().Submit([&manager, &corpus, &entry, target] {
            SimulatedOracle oracle(&corpus, target);
            std::vector<EntityId> initial = {entry.a, entry.b};
            SessionView view = manager.Drive(manager.Create(initial), oracle);
            manager.Close(view.id);
            return view.state == SessionState::kFinished;
          }));
        }
        for (auto& job : jobs) job.get();
        rates[differential ? 1 : 0] = num_sessions / timer.Seconds();
      }
      const bool wrote =
          write(pipe_fds[1], rates, sizeof(rates)) ==
          static_cast<ssize_t>(sizeof(rates));
      _exit(wrote ? 0 : 1);
    }
    close(pipe_fds[1]);
    size_t got = 0;
    while (got < sizeof(rates)) {
      const ssize_t r = read(pipe_fds[0], reinterpret_cast<char*>(rates) + got,
                             sizeof(rates) - got);
      if (r <= 0) break;
      got += static_cast<size_t>(r);
    }
    close(pipe_fds[0]);
    int status = 0;
    const bool reaped = waitpid(child, &status, 0) == child;
    if (!reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        got != sizeof(rates)) {
      std::cerr << "FATAL: the sessions/sec child process failed\n";
      return 1;
    }
    table.AddRow({Format("%.1f", rates[0]), Format("%.1f", rates[1]),
                  Format("%.2fx", rates[1] / rates[0])});
    report.Add(JsonReport::Row()
                   .Str("section", "sessions_per_sec")
                   .Num("full_sessions_per_sec", rates[0])
                   .Num("delta_sessions_per_sec", rates[1])
                   .Num("speedup", rates[1] / rates[0]));
    table.Print(out);
    out << "(throughput gains shrink vs per-step: seeding, partitioning, "
           "and manager runway are unchanged, and sessions in one manager "
           "share per-session selectors whose memos persist across a "
           "conversation)\n";
  }

  report.Print();
  if (!assert_failures.empty()) {
    std::cerr << "FAIL: per-step rows slower differentially than fully "
                 "recounted:\n";
    for (const std::string& f : assert_failures) std::cerr << "  " << f << "\n";
    return 1;
  }
  return 0;
}
