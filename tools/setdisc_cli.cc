// setdisc_cli — interactive set discovery over a text collection.
//
// Usage:
//   setdisc_cli <collection.txt> [options]
//
// The collection file has one set per line: whitespace-separated entity
// names ('#' starts a comment line). Modes:
//
//   --stats           print collection statistics and per-strategy tree costs
//   --tree            print the decision tree (default strategy: 2-LP)
//   --ask             run an interactive session on stdin: answer y / n / ?
//   --simulate LABEL  run a session against the set labeled/numbered LABEL
//   --serve-stress N  smoke-test the session service: N concurrent simulated
//                     sessions through the SessionManager, report sessions/sec
//   --serve PORT      serve the collection over TCP (binary protocol,
//                     net/server.h); runs until SIGINT/SIGTERM, then drains
//   --bind ADDR       numeric address --serve binds (default 127.0.0.1;
//                     use 0.0.0.0 to accept remote clients)
//   --connect HOST:PORT  drive a served collection as a network client:
//                     with --simulate LABEL a scripted session, with --ask
//                     an interactive one, otherwise print server stats
//
// Options:
//   --k N             lookahead depth for k-LP (default 2)
//   --q N             beam width (k-LPLE); unlimited when omitted
//   --metric ad|h     optimize average (ad) or worst case (h); default ad
//   --examples a,b,c  initial example entities (comma separated)
//   --verify          confirm the discovered set; on "n", backtrack (§6)
//   --threads N       pool size for --serve-stress / --serve (default 8)
//   --cache           share one SelectionCache across --serve-stress or
//                     --serve sessions; the run reports lookups / hit rate
//   --cache-capacity N  cache entry bound (default 1M; only with --cache)
//   --cache-skip-one-shot  admission policy: singleton don't-know exclusion
//                     states bypass the cache (reported as "bypasses")
//   --no-delta        disable differential counting (collection/
//                     delta_counter.h): every step recounts from scratch.
//                     Transcripts are identical either way; this is the
//                     baseline knob for A/B timing (bench_counting measures
//                     the gap systematically)
//   --release-idle MS shrink-on-idle for --serve/--serve-stress: sessions
//                     idle longer than MS milliseconds drop their retained
//                     counting state, dense scratch, and k-LP memo (the
//                     next step pays one full recount)
//   --stats-json      at exit, print ONE JSON snapshot of the metrics
//                     registry (latency histograms, serve-path mix, cache
//                     and pruning counters) to stdout; the human-readable
//                     output moves to stderr so stdout stays parseable
//   --metrics-port P  with --serve: also serve Prometheus text exposition
//                     over HTTP on port P (0 = kernel-assigned), same bind
//                     address, no extra thread
//   --max-queue N     admission control for --serve: refuse new
//                     CreateSessions with kBusy (plus a retry-after hint for
//                     clients that understand it) while the pool queue is N
//                     deep or more; re-admits once it drains to N/2
//   --degrade         load-adaptive degradation for --serve/--serve-stress:
//                     under sustained p99 pressure shrink the k-LP lookahead
//                     one step per level (never below a 1-step decision),
//                     re-widening with hysteresis as latency recovers
//   --target-p99 MS   p99 step-latency target (milliseconds) the --degrade
//                     controller steers toward (default 50); implies
//                     --degrade
//   --slow-ms MS      slow-step exemplar threshold for --serve: a step whose
//                     service time (queue wait + execution) reaches MS
//                     milliseconds is captured (trace id, session, phase
//                     breakdown) into the in-process exemplar store — read
//                     it back via Stats — and appended to --event-log when
//                     set. Enables journey tracing. With --degrade and no
//                     --slow-ms, the controller's p99 target is the
//                     threshold
//   --event-log FILE  structured JSONL event log for --serve: one line per
//                     slow-step exemplar. Enables journey tracing
//   --trace-export FILE  with --serve: at shutdown, write every span still
//                     in the journey ring as Chrome trace-event JSON
//                     (chrome://tracing / Perfetto). Enables journey tracing
//   --spill-dir DIR   durability for --serve: journal every session step to
//                     DIR (write-ahead log + checkpoints), evict cold
//                     sessions to it instead of dropping them, and on
//                     restart replay it so clients resume conversations —
//                     including across a kill -9. Also persists the warm
//                     SelectionCache (with --cache) so a restarted server
//                     starts hot. Sessions get auth tokens; resuming needs
//                     the token from the Create reply
//   --checkpoint-interval MS  with --spill-dir: compact the WAL into a fresh
//                     checkpoint (and snapshot the cache) every MS
//                     milliseconds (default 5000)
//   --fsync           with --spill-dir: fsync the WAL on every flush —
//                     survives machine crashes, not just process kills, at a
//                     real per-step cost
//
// While serving, SIGUSR1 dumps the flight recorder (admission flips, effort
// moves, evictions, lifecycle) as Chrome trace JSON next to the event log /
// trace export; fatal signals print its pre-rendered tail to stderr.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collection/inverted_index.h"
#include "collection/serialization.h"
#include "core/decision_tree.h"
#include "core/discovery.h"
#include "core/klp.h"
#include "core/selectors.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/event_log.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "service/discovery_session.h"
#include "service/load_controller.h"
#include "service/selection_cache.h"
#include "service/session_manager.h"
#include "service/session_store.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace setdisc;

namespace {

/// Reads one y/n/? answer from stdin (EOF counts as "don't know" so piped
/// input terminates cleanly).
Oracle::Answer ReadAnswer(const std::string& entity_name) {
  for (;;) {
    std::cout << "Is \"" << entity_name << "\" in your set? [y/n/?] "
              << std::flush;
    std::string line;
    if (!std::getline(std::cin, line)) return Oracle::Answer::kDontKnow;
    if (line == "y" || line == "Y" || line == "yes") return Oracle::Answer::kYes;
    if (line == "n" || line == "N" || line == "no") return Oracle::Answer::kNo;
    if (line == "?" || line == "dk") return Oracle::Answer::kDontKnow;
    std::cout << "please answer y, n, or ?\n";
  }
}

/// Builds the shared cross-session SelectionCache when --cache is on and
/// wires it into `options` — one place for both serving modes
/// (--serve-stress and --serve), so cache flags cannot diverge.
std::unique_ptr<SelectionCache> MakeCacheIfEnabled(
    bool use_cache, size_t capacity, bool skip_one_shot,
    SessionManagerOptions* options) {
  if (!use_cache) return nullptr;
  SelectionCacheOptions cache_options;
  cache_options.capacity = capacity;
  cache_options.skip_singleton_exclusions = skip_one_shot;
  auto cache = std::make_unique<SelectionCache>(cache_options);
  options->selection_cache = cache.get();
  return cache;
}

/// Builds the load-adaptive feedback controller when any of --max-queue /
/// --degrade / --target-p99 is on, wired to the manager's sensors (merged
/// step-latency histogram, live pool queue depth) and actuators (process
/// effort level, idle reaping). Shared by --serve and --serve-stress. The
/// caller Start()s it; nullptr when every load-adaptive flag is off.
std::unique_ptr<LoadController> MakeLoadControllerIfEnabled(
    int max_queue, bool degrade, int target_p99_ms, int release_idle_ms,
    SessionManager* manager) {
  if (max_queue <= 0 && !degrade) return nullptr;
  LoadControllerOptions options;
  options.admit_queue_watermark = static_cast<size_t>(max_queue);
  if (degrade) {
    options.target_p99_ns =
        static_cast<uint64_t>(target_p99_ms) * 1000ull * 1000ull;
  }
  // Under pressure the idle leash doubles as a reaping leash: sessions that
  // would merely shed scratch when healthy give back their table slot too.
  if (release_idle_ms > 0) {
    options.pressure_idle_ttl = std::chrono::milliseconds(release_idle_ms);
  }
  options.metrics = &obs::MetricsRegistry::Default();
  auto controller = std::make_unique<LoadController>(
      options,
      [manager] {
        // Execution time alone is blind to overload (a queued step runs just
        // as fast once it finally runs); fold in the pool queue-wait so the
        // sensed p99 tracks what a client actually feels.
        auto& registry = obs::MetricsRegistry::Default();
        LoadSample sample;
        sample.step_latency =
            registry.MergedHistogram("setdisc_step_latency_ns");
        sample.step_latency.Merge(
            registry.MergedHistogram("setdisc_pool_queue_wait_ns"));
        sample.queue_depth = manager->pool().queue_depth();
        return sample;
      },
      [manager] { return manager->pool().queue_depth(); });
  controller->set_effort_sink(
      [manager](int level) { manager->SetEffortLevel(level); });
  controller->set_idle_reaper([manager](std::chrono::milliseconds leash) {
    return manager->ReapIdle(leash);
  });
  return controller;
}

/// One line of controller accounting for the end-of-run reports.
void PrintLoadReport(const LoadController& controller, std::ostream& out) {
  out << "load control: " << controller.rejected_total() << " rejected, "
      << controller.degrade_total() << " degrades, "
      << controller.recover_total() << " recovers, "
      << controller.pressure_reaped_total()
      << " pressure-reaped, final effort level "
      << controller.effort_level() << "\n";
}

/// Reads the final y/n confirmation for `set` from stdin, shared by the
/// local and remote --ask verify prompts. Returns false on EOF.
bool ReadConfirm(const SetCollection& collection, SetId set, bool* confirmed) {
  for (;;) {
    std::cout << "Is set " << set;
    if (!collection.label(set).empty()) {
      std::cout << " (" << collection.label(set) << ")";
    }
    std::cout << " your set? [y/n] " << std::flush;
    std::string line;
    if (!std::getline(std::cin, line)) return false;
    if (line == "y" || line == "Y" || line == "yes") {
      *confirmed = true;
      return true;
    }
    if (line == "n" || line == "N" || line == "no") {
      *confirmed = false;
      return true;
    }
    std::cout << "please answer y or n\n";
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: setdisc_cli <collection.txt> "
               "[--stats|--tree|--ask|--simulate LABEL|--serve-stress N|\n"
               "                    --serve PORT|--connect HOST:PORT]\n"
               "                   [--k N] [--q N] [--metric ad|h] "
               "[--examples a,b,c] [--verify] [--threads N]\n"
               "                   [--cache] [--cache-capacity N] "
               "[--cache-skip-one-shot]\n"
               "                   [--no-delta] [--release-idle MS] "
               "[--stats-json] [--metrics-port P]\n"
               "                   [--max-queue N] [--degrade] "
               "[--target-p99 MS]\n"
               "                   [--slow-ms MS] [--event-log FILE] "
               "[--trace-export FILE]\n"
               "                   [--spill-dir DIR] "
               "[--checkpoint-interval MS] [--fsync]\n");
  return 2;
}

/// SIGINT/SIGTERM flip this; the --serve loop watches it and drains.
volatile std::sig_atomic_t g_stop_serving = 0;

void HandleStopSignal(int) { g_stop_serving = 1; }

/// Splits "host:port"; returns false on anything unparsable.
bool ParseHostPort(const std::string& spec, std::string* host, uint16_t* port) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) return false;
  *host = spec.substr(0, colon);
  char* end = nullptr;
  unsigned long v = std::strtoul(spec.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || v == 0 || v > 65535) return false;
  *port = static_cast<uint16_t>(v);
  return true;
}

std::vector<EntityId> ParseExamples(const SetCollection& collection,
                                    const std::string& csv) {
  std::vector<EntityId> out;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    EntityId e = collection.dict() != nullptr
                     ? collection.dict()->Lookup(token)
                     : kNoEntity;
    if (e == kNoEntity) {
      std::fprintf(stderr, "warning: unknown entity \"%s\" ignored\n",
                   token.c_str());
      continue;
    }
    out.push_back(e);
  }
  return out;
}

SetId ResolveSet(const SetCollection& collection, const std::string& label) {
  for (SetId s = 0; s < collection.num_sets(); ++s) {
    if (collection.label(s) == label) return s;
  }
  // Fall back to a numeric id.
  char* end = nullptr;
  unsigned long v = std::strtoul(label.c_str(), &end, 10);
  if (end != nullptr && *end == '\0' && v < collection.num_sets()) {
    return static_cast<SetId>(v);
  }
  return kNoSet;
}

void PrintSession(const SetCollection& collection,
                  const DiscoveryResult& result,
                  std::ostream& out = std::cout) {
  for (auto& [entity, answer] : result.transcript) {
    const char* a = answer == Oracle::Answer::kYes ? "yes"
                    : answer == Oracle::Answer::kNo ? "no"
                                                    : "don't know";
    out << "  " << collection.EntityName(entity) << " -> " << a << "\n";
  }
  if (result.found()) {
    SetId s = result.discovered();
    out << "discovered set " << s;
    if (!collection.label(s).empty()) out << " (" << collection.label(s)
                                          << ")";
    out << " in " << result.questions << " questions:\n  {";
    bool first = true;
    for (EntityId e : collection.set(s)) {
      if (!first) out << ", ";
      first = false;
      out << collection.EntityName(e);
    }
    out << "}\n";
  } else {
    out << result.candidates.size()
        << " candidate sets remain after " << result.questions
        << " questions\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string path = argv[1];

  enum class Mode { kStats, kTree, kAsk, kSimulate, kServeStress, kServe } mode =
      Mode::kStats;
  std::string simulate_label;
  std::string examples_csv;
  std::string connect_spec;
  std::string bind_address = "127.0.0.1";
  int k = 2;
  int q = -1;
  int stress_sessions = 0;
  int stress_threads = 8;
  int serve_port = -1;
  bool verify = false;
  bool no_delta = false;
  int release_idle_ms = 0;
  bool use_cache = false;
  bool cache_skip_one_shot = false;
  bool stats_json = false;
  int metrics_port = -1;
  int max_queue = 0;
  bool degrade = false;
  int target_p99_ms = 50;
  int slow_ms = 0;
  std::string event_log_path;
  std::string trace_export_path;
  std::string spill_dir;
  int checkpoint_interval_ms = 5000;
  bool fsync_wal = false;
  size_t cache_capacity = size_t{1} << 20;
  CostMetric metric = CostMetric::kAvgDepth;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--stats") {
      mode = Mode::kStats;
    } else if (arg == "--tree") {
      mode = Mode::kTree;
    } else if (arg == "--ask") {
      mode = Mode::kAsk;
    } else if (arg == "--simulate" && i + 1 < argc) {
      mode = Mode::kSimulate;
      simulate_label = argv[++i];
    } else if (arg == "--serve-stress" && i + 1 < argc) {
      mode = Mode::kServeStress;
      stress_sessions = std::atoi(argv[++i]);
    } else if (arg == "--serve" && i + 1 < argc) {
      mode = Mode::kServe;
      serve_port = std::atoi(argv[++i]);
    } else if (arg == "--bind" && i + 1 < argc) {
      bind_address = argv[++i];
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_spec = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      stress_threads = std::atoi(argv[++i]);
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--cache") {
      use_cache = true;
    } else if (arg == "--cache-capacity" && i + 1 < argc) {
      cache_capacity = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
      use_cache = true;
    } else if (arg == "--cache-skip-one-shot") {
      cache_skip_one_shot = true;
      use_cache = true;
    } else if (arg == "--no-delta") {
      no_delta = true;
    } else if (arg == "--release-idle" && i + 1 < argc) {
      release_idle_ms = std::atoi(argv[++i]);
    } else if (arg == "--stats-json") {
      stats_json = true;
    } else if (arg == "--metrics-port" && i + 1 < argc) {
      metrics_port = std::atoi(argv[++i]);
      if (metrics_port < 0 || metrics_port > 65535) return Usage();
    } else if (arg == "--max-queue" && i + 1 < argc) {
      max_queue = std::atoi(argv[++i]);
      if (max_queue < 0) return Usage();
    } else if (arg == "--degrade") {
      degrade = true;
    } else if (arg == "--target-p99" && i + 1 < argc) {
      target_p99_ms = std::atoi(argv[++i]);
      if (target_p99_ms <= 0) return Usage();
      degrade = true;
    } else if (arg == "--slow-ms" && i + 1 < argc) {
      slow_ms = std::atoi(argv[++i]);
      if (slow_ms <= 0) return Usage();
    } else if (arg == "--event-log" && i + 1 < argc) {
      event_log_path = argv[++i];
    } else if (arg == "--trace-export" && i + 1 < argc) {
      trace_export_path = argv[++i];
    } else if (arg == "--spill-dir" && i + 1 < argc) {
      spill_dir = argv[++i];
    } else if (arg == "--checkpoint-interval" && i + 1 < argc) {
      checkpoint_interval_ms = std::atoi(argv[++i]);
      if (checkpoint_interval_ms <= 0) return Usage();
    } else if (arg == "--fsync") {
      fsync_wal = true;
    } else if (arg == "--k" && i + 1 < argc) {
      k = std::atoi(argv[++i]);
      if (k < 1) return Usage();
    } else if (arg == "--q" && i + 1 < argc) {
      q = std::atoi(argv[++i]);
    } else if (arg == "--metric" && i + 1 < argc) {
      std::string m = argv[++i];
      metric = m == "h" ? CostMetric::kHeight : CostMetric::kAvgDepth;
    } else if (arg == "--examples" && i + 1 < argc) {
      examples_csv = argv[++i];
    } else {
      std::fprintf(stderr, "error: unrecognized argument \"%s\"\n",
                   arg.c_str());
      return Usage();
    }
  }

  // With --stats-json the human-readable narration moves to stderr and the
  // exit path prints exactly one JSON object (the registry snapshot) to
  // stdout — machine consumers parse stdout, people read stderr.
  std::ostream& hout = stats_json ? static_cast<std::ostream&>(std::cerr)
                                  : std::cout;
  auto finish = [stats_json](int code) {
    if (stats_json) {
      std::cout << obs::MetricsRegistry::Default().Snapshot().ToJson() << "\n"
                << std::flush;
    }
    return code;
  };

  SetCollection collection;
  Status status = LoadCollectionText(path, &collection);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return 1;
  }
  hout << "loaded " << collection.num_sets() << " unique sets over "
       << collection.num_distinct_entities() << " entities from " << path
       << "\n";
  if (collection.num_sets() == 0) return finish(0);

  if (!connect_spec.empty()) {
    // Network client: the same conversations as the local modes, but every
    // step is a round-trip to a `setdisc_cli --serve` process. The local
    // collection file supplies entity names and (for --simulate) the
    // oracle's ground truth; it must match the one the server loaded.
    std::string host;
    uint16_t port = 0;
    if (!ParseHostPort(connect_spec, &host, &port)) return Usage();
    net::DiscoveryClient client;
    Status cs = client.Connect(host, port);
    if (!cs.ok()) {
      std::fprintf(stderr, "error: %s\n", cs.message().c_str());
      return 1;
    }
    std::vector<EntityId> initial = ParseExamples(collection, examples_csv);

    if (mode == Mode::kSimulate) {
      SetId target = ResolveSet(collection, simulate_label);
      if (target == kNoSet) {
        std::fprintf(stderr, "error: unknown set \"%s\"\n",
                     simulate_label.c_str());
        return 1;
      }
      SimulatedOracle oracle(&collection, target);
      net::SessionStateMsg state;
      Status s = net::DriveSession(client, initial, oracle, &state);
      if (!s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.message().c_str());
        return 1;
      }
      // Best-effort: a session finished at birth was never registered, so
      // the server answers kNotFound — that is fine.
      client.CloseSession(state.session_id);
      DiscoveryResult result = net::ToDiscoveryResult(state.result);
      PrintSession(collection, result);
      return result.found() && result.discovered() == target ? 0 : 1;
    }

    if (mode == Mode::kAsk) {
      // Whether the conversation ends in a verification is the SERVER's
      // configuration (--verify at --serve time), not this client's flag;
      // track what actually happened on the wire for the exit code.
      bool saw_verify = false;
      net::SessionStateMsg state;
      Status s = client.CreateSession(initial, &state);
      while (s.ok() && state.state != SessionState::kFinished) {
        if (state.state == SessionState::kAwaitingAnswer) {
          s = client.Answer(state.session_id,
                            ReadAnswer(collection.EntityName(state.question)),
                            &state);
          continue;
        }
        saw_verify = true;
        bool confirmed = false;
        if (!ReadConfirm(collection, state.verify_set, &confirmed)) {
          client.CloseSession(state.session_id);
          std::cout << "\n(input ended before confirmation)\n";
          return 1;
        }
        s = client.Verify(state.session_id, confirmed, &state);
      }
      if (!s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.message().c_str());
        return 1;
      }
      client.CloseSession(state.session_id);
      DiscoveryResult result = net::ToDiscoveryResult(state.result);
      PrintSession(collection, result);
      if (saw_verify && !result.confirmed) {
        std::cout << "(no set was confirmed)\n";
        return 1;
      }
      return result.found() ? 0 : 1;
    }

    // Default: print the server's counters.
    net::StatsReplyMsg stats;
    Status s = client.GetStats(&stats);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    std::cout << "server " << host << ":" << port << ": "
              << stats.active_sessions << " active sessions, "
              << stats.created_sessions << " created, "
              << stats.connections_open << "/" << stats.connections_total
              << " connections open/total, " << stats.frames_received
              << " frames in, " << stats.frames_sent << " out\n";
    return 0;
  }

  KlpOptions options = q > 0 ? KlpOptions::MakeKlple(k, q, metric)
                             : KlpOptions::MakeKlp(k, metric);
  options.enable_delta_counting = !no_delta;
  KlpSelector selector(options);
  SubCollection full = SubCollection::Full(&collection);

  switch (mode) {
    case Mode::kStats: {
      TablePrinter t({"strategy", "avg questions (AD)", "max questions (H)"});
      InfoGainSelector info_gain;
      DecisionTree ig_tree = DecisionTree::Build(full, info_gain);
      t.AddRow({"InfoGain", Format("%.3f", ig_tree.avg_depth()),
                Format("%d", ig_tree.height())});
      DecisionTree klp_tree = DecisionTree::Build(full, selector);
      t.AddRow({std::string(selector.name()),
                Format("%.3f", klp_tree.avg_depth()),
                Format("%d", klp_tree.height())});
      t.Print(std::cout);
      return 0;
    }
    case Mode::kTree: {
      DecisionTree tree = DecisionTree::Build(full, selector);
      std::cout << "strategy " << selector.name() << ", avg depth "
                << Format("%.3f", tree.avg_depth()) << ", height "
                << tree.height() << "\n"
                << tree.ToString(collection, /*max_depth=*/32);
      return 0;
    }
    case Mode::kAsk: {
      // The interactive mode runs on the stepwise session engine — the same
      // shape a network frontend would drive — instead of blocking inside
      // Discover() with a stdin-backed Oracle.
      InvertedIndex index(collection);
      std::vector<EntityId> initial = ParseExamples(collection, examples_csv);
      DiscoveryOptions options;
      options.verify_and_backtrack = verify;
      DiscoverySession session(collection, index, initial, selector, options);
      while (!session.done()) {
        if (session.state() == SessionState::kAwaitingAnswer) {
          EntityId e = session.NextQuestion();
          session.SubmitAnswer(ReadAnswer(collection.EntityName(e)));
        } else {  // kAwaitingVerify
          bool confirmed = false;
          if (!ReadConfirm(collection, session.PendingVerify(), &confirmed)) {
            // No input left to answer the backtracking questions a refutation
            // would trigger — end the conversation here, unconfirmed.
            std::cout << "\n";
            PrintSession(collection, session.result());
            std::cout << "(input ended before confirmation)\n";
            return 1;
          }
          session.Verify(confirmed);
        }
      }
      DiscoveryResult result = session.TakeResult();
      PrintSession(collection, result);
      if (verify && !result.confirmed) {
        // found() can be true here with a set the user just refuted
        // (backtracking exhausted); don't report that as success.
        std::cout << "(no set was confirmed)\n";
        return 1;
      }
      return result.found() ? 0 : 1;
    }
    case Mode::kSimulate: {
      SetId target = ResolveSet(collection, simulate_label);
      if (target == kNoSet) {
        std::fprintf(stderr, "error: unknown set \"%s\"\n",
                     simulate_label.c_str());
        return 1;
      }
      InvertedIndex index(collection);
      std::vector<EntityId> initial = ParseExamples(collection, examples_csv);
      SimulatedOracle oracle(&collection, target);
      DiscoveryOptions discovery_options;
      discovery_options.verify_and_backtrack = verify;
      DiscoveryResult result = Discover(collection, index, initial, selector,
                                        oracle, discovery_options);
      PrintSession(collection, result, hout);
      return finish(result.found() && result.discovered() == target ? 0 : 1);
    }
    case Mode::kServeStress: {
      // Smoke the service layer: N concurrent simulated sessions multiplexed
      // by the SessionManager over this collection, every one expected to
      // converge to its target.
      if (stress_sessions <= 0 || stress_threads <= 0) return Usage();
      InvertedIndex index(collection);
      SessionManagerOptions manager_options;
      manager_options.discovery.verify_and_backtrack = verify;
      manager_options.num_threads = static_cast<size_t>(stress_threads);
      // Hook the manager's probe (sessions active/created, manager queue
      // depth) into the process registry so --stats-json and --metrics-port
      // see the whole serving picture, not just the hot-path families.
      manager_options.metrics = &obs::MetricsRegistry::Default();
      if (release_idle_ms > 0) {
        manager_options.release_scratch_after =
            std::chrono::milliseconds(release_idle_ms);
      }
      // Capture by value: the factory is stored in the manager and invoked
      // on every Create for its whole lifetime.
      manager_options.selector_factory = [options] {
        return std::make_unique<KlpSelector>(options);
      };
      std::unique_ptr<SelectionCache> cache = MakeCacheIfEnabled(
          use_cache, cache_capacity, cache_skip_one_shot, &manager_options);
      SessionManager manager(collection, index, manager_options);
      std::unique_ptr<LoadController> controller = MakeLoadControllerIfEnabled(
          /*max_queue=*/0, degrade, target_p99_ms, release_idle_ms, &manager);
      if (controller != nullptr) controller->Start();
      std::vector<EntityId> initial = ParseExamples(collection, examples_csv);
      // Targets must be discoverable from the initial examples, i.e. among
      // their supersets (all sets when no examples are given).
      std::vector<SetId> eligible = index.SetsContainingAll(initial);
      if (eligible.empty()) {
        std::fprintf(stderr, "error: no set contains all --examples\n");
        return 1;
      }

      WallTimer timer;
      std::vector<std::future<bool>> jobs;
      jobs.reserve(stress_sessions);
      for (int i = 0; i < stress_sessions; ++i) {
        SetId target = eligible[i % eligible.size()];
        jobs.push_back(manager.pool().Submit([&manager, &collection, &initial,
                                              target] {
          SimulatedOracle oracle(&collection, target);
          SessionView view = manager.Drive(manager.Create(initial), oracle);
          manager.Close(view.id);  // finished sessions must not accumulate
          return view.state == SessionState::kFinished &&
                 view.result.found() && view.result.discovered() == target;
        }));
      }
      int failures = 0;
      for (auto& job : jobs) {
        if (!job.get()) ++failures;
      }
      double seconds = timer.Seconds();
      hout << "served " << stress_sessions << " sessions on "
           << stress_threads << " threads"
           << " in " << Format("%.3f", seconds)
           << "s (" << Format("%.1f", stress_sessions / seconds)
           << " sessions/sec), " << failures << " failures\n";
      if (cache != nullptr) {
        SelectionCacheStats stats = cache->stats();
        hout << "selection cache: " << stats.lookups << " lookups, "
             << stats.hits << " hits ("
             << Format("%.1f", 100.0 * stats.HitRate())
             << "% hit rate), " << stats.insertions << " insertions, "
             << stats.evictions << " evictions, " << stats.bypasses
             << " bypasses, " << cache->size() << " entries live\n";
      }
      if (controller != nullptr) {
        controller->Stop();
        PrintLoadReport(*controller, hout);
      }
      return finish(failures == 0 ? 0 : 1);
    }
    case Mode::kServe: {
      // The network frontend: SessionManager behind a DiscoveryServer,
      // until a SIGINT/SIGTERM asks for a graceful drain.
      if (serve_port < 0 || serve_port > 65535 || stress_threads <= 0) {
        return Usage();
      }
      InvertedIndex index(collection);
      SessionManagerOptions manager_options;
      manager_options.discovery.verify_and_backtrack = verify;
      manager_options.num_threads = static_cast<size_t>(stress_threads);
      // Hook the manager's probe (sessions active/created, manager queue
      // depth) into the process registry so --stats-json and --metrics-port
      // see the whole serving picture, not just the hot-path families.
      manager_options.metrics = &obs::MetricsRegistry::Default();
      if (release_idle_ms > 0) {
        manager_options.release_scratch_after =
            std::chrono::milliseconds(release_idle_ms);
      }
      manager_options.selector_factory = [options] {
        return std::make_unique<KlpSelector>(options);
      };
      std::unique_ptr<SelectionCache> cache = MakeCacheIfEnabled(
          use_cache, cache_capacity, cache_skip_one_shot, &manager_options);
      // The durable session store — opened (and replayed) before the manager
      // exists so the manager seeds its id counter past every persisted id.
      // Declared before the manager because the manager journals into it for
      // its whole lifetime.
      std::unique_ptr<SessionStore> store;
      const std::string cache_snapshot_path = spill_dir + "/selection_cache.bin";
      if (!spill_dir.empty()) {
        SessionStoreOptions store_options;
        store_options.dir = spill_dir;
        store_options.fsync = fsync_wal;
        store = std::make_unique<SessionStore>(store_options);
        Status open = store->Open(collection.Fingerprint());
        if (!open.ok()) {
          std::fprintf(stderr, "error: cannot open --spill-dir: %s\n",
                       open.message().c_str());
          return 1;
        }
        const SessionStoreStats sstats = store->stats();
        hout << "session store: " << store->size() << " sessions restored from "
             << spill_dir;
        if (sstats.dropped > 0) hout << ", " << sstats.dropped << " dropped";
        if (sstats.torn_bytes > 0) {
          hout << ", " << sstats.torn_bytes << " torn bytes discarded";
        }
        hout << "\n";
        manager_options.session_store = store.get();
        if (cache != nullptr) {
          Result<size_t> warmed = cache->Load(cache_snapshot_path);
          if (warmed.ok() && warmed.value() > 0) {
            hout << "selection cache warm-started with " << warmed.value()
                 << " entries\n";
          }
        }
      }
      SessionManager manager(collection, index, manager_options);
      // Declared before the server so it outlives it: the server consults
      // the controller on every CreateSession until its own shutdown.
      std::unique_ptr<LoadController> controller = MakeLoadControllerIfEnabled(
          max_queue, degrade, target_p99_ms, release_idle_ms, &manager);
      if (controller != nullptr) controller->Start();

      // Any of the journey flags turns request tracing on for this process:
      // every pool job then runs under a JourneyContext and emits request /
      // queue-wait / step / phase spans into the journey ring.
      const bool journey =
          slow_ms > 0 || !event_log_path.empty() || !trace_export_path.empty();
      if (journey) obs::SetJourneyEnabled(true);
      if (!event_log_path.empty() &&
          !obs::EventLog::Global().Open(event_log_path)) {
        std::fprintf(stderr, "error: cannot open --event-log %s\n",
                     event_log_path.c_str());
        return 1;
      }
      // SIGUSR1 dumps land next to whichever journey artifact was asked for.
      const std::string flight_dump_path =
          (!event_log_path.empty()   ? event_log_path
           : !trace_export_path.empty() ? trace_export_path
                                        : std::string("setdisc")) +
          ".flight.json";

      net::ServerOptions server_options;
      server_options.bind_address = bind_address;
      server_options.port = static_cast<uint16_t>(serve_port);
      server_options.load_controller = controller.get();
      if (slow_ms > 0) {
        server_options.slow_step_ns =
            static_cast<uint64_t>(slow_ms) * 1000ull * 1000ull;
      } else if (journey && degrade) {
        // No explicit threshold: steps slower than the controller's own p99
        // target are by definition the ones worth an exemplar.
        server_options.slow_step_ns =
            static_cast<uint64_t>(target_p99_ms) * 1000ull * 1000ull;
      }
      if (metrics_port >= 0) {
        server_options.enable_metrics_http = true;
        server_options.metrics_port = static_cast<uint16_t>(metrics_port);
      }
      net::DiscoveryServer server(manager, server_options);
      Status start = server.Start();
      if (!start.ok()) {
        std::fprintf(stderr, "error: %s\n", start.message().c_str());
        return 1;
      }
      std::signal(SIGINT, HandleStopSignal);
      std::signal(SIGTERM, HandleStopSignal);
      obs::InstallFlightDumpSignalHandler();
      obs::InstallFatalTailHandler();
      hout << "serving on " << server.options().bind_address << ":"
           << server.port() << " (" << selector.name() << ", "
           << stress_threads << " worker threads"
           << (verify ? ", verify" : "")
           << (use_cache ? ", cache" : "");
      if (max_queue > 0) hout << Format(", max-queue %d", max_queue);
      if (degrade) hout << Format(", degrade to p99<=%dms", target_p99_ms);
      hout << ")\n";
      if (server.metrics_port() != 0) {
        hout << "metrics on http://" << server.options().bind_address << ":"
             << server.metrics_port() << "/metrics\n";
      }
      if (journey) {
        hout << "journey tracing on";
        if (server_options.slow_step_ns > 0) {
          hout << Format(", slow-step exemplars >= %llums",
                         static_cast<unsigned long long>(
                             server_options.slow_step_ns / 1000000ull));
        }
        if (!event_log_path.empty()) hout << ", event log " << event_log_path;
        hout << " (SIGUSR1 dumps flight recorder to " << flight_dump_path
             << ")\n";
      }
      hout << std::flush;
      auto next_checkpoint = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(checkpoint_interval_ms);
      while (g_stop_serving == 0 && server.running()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (store != nullptr &&
            std::chrono::steady_clock::now() >= next_checkpoint) {
          // Periodic compaction bounds both the WAL (replay time after a
          // crash) and the staleness of the warm-cache snapshot. Failures
          // leave the store degraded; the next interval retries and heals.
          (void)store->Checkpoint();
          if (cache != nullptr) (void)cache->Save(cache_snapshot_path);
          next_checkpoint = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(checkpoint_interval_ms);
        }
        if (obs::ConsumeFlightDumpRequest()) {
          if (obs::WriteFlightDump(flight_dump_path)) {
            hout << "flight recorder dumped to " << flight_dump_path << "\n"
                 << std::flush;
          } else {
            std::fprintf(stderr, "error: cannot write %s\n",
                         flight_dump_path.c_str());
          }
        }
      }
      hout << "draining...\n";
      server.Shutdown();
      if (store != nullptr) {
        // Final compaction AFTER the server stops stepping sessions: the
        // checkpoint then holds every conversation's last state, and the
        // cache snapshot holds the fully warmed working set.
        (void)store->Flush();
        Status ck = store->Checkpoint();
        if (!ck.ok()) {
          std::fprintf(stderr, "warning: final checkpoint failed: %s\n",
                       ck.message().c_str());
        }
        if (cache != nullptr) (void)cache->Save(cache_snapshot_path);
        const SessionStoreStats sstats = store->stats();
        hout << "session store: " << store->size() << " sessions persisted, "
             << sstats.puts << " puts, " << sstats.wal_flushes
             << " WAL flushes, " << sstats.checkpoints << " checkpoints, "
             << sstats.io_errors << " io errors"
             << (store->degraded() ? " (DEGRADED)" : "") << "\n";
      }
      if (controller != nullptr) {
        controller->Stop();
        PrintLoadReport(*controller, hout);
      }
      net::ServerStats stats = server.stats();
      hout << "served " << manager.num_created() << " sessions over "
           << stats.connections_total << " connections ("
           << stats.frames_received << " frames in, " << stats.frames_sent
           << " out, " << stats.protocol_errors << " protocol errors, "
           << stats.idle_closed << " idle-closed)\n";
      if (cache != nullptr) {
        SelectionCacheStats cstats = cache->stats();
        hout << "selection cache: "
             << Format("%.1f", 100.0 * cstats.HitRate()) << "% hit rate, "
             << cstats.bypasses << " bypasses, " << cache->size()
             << " entries\n";
      }
      if (!trace_export_path.empty()) {
        if (obs::WriteJourneyTrace(trace_export_path)) {
          hout << "journey trace (" << obs::Journey().total()
               << " spans total, ring keeps last " << obs::Journey().capacity()
               << ") exported to " << trace_export_path << "\n";
        } else {
          std::fprintf(stderr, "error: cannot write %s\n",
                       trace_export_path.c_str());
        }
      }
      obs::EventLog::Global().Close();
      return finish(0);
    }
  }
  return 0;
}
