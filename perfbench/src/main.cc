// setdisc_perfbench: the repository benchmark.
//
//   setdisc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--data-dir DIR] [--out-dir DIR]
//
// Builds the serving stack a `setdisc_cli --serve` process builds at boot
// (set-up, timed several times), drives a seeded, fixed list of
// conversations through it with closed-loop TCP clients, checks every
// conversation ended on its target and a seeded sample's transcripts
// against the reference Discover() loop, and prints one JSON result line
// last: the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1 (see perfbench/README.md for every definition).

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/discovery.h"
#include "net/protocol.h"
#include "obs/journey.h"
#include "stats.h"
#include "tracing.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_KERNEL_MULTIARCH
#define PERFBENCH_KERNEL_MULTIARCH "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Transcripts checked against Discover() per run.
constexpr size_t kReferenceSample = 16;
/// Set-ups per run, setup_s being their median. They are split between
/// before and after the measured pass, so they sample the host across the
/// run rather than in one burst: at least kMinSetupsBefore before and
/// kMinSetupsAfter after, and more on a side (up to kMaxSetupsPerSide)
/// while that side's set-ups total under kSetupBudgetS. A set-up of tens
/// of milliseconds is fast or slow with the host's phase of that moment,
/// so short set-ups need many samples over a whole budget to settle.
constexpr size_t kMinSetupsBefore = 2;
constexpr size_t kMinSetupsAfter = 1;
constexpr size_t kMaxSetupsPerSide = 64;
constexpr double kSetupBudgetS = 1.5;
/// Fewest conversations a run makes, whatever --seconds asks for.
constexpr size_t kMinConversations = 200;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir = ".bench_build/perfbench-data";
  std::string out_dir = ".bench_build/perfbench-out";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: setdisc_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--data-dir DIR] "
               "[--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (args.seconds < 1) Usage("--seconds must be >= 1");
  return args;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Replaces `live` with a copy of the prep phase's store, so every set-up
/// and every pass replays the same WAL.
void ResetStore(const std::string& prep, const std::string& live) {
  fs::remove_all(live);
  fs::copy(prep, live, fs::copy_options::recursive);
}

/// TailPercentile, or a failed run when the samples cannot support it.
double Percentile(const std::vector<double>& samples, double p, const char* what) {
  std::optional<double> v = TailPercentile(samples, p);
  if (!v) {
    std::fprintf(stderr,
                 "perfbench: %s p%g needs %zu samples beyond it, got %zu in "
                 "all; run longer\n",
                 what, p, kMinTailSamples, samples.size());
    std::exit(2);
  }
  return *v;
}

double SafeDiv(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// The outcome check every pass must meet: every conversation done and on
/// its target, and every sampled transcript byte-identical to Discover()'s.
struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
};

Verdict Check(const PassResult& pass,
              const std::vector<std::vector<std::pair<EntityId, uint8_t>>>& ref,
              const std::vector<bool>& sampled) {
  Verdict v;
  v.attempted = pass.outcomes.size();
  for (size_t i = 0; i < pass.outcomes.size(); ++i) {
    const Outcome& o = pass.outcomes[i];
    if (!o.done || !o.ok) ++v.failed;
    if (sampled[i] && o.transcript != ref[i]) ++v.mismatches;
  }
  return v;
}

/// Spans of one pass, with the per-kind totals the metrics need.
struct SpanSummary {
  std::vector<SpanRecord> spans;
  std::unordered_map<uint64_t, size_t> by_id;

  explicit SpanSummary(std::vector<SpanRecord> s) : spans(std::move(s)) {
    for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  }

  std::vector<double> DurationsUs(SpanKind kind) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans) {
      if (s.kind == kind) out.push_back(static_cast<double>(s.dur_ns) / 1e3);
    }
    return out;
  }
  double TotalUs(SpanKind kind) const {
    double total = 0.0;
    for (const SpanRecord& s : spans) {
      if (s.kind == kind) total += static_cast<double>(s.dur_ns) / 1e3;
    }
    return total;
  }

  /// Links every server-side span to the client RPC of the same trace whose
  /// interval contains its start; returns how many were linked.
  size_t LinkByTrace() {
    std::unordered_map<uint64_t, std::vector<size_t>> rpcs;
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      if ((s.kind == SpanKind::kRpcCreate || s.kind == SpanKind::kRpcAnswer) &&
          s.trace != 0) {
        rpcs[s.trace].push_back(i);
      }
    }
    size_t linked = 0;
    for (SpanRecord& s : spans) {
      if (s.parent != 0 || s.trace == 0 || s.kind == SpanKind::kRpcCreate ||
          s.kind == SpanKind::kRpcAnswer) {
        continue;
      }
      auto it = rpcs.find(s.trace);
      if (it == rpcs.end()) continue;
      for (size_t r : it->second) {
        const SpanRecord& rpc = spans[r];
        if (s.start_ns >= rpc.start_ns &&
            s.start_ns <= rpc.start_ns + rpc.dur_ns) {
          s.parent = rpc.id;
          ++linked;
          break;
        }
      }
    }
    return linked;
  }

  /// Self time (span minus its direct children) of every span of `kind`.
  std::vector<double> SelfUs(SpanKind kind) const {
    std::unordered_map<uint64_t, uint64_t> child_ns;
    for (const SpanRecord& s : spans) {
      if (s.parent != 0) child_ns[s.parent] += s.dur_ns;
    }
    std::vector<double> out;
    for (const SpanRecord& s : spans) {
      if (s.kind != kind) continue;
      auto it = child_ns.find(s.id);
      const uint64_t children = it == child_ns.end() ? 0 : it->second;
      const uint64_t self = s.dur_ns > children ? s.dur_ns - children : 0;
      out.push_back(static_cast<double>(self) / 1e3);
    }
    return out;
  }

  /// Total time of `kind` spans whose parent is a span of `parent_kind`.
  double ChildTotalUs(SpanKind kind, SpanKind parent_kind) const {
    double total = 0.0;
    for (const SpanRecord& s : spans) {
      if (s.kind != kind || s.parent == 0) continue;
      auto it = by_id.find(s.parent);
      if (it != by_id.end() && spans[it->second].kind == parent_kind) {
        total += static_cast<double>(s.dur_ns) / 1e3;
      }
    }
    return total;
  }

  void Write(std::ostream& out, const char* pass) const {
    for (const SpanRecord& s : spans) {
      out << pass << '\t' << s.id << '\t' << s.parent << '\t' << s.trace
          << '\t' << SpanKindName(s.kind) << '\t' << s.start_ns << '\t'
          << s.dur_ns << '\t' << s.bytes << '\t' << (s.replay ? 1 : 0) << '\n';
    }
  }
};

void PrintHost(const Args& args, const WorkloadSpec& spec, const Loaded& loaded,
               size_t conversations) {
  const setdisc::SetCollection& c = loaded.collection;
  std::printf(
      "{\"host\": {\"nproc\": %u, \"compiler\": \"g++ %s\", \"build_type\": "
      "\"%s\", \"cxx_flags\": \"%s\", \"kernel_multiarch\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"conversations\": %zu, \"collection_sets\": %u, "
      "\"collection_entities\": %u, \"collection_elements\": %zu, "
      "\"clients\": %d, \"pool_threads\": %zu, \"open_per_client\": %d, "
      "\"max_sessions\": %zu, \"step_tail_percentile\": %g}}\n",
      std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
      PERFBENCH_CXX_FLAGS, PERFBENCH_KERNEL_MULTIARCH, spec.name.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, conversations,
      static_cast<unsigned>(c.num_sets()),
      static_cast<unsigned>(c.num_distinct_entities()), c.total_elements(),
      spec.clients, spec.pool_threads, spec.open_per_client,
      spec.max_sessions, spec.step_tail_percentile);
  std::fflush(stdout);
}

int Run(const Args& args) {
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) Usage(("unknown workload " + args.workload).c_str());
  const WorkloadSpec& spec = *found;
  const std::string file = EnsureCollectionFile(spec, args.data_dir);
  const std::string prep_store = args.data_dir + "/store-" + spec.name + "-prep";
  const std::string live_store = args.data_dir + "/store-" + spec.name + "-live";

  const size_t open_count =
      spec.store ? static_cast<size_t>(spec.clients * spec.open_per_client) : 0;
  // A traced run makes three passes (untraced, traced over TCP, traced in
  // process), each over half the conversations of an end-to-end run.
  const double pass_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  const size_t count = std::max<size_t>(
      static_cast<size_t>(spec.conversations_per_second * pass_seconds + 0.5),
      kMinConversations + open_count);

  // Inputs come from the loaded collection. A store workload needs them
  // before set-up (its prep phase fills the store that set-up replays), so
  // it loads the file once more, untimed.
  std::vector<Conversation> conversations;
  std::vector<OpenConversation> open;
  if (spec.store) {
    double unused_load = 0.0, unused_index = 0.0;
    std::unique_ptr<Loaded> loaded = LoadCollection(file, &unused_load, &unused_index);
    conversations = MakeConversations(spec, *loaded, count, args.seed);
    open = PrepOpenConversations(spec, *loaded, conversations, open_count,
                                 prep_store, args.seed);
  }

  // Set-up: what a serving process pays at boot, repeated before the
  // measured pass (the last stack built serves it) and after it.
  std::vector<double> setup_s, load_s, index_s, open_s;
  std::unique_ptr<Loaded> loaded;
  std::unique_ptr<Serving> serving;
  // Set-up is single-threaded, and on a virtual machine one CPU can run
  // several times slower than its neighbours for many seconds; a set-up
  // that stayed on one CPU would time that CPU. So the set-ups take turns
  // over the CPUs the process may use, each pinned to one. Threads inherit
  // the pin, so the set-up whose stack serves the pass runs unpinned.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  auto set_up = [&](std::optional<int> cpu) {
    serving.reset();
    loaded.reset();
    if (spec.store) ResetStore(prep_store, live_store);
    if (cpu) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(*cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    setdisc::WallTimer timer;
    double load = 0.0, index = 0.0, store_open = 0.0;
    loaded = LoadCollection(file, &load, &index);
    serving = StartServing(spec, *loaded, live_store, /*with_server=*/true,
                           /*traced=*/false, &store_open);
    setup_s.push_back(timer.Seconds());
    load_s.push_back(load);
    index_s.push_back(index);
    open_s.push_back(store_open);
    if (cpu) sched_setaffinity(0, sizeof(allowed), &allowed);
    return setup_s.back();
  };
  // One side's set-ups; with `serve_last`, the last is unpinned and its
  // stack is left standing.
  auto set_up_side = [&](size_t min_setups, bool serve_last) {
    double side_s = 0.0;
    size_t n = 0;
    for (; n + (serve_last ? 1 : 0) < min_setups ||
           (n + 1 < kMaxSetupsPerSide && side_s < kSetupBudgetS);
         ++n) {
      side_s += set_up(cpus.empty() ? std::nullopt
                                    : std::optional<int>(
                                          cpus[setup_s.size() % cpus.size()]));
    }
    if (serve_last) set_up(std::nullopt);
  };
  set_up_side(kMinSetupsBefore, /*serve_last=*/true);
  if (!spec.store) {
    conversations = MakeConversations(spec, *loaded, count, args.seed);
  }
  PrintHost(args, spec, *loaded, conversations.size());

  // The reference: a seeded sample replayed through Discover().
  std::vector<bool> sampled(conversations.size(), false);
  std::vector<std::vector<std::pair<EntityId, uint8_t>>> reference(
      conversations.size());
  {
    setdisc::Rng rng(args.seed ^ 0xc0ffeeULL);
    for (size_t k = 0; k < kReferenceSample; ++k) {
      sampled[rng.Uniform(conversations.size())] = true;
    }
    for (size_t i = 0; i < conversations.size(); ++i) {
      if (!sampled[i]) continue;
      const Conversation& conv = conversations[i];
      std::unique_ptr<setdisc::EntitySelector> selector = spec.selector();
      setdisc::SimulatedOracle oracle(&loaded->collection, conv.target, 0.0,
                                      spec.dont_know_rate, conv.oracle_seed);
      setdisc::DiscoveryResult r =
          setdisc::Discover(loaded->collection, *loaded->index, conv.initial,
                            *selector, oracle);
      for (const auto& [entity, answer] : r.transcript) {
        reference[i].emplace_back(entity, setdisc::net::AnswerToWire(answer));
      }
    }
  }

  // Pass 1: the end-to-end measurement, tracing off.
  PassResult pass = RunPass(spec, loaded->collection, conversations, open,
                            sampled, serving->server->port(), nullptr,
                            /*traced=*/false, serving->store.get(), args.seed);
  serving.reset();
  Verdict verdict = Check(pass, reference, sampled);
  set_up_side(kMinSetupsAfter, /*serve_last=*/false);
  serving.reset();

  std::vector<Metric> metrics;
  if (!args.trace) {
    double questions = 0.0;
    uint64_t ok = 0;
    for (const Outcome& o : pass.outcomes) {
      questions += o.questions;
      ok += o.ok ? 1 : 0;
    }
    const double completed = static_cast<double>(pass.completed);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"first_question_p50_us", Percentile(pass.creates, 50, "first question"), "us"},
        {"mean_step_p50_us", Percentile(pass.mean_steps, 50, "mean step"), "us"},
        {"step_tail_us", Percentile(pass.steps, spec.step_tail_percentile, "step"), "us"},
        {"cpu_ms_per_session", SafeDiv(pass.cpu_s * 1e3, completed), "ms"},
        {"questions_per_session", SafeDiv(questions, static_cast<double>(pass.outcomes.size())), "count"},
        {"ok_frac", SafeDiv(static_cast<double>(ok), static_cast<double>(pass.outcomes.size())), "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    std::fprintf(stderr,
                 "perfbench %s: %zu conversations, %zu steps, %.2fs wall, "
                 "%.1f sessions/s, %llu transport errors, %llu transcript "
                 "mismatches\n",
                 spec.name.c_str(), pass.outcomes.size(), pass.steps.size(),
                 pass.wall_s, SafeDiv(completed, pass.wall_s),
                 static_cast<unsigned long long>(pass.transport_errors),
                 static_cast<unsigned long long>(verdict.mismatches));
    std::fprintf(stderr, "perfbench set-ups (s):");
    for (double x : setup_s) std::fprintf(stderr, " %.4f", x);
    std::fprintf(stderr, "\n");
  } else {
    // Pass 2: the same conversations over TCP with every wrapper on, the
    // server's journey contexts on, and client auto-trace on.
    if (spec.store) ResetStore(prep_store, live_store);
    setdisc::obs::SetJourneyEnabled(true);
    Tracer::Get().set_enabled(true);
    double unused = 0.0;
    serving = StartServing(spec, *loaded, live_store, /*with_server=*/true,
                           /*traced=*/true, &unused);
    PassResult tcp = RunPass(spec, loaded->collection, conversations, open,
                             sampled, serving->server->port(), nullptr,
                             /*traced=*/true, serving->store.get(), args.seed);
    const setdisc::net::ServerStats server_stats = serving->server->stats();
    const setdisc::SelectionCacheStats cache_stats =
        serving->cache != nullptr ? serving->cache->stats()
                                  : setdisc::SelectionCacheStats{};
    const double tcp_rehydrations = static_cast<double>(
        serving->factory_calls.load() - serving->manager->num_created());
    serving.reset();
    setdisc::obs::SetJourneyEnabled(false);
    SpanSummary tcp_spans(Tracer::Get().Drain());
    const size_t linked = tcp_spans.LinkByTrace();

    // Pass 3: the same request sequence straight into a SessionManager.
    if (spec.store) ResetStore(prep_store, live_store);
    serving = StartServing(spec, *loaded, live_store, /*with_server=*/false,
                           /*traced=*/true, &unused);
    PassResult direct = RunPass(spec, loaded->collection, conversations, open,
                                sampled, 0, serving->manager.get(),
                                /*traced=*/true, serving->store.get(), args.seed);
    const double direct_rehydrations = static_cast<double>(
        serving->factory_calls.load() - serving->manager->num_created());
    serving.reset();
    Tracer::Get().set_enabled(false);
    SpanSummary direct_spans(Tracer::Get().Drain());

    for (const PassResult* p : {&tcp, &direct}) {
      Verdict v = Check(*p, reference, sampled);
      verdict.attempted += v.attempted;
      verdict.failed += v.failed;
      verdict.mismatches += v.mismatches;
    }

    const double creates = static_cast<double>(tcp.creates.size());
    const double answers = static_cast<double>(tcp.steps.size());
    const double requests = creates + answers;
    const double completed = static_cast<double>(tcp.completed);
    const std::vector<double> selects = tcp_spans.DurationsUs(SpanKind::kSelect);
    const std::vector<double> appends = tcp_spans.DurationsUs(SpanKind::kStoreAppend);
    double append_bytes = 0.0;
    for (const SpanRecord& s : tcp_spans.spans) {
      if (s.kind == SpanKind::kStoreAppend) append_bytes += static_cast<double>(s.bytes);
    }
    const std::vector<double> checkpoints =
        tcp_spans.DurationsUs(SpanKind::kStoreAtomicWrite);
    const double direct_select_us =
        direct_spans.ChildTotalUs(SpanKind::kSelect, SpanKind::kCallCreate) +
        direct_spans.ChildTotalUs(SpanKind::kSelect, SpanKind::kCallAnswer);
    const double direct_call_us = direct_spans.TotalUs(SpanKind::kCallCreate) +
                                  direct_spans.TotalUs(SpanKind::kCallAnswer);
    size_t replay_selects = 0;
    for (const SpanRecord& s : direct_spans.spans) replay_selects += s.replay ? 1 : 0;
    const double tcp_step_p50 = Median(tcp.steps);
    const double direct_step_p50 = Median(direct.steps);
    // CPU per completed conversation, traced over untraced: the capacity
    // cost of tracing, steadier than a ratio of conversation rates.
    const double cpu_per_session_untraced =
        SafeDiv(pass.cpu_s, static_cast<double>(pass.completed));
    const double cpu_per_session_traced = SafeDiv(tcp.cpu_s, completed);

    metrics = {
        {"collection.load_s", Median(load_s), "s"},
        {"collection.index_build_s", Median(index_s), "s"},
        {"collection.note_partition_us",
         SafeDiv(tcp_spans.TotalUs(SpanKind::kNotePartition), answers), "us"},
        {"core.select_us_p50", Median(selects), "us"},
        {"core.select_us_p99", TailPercentile(selects, 99).value_or(0.0), "us"},
        {"core.selects_per_step", SafeDiv(static_cast<double>(selects.size()), requests), "count"},
        {"core.select_share", SafeDiv(direct_select_us, direct_call_us), "ratio"},
        {"cache.hit_frac", cache_stats.HitRate(), "ratio"},
        {"cache.lookups_per_step", SafeDiv(static_cast<double>(cache_stats.lookups), requests), "count"},
        {"cache.insertions_per_session", SafeDiv(static_cast<double>(cache_stats.insertions), completed), "count"},
        {"cache.evictions", static_cast<double>(cache_stats.evictions), "count"},
        {"manager.step_self_us", Median(direct_spans.SelfUs(SpanKind::kCallAnswer)), "us"},
        {"manager.create_self_us", Median(direct_spans.SelfUs(SpanKind::kCallCreate)), "us"},
        {"store.open_s", Median(open_s), "s"},
        {"store.append_us", SafeDiv(tcp_spans.TotalUs(SpanKind::kStoreAppend), static_cast<double>(appends.size())), "us"},
        {"store.appends_per_step", SafeDiv(static_cast<double>(appends.size()), requests), "count"},
        {"store.bytes_per_step", SafeDiv(append_bytes, requests), "bytes"},
        {"store.checkpoint_ms", SafeDiv(tcp_spans.TotalUs(SpanKind::kStoreAtomicWrite) / 1e3, static_cast<double>(checkpoints.size())), "ms"},
        {"store.rehydrate_frac", SafeDiv(tcp_rehydrations, answers), "ratio"},
        {"store.replay_selects_per_rehydrate", SafeDiv(static_cast<double>(replay_selects), direct_rehydrations), "count"},
        {"net.step_overhead_us", tcp_step_p50 - direct_step_p50, "us"},
        {"net.create_overhead_us",
         Median(tcp.creates) - Median(direct.creates), "us"},
        {"net.answer_self_us", Median(tcp_spans.SelfUs(SpanKind::kRpcAnswer)), "us"},
        {"net.frames_per_step", SafeDiv(static_cast<double>(server_stats.frames_received), requests), "count"},
        {"obs.trace_overhead_frac", SafeDiv(cpu_per_session_traced, cpu_per_session_untraced) - 1.0, "ratio"},
    };

    fs::create_directories(args.out_dir);
    const std::string span_path = args.out_dir + "/" + spec.name + ".spans.tsv";
    std::ofstream span_file(span_path);
    span_file << "pass\tid\tparent\ttrace\tname\tstart_ns\tdur_ns\tbytes\treplay\n";
    tcp_spans.Write(span_file, "tcp");
    direct_spans.Write(span_file, "in_process");
    std::fprintf(stderr,
                 "perfbench %s trace: %zu tcp spans (%zu linked to an RPC), "
                 "%zu in-process spans -> %s\n",
                 spec.name.c_str(), tcp_spans.spans.size(), linked,
                 direct_spans.spans.size(), span_path.c_str());
    // The step budget: how a client-observed step p50 splits into layers.
    std::fprintf(stderr,
                 "perfbench %s step budget: tcp p50 %.1fus = net %.1fus + "
                 "in-process p50 %.1fus\n",
                 spec.name.c_str(), tcp_step_p50, tcp_step_p50 - direct_step_p50,
                 direct_step_p50);
  }

  const bool correct = verdict.failed == 0 && verdict.mismatches == 0 &&
                       pass.transport_errors == 0;
  std::printf("%s\n", ResultJson(correct, verdict.attempted, verdict.failed,
                                 metrics)
                          .c_str());
  std::fflush(stdout);
  if (spec.store) fs::remove_all(live_store);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
