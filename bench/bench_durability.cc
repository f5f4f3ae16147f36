// Durability-tier overhead (src/service/session_store): what crash-safe
// session persistence costs the serving hot path, and what a restart buys.
//
// Three measurements:
//
//  * WAL overhead per step — full simulated conversations through two
//    SessionManagers, one RAM-only and one journaling every step to a
//    SessionStore WAL, interleaved per conversation so scheduler noise
//    lands on both sides evenly. The contract is that journaling costs
//    < 5% steps/sec (a session record is a few dozen bytes against a
//    counting pass over the collection); `--assert` turns a violation
//    into a nonzero exit. fsync mode is reported for contrast but not
//    asserted — synchronous disk flushes are priced honestly.
//
//  * Restart replay throughput — how fast SessionStore::Open rebuilds the
//    record map from checkpoint + WAL (the serving gap after a crash).
//
//  * Cold create vs. warm resume — first-step latency of a fresh
//    conversation vs. rehydrating a spilled one by journal replay (what a
//    reconnecting client pays after a restart). Records journal the
//    question each answer answered, so the replay partitions without
//    calling Select(); the same sessions stripped of their recorded
//    questions — what a version-1 record holds — resume by selector replay,
//    the path every resume took before, and are timed alongside as the
//    baseline. `--assert` fails when warm resume costs more than 1.5x a
//    cold create.
//
// --json prints the machine-readable document to stdout (tables go to
// stderr); the committed BENCH_durability.json is this bench's output at
// paper scale, the baseline future PRs trend against.

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "service/session_manager.h"
#include "service/session_store.h"
#include "util/rng.h"

namespace setdisc::bench {
namespace {

SetCollection BenchCollection(uint64_t seed, uint32_t n, uint32_t m,
                              double density) {
  Rng rng(seed);
  SetCollectionBuilder builder;
  for (uint32_t s = 0; s < n; ++s) {
    std::vector<EntityId> elems;
    elems.push_back(static_cast<EntityId>(m + (s % 64)));
    elems.push_back(static_cast<EntityId>(m + 64 + (s / 64) % 64));
    for (EntityId e = 0; e < m; ++e) {
      if (rng.Bernoulli(density)) elems.push_back(e);
    }
    builder.AddSet(std::move(elems));
  }
  return builder.Build();
}

struct SliceResult {
  double seconds = 0.0;
  uint64_t steps = 0;
};

/// One full conversation (create → drive → close) against `manager`;
/// conversation `i` uses the same target everywhere, so transcripts and
/// step counts are identical across managers.
SliceResult RunConversation(const SetCollection& c, SessionManager& manager,
                            int i) {
  const SetId target = static_cast<SetId>((i * 7919 + 13) % c.num_sets());
  SimulatedOracle oracle(&c, target);
  WallTimer timer;
  SessionView view = manager.Drive(manager.Create({}), oracle);
  double seconds = timer.Seconds();
  uint64_t steps = static_cast<uint64_t>(view.result.questions);
  manager.Close(view.id);
  return {seconds, steps};
}

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

SessionManagerOptions BaseOptions() {
  SessionManagerOptions options;
  options.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
  options.num_threads = 2;
  options.background_reap = false;
  return options;
}

}  // namespace
}  // namespace setdisc::bench

int main(int argc, char** argv) {
  using namespace setdisc;
  using namespace setdisc::bench;

  JsonReport report("durability", HasFlag(argc, argv, "--json"));
  const bool assert_bound = HasFlag(argc, argv, "--assert");
  std::ostream& out = report.text();
  Banner("durability", "session WAL overhead, replay throughput, warm resume",
         out);

  const uint32_t num_sets = ScalePick<uint32_t>(4000, 10000, 24000);
  const uint32_t num_entities = ScalePick<uint32_t>(200, 320, 500);
  const int conversations = ScalePick<int>(160, 400, 900);

  SetCollection c = BenchCollection(/*seed=*/97, num_sets, num_entities,
                                    /*density=*/0.28);
  InvertedIndex idx(c);
  const std::string dir = std::filesystem::temp_directory_path().string() +
                          "/setdisc_bench_durability_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  out << "collection: " << c.num_sets() << " sets, "
      << c.num_distinct_entities() << " entities; " << conversations
      << " MostEven conversations per mode, interleaved per conversation\n\n";

  // ------------------------------------------------------------------
  // WAL overhead per step (paired, per-conversation slices)
  // ------------------------------------------------------------------
  enum { kRam = 0, kWal = 1, kWalFsync = 2, kNumModes = 3 };
  const char* mode_names[kNumModes] = {"ram", "wal", "wal+fsync"};

  SessionStoreOptions wal_opt;
  wal_opt.dir = dir + "/wal";
  SessionStore wal_store(wal_opt);
  if (!wal_store.Open(c.Fingerprint()).ok()) {
    out << "error: cannot open bench store in " << wal_opt.dir << "\n";
    return 1;
  }
  SessionStoreOptions fsync_opt;
  fsync_opt.dir = dir + "/fsync";
  fsync_opt.fsync = true;
  SessionStore fsync_store(fsync_opt);
  if (!fsync_store.Open(c.Fingerprint()).ok()) {
    out << "error: cannot open bench store in " << fsync_opt.dir << "\n";
    return 1;
  }

  SessionManagerOptions ram_options = BaseOptions();
  SessionManagerOptions wal_options = BaseOptions();
  wal_options.session_store = &wal_store;
  SessionManagerOptions fsync_options = BaseOptions();
  fsync_options.session_store = &fsync_store;

  SessionManager manager_ram(c, idx, ram_options);
  SessionManager manager_wal(c, idx, wal_options);
  SessionManager manager_fsync(c, idx, fsync_options);
  SessionManager* managers[kNumModes] = {&manager_ram, &manager_wal,
                                         &manager_fsync};

  // Warmup (untimed): fault the collection in, open the WAL files.
  for (int m = 0; m < kNumModes; ++m) {
    for (int i = 0; i < std::max(1, conversations / 8); ++i) {
      RunConversation(c, *managers[m], i);
    }
  }

  double seconds_total[kNumModes] = {0, 0, 0};
  uint64_t steps_total[kNumModes] = {0, 0, 0};
  std::vector<std::array<double, kNumModes>> slice_seconds(
      static_cast<size_t>(conversations));
  for (int i = 0; i < conversations; ++i) {
    for (int k = 0; k < kNumModes; ++k) {
      const int m = (i + k) % kNumModes;  // rotate order per slice
      SliceResult r = RunConversation(c, *managers[m], i);
      seconds_total[m] += r.seconds;
      steps_total[m] += r.steps;
      slice_seconds[static_cast<size_t>(i)][m] = r.seconds;
    }
  }

  // Paired per-conversation ratios; the median shrugs off bursty
  // interference the aggregate totals would absorb in full.
  double median_ratio[kNumModes] = {1.0, 1.0, 1.0};
  for (int m = 1; m < kNumModes; ++m) {
    std::vector<double> ratios(slice_seconds.size());
    for (size_t s = 0; s < slice_seconds.size(); ++s) {
      ratios[s] = slice_seconds[s][kRam] / slice_seconds[s][m];
    }
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                     ratios.end());
    median_ratio[m] = ratios[ratios.size() / 2];
  }

  TablePrinter table({"mode", "steps/sec", "us/step", "vs ram", "steps"});
  for (int m = 0; m < kNumModes; ++m) {
    const double rate = static_cast<double>(steps_total[m]) / seconds_total[m];
    table.AddRow(
        {mode_names[m], Format("%.0f", rate), Format("%.2f", 1e6 / rate),
         Format("%+.2f%%", (median_ratio[m] - 1.0) * 100.0),
         Format("%llu", static_cast<unsigned long long>(steps_total[m]))});
    report.Add(JsonReport::Row()
                   .Str("mode", mode_names[m])
                   .Num("steps_per_sec", rate)
                   .Num("us_per_step", 1e6 / rate)
                   .Num("ratio_vs_ram", median_ratio[m])
                   .Int("steps", static_cast<int64_t>(steps_total[m])));
  }
  table.Print(out);
  SessionStoreStats wal_stats = wal_store.stats();
  out << "\nwal mode journaled " << wal_stats.puts << " puts ("
      << wal_stats.wal_bytes << " WAL bytes, " << wal_stats.wal_flushes
      << " flushes); transcripts are identical across modes.\n\n";

  // ------------------------------------------------------------------
  // Restart replay throughput
  // ------------------------------------------------------------------
  const int replay_sessions = ScalePick<int>(2000, 8000, 20000);
  {
    SessionStoreOptions opt;
    opt.dir = dir + "/replay";
    {
      SessionStore seed_store(opt);
      if (!seed_store.Open(1).ok()) return 1;
      SessionRecord rec;
      rec.collection_fingerprint = 1;
      rec.selector = "MostEven";
      rec.initial = {1, 2, 3};
      for (int i = 0; i < 12; ++i) {
        rec.events.push_back(SessionEvent{kEventAnswer,
                                          static_cast<uint8_t>(i % 2), 0});
      }
      for (int i = 1; i <= replay_sessions; ++i) {
        rec.id = static_cast<uint64_t>(i);
        seed_store.Put(rec);
      }
      if (!seed_store.Flush().ok()) return 1;
    }
    SessionStore reopened(opt);
    WallTimer timer;
    if (!reopened.Open(1).ok()) return 1;
    const double seconds = timer.Seconds();
    const double per_sec = replay_sessions / seconds;
    out << "restart replay: " << replay_sessions << " session records in "
        << Format("%.1f ms", seconds * 1e3) << " ("
        << Format("%.0f", per_sec) << " records/sec)\n";
    report.Add(JsonReport::Row()
                   .Str("mode", "replay")
                   .Int("records", replay_sessions)
                   .Num("seconds", seconds)
                   .Num("records_per_sec", per_sec));
  }

  // ------------------------------------------------------------------
  // Cold create vs. warm resume (journal replay) first-step latency
  // ------------------------------------------------------------------
  double cold_us = 0.0, warm_us = 0.0;
  {
    const int probes = ScalePick<int>(60, 150, 300);
    SessionStoreOptions opt;
    opt.dir = dir + "/resume";
    SessionStore store(opt);
    if (!store.Open(c.Fingerprint()).ok()) return 1;
    SessionManagerOptions options = BaseOptions();
    options.session_store = &store;

    // Each probe conversation is journaled twice: once as written, once
    // stripped of its recorded questions (selector replay).
    std::vector<uint64_t> ids, selector_ids;
    {
      SessionManager writer(c, idx, options);
      for (int i = 0; i < probes; ++i) {
        const SetId target = static_cast<SetId>((i * 31 + 5) % c.num_sets());
        for (std::vector<uint64_t>* out_ids : {&ids, &selector_ids}) {
          SimulatedOracle oracle(&c, target);
          SessionView view = writer.Create({});
          // Three answered steps of journal to replay on resume.
          for (int step = 0; step < 3; ++step) {
            if (view.state != SessionState::kAwaitingAnswer) break;
            writer.SubmitAnswer(view.id, oracle.AskMembership(view.question),
                                &view);
          }
          out_ids->push_back(view.id);
        }
      }
      // Writer manager torn down: the store alone carries the sessions.
    }
    for (uint64_t id : selector_ids) {
      SessionRecord rec;
      if (!store.Get(id, &rec)) return 1;
      for (SessionEvent& ev : rec.events) ev.entity = kNoEntity;
      rec.next_question = kNoEntity;
      store.Put(rec);
    }

    // Interleaved per probe, so host drift lands on all three evenly;
    // medians, so one preempted probe does not move the figure.
    SessionManager resumer(c, idx, options);
    std::vector<double> cold(probes), warm(probes), warm_selector(probes);
    int resumed = 0;
    for (int i = 0; i < probes; ++i) {
      WallTimer cold_timer;
      SessionView view = resumer.Create({});
      resumer.Close(view.id);
      cold[i] = cold_timer.Seconds() * 1e6;

      WallTimer warm_timer;
      if (resumer.Get(ids[i], &view) == SessionStatus::kOk) ++resumed;
      warm[i] = warm_timer.Seconds() * 1e6;

      WallTimer selector_timer;
      if (resumer.Get(selector_ids[i], &view) == SessionStatus::kOk) ++resumed;
      warm_selector[i] = selector_timer.Seconds() * 1e6;
    }
    cold_us = Median(cold);
    warm_us = Median(warm);
    const double warm_selector_us = Median(warm_selector);
    out << "first step (median): cold create " << Format("%.1f us", cold_us)
        << ", warm resume (3-event replay) " << Format("%.1f us", warm_us)
        << Format(" (%.2fx cold)", warm_us / cold_us)
        << ", by selector replay " << Format("%.1f us", warm_selector_us)
        << " (" << resumed << "/" << 2 * probes << " resumed)\n";
    report.Add(JsonReport::Row()
                   .Str("mode", "first_step")
                   .Num("cold_create_us", cold_us)
                   .Num("warm_resume_us", warm_us)
                   .Num("warm_resume_selector_replay_us", warm_selector_us)
                   .Num("warm_over_cold", warm_us / cold_us)
                   .Int("resumed", resumed)
                   .Int("hardware_threads", static_cast<int64_t>(
                                                std::thread::hardware_concurrency())));
  }

  // The durability contract: asynchronous journaling must cost < 5%
  // steps/sec against RAM-only serving. fsync mode is reported above for
  // contrast but never asserted.
  const double kMaxOverhead = 0.05;
  const double overhead = 1.0 - median_ratio[kWal];
  bool ok = overhead <= kMaxOverhead;
  if (ok) {
    out << "\nWAL overhead bound holds: "
        << Format("%.2f%%", overhead * 100.0) << " <= 5% per step.\n";
  } else {
    out << "\nREGRESSION: WAL journaling is "
        << Format("%.2f%%", overhead * 100.0)
        << " slower than RAM-only serving (bound: 5%)\n";
  }
  // Warm resume replays recorded questions instead of re-selecting at every
  // journaled node, so it must stay close to a cold create (one Select).
  const double kMaxWarmOverCold = 1.5;
  if (warm_us <= kMaxWarmOverCold * cold_us) {
    out << "warm resume bound holds: " << Format("%.2fx", warm_us / cold_us)
        << " <= 1.5x cold create.\n";
  } else {
    out << "REGRESSION: warm resume is " << Format("%.2fx", warm_us / cold_us)
        << " a cold create (bound: 1.5x)\n";
    ok = false;
  }

  report.Print();
  std::filesystem::remove_all(dir);
  if (assert_bound && !ok) return 1;
  return 0;
}
