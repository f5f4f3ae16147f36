#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "collection/serialization.h"
#include "core/klp.h"
#include "core/selectors.h"
#include "net/client.h"
#include "net/protocol.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace perfbench {

using setdisc::Oracle;
using setdisc::Rng;
using setdisc::SessionId;
using setdisc::SessionState;
using setdisc::SimulatedOracle;
using setdisc::Status;

namespace {

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;

  // The paper's §5.2.1 protocol: 2-LP lookahead and counting over
  // thousands of candidates dominate each step; the cache mostly inserts.
  WorkloadSpec web;
  web.name = "paper_webtables_2lp";
  web.webtables = true;
  // bench_common.h's full-scale web-tables configuration.
  web.web.num_sets = 300000;
  web.web.num_domains = 3000;
  web.web.max_set_size = 120;
  web.web.value_zipf = 1.05;
  web.web.ambiguous_fraction = 0.12;
  web.web.noise_rate = 0.05;
  web.web.seed = 2024;
  web.file = "webtables-300k.txt";
  web.shape = InputShape::kSeedPairs;
  web.selector = [] {
    return std::make_unique<setdisc::KlpSelector>(
        setdisc::KlpOptions::MakeKlp(2, setdisc::CostMetric::kAvgDepth));
  };
  web.cache = true;
  web.conversations_per_second = 120;
  web.step_tail_percentile = 99;
  specs.push_back(std::move(web));

  // Every conversation starts from one example with a shared cache, so the
  // wire and the service bookkeeping dominate a step.
  WorkloadSpec hot;
  hot.name = "hot_prefix_mosteven";
  // bench_server's copy-add collection at its medium scale.
  hot.synth.num_sets = 10000;
  hot.synth.min_set_size = 20;
  hot.synth.max_set_size = 40;
  hot.synth.overlap = 0.7;
  hot.synth.seed = 404;
  hot.file = "copyadd-10k-d20-40.txt";
  hot.shape = InputShape::kHotExample;
  hot.selector = [] { return std::make_unique<setdisc::MostEvenSelector>(); };
  hot.cache = true;
  hot.conversations_per_second = 1600;
  // Above the 90th percentile the step time mixes the ~1% cache misses
  // with host scheduling stalls and stops repeating.
  hot.step_tail_percentile = 90;

  // Every step appends to the WAL, and with 48 conversations open against
  // a registry of 36, about a quarter land on spilled sessions that
  // rehydrate by replay.
  WorkloadSpec parked;
  parked.name = "parked_resume_wal";
  // The paper's §5.2.2 copy-add defaults (d in [50, 60], overlap 0.9) at
  // n = 2000: a whole-collection Select still costs hundreds of µs, and the
  // collection and its index (~110k incidences each) fit in a core's 2 MiB
  // L2. At n = 10000 they do not, and every timing of this workload moved
  // with the shared host's memory traffic (perfbench/README.md, run-to-run
  // spread).
  parked.synth = setdisc::SyntheticConfig{};
  parked.synth.num_sets = 2000;
  parked.synth.seed = 404;
  parked.file = "copyadd-2k-d50-60.txt";
  parked.shape = InputShape::kWholeCollection;
  parked.selector = [] { return std::make_unique<setdisc::MostEvenSelector>(); };
  parked.store = true;
  parked.dont_know_rate = 0.1;
  parked.open_per_client = 24;
  parked.max_sessions = 36;
  parked.conversations_per_second = 500;
  specs.push_back(std::move(hot));
  specs.push_back(std::move(parked));
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

/// Process CPU (user + system) in seconds.
double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

/// A conversation's reply, whichever transport carried it.
struct Reply {
  uint64_t id = 0;
  SessionState state = SessionState::kFinished;
  EntityId question = setdisc::kNoEntity;
  uint64_t trace = 0;
  uint32_t questions = 0;
  std::vector<SetId> candidates;
  uint32_t total_candidates = 0;
  std::vector<std::pair<EntityId, uint8_t>> transcript;
};

class Transport {
 public:
  virtual ~Transport() = default;
  virtual bool Create(std::span<const EntityId> initial, Reply* out) = 0;
  virtual bool Answer(uint64_t id, uint64_t trace, Oracle::Answer answer,
                      Reply* out) = 0;
  virtual void Close(uint64_t id) = 0;
};

/// The wire client, as `bench_server` drives it: no retries (they would
/// hide latency in sleeps), no tokens (the prep phase's sessions are
/// resumed by id alone).
class TcpTransport : public Transport {
 public:
  TcpTransport(uint16_t port, bool traced) : traced_(traced) {
    client_.set_no_retry();
    client_.set_want_token(false);
    client_.set_auto_trace(traced);
    if (!client_.Connect("127.0.0.1", port).ok()) Die("cannot connect");
  }

  bool Create(std::span<const EntityId> initial, Reply* out) override {
    const uint64_t start = traced_ ? NowNs() : 0;
    setdisc::net::SessionStateMsg msg;
    const bool ok = client_.CreateSession(initial, &msg).ok();
    Convert(msg, out);
    out->trace = client_.sent_trace_lo();
    if (traced_) Span(SpanKind::kRpcCreate, out->trace, start);
    return ok;
  }

  bool Answer(uint64_t id, uint64_t trace, Oracle::Answer answer,
              Reply* out) override {
    const uint64_t start = traced_ ? NowNs() : 0;
    setdisc::net::SessionStateMsg msg;
    const bool ok = client_.Answer(id, answer, &msg).ok();
    Convert(msg, out);
    if (traced_) Span(SpanKind::kRpcAnswer, trace, start);
    return ok;
  }

  void Close(uint64_t id) override { (void)client_.CloseSession(id); }

 private:
  static void Convert(const setdisc::net::SessionStateMsg& msg, Reply* out) {
    out->id = msg.session_id;
    out->state = msg.state;
    out->question = msg.question;
    out->questions = msg.result.questions;
    out->candidates = msg.result.candidates;
    out->total_candidates = msg.result.total_candidates;
    out->transcript = msg.result.transcript;
  }

  static void Span(SpanKind kind, uint64_t trace, uint64_t start) {
    SpanRecord span;
    span.kind = kind;
    span.id = Tracer::Get().NextId();
    span.trace = trace;
    span.start_ns = start;
    span.dur_ns = NowNs() - start;
    Tracer::Get().Record(span);
  }

  setdisc::net::DiscoveryClient client_;
  bool traced_;
};

/// Direct calls into the manager: the same request sequence without the
/// wire, event loop, or pool handoff.
class InProcessTransport : public Transport {
 public:
  InProcessTransport(setdisc::SessionManager& manager, bool traced)
      : manager_(manager), traced_(traced) {}

  bool Create(std::span<const EntityId> initial, Reply* out) override {
    std::optional<SpanScope> scope;
    if (traced_) scope.emplace(SpanKind::kCallCreate);
    Convert(manager_.Create(initial), out);
    return true;
  }

  bool Answer(uint64_t id, uint64_t trace, Oracle::Answer answer,
              Reply* out) override {
    (void)trace;
    std::optional<SpanScope> scope;
    if (traced_) scope.emplace(SpanKind::kCallAnswer);
    setdisc::SessionView view;
    const bool ok = manager_.SubmitAnswer(id, answer, &view) ==
                    setdisc::SessionStatus::kOk;
    Convert(view, out);
    return ok;
  }

  void Close(uint64_t id) override { (void)manager_.Close(id); }

 private:
  static void Convert(const setdisc::SessionView& view, Reply* out) {
    out->id = view.id;
    out->state = view.state;
    out->question = view.question;
    out->questions = static_cast<uint32_t>(view.result.questions);
    out->candidates = view.result.candidates;
    out->total_candidates = static_cast<uint32_t>(view.result.candidates.size());
    out->transcript.clear();
    for (const auto& [entity, answer] : view.result.transcript) {
      out->transcript.emplace_back(entity, setdisc::net::AnswerToWire(answer));
    }
  }

  setdisc::SessionManager& manager_;
  bool traced_;
};

/// Samples `count` targets uniformly from `pool`, each with its oracle seed.
void AddTargets(std::span<const SetId> pool, std::vector<EntityId> initial,
                size_t count, Rng& rng, std::vector<Conversation>* out) {
  for (size_t i = 0; i < count; ++i) {
    Conversation conv;
    conv.initial = initial;
    conv.target = pool[rng.Uniform(pool.size())];
    conv.oracle_seed = rng();
    out->push_back(std::move(conv));
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<Conversation> MakeConversations(const WorkloadSpec& spec,
                                            const Loaded& loaded, size_t count,
                                            uint64_t seed) {
  const setdisc::SetCollection& c = loaded.collection;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5eed);
  std::vector<Conversation> out;
  out.reserve(count);
  switch (spec.shape) {
    case InputShape::kSeedPairs: {
      // The paper's >= 100-candidate seed pairs (§5.2.1): a pool of
      // kSeedPairPool pairs sampled with a fixed seed, the same for every
      // run length and workload seed, so the cost of the first questions
      // does not hang on which few huge sub-collections a seed happens to
      // draw. The workload seed picks `count` pairs from it (a seeded
      // permutation, cycled when a run is longer than the pool), and each
      // conversation's target and oracle.
      std::vector<setdisc::SeedPairEntry> pairs =
          setdisc::ExtractSeedPairSubCollections(c, *loaded.index, 100,
                                                 kSeedPairPool, /*seed=*/17);
      if (pairs.empty()) Die("no seed pair has >= 100 candidate sets");
      std::vector<size_t> perm(pairs.size());
      for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      for (size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.Uniform(i)]);
      }
      for (size_t k = 0; k < count; ++k) {
        const setdisc::SeedPairEntry& pair = pairs[perm[k % perm.size()]];
        AddTargets(pair.set_ids, {pair.a, pair.b}, 1, rng, &out);
      }
      break;
    }
    case InputShape::kHotExample: {
      // The most frequent entity (lowest id on ties): one example shared by
      // every conversation.
      EntityId hot = 0;
      for (EntityId e = 0; e < c.num_distinct_entities(); ++e) {
        if (loaded.index->Frequency(e) > loaded.index->Frequency(hot)) hot = e;
      }
      AddTargets(loaded.index->Postings(hot), {hot}, count, rng, &out);
      break;
    }
    case InputShape::kWholeCollection: {
      std::vector<SetId> all(c.num_sets());
      for (SetId s = 0; s < c.num_sets(); ++s) all[s] = s;
      AddTargets(all, {}, count, rng, &out);
      break;
    }
  }
  return out;
}

std::string EnsureCollectionFile(const WorkloadSpec& spec,
                                 const std::string& data_dir) {
  const std::string path = data_dir + "/" + spec.file;
  if (std::filesystem::exists(path)) return path;
  std::filesystem::create_directories(data_dir);
  setdisc::SetCollection c = spec.webtables
                                 ? setdisc::GenerateWebTables(spec.web)
                                 : setdisc::GenerateSynthetic(spec.synth);
  // Written under a temporary name and renamed, so an interrupted run never
  // leaves a truncated collection behind for the next one.
  const std::string tmp = path + ".tmp";
  Status status = setdisc::SaveCollectionText(c, tmp);
  if (!status.ok()) Die("cannot write " + tmp + ": " + status.message());
  std::filesystem::rename(tmp, path);
  return path;
}

std::unique_ptr<Loaded> LoadCollection(const std::string& path, double* load_s,
                                       double* index_s) {
  auto loaded = std::make_unique<Loaded>();
  setdisc::WallTimer timer;
  Status status = setdisc::LoadCollectionText(path, &loaded->collection);
  if (!status.ok()) Die("cannot load " + path + ": " + status.message());
  *load_s = timer.Seconds();
  timer.Reset();
  loaded->index = std::make_unique<setdisc::InvertedIndex>(loaded->collection);
  *index_s = timer.Seconds();
  return loaded;
}

std::unique_ptr<Serving> StartServing(const WorkloadSpec& spec,
                                      const Loaded& loaded,
                                      const std::string& store_dir,
                                      bool with_server, bool traced,
                                      double* store_open_s) {
  auto serving = std::make_unique<Serving>();
  if (spec.cache) serving->cache = std::make_unique<setdisc::SelectionCache>();
  *store_open_s = 0.0;
  if (spec.store) {
    setdisc::SessionStoreOptions options;
    options.dir = store_dir;
    if (traced) {
      serving->fs = std::make_unique<TimedFs>();
      options.fs = serving->fs.get();
    }
    serving->store = std::make_unique<setdisc::SessionStore>(options);
    setdisc::WallTimer timer;
    Status status = serving->store->Open(loaded.collection.Fingerprint());
    if (!status.ok()) Die("cannot open store: " + status.message());
    *store_open_s = timer.Seconds();
  }
  setdisc::SessionManagerOptions options;
  options.selector_factory =
      traced ? TimedFactory(spec.selector, &serving->factory_calls)
             : spec.selector;
  options.num_threads = spec.pool_threads;
  options.selection_cache = serving->cache.get();
  options.max_sessions = spec.max_sessions;
  options.session_store = serving->store.get();
  serving->manager = std::make_unique<setdisc::SessionManager>(
      loaded.collection, *loaded.index, options);
  if (with_server) {
    serving->server =
        std::make_unique<setdisc::net::DiscoveryServer>(*serving->manager);
    Status status = serving->server->Start();
    if (!status.ok()) Die("cannot start server: " + status.message());
  }
  return serving;
}

std::vector<OpenConversation> PrepOpenConversations(
    const WorkloadSpec& spec, const Loaded& loaded,
    const std::vector<Conversation>& conversations, size_t count,
    const std::string& store_dir, uint64_t seed) {
  std::filesystem::remove_all(store_dir);
  double open_s = 0.0;
  std::unique_ptr<Serving> serving =
      StartServing(spec, loaded, store_dir, /*with_server=*/false,
                   /*traced=*/false, &open_s);
  Rng rng(seed ^ 0x70e9ULL);
  std::vector<OpenConversation> open;
  for (size_t i = 0; i < count && i < conversations.size(); ++i) {
    const Conversation& conv = conversations[i];
    SimulatedOracle oracle(&loaded.collection, conv.target, 0.0,
                           spec.dont_know_rate, conv.oracle_seed);
    OpenConversation oc;
    oc.index = i;
    setdisc::SessionView view = serving->manager->Create(conv.initial);
    const int stop_at = static_cast<int>(rng.UniformRange(3, 8));
    while (view.state == SessionState::kAwaitingAnswer &&
           view.questions_asked < stop_at) {
      oc.asked.push_back(view.question);
      const SessionId id = view.id;
      if (serving->manager->SubmitAnswer(
              id, oracle.AskMembership(view.question), &view) !=
          setdisc::SessionStatus::kOk) {
        Die("prep step failed");
      }
    }
    if (view.state != SessionState::kAwaitingAnswer) {
      Die("prep finished a conversation; raise the collection size");
    }
    oc.id = view.id;
    oc.question = view.question;
    open.push_back(std::move(oc));
  }
  Status flushed = serving->store->Flush();
  if (!flushed.ok()) Die("prep flush failed: " + flushed.message());
  return open;
}

PassResult RunPass(const WorkloadSpec& spec,
                   const setdisc::SetCollection& collection,
                   const std::vector<Conversation>& conversations,
                   const std::vector<OpenConversation>& open,
                   const std::vector<bool>& sampled, uint16_t tcp_port,
                   setdisc::SessionManager* manager, bool traced,
                   setdisc::SessionStore* checkpoint_store, uint64_t seed) {
  const int clients = spec.clients;
  auto oracle_for = [&](size_t index) {
    const Conversation& conv = conversations[index];
    return SimulatedOracle(&collection, conv.target, 0.0, spec.dont_know_rate,
                           conv.oracle_seed);
  };

  // One pool of open conversations shared by every client: a client takes
  // a seeded-random idle one, steps it, and puts it back. Conversations
  // belong to no client, so a client that falls behind cannot have its
  // own conversations pushed out of the registry while the others run on.
  struct Slot {
    size_t index;
    uint64_t id;
    EntityId question;
    uint64_t trace;
    SimulatedOracle oracle;
    double step_us = 0.0;  ///< Answer round trips of this pass, summed
    int steps = 0;
  };
  std::mutex pool_mu;
  std::condition_variable pool_cv;
  std::vector<Slot> idle;
  size_t busy = 0;
  Rng order(seed * 31 + 7);
  const size_t width = static_cast<size_t>(clients * spec.open_per_client);
  std::vector<bool> preopened(conversations.size(), false);
  for (const OpenConversation& oc : open) {
    idle.push_back(
        Slot{oc.index, oc.id, oc.question, 0, oracle_for(oc.index)});
    for (EntityId e : oc.asked) (void)idle.back().oracle.AskMembership(e);
    preopened[oc.index] = true;
  }
  std::vector<size_t> to_create;
  for (size_t i = 0; i < conversations.size(); ++i) {
    if (!preopened[i]) to_create.push_back(i);
  }
  size_t next_create = 0;

  PassResult result;
  result.outcomes.resize(conversations.size());
  struct ClientOut {
    std::vector<double> creates, steps, mean_steps;
    uint64_t completed = 0;
    uint64_t errors = 0;
  };
  std::vector<ClientOut> outs(clients);
  setdisc::WallTimer pass_timer;  // started again just before the clients

  auto client_main = [&](int c) {
    std::unique_ptr<Transport> transport;
    if (tcp_port != 0) {
      transport = std::make_unique<TcpTransport>(tcp_port, traced);
    } else {
      transport = std::make_unique<InProcessTransport>(*manager, traced);
    }
    ClientOut& out = outs[c];
    Reply reply;
    // Records a finished conversation. A finished one that is still
    // registered is closed first: the client is done with it only then.
    auto finish = [&](size_t index, bool ok, uint64_t close_id) {
      Outcome& o = result.outcomes[index];
      o.done = true;
      o.ok = ok && reply.state == SessionState::kFinished &&
             reply.total_candidates == 1 && reply.candidates.size() == 1 &&
             reply.candidates[0] == conversations[index].target;
      o.questions = reply.questions;
      if (sampled[index]) o.transcript = reply.transcript;
      if (close_id != 0) transport->Close(close_id);
      if (o.ok) ++out.completed;
    };

    std::unique_lock<std::mutex> lock(pool_mu);
    for (;;) {
      if (idle.size() + busy < width && next_create < to_create.size()) {
        const size_t index = to_create[next_create++];
        ++busy;
        lock.unlock();
        setdisc::WallTimer timer;
        const bool ok = transport->Create(conversations[index].initial, &reply);
        out.creates.push_back(timer.Micros());
        if (!ok) ++out.errors;
        const bool open_now = ok && reply.state == SessionState::kAwaitingAnswer;
        if (!open_now) finish(index, ok, 0);
        lock.lock();
        --busy;
        if (open_now) {
          idle.push_back(Slot{index, reply.id, reply.question, reply.trace,
                              oracle_for(index)});
        }
        pool_cv.notify_all();
        continue;
      }
      if (idle.empty()) {
        if (busy == 0 && next_create == to_create.size()) break;
        pool_cv.wait(lock);
        continue;
      }
      const size_t j = order.Uniform(idle.size());
      Slot slot = std::move(idle[j]);
      idle[j] = std::move(idle.back());
      idle.pop_back();
      ++busy;
      lock.unlock();
      const Oracle::Answer answer = slot.oracle.AskMembership(slot.question);
      setdisc::WallTimer timer;
      const bool ok = transport->Answer(slot.id, slot.trace, answer, &reply);
      out.steps.push_back(timer.Micros());
      slot.step_us += out.steps.back();
      ++slot.steps;
      const bool still_open = ok && reply.state == SessionState::kAwaitingAnswer;
      if (!still_open) {
        if (!ok) ++out.errors;
        finish(slot.index, ok, ok ? slot.id : 0);
        out.mean_steps.push_back(slot.step_us / slot.steps);
      }
      lock.lock();
      --busy;
      if (still_open) {
        slot.question = reply.question;
        idle.push_back(std::move(slot));
      }
      pool_cv.notify_all();
    }
    pool_cv.notify_all();
  };

  // The store workloads compact on a timer while serving, as
  // `setdisc_cli --serve --spill-dir` does (at a shorter interval, so a
  // run sees several checkpoints).
  std::mutex mu;
  std::condition_variable cv;
  bool clients_done = false;

  const double cpu0 = ProcessCpuSeconds();
  pass_timer.Reset();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client_main, c);
  if (checkpoint_store != nullptr) {
    std::thread checkpointer([&] {
      std::unique_lock<std::mutex> lock(mu);
      while (!cv.wait_for(lock, std::chrono::seconds(1),
                          [&] { return clients_done; })) {
        lock.unlock();
        (void)checkpoint_store->Checkpoint();
        lock.lock();
      }
    });
    for (std::thread& t : threads) t.join();
    {
      std::lock_guard<std::mutex> lock(mu);
      clients_done = true;
    }
    cv.notify_all();
    checkpointer.join();
  } else {
    for (std::thread& t : threads) t.join();
  }
  result.wall_s = pass_timer.Seconds();
  result.cpu_s = ProcessCpuSeconds() - cpu0;
  for (ClientOut& out : outs) {
    result.creates.insert(result.creates.end(), out.creates.begin(),
                          out.creates.end());
    result.steps.insert(result.steps.end(), out.steps.begin(), out.steps.end());
    result.mean_steps.insert(result.mean_steps.end(), out.mean_steps.begin(),
                             out.mean_steps.end());
    result.completed += out.completed;
    result.transport_errors += out.errors;
  }
  return result;
}

}  // namespace perfbench
