// The benchmark's own tests: its counts repeat, its wrappers are
// decision-neutral, and its percentiles obey the ten-beyond rule.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "core/selectors.h"
#include "net/protocol.h"
#include "stats.h"
#include "tracing.h"
#include "workload.h"

namespace perfbench {
namespace {

const std::string kDataDir = "perfbench_test_data";

/// A small store workload in the shape of parked_resume_wal: a shared
/// open pool larger than the registry, don't-know answers, WAL on.
WorkloadSpec SmallSpec(bool store) {
  WorkloadSpec spec;
  spec.name = store ? "test_store" : "test_cache";
  spec.synth.num_sets = 2000;
  spec.synth.min_set_size = 10;
  spec.synth.max_set_size = 20;
  spec.synth.overlap = 0.9;
  spec.synth.seed = 11;
  spec.file = "test-2000.txt";
  spec.shape = store ? InputShape::kWholeCollection : InputShape::kHotExample;
  spec.selector = [] { return std::make_unique<setdisc::MostEvenSelector>(); };
  spec.cache = !store;
  spec.store = store;
  spec.dont_know_rate = store ? 0.1 : 0.0;
  spec.open_per_client = store ? 6 : 1;
  spec.max_sessions = store ? 8 : 0;
  return spec;
}

struct Fixture {
  std::unique_ptr<Loaded> loaded;
  std::vector<Conversation> conversations;
  std::vector<OpenConversation> open;
  std::vector<bool> all;
  std::string prep_dir, live_dir;
};

Fixture Prepare(const WorkloadSpec& spec, size_t count, uint64_t seed) {
  Fixture f;
  double load_s = 0.0, index_s = 0.0;
  f.loaded = LoadCollection(EnsureCollectionFile(spec, kDataDir), &load_s,
                            &index_s);
  f.conversations = MakeConversations(spec, *f.loaded, count, seed);
  f.all.assign(count, true);
  f.prep_dir = kDataDir + "/" + spec.name + "-prep";
  f.live_dir = kDataDir + "/" + spec.name + "-live";
  if (spec.store) {
    f.open = PrepOpenConversations(
        spec, *f.loaded, f.conversations,
        static_cast<size_t>(spec.clients * spec.open_per_client), f.prep_dir,
        seed);
  }
  return f;
}

/// One pass over a fresh serving stack (fresh copy of the prep store).
PassResult Pass(const WorkloadSpec& spec, const Fixture& f, bool tcp,
                bool traced, uint64_t seed) {
  if (spec.store) {
    std::filesystem::remove_all(f.live_dir);
    std::filesystem::copy(f.prep_dir, f.live_dir,
                          std::filesystem::copy_options::recursive);
  }
  Tracer::Get().set_enabled(traced);
  double open_s = 0.0;
  std::unique_ptr<Serving> serving =
      StartServing(spec, *f.loaded, f.live_dir, tcp, traced, &open_s);
  PassResult pass = RunPass(
      spec, f.loaded->collection, f.conversations, f.open, f.all,
      tcp ? serving->server->port() : 0, tcp ? nullptr : serving->manager.get(),
      traced, serving->store.get(), seed);
  serving.reset();
  Tracer::Get().set_enabled(false);
  (void)Tracer::Get().Drain();
  return pass;
}

void ExpectSameCounts(const PassResult& a, const PassResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_TRUE(a.outcomes[i].ok) << i;
    EXPECT_EQ(a.outcomes[i].ok, b.outcomes[i].ok) << i;
    EXPECT_EQ(a.outcomes[i].questions, b.outcomes[i].questions) << i;
  }
}

TEST(PerfbenchRepeat, TwoRunsGiveIdenticalCounts) {
  for (bool store : {false, true}) {
    const WorkloadSpec spec = SmallSpec(store);
    Fixture f = Prepare(spec, 60, 5);
    PassResult first = Pass(spec, f, /*tcp=*/true, /*traced=*/false, 5);
    PassResult second = Pass(spec, f, /*tcp=*/true, /*traced=*/false, 5);
    EXPECT_EQ(first.transport_errors, 0u);
    EXPECT_EQ(second.transport_errors, 0u);
    ExpectSameCounts(first, second);
  }
}

TEST(PerfbenchWrappers, TracedTranscriptsMatchUntracedAndReference) {
  const WorkloadSpec spec = SmallSpec(/*store=*/true);
  Fixture f = Prepare(spec, 60, 9);
  PassResult plain = Pass(spec, f, /*tcp=*/true, /*traced=*/false, 9);
  PassResult traced_tcp = Pass(spec, f, /*tcp=*/true, /*traced=*/true, 9);
  PassResult traced_direct = Pass(spec, f, /*tcp=*/false, /*traced=*/true, 9);
  for (size_t i = 0; i < f.conversations.size(); ++i) {
    const Conversation& conv = f.conversations[i];
    auto selector = spec.selector();
    setdisc::SimulatedOracle oracle(&f.loaded->collection, conv.target, 0.0,
                                    spec.dont_know_rate, conv.oracle_seed);
    setdisc::DiscoveryResult ref = setdisc::Discover(
        f.loaded->collection, *f.loaded->index, conv.initial, *selector, oracle);
    std::vector<std::pair<EntityId, uint8_t>> ref_wire;
    for (const auto& [entity, answer] : ref.transcript) {
      ref_wire.emplace_back(entity, setdisc::net::AnswerToWire(answer));
    }
    EXPECT_EQ(plain.outcomes[i].transcript, ref_wire) << i;
    EXPECT_EQ(plain.outcomes[i].transcript, traced_tcp.outcomes[i].transcript) << i;
    EXPECT_EQ(plain.outcomes[i].transcript, traced_direct.outcomes[i].transcript) << i;
  }
}

TEST(PerfbenchWrappers, TimedSelectorForwardsDecisions) {
  const WorkloadSpec spec = SmallSpec(/*store=*/false);
  Fixture f = Prepare(spec, 20, 3);
  Tracer::Get().set_enabled(true);
  for (const Conversation& conv : f.conversations) {
    auto plain = spec.selector();
    TimedSelector timed(spec.selector());
    EXPECT_EQ(timed.name(), plain->name());
    EXPECT_EQ(timed.DecisionFingerprint(), plain->DecisionFingerprint());
    setdisc::SimulatedOracle o1(&f.loaded->collection, conv.target);
    setdisc::SimulatedOracle o2(&f.loaded->collection, conv.target);
    auto a = setdisc::Discover(f.loaded->collection, *f.loaded->index,
                               conv.initial, *plain, o1);
    auto b = setdisc::Discover(f.loaded->collection, *f.loaded->index,
                               conv.initial, timed, o2);
    EXPECT_EQ(a.transcript, b.transcript);
  }
  Tracer::Get().set_enabled(false);
  EXPECT_FALSE(Tracer::Get().Drain().empty());
}

TEST(PerfbenchStats, PercentileNeedsTenSamplesBeyond) {
  auto samples = [](size_t n) {
    std::vector<double> xs(n);
    for (size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(n - i);
    return xs;
  };
  EXPECT_EQ(TailPercentile(samples(1000), 99), 990.0);
  EXPECT_FALSE(TailPercentile(samples(999), 99).has_value());
  EXPECT_EQ(TailPercentile(samples(100), 90), 90.0);
  EXPECT_FALSE(TailPercentile(samples(99), 90).has_value());
  EXPECT_FALSE(TailPercentile({}, 50).has_value());
  EXPECT_EQ(TailPercentile(samples(21), 50), 11.0);
}

}  // namespace
}  // namespace perfbench
