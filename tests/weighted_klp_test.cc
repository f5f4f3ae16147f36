// Tests for the weighted k-LP extension (§7 "sets not equally likely"):
// quantization, Shannon bounds, pruning soundness against the unpruned
// reference, and end-to-end expected-question improvements under skewed
// priors.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "core/decision_tree.h"
#include "core/klp.h"
#include "core/selectors.h"
#include "core/weighted.h"
#include "core/weighted_klp.h"
#include "service/discovery_session.h"
#include "test_util.h"
#include "util/rng.h"

namespace setdisc {
namespace {

using namespace setdisc::testing;

std::vector<double> UniformWeights(size_t n) {
  return std::vector<double>(n, 1.0);
}

TEST(WeightedKlp, QuantizationKeepsEverySetAlive) {
  std::vector<double> weights = {1e-9, 0.5, 1.0, 0.0};
  WeightedKlpSelector sel(&weights, {});
  for (SetId s = 0; s < 4; ++s) EXPECT_GE(sel.QuantizedWeight(s), 1);
  // The largest weight maps to the configured resolution.
  EXPECT_EQ(sel.QuantizedWeight(2), Cost{1} << 20);
  EXPECT_EQ(sel.QuantizedWeight(1), Cost{1} << 19);
}

TEST(WeightedKlp, ShannonLb0Matches) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  std::vector<double> weights = UniformWeights(7);
  WeightedKlpSelector sel(&weights, {});
  // Uniform prior over 7 sets: H = log2(7) = 2.807...; LB0 in weighted TD
  // units = floor(7 * resolution * 2.807).
  double expected = 7.0 * static_cast<double>(Cost{1} << 20) * std::log2(7.0);
  EXPECT_NEAR(static_cast<double>(sel.WeightedLb0(full)), expected, 2.0);
  // Singletons cost nothing.
  SubCollection one(&c, {0});
  EXPECT_EQ(sel.WeightedLb0(one), 0);
}

TEST(WeightedKlp, SelectsInformativeEntity) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  std::vector<double> weights = UniformWeights(7);
  WeightedKlpSelector sel(&weights, {});
  EntityId e = sel.Select(full);
  ASSERT_NE(e, kNoEntity);
  auto [in, out] = full.Partition(e);
  EXPECT_FALSE(in.empty());
  EXPECT_FALSE(out.empty());
  // Uniform weights: the most weight-even splits are c and d (3/4). The
  // real-valued Shannon bounds of the k=2 search separate them where the
  // integer algebra ties: d — the root of the paper's optimal Fig. 2a
  // tree — scores strictly better.
  EXPECT_EQ(e, kD);
}

TEST(WeightedKlp, SingletonNeedsNoQuestion) {
  SetCollection c = MakePaperCollection();
  SubCollection one(&c, {1});
  std::vector<double> weights = UniformWeights(7);
  WeightedKlpSelector sel(&weights, {});
  EXPECT_EQ(sel.Select(one), kNoEntity);
}

TEST(WeightedKlp, RespectsExclusions) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  std::vector<double> weights = UniformWeights(7);
  WeightedKlpSelector sel(&weights, {});
  EntityId first = sel.Select(full);
  EntityExclusion excluded(c.universe_size(), false);
  excluded[first] = true;
  EntityId second = sel.Select(full, &excluded);
  EXPECT_NE(second, first);
  EXPECT_NE(second, kNoEntity);
}

// Pruning soundness: the pruned weighted search returns the same bound as
// the exhaustive reference, across random collections, priors, and k.
// Integer priors put many views' Shannon sums on integer boundaries, where
// a node's once-floored LB0 sits above its halves' separately floored ones;
// uniform priors are the even extreme of that.
enum class Prior { kContinuous, kInteger, kUniform };

void PrintTo(Prior prior, std::ostream* os) {
  *os << (prior == Prior::kContinuous ? "continuous"
          : prior == Prior::kInteger  ? "integer {1,2,3}"
                                      : "uniform");
}

class WeightedPruningSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, Prior>> {};

TEST_P(WeightedPruningSweep, PrunedEqualsExhaustive) {
  auto [n, k, weight_seed, prior] = GetParam();
  SetCollection c = RandomCollection(500 + n * 31 + weight_seed, n, 2 * n,
                                     0.4);
  SubCollection full = SubCollection::Full(&c);
  Rng rng(weight_seed);
  std::vector<double> weights(c.num_sets());
  for (double& w : weights) {
    switch (prior) {
      case Prior::kContinuous: w = 0.05 + rng.UniformDouble(); break;
      case Prior::kInteger: w = static_cast<double>(1 + rng.Uniform(3)); break;
      case Prior::kUniform: w = 1.0; break;
    }
  }

  WeightedKlpOptions opts;
  opts.k = k;
  WeightedKlpSelector pruned(&weights, opts);
  WeightedSelection sel = pruned.SelectWithBound(full, kInfiniteCost);
  ASSERT_NE(sel.entity, kNoEntity);
  Cost reference = WeightedLbKReference(full, &weights, opts);
  EXPECT_EQ(sel.bound, reference) << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    RandomCollections, WeightedPruningSweep,
    ::testing::Combine(::testing::Values(6, 8, 10, 12, 14),
                       ::testing::Values(1, 2, 3), ::testing::Range(1, 21),
                       ::testing::Values(Prior::kContinuous, Prior::kInteger,
                                         Prior::kUniform)));

TEST(WeightedKlp, UniformPriorAgreesWithUnweightedSelectionQuality) {
  // With a uniform prior the weighted tree should be as good (in AD) as the
  // unweighted 2-LP tree, up to quantization-tie noise.
  for (int seed : {61, 62, 63}) {
    SetCollection c = RandomCollection(seed, 16, 30, 0.4);
    SubCollection full = SubCollection::Full(&c);
    std::vector<double> weights = UniformWeights(c.num_sets());
    WeightedKlpOptions opts;
    opts.k = 2;
    WeightedKlpSelector wsel(&weights, opts);
    DecisionTree wtree = DecisionTree::Build(full, wsel);
    KlpSelector usel(KlpOptions::MakeKlp(2, CostMetric::kAvgDepth));
    DecisionTree utree = DecisionTree::Build(full, usel);
    EXPECT_TRUE(wtree.Validate(full).ok());
    EXPECT_NEAR(wtree.avg_depth(), utree.avg_depth(), 0.35) << "seed=" << seed;
  }
}

TEST(WeightedKlp, SkewedPriorBeatsUniformTreeOnExpectedQuestions) {
  // The whole point of §7: when one set is overwhelmingly likely, a
  // weight-aware tree answers in fewer expected questions.
  for (int seed : {71, 72, 73, 74}) {
    SetCollection c = RandomCollection(seed, 20, 36, 0.4);
    SubCollection full = SubCollection::Full(&c);
    Rng rng(seed);
    std::vector<double> weights(c.num_sets(), 0.02);
    weights[rng.Uniform(c.num_sets())] = 5.0;
    weights[rng.Uniform(c.num_sets())] = 2.0;

    WeightedKlpOptions opts;
    opts.k = 2;
    WeightedKlpSelector wsel(&weights, opts);
    DecisionTree wtree = DecisionTree::Build(full, wsel);
    KlpSelector usel(KlpOptions::MakeKlp(2, CostMetric::kAvgDepth));
    DecisionTree utree = DecisionTree::Build(full, usel);

    double w_expected = ExpectedQuestions(wtree, weights);
    double u_expected = ExpectedQuestions(utree, weights);
    EXPECT_LE(w_expected, u_expected + 1e-9) << "seed=" << seed;
    // And never below the Shannon entropy of the prior.
    std::vector<SetId> ids(full.ids().begin(), full.ids().end());
    EXPECT_GE(w_expected + 1e-9, WeightedEntropyLowerBound(weights, ids));
  }
}

TEST(WeightedKlp, BeamLimitsCandidates) {
  SetCollection c = RandomCollection(81, 20, 40, 0.4);
  SubCollection full = SubCollection::Full(&c);
  std::vector<double> weights = UniformWeights(c.num_sets());
  WeightedKlpOptions narrow;
  narrow.k = 2;
  narrow.beam_width = 2;
  WeightedKlpSelector beam(&weights, narrow);
  WeightedKlpOptions wide;
  wide.k = 2;
  WeightedKlpSelector fullsearch(&weights, wide);
  WeightedSelection b = beam.SelectWithBound(full, kInfiniteCost);
  WeightedSelection f = fullsearch.SelectWithBound(full, kInfiniteCost);
  ASSERT_NE(b.entity, kNoEntity);
  EXPECT_GE(b.bound, f.bound);  // subset search can't do better
}

TEST(WeightedKlp, UpperLimitReturnsNoEntityWhenUnreachable) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  std::vector<double> weights = UniformWeights(7);
  WeightedKlpOptions opts;
  opts.k = 2;
  WeightedKlpSelector sel(&weights, opts);
  // Nothing beats the Shannon floor.
  WeightedSelection r = sel.SelectWithBound(full, sel.WeightedLb0(full));
  EXPECT_EQ(r.entity, kNoEntity);
}

TEST(WeightedKlp, Name) {
  std::vector<double> weights = UniformWeights(3);
  WeightedKlpOptions opts;
  opts.k = 3;
  WeightedKlpSelector sel(&weights, opts);
  EXPECT_EQ(sel.name(), "Weighted-3-LP");
}

// ---------------------------------------------------------------------------
// Golden decisions. Each row pins what one weighted configuration decides on
// a seeded collection under a skewed prior: the root selection and its
// bound, the root selection under a 30% exclusion mask, and the transcripts
// of two live sessions (clean answers, and a 0.3 don't-know rate whose
// answers become exclusions), all on one selector so its memo and counting
// chain carry over between them, with differential counting on and off.
// The values were recorded while the weighted search still ran its own
// copy of Algorithm 1; any change to the recursion, its pruning or its
// counting must reproduce them exactly. The exhaustive reference bound is
// pinned too, since PrunedEqualsExhaustive alone cannot tell a drift of
// both sides.
// ---------------------------------------------------------------------------

struct GoldenInput {
  SetCollection collection;
  std::vector<double> weights;
  EntityExclusion mask;
  SetId target;
  uint64_t oracle_seed;
};

GoldenInput MakeGoldenInput(uint64_t seed) {
  GoldenInput in{RandomCollection(seed, 24, 40, 0.4), {}, {}, 0,
                 seed * 7919 + 5};
  Rng rng(seed * 7 + 1);
  in.weights.resize(in.collection.num_sets());
  for (double& w : in.weights) w = 0.05 + rng.UniformDouble();
  in.weights[rng.Uniform(in.weights.size())] = 8.0;
  in.weights[rng.Uniform(in.weights.size())] = 3.0;
  in.mask = EntityExclusion(in.collection.universe_size());
  for (size_t e = 0; e < in.mask.size(); ++e) in.mask[e] = rng.Bernoulli(0.3);
  in.target = static_cast<SetId>(seed * 5 % in.collection.num_sets());
  return in;
}

/// "e<answer> e<answer> ..." with y / n / ? answers.
std::string SessionTranscript(const GoldenInput& in, EntitySelector& selector,
                              double dont_know_rate) {
  InvertedIndex index(in.collection);
  DiscoveryOptions options;
  options.handle_dont_know = dont_know_rate > 0.0;
  DiscoverySession session(in.collection, index, {}, selector, options);
  SimulatedOracle oracle(&in.collection, in.target, 0.0, dont_know_rate,
                         in.oracle_seed);
  while (!session.done()) {
    session.SubmitAnswer(oracle.AskMembership(session.NextQuestion()));
  }
  std::string out;
  for (const auto& [e, answer] : session.TakeResult().transcript) {
    if (!out.empty()) out += ' ';
    out += std::to_string(e);
    out += answer == Oracle::Answer::kYes  ? 'y'
           : answer == Oracle::Answer::kNo ? 'n'
                                           : '?';
  }
  return out;
}

struct WeightedGolden {
  uint64_t seed;
  int k;
  int beam;
  EntityId entity;
  Cost bound;
  EntityId masked_entity;
  Cost masked_bound;
  Cost reference;  ///< WeightedLbKReference at this k (beam ignored)
  const char* plain;
  const char* dont_know;
};

/// What one configuration decides on MakeGoldenInput(seed): the golden
/// row's fields, observed on a single fresh selector in that order.
struct GoldenObservation {
  WeightedSelection root;
  WeightedSelection masked;
  Cost reference;
  std::string plain;
  std::string dont_know;
};

GoldenObservation ObserveGolden(uint64_t seed, int k, int beam, bool delta) {
  const GoldenInput in = MakeGoldenInput(seed);
  const SubCollection full = SubCollection::Full(&in.collection);
  WeightedKlpOptions opts;
  opts.k = k;
  opts.beam_width = beam;
  opts.enable_delta_counting = delta;
  WeightedKlpSelector sel(&in.weights, opts);
  GoldenObservation got;
  got.root = sel.SelectWithBound(full, kInfiniteCost);
  got.masked = sel.SelectWithBound(full, kInfiniteCost, &in.mask);
  got.reference = WeightedLbKReference(full, &in.weights, opts);
  got.plain = SessionTranscript(in, sel, 0.0);
  got.dont_know = SessionTranscript(in, sel, 0.3);
  return got;
}

// Seeds 901-904; Weighted-1/2/3-LP and Weighted-2-LP with beam q = 3.
const WeightedGolden kWeightedGolden[] = {
    {901, 1, -1, 10, 11785412, 10, 11785412, 11785412,
     "10n 12n 11n 17y 1y",
     "10n 12n 11? 15n 17y 1y"},
    {901, 2, -1, 11, 11891082, 14, 11920252, 11891082,
     "11n 31n 7n 6y 0n 2y",
     "11n 31n 7? 14y 6y 2y 3n"},
    {901, 3, -1, 20, 12459895, 1, 12462096, 12459895,
     "20y 8n 31n 28n 0n",
     "20y 8n 31? 6y 1y 2y"},
    {901, 2, 3, 11, 11891082, 14, 11920252, 11891082,
     "11n 31n 7n 6y 0n 2y",
     "11n 31n 7? 14y 6y 2y 3n"},
    {902, 1, -1, 11, 12772546, 11, 12772546, 12772546,
     "11y 18n 9y 3y 0y",
     "11y 18? 4? 25n 37y 1n 2? 9? 12n"},
    {902, 2, -1, 18, 12822293, 25, 12832572, 12822293,
     "18n 17n 7n 1n 2n",
     "18n 17? 6? 37y 2n 26y 0? 1? 4y"},
    {902, 3, -1, 12, 12835520, 29, 13353792, 12835520,
     "12n 28n 1n 20y 0y",
     "12n 28? 8? 2n 7n 0y 3? 4? 5y"},
    {902, 2, 3, 0, 12874118, 25, 12832572, 12822293,
     "0y 28n 9y 24n 1n",
     "0y 28? 6? 31y 8n 39y 1? 2? 3y"},
    {903, 1, -1, 32, 8180786, 32, 8180786, 8180786,
     "32n 4n 24n 1y 0n",
     "32n 4? 26y 28y 31y 0n"},
    {903, 2, -1, 28, 8435184, 4, 8454082, 8435184,
     "28y 9n 11y 15n 1y",
     "28y 9? 11y 2y 3n 1y"},
    {903, 3, -1, 13, 8498780, 26, 8532099, 8498780,
     "13n 38n 3n 6n 1y",
     "13n 38? 31y 27n 4n 0n"},
    {903, 2, 3, 16, 8495031, 0, 8497518, 8435184,
     "16y 23n 27n 15n 1y",
     "16y 23? 18y 0n"},
    {904, 1, -1, 12, 12135696, 12, 12135696, 12135696,
     "12n 29n 14n 7n 5n 0y",
     "12n 29? 21? 30y 34n 26n 1? 8? 13n 0y"},
    {904, 2, -1, 17, 12202817, 17, 12202817, 12202817,
     "17n 26n 6y 0y 2y 1y",
     "17n 26? 13? 16y 39n 8n 1? 5? 9y 2y"},
    {904, 3, -1, 17, 12203141, 17, 12203141, 12203141,
     "17n 16y 15y 3y 2y 1y",
     "17n 16? 26? 13n 19n 8n 4? 14? 25n 0y"},
    {904, 2, 3, 17, 12202817, 17, 12202817, 12202817,
     "17n 26n 24n 1y 0y",
     "17n 26? 13? 16y 39n 8n 1? 5? 9y 2y"},
};

TEST(WeightedKlpGolden, DecisionsMatchRecordedValues) {
  for (const WeightedGolden& want : kWeightedGolden) {
    for (bool delta : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "seed " << want.seed << " k "
                                        << want.k << " beam " << want.beam
                                        << " delta " << delta);
      const GoldenObservation got =
          ObserveGolden(want.seed, want.k, want.beam, delta);
      EXPECT_EQ(got.root.entity, want.entity);
      EXPECT_EQ(got.root.bound, want.bound);
      EXPECT_EQ(got.masked.entity, want.masked_entity);
      EXPECT_EQ(got.masked.bound, want.masked_bound);
      EXPECT_EQ(got.reference, want.reference);
      EXPECT_EQ(got.plain, want.plain);
      EXPECT_EQ(got.dont_know, want.dont_know);
    }
  }
}

}  // namespace
}  // namespace setdisc
