// Unit tests for src/util: rng, zipf, stats (incomplete beta, Student-t,
// paired t-test), table printing, env scaling, and scratch arrays.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <utility>

#include "util/env.h"
#include "util/rng.h"
#include "util/scratch_array.h"
#include "util/stats.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace setdisc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.Uniform(bound), bound);
  }
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(8);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit over 500 draws
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStat s;
  for (int i = 0; i < 20000; ++i) s.Add(rng.Normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng forked = a.Fork(1);
  Rng forked2 = a.Fork(2);
  EXPECT_NE(forked(), forked2());
}

TEST(Zipf, UniformWhenThetaZero) {
  Rng rng(12);
  ZipfDistribution z(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[z.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c / 20000.0, 0.1, 0.03);
}

TEST(Zipf, SkewedTowardLowRanks) {
  Rng rng(13);
  ZipfDistribution z(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[z.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000 / 100);  // far above uniform share
}

TEST(Zipf, SingleRank) {
  Rng rng(14);
  ZipfDistribution z(1, 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(z.Sample(rng), 0u);
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, IncompleteBetaBoundaries) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(Stats, IncompleteBetaSymmetry) {
  // I_x(a,b) = 1 - I_{1-x}(b,a)
  for (double x : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(2.5, 4.0, x),
                1.0 - RegularizedIncompleteBeta(4.0, 2.5, 1.0 - x), 1e-10);
  }
}

TEST(Stats, IncompleteBetaUniformCase) {
  // I_x(1,1) = x.
  for (double x : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, x), x, 1e-10);
  }
}

TEST(Stats, StudentTCdfKnownValues) {
  // Symmetric around 0.
  EXPECT_NEAR(StudentTCdf(0.0, 5), 0.5, 1e-10);
  // t = 2.015, dof = 5 is the one-tailed 95% critical value.
  EXPECT_NEAR(StudentTCdf(2.015, 5), 0.95, 1e-3);
  // t = 2.528, dof = 20 is the one-tailed 99% critical value.
  EXPECT_NEAR(StudentTCdf(2.528, 20), 0.99, 1e-3);
  // Symmetry: CDF(-t) = 1 - CDF(t).
  EXPECT_NEAR(StudentTCdf(-1.3, 9), 1.0 - StudentTCdf(1.3, 9), 1e-10);
}

TEST(Stats, PairedTTestDetectsImprovement) {
  // a consistently one unit above b -> tiny p-value.
  std::vector<double> a, b;
  Rng rng(15);
  for (int i = 0; i < 50; ++i) {
    double base = rng.UniformDouble() * 10;
    b.push_back(base);
    a.push_back(base + 1.0 + 0.1 * rng.UniformDouble());
  }
  PairedTTest t = PairedOneTailedTTest(a, b);
  EXPECT_GT(t.mean_diff, 0.9);
  EXPECT_TRUE(t.SignificantAt(0.01));
}

TEST(Stats, PairedTTestNoDifference) {
  std::vector<double> a, b;
  Rng rng(16);
  for (int i = 0; i < 50; ++i) {
    double base = rng.UniformDouble() * 10;
    b.push_back(base + (rng.UniformDouble() - 0.5));
    a.push_back(base + (rng.UniformDouble() - 0.5));
  }
  PairedTTest t = PairedOneTailedTTest(a, b);
  EXPECT_FALSE(t.SignificantAt(0.01));
}

TEST(Stats, PairedTTestDegenerate) {
  std::vector<double> a = {2, 2, 2};
  std::vector<double> b = {1, 1, 1};
  PairedTTest t = PairedOneTailedTTest(a, b);
  EXPECT_TRUE(t.SignificantAt(0.01));
  std::vector<double> c = {1, 1, 1};
  PairedTTest t2 = PairedOneTailedTTest(c, b);
  EXPECT_FALSE(t2.SignificantAt(0.01));
}

TEST(Stats, MeanAndStdDev) {
  std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_NEAR(StdDev(xs), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 5.0);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22222"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinter, CsvEscapes) {
  TablePrinter t({"q"});
  t.AddRow({"a,b \"quoted\""});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "q\n\"a,b \"\"quoted\"\"\"\n");
}

TEST(Format, Formats) {
  EXPECT_EQ(Format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(HumanCount(1500), "1.5k");
  EXPECT_EQ(HumanCount(2500000), "2.50M");
  EXPECT_EQ(HumanCount(12), "12");
}

TEST(Env, DefaultsToQuick) {
  unsetenv("SETDISC_SCALE");
  EXPECT_EQ(GetBenchScale(), BenchScale::kQuick);
  setenv("SETDISC_SCALE", "full", 1);
  EXPECT_EQ(GetBenchScale(), BenchScale::kFull);
  EXPECT_EQ(ScalePick(1, 2, 3), 3);
  setenv("SETDISC_SCALE", "medium", 1);
  EXPECT_EQ(GetBenchScale(), BenchScale::kMedium);
  unsetenv("SETDISC_SCALE");
  EXPECT_EQ(BenchScaleName(BenchScale::kQuick), "quick");
}

TEST(Timer, MeasuresElapsed) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_GE(t.Micros(), t.Millis());
}

TEST(ScratchArray, ZeroedReadsZeroAndReallocationDropsContents) {
  ScratchArray<uint32_t> a;
  EXPECT_EQ(a.size(), 0u);
  // Heap-sized and mmap-sized blocks, each after the previous one was
  // dirtied and freed, so a reused block must come back cleared too.
  for (size_t n : {size_t{64}, size_t{1} << 20, size_t{64}, size_t{1} << 20}) {
    a.AllocateZeroed(n);
    ASSERT_EQ(a.size(), n);
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(a[i], 0u) << n << " @" << i;
    for (size_t i = 0; i < n; ++i) a[i] = 0xdeadbeef;
  }
  a.AllocateUninitialized(10);
  EXPECT_EQ(a.size(), 10u);
  for (size_t i = 0; i < 10; ++i) a[i] = static_cast<uint32_t>(i);
  EXPECT_EQ(a.span().back(), 9u);

  ScratchArray<uint32_t> b = std::move(a);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(a.size(), 0u);  // a moved-from array is empty
  EXPECT_EQ(a.data(), nullptr);
  b.Reset();
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
}

}  // namespace
}  // namespace setdisc
