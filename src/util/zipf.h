#pragma once

/// \file zipf.h
/// Bounded Zipfian sampler used by the workload generators.
///
/// Web-table domains and categorical attribute values are heavily skewed in
/// practice; the simulated corpora in src/data use this sampler to reproduce
/// that skew (bench/bench_paper.cc's file comment lists the substitutions).

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace setdisc {

/// Samples ranks 0..n-1 with probability proportional to 1/(rank+1)^theta.
///
/// Uses a precomputed CDF with binary search; construction is O(n), each
/// sample is O(log n). Suitable for the bounded domains (<= a few million
/// values) that the generators need.
class ZipfDistribution {
 public:
  /// \param n      number of distinct ranks (must be >= 1)
  /// \param theta  skew parameter; 0 = uniform, ~1 = classic Zipf
  ZipfDistribution(uint64_t n, double theta) : cdf_(n) {
    SETDISC_CHECK(n >= 1);
    double sum = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (uint64_t i = 0; i < n; ++i) cdf_[i] /= sum;
  }

  /// Returns a rank in [0, n).
  uint64_t Sample(Rng& rng) const {
    double u = rng.UniformDouble();
    // Binary search for the first CDF entry >= u.
    uint64_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  uint64_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace setdisc
