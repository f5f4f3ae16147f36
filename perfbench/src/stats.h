#pragma once

/// \file stats.h
/// Percentiles under the benchmark's reporting rule, and the one-line JSON
/// result the benchmark prints last.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before it is reported.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `xs`, or nullopt when fewer
/// than kMinTailSamples samples lie beyond it — a tail read off a handful of
/// samples is noise, so the benchmark refuses to report one.
inline std::optional<double> TailPercentile(std::vector<double> xs, double p) {
  const size_t n = xs.size();
  if (n == 0) return std::nullopt;
  // p * n / 100 is exact for the integral p and n used here; the epsilon
  // only guards the ceil against a representation error just above it.
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   xs.end());
  return xs[rank - 1];
}

/// Median (lower middle for even counts); 0 for an empty vector.
inline double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const size_t mid = (xs.size() - 1) / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  return xs[mid];
}

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Renders the result line: {"correct": .., "attempted": .., "failed": ..,
/// "metrics": {"name": {"value": v, "unit": "u"}, ...}}. Values are printed
/// with all their significant digits.
inline std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
