#pragma once

/// Shared helpers for the benches. Every bench binary scales its problem
/// sizes with SETDISC_SCALE (quick | medium | full); bench_paper.cc's file
/// comment describes the paper-vs-measured record (BENCH_paper.json).

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "collection/inverted_index.h"
#include "core/decision_tree.h"
#include "core/klp.h"
#include "core/selectors.h"
#include "data/webtables.h"
#include "util/env.h"
#include "util/stats.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace setdisc::bench {

/// A named selector factory (fresh instance per construction so memo caches
/// never leak across measurements).
struct StrategySpec {
  std::string name;
  std::function<std::unique_ptr<EntitySelector>()> make;
};

/// Standard banner: experiment id, paper reference, and active scale.
inline void Banner(const std::string& experiment, const std::string& what,
                   std::ostream& os = std::cout) {
  os << "=== " << experiment << " — " << what << " ===\n"
     << "scale: " << BenchScaleName(GetBenchScale())
     << " (set SETDISC_SCALE=medium|full for larger runs; shapes, not "
        "absolute numbers, are the reproduction target)\n\n";
}

/// True when `flag` appears among the arguments (exact match).
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) return true;
  }
  return false;
}

/// The compiler this bench was built with, for the JSON host block.
inline std::string CompilerName() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "g++ " __VERSION__;
#else
  return "unknown";
#endif
}

/// Machine-readable bench output (`--json`): a flat list of rows, each a
/// string->value object, wrapped with the bench name and active scale —
///
///   {"bench": "counting", "scale": "quick",
///    "host": {"nproc": 4, "compiler": "g++ 12.2.0"}, "rows": [{...}, ...]}
///
/// — so successive runs diff/trend with jq instead of table scraping (the
/// committed BENCH_*.json baselines). In --json mode benches print their
/// human tables to stderr and exactly one JSON document to stdout.
class JsonReport {
 public:
  JsonReport(std::string bench, bool enabled)
      : bench_(std::move(bench)), enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// The human-facing stream for this mode: stdout normally, stderr when
  /// stdout carries the JSON document.
  std::ostream& text() const { return enabled_ ? std::cerr : std::cout; }

  /// Builder for one row. Field order is preserved.
  class Row {
   public:
    Row& Str(std::string_view key, std::string_view value) {
      Field(key) << '"' << Escaped(value) << '"';
      return *this;
    }
    /// The shortest text that reads back as exactly `value`, so a consumer
    /// rounding the JSON to a table's precision sees the table's figure.
    Row& Num(std::string_view key, double value) {
      char buf[32];
      const std::to_chars_result r =
          std::to_chars(buf, buf + sizeof(buf), value);
      Field(key) << std::string_view(buf, static_cast<size_t>(r.ptr - buf));
      return *this;
    }
    Row& Int(std::string_view key, int64_t value) {
      Field(key) << value;
      return *this;
    }
    Row& Bool(std::string_view key, bool value) {
      Field(key) << (value ? "true" : "false");
      return *this;
    }

   private:
    friend class JsonReport;
    std::ostringstream& Field(std::string_view key) {
      if (!first_) out_ << ", ";
      first_ = false;
      out_ << '"' << Escaped(key) << "\": ";
      return out_;
    }
    static std::string Escaped(std::string_view s) {
      std::string out;
      out.reserve(s.size());
      for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
          continue;
        }
        out.push_back(c);
      }
      return out;
    }
    std::ostringstream out_;
    bool first_ = true;
  };

  /// Records a finished row; a no-op shell when the report is disabled
  /// (callers build rows unconditionally, which keeps call sites linear).
  void Add(const Row& row) {
    if (enabled_) rows_.push_back(row.out_.str());
  }

  /// Emits the document to stdout. No-op when disabled.
  void Print() const {
    if (!enabled_) return;
    std::cout << "{\"bench\": \"" << Row::Escaped(bench_) << "\", \"scale\": \""
              << BenchScaleName(GetBenchScale()) << "\", \"host\": {\"nproc\": "
              << std::thread::hardware_concurrency() << ", \"compiler\": \""
              << Row::Escaped(CompilerName()) << "\"}, \"rows\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::cout << (i == 0 ? "\n" : ",\n") << "  {" << rows_[i] << "}";
    }
    std::cout << "\n]}\n";
  }

 private:
  std::string bench_;
  bool enabled_;
  std::vector<std::string> rows_;
};

/// The simulated web-tables corpus (§5.2.1) of bench_paper and
/// bench_counting.
inline SetCollection MakeWebTablesCorpus() {
  WebTablesConfig cfg;
  cfg.num_sets = ScalePick<uint32_t>(20000, 80000, 300000);
  cfg.num_domains = ScalePick<uint32_t>(400, 1200, 3000);
  cfg.max_set_size = 120;
  // A skewed value distribution plus generous cross-domain ambiguity and
  // noise makes the sub-collections adversarial (few perfectly even splits),
  // like the paper's noisy Wikipedia columns.
  cfg.value_zipf = 1.05;
  cfg.ambiguous_fraction = 0.12;
  cfg.noise_rate = 0.05;
  cfg.seed = 2024;
  return GenerateWebTables(cfg);
}

/// Up to `max_subcollections` seed-pair sub-collections of at least
/// `min_sets` sets, drawn with one fixed seed.
inline std::vector<SeedPairEntry> SeedPairs(const SetCollection& corpus,
                                            const InvertedIndex& index,
                                            size_t max_subcollections,
                                            size_t min_sets = 100) {
  return ExtractSeedPairSubCollections(corpus, index, min_sets,
                                       max_subcollections, /*seed=*/17);
}

}  // namespace setdisc::bench
