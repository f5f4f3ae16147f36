#pragma once

/// \file registry.h
/// MetricsRegistry: the process-wide catalogue of named metric families.
///
/// A family is a metric name plus a label set — `step_latency{selector=
/// "Klp"}` — and GetCounter/GetGauge/GetHistogram return a
/// stable pointer to the one instance for that (name, labels) pair,
/// creating it on first use. Callers look a handle up once (registry
/// lookups take a mutex) and then record through the lock-free primitive.
///
/// The registry also *adopts* stats that live elsewhere — the selection
/// cache's hit counters, the server's frame counters, a pool's queue depth
/// — via probes: callbacks invoked at Snapshot() time that emit samples
/// into the same output. One Snapshot() therefore sees the whole engine.
/// Probes run under the registry mutex and must not call back into the
/// registry; the RAII ProbeHandle deregisters on destruction, so a probe
/// never outlives the object it samples.
///
/// Snapshots render to Prometheus text exposition (ToPrometheusText) and
/// JSON (ToJson); histograms surface as summaries with p50/p90/p99/p999.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace setdisc::obs {

/// Sorted (key, value) pairs; order-insensitive on input (Get* sorts).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// One counter or gauge value in a snapshot.
struct MetricSample {
  enum class Kind { kCounter, kGauge };
  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;
  int64_t value = 0;
};

/// One histogram family in a snapshot.
struct HistogramSample {
  std::string name;
  Labels labels;
  HistogramSnapshot snapshot;
};

/// Everything the registry knew at one instant.
struct RegistrySnapshot {
  std::vector<MetricSample> samples;
  std::vector<HistogramSample> histograms;

  /// Prometheus text exposition format 0.0.4; histograms as summaries.
  std::string ToPrometheusText() const;

  /// One JSON object: {"metrics": [...], "histograms": [...]}.
  std::string ToJson() const;
};

/// Receives samples from a probe during Snapshot().
class SampleSink {
 public:
  void Counter(std::string_view name, uint64_t value, Labels labels = {});
  void Gauge(std::string_view name, int64_t value, Labels labels = {});

 private:
  friend class MetricsRegistry;
  explicit SampleSink(std::vector<MetricSample>* out) : out_(out) {}
  std::vector<MetricSample>* out_;
};

class MetricsRegistry {
 public:
  /// The process-wide instance every built-in instrumentation point uses.
  static MetricsRegistry& Default();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Stable pointers, created on first use. The registry owns the metric;
  /// handles stay valid for the registry's lifetime.
  Counter* GetCounter(std::string_view name, Labels labels = {});
  Gauge* GetGauge(std::string_view name, Labels labels = {});
  Histogram* GetHistogram(std::string_view name, Labels labels = {});

  /// A probe adopts externally-owned stats: it is called at every
  /// Snapshot() to emit current values. Runs under the registry mutex —
  /// it must not call back into this registry. Destroy (or Release) the
  /// returned handle before the sampled object dies.
  using Probe = std::function<void(SampleSink&)>;

  class ProbeHandle {
   public:
    ProbeHandle() = default;
    ProbeHandle(ProbeHandle&& other) noexcept { *this = std::move(other); }
    ProbeHandle& operator=(ProbeHandle&& other) noexcept;
    ProbeHandle(const ProbeHandle&) = delete;
    ProbeHandle& operator=(const ProbeHandle&) = delete;
    ~ProbeHandle() { Release(); }

    /// Deregisters now (idempotent). Blocks until any in-flight Snapshot()
    /// finishes, so the probe is never invoked after Release() returns.
    void Release();

   private:
    friend class MetricsRegistry;
    ProbeHandle(MetricsRegistry* registry, uint64_t id)
        : registry_(registry), id_(id) {}
    MetricsRegistry* registry_ = nullptr;
    uint64_t id_ = 0;
  };

  ProbeHandle AddProbe(Probe probe);

  /// Current values of every registered metric plus every probe's samples.
  RegistrySnapshot Snapshot() const;

  /// Bucket-wise merge of every histogram family named `name`, across all
  /// label sets — the "overall step latency" view the stats reply ships.
  HistogramSnapshot MergedHistogram(std::string_view name) const;

  /// Sum of every counter family named `name` across label sets.
  uint64_t CounterTotal(std::string_view name) const;

 private:
  struct FamilyKey {
    std::string name;
    Labels labels;
    bool operator<(const FamilyKey& other) const {
      if (name != other.name) return name < other.name;
      return labels < other.labels;
    }
  };

  static FamilyKey MakeKey(std::string_view name, Labels labels);

  mutable std::mutex mu_;
  std::map<FamilyKey, std::unique_ptr<Counter>> counters_;
  std::map<FamilyKey, std::unique_ptr<Gauge>> gauges_;
  std::map<FamilyKey, std::unique_ptr<Histogram>> histograms_;
  std::map<uint64_t, Probe> probes_;
  uint64_t next_probe_id_ = 1;
};

/// Renders `labels` as a Prometheus selector body: `a="x",b="y"` (empty
/// string for no labels). Shared by the text renderers and the wire dump.
std::string FormatLabels(const Labels& labels);

}  // namespace setdisc::obs
