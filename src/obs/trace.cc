#include "obs/trace.h"

#include "obs/registry.h"

namespace setdisc::obs {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kCacheLookup: return "cache_lookup";
    case Phase::kCount: return "count";
    case Phase::kOrder: return "order";
    case Phase::kEmit: return "emit";
    case Phase::kSelect: return "select";
  }
  return nullptr;
}

const char* ServePathName(ServePath path) {
  switch (path) {
    case ServePath::kUnknown: return "unknown";
    case ServePath::kFull: return "full";
    case ServePath::kDelta: return "delta";
    case ServePath::kReemit: return "reemit";
    case ServePath::kCacheHit: return "cache_hit";
  }
  return "unknown";
}

void RecordStepPhases(const PhaseAccum& accum) {
  if (!Enabled()) return;
  // One registry lookup per phase for the process lifetime.
  static Histogram* const phase_hists[kNumPhases] = {
      MetricsRegistry::Default().GetHistogram(
          "setdisc_step_phase_ns", {{"phase", PhaseName(Phase::kCacheLookup)}}),
      MetricsRegistry::Default().GetHistogram(
          "setdisc_step_phase_ns", {{"phase", PhaseName(Phase::kCount)}}),
      MetricsRegistry::Default().GetHistogram(
          "setdisc_step_phase_ns", {{"phase", PhaseName(Phase::kOrder)}}),
      nullptr,  // reserved slot
      MetricsRegistry::Default().GetHistogram(
          "setdisc_step_phase_ns", {{"phase", PhaseName(Phase::kEmit)}}),
      MetricsRegistry::Default().GetHistogram(
          "setdisc_step_phase_ns", {{"phase", PhaseName(Phase::kSelect)}}),
  };
  for (size_t i = 0; i < kNumPhases; ++i) {
    if (accum.ns[i] != 0) phase_hists[i]->Record(accum.ns[i]);
  }
}

}  // namespace setdisc::obs
