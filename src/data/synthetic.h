#pragma once

/// \file synthetic.h
/// The paper's synthetic set generator (§5.2.2): a copy-add preferential
/// mechanism. Each set of size s (uniform in [min,max]) copies ⌊α·s⌋
/// elements from one previously generated set and adds the remaining
/// (1-α)·s elements fresh from the universe; when the source set is too
/// small, the shortfall is also filled with fresh elements. α < 1 guarantees
/// at least one fresh element per set, so all sets are unique.
///
/// Table 1's three sweeps (overlap ratio α, number of sets n, set-size range
/// d) are configurations of this generator; bench_paper's Table 1
/// reproduces the distinct-entity counts.

#include <cstdint>

#include "collection/set_collection.h"

namespace setdisc {

struct SyntheticConfig {
  uint32_t num_sets = 10000;    ///< n
  uint32_t min_set_size = 50;   ///< d lower bound
  uint32_t max_set_size = 60;   ///< d upper bound (inclusive)
  double overlap = 0.9;         ///< α in [0, 1)
  uint64_t seed = 1;
};

/// Generates a collection with the copy-add preferential mechanism.
SetCollection GenerateSynthetic(const SyntheticConfig& config);

}  // namespace setdisc
