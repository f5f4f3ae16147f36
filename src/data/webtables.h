#pragma once

/// \file webtables.h
/// Simulation of the paper's web-tables dataset (§5.2.1).
///
/// The original corpus — 1.4M entity sets extracted from the columns of 2014
/// Wikipedia tables — is not redistributable, so we synthesize a corpus with
/// the structural properties the algorithms actually depend on (listed with
/// the other substitutions in bench/bench_paper.cc's file comment):
///
///  * sets are column-like: values drawn from a *semantic domain*;
///  * domain popularity and within-domain value popularity are Zipfian;
///  * a fraction of entities is ambiguous, i.e. shared across domains (the
///    paper's "Liverpool is both a City and a Football Club" observation);
///  * a small per-element noise rate models extraction errors.
///
/// The paper then treats every 2-entity combination as a possible initial
/// example set and keeps the sub-collections with >= 100 candidate sets;
/// ExtractSeedPairSubCollections mirrors that step.

#include <cstdint>
#include <vector>

#include "collection/inverted_index.h"
#include "collection/set_collection.h"

namespace setdisc {

struct WebTablesConfig {
  uint32_t num_sets = 50000;        ///< corpus columns (paper: 1.4M)
  uint32_t num_domains = 1200;      ///< semantic classes
  double domain_zipf = 0.9;         ///< skew of domain popularity
  double value_zipf = 0.7;          ///< skew of value popularity in a domain
  uint32_t min_domain_vocab = 80;   ///< distinct values per domain, lower
  uint32_t max_domain_vocab = 1200; ///< ... and upper bound
  uint32_t min_set_size = 3;        ///< paper removes sets with < 3 values
  uint32_t max_set_size = 150;
  double ambiguous_fraction = 0.06; ///< chance an element is an ambiguous,
                                    ///< cross-domain entity
  uint32_t shared_pool_size = 500;  ///< number of ambiguous entities
  double noise_rate = 0.02;         ///< chance an element is random noise
  uint64_t seed = 2;
};

/// Generates the simulated corpus. Entity ids are dense; sets with fewer
/// than min_set_size distinct values are regenerated.
SetCollection GenerateWebTables(const WebTablesConfig& config);

/// One "initial example set" experiment: a seed entity pair and the ids of
/// the corpus sets containing both (the candidate sub-collection).
struct SeedPairEntry {
  EntityId a = kNoEntity;
  EntityId b = kNoEntity;
  std::vector<SetId> set_ids;
};

/// Samples up to `max_subcollections` distinct seed pairs whose candidate
/// sub-collections have at least `min_sets` sets, mirroring §5.2.1's
/// selection (the paper used min_sets = 100). Deterministic given `seed`.
std::vector<SeedPairEntry> ExtractSeedPairSubCollections(
    const SetCollection& corpus, const InvertedIndex& index, size_t min_sets,
    size_t max_subcollections, uint64_t seed);

}  // namespace setdisc
