#pragma once

/// \file people.h
/// Synthetic stand-in for the Lahman baseball database's People table
/// (§5.2.3; 20,185 players). The real CSV is not bundled, so we generate a
/// table with the same schema and marginals tuned so the paper's seven
/// target queries (Table 2) select outputs of comparable size — the property
/// the experiment depends on (bench/bench_paper.cc's file comment lists the
/// substitutions).
///
/// Columns: playerID, birthCountry, birthState, birthCity, birthYear,
/// birthMonth, birthDay, height, weight, bats, throws.

#include <cstdint>
#include <vector>

#include "relational/predicate.h"
#include "relational/table.h"

namespace setdisc {

struct PeopleConfig {
  uint32_t num_rows = 20185;
  uint64_t seed = 3;
};

/// Generates the People table.
Table GeneratePeople(const PeopleConfig& config = {});

/// One of the paper's Table 2 target queries, with its paper-reported output
/// size for side-by-side reporting.
struct TargetQuery {
  std::string id;                 ///< "T1" ... "T7"
  ConjunctiveQuery query;
  int paper_output_tuples = 0;    ///< from Table 2
};

/// The seven target queries of Table 2, bound to `people`'s column indexes.
std::vector<TargetQuery> MakeTargetQueries(const Table& people);

}  // namespace setdisc
