#pragma once

/// \file count_kernels.h
/// The three flat inner loops of the counting stack, isolated in their own
/// translation unit so they stay branch-light for the auto-vectorizer and so
/// a build can compile just them for wider ISAs (SETDISC_KERNEL_MULTIARCH;
/// see CMakeLists.txt). Every caller-visible effect is a plain array write —
/// no allocation, no virtual dispatch, no clearing protocol — which is what
/// lets entity_counter.cc, delta_counter.cc, and klp.cc share them.
///
///   * AccumulateCounts — the dense gather-increment pass (one add per
///     (set, entity) incidence) with branchless first-touch tracking;
///   * GatherChild      — child counts read straight off a dense array while
///     walking the parent's sorted list ("kept is the smaller half");
///   * SubtractChild    — child counts = parent - dense sibling counts
///     ("dropped sibling is the smaller half").
///
/// The derive kernels preserve the parent list's ascending-entity order (a
/// filtered copy), may write in place (out == parent; the write index never
/// passes the read index), and compact with a branchless conditional
/// post-increment instead of an if-push_back. tests/count_kernels_test.cc
/// pins each against a naive reference — including the multi-arch build,
/// where the same test doubles as the ISA-dispatch parity check.

#include <cstddef>
#include <cstdint>

#include "collection/sub_collection.h"
#include "collection/types.h"

namespace setdisc {

struct EntityCount;

namespace kernels {

/// counts[e] += 1 for every (set, entity) incidence of `sub`, appending each
/// entity to `touched` on its first increment (first-occurrence order, same
/// as the branchy loop it replaces). Returns the number of touched entries
/// written. `counts` must read zero over the collection's universe; it need
/// not have been written (EntityCounter takes it from calloc, so untouched
/// pages are never faulted in). `touched` needs only *room* for universe + 1
/// entries, not initialisation: every entry is stored before it is read, and
/// the store is unconditional, so the slot past the last first-touch keeps
/// being used as a write sink after every entity has been seen. Leaving it
/// uninitialised means a count faults in just the prefix it writes.
size_t AccumulateCounts(const SubCollection& sub, uint32_t* counts,
                        EntityId* touched);

/// Derives a child list by reading the child's own dense counts while
/// walking the parent's ascending list: out gets {e, dense[e]} for every
/// parent entry with dense[e] != 0 (and != n when drop_full — the child's
/// informative filter). Returns entries written; out may alias parent.
size_t GatherChild(const EntityCount* parent, size_t m, const uint32_t* dense,
                   size_t dense_size, uint32_t n, bool drop_full,
                   EntityCount* out);

/// Derives a child list by subtraction: out gets {e, parent count - dense[e]}
/// for every parent entry whose difference stays != 0 (and != n when
/// drop_full). Returns entries written; out may alias parent.
size_t SubtractChild(const EntityCount* parent, size_t m, const uint32_t* dense,
                     size_t dense_size, uint32_t n, bool drop_full,
                     EntityCount* out);

}  // namespace kernels
}  // namespace setdisc
