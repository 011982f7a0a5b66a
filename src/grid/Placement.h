//===- grid/Placement.h - NUMA page-placement policy ------------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PlacementPolicy names where the pages of the shared field arrays should
/// live on a NUMA machine. The paper's premise is that islands win because
/// *both* the threads and their data stay on the home socket; the policy is
/// the data half of that contract:
///
///  - None:       serial placement: one thread (the executor's worker 0)
///                first-touches every page, so all of them land on its
///                node (the naive baseline of Table 1, historically
///                "SerialInit").
///  - FirstTouch: each field's storage is partitioned along the island
///                partition and first-touched, page by page and in
///                parallel, by the owning team's pinned threads, so an
///                island streams its own part from local DRAM.
///  - Interleave: pages are spread round-robin across the active sockets
///                (the classic numactl --interleave contrast case): no
///                hot node, but every stream pays the average remote hop.
///
/// The policy is carried by ExecutionPlan, read alike by the planners, the
/// simulator and ProgramExecutor's placement init epoch, and set from the
/// CLI (--place=). Placement never changes results — every policy
/// must stay bit-exact with the reference solver — only page residency.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_GRID_PLACEMENT_H
#define ICORES_GRID_PLACEMENT_H

#include <cstdint>
#include <string>

namespace icores {

/// Where the pages of the shared arrays live (see file comment).
enum class PlacementPolicy {
  None,       ///< Serial first touch by the allocating thread.
  FirstTouch, ///< Per-island arenas touched by the owning pinned team.
  Interleave, ///< Pages round-robin across the active sockets.
};

/// Returns the canonical lowercase policy name ("none", "firsttouch",
/// "interleave") — the spelling used by --place=, ExecStats JSON and the
/// bench records.
const char *placementPolicyName(PlacementPolicy Policy);

/// Parses a policy name. Accepts the canonical names plus the legacy
/// spellings "serial" / "serialinit" (== None) and "first-touch". Returns
/// false (leaving \p Out untouched) for anything else.
bool parsePlacementPolicy(const std::string &Name, PlacementPolicy &Out);

/// The VM page granularity placement works at: the OS page size when it
/// can be queried, 4 KiB otherwise. Placement math (page counts, the
/// interleave round-robin) uses this so estimates match what the kernel
/// actually homes.
int64_t placementPageBytes();

} // namespace icores

#endif // ICORES_GRID_PLACEMENT_H
