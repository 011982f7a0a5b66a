//===- core/ExecutionPlan.h - Strategy-agnostic execution plans -*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExecutionPlan is the common currency between the planners (core), the
/// threaded executor (exec) and the performance simulator (sim). One plan
/// describes one MPDATA *time step*: a set of islands running concurrently,
/// each processing an ordered list of blocks, each block an ordered list of
/// stage passes. The three strategies of the paper reduce to three plan
/// shapes:
///
///  - Original:        1 island (all sockets), 1 block, 17 full-domain
///                     passes; intermediates live in main memory.
///  - (3+1)D:          1 island (all sockets), many cache-sized blocks.
///  - Islands-of-cores: P islands (1 socket each), per-island blocks;
///                     island pass regions include the inter-island
///                     dependence cones (redundant computation).
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_CORE_EXECUTIONPLAN_H
#define ICORES_CORE_EXECUTIONPLAN_H

#include "grid/Box3.h"
#include "grid/Placement.h"
#include "stencil/StencilIR.h"

#include <cstdint>
#include <vector>

namespace icores {

/// The three execution strategies the paper compares.
enum class Strategy {
  Original,       ///< Stage-major over the full domain.
  Block31D,       ///< The pure (3+1)D decomposition.
  IslandsOfCores, ///< The paper's contribution.
};

/// Returns a human-readable strategy name.
const char *strategyName(Strategy S);

/// Where the pages of the shared arrays live. Historically a simulator-only
/// two-value knob (Table 1 contrasts serial init vs first touch for the
/// Original strategy); now an alias for the grid-level PlacementPolicy the
/// executor also enforces (grid/Placement.h adds Interleave; the old
/// SerialInit is spelled PlacementPolicy::None).
using PagePlacement = PlacementPolicy;

/// How the island partition sizes its slabs (core/BalanceModel.h prices
/// the Cost policy; the plan records the choice so every consumer —
/// executor, simulator, verifier, printers — can see how the cuts were
/// made).
enum class BalancePolicy {
  Uniform, ///< Equal-extent slabs (the paper's partitioning).
  Cost,    ///< Slabs sized so per-island predicted work is equal.
};

/// Returns the CLI spelling of a balance policy ("uniform" / "cost").
const char *balancePolicyName(BalancePolicy P);

/// One stage evaluated over one region by one island's work team. The team
/// splits the region among its threads and, when BarrierAfter is set,
/// barriers afterwards.
struct StagePass {
  StageId Stage = 0;
  Box3 Region; ///< Empty passes are skipped.
  /// Whether the team barriers after this pass. Planners emit true for
  /// every pass (the executor's historical lockstep behaviour); the
  /// schedule optimizer (core/ScheduleOptimizer.h) clears bits it can
  /// prove redundant, and the executor and simulator both honour them.
  bool BarrierAfter = true;
};

/// One (3+1)D block: the passes completing one slab of the step output.
struct BlockTask {
  Box3 Target; ///< The slab of the island part this block finishes.
  std::vector<StagePass> Passes;
  /// Which fused time step of a temporally blocked epoch this block
  /// belongs to, 0 .. ExecutionPlan::TemporalDepth-1. Always 0 in plain
  /// (TemporalDepth == 1) plans. Blocks are ordered by step: the executor
  /// inserts a structural team barrier plus a feedback-buffer rebind at
  /// every step boundary.
  int StepInEpoch = 0;
};

/// One island: a work team of contiguous sockets processing one part of
/// the domain independently within the time step.
struct IslandPlan {
  int Index = 0;
  int HomeSocket = 0; ///< First socket of the team (affinity anchor).
  int NumSockets = 1; ///< Sockets spanned by the team.
  int NumThreads = 1; ///< Total threads (cores) in the team.
  Box3 Part;          ///< Target part of the step output.
  std::vector<BlockTask> Blocks;

  /// Points computed by this island's passes in one step.
  int64_t passPoints() const;
};

/// A complete single-time-step plan.
struct ExecutionPlan {
  Strategy Strat = Strategy::Original;
  /// NUMA page placement: priced by the simulator and the placement model,
  /// and enforced by ProgramExecutor's placement init epoch.
  PagePlacement Placement = PagePlacement::FirstTouch;
  BalancePolicy Balance = BalancePolicy::Uniform;
  Box3 GlobalTarget;
  /// Fused time steps per epoch (temporal blocking). 1 means the classic
  /// one-step plan. For T > 1 each island's block list covers T fused
  /// steps (BlockTask::StepInEpoch), island overlap regions are widened to
  /// the T-step dependence cones, and the executor runs the whole epoch
  /// between global barriers: step inputs are imported into island-private
  /// buffers once per epoch and only the final fused step writes the
  /// shared output arrays. Requires periodic boundaries (the widened cones
  /// are exact under wrapping; see DESIGN.md §11).
  int TemporalDepth = 1;
  std::vector<IslandPlan> Islands;

  /// Total points computed across all islands (redundant work included).
  int64_t totalPassPoints() const;

  /// Total flops per step given per-stage flop weights from \p Program.
  int64_t totalFlops(const StencilProgram &Program) const;

  /// Team-barrier crossings per step: passes whose BarrierAfter bit is
  /// set, summed over all islands.
  int64_t teamBarriersPerStep() const;

  /// Passes whose team barrier has been elided (BarrierAfter cleared).
  int64_t elidedBarriersPerStep() const;
};

} // namespace icores

#endif // ICORES_CORE_EXECUTIONPLAN_H
