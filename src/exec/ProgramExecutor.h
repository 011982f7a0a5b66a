//===- exec/ProgramExecutor.h - Generic threaded plan execution -*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The application-agnostic threaded runtime: executes any ExecutionPlan
/// for any (StencilProgram, KernelTable) pair. Islands run concurrently
/// with private intermediates; passes are split among team threads along
/// their longest non-unit-stride dimension and followed by a team barrier
/// when the pass's BarrierAfter bit is set (the barrier-elision optimizer,
/// core/ScheduleOptimizer.h, clears redundant bits); the program's
/// feedback pairs advance the state between steps. Both the per-pass team
/// rendezvous and the step-boundary global rendezvous use the hybrid
/// combining-tree TeamBarrier, tunable through ExecutorOptions. Every
/// registered workload, MPDATA included, runs through this class.
///
/// The plan's threads live in a persistent WorkerPool: they are spawned
/// (and optionally pinned) once, by the constructor's placement init
/// epoch, and reused by seeding and by every run(), so bench loops time
/// the schedule rather than thread creation. With enableProfiling(true)
/// the executor records per-stage kernel time and per-pass barrier waits
/// into an ExecStats (see exec/ExecStats.h); results are bit-identical
/// either way.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_EXEC_PROGRAMEXECUTOR_H
#define ICORES_EXEC_PROGRAMEXECUTOR_H

#include "core/ExecutionPlan.h"
#include "core/PlacementMap.h"
#include "exec/Affinity.h"
#include "exec/ExecStats.h"
#include "exec/TeamBarrier.h"
#include "exec/WorkerPool.h"
#include "grid/Array3D.h"
#include "grid/Domain.h"
#include "stencil/FieldStore.h"
#include "stencil/KernelTable.h"
#include "stencil/StencilIR.h"
#include "stencil/WorkloadRegistry.h"

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace icores {

class ExecObserver;
class FaultInjector;
struct MachineModel;

/// Runtime knobs of the executor: barriers, layout, pinning, scheduling
/// and observation hooks. Results are bit-identical for every setting;
/// only latency/CPU-burn trade-offs change. Page placement is not among
/// them: the executor places by the plan's ExecutionPlan::Placement, the
/// policy the simulator and the placement model price.
struct ExecutorOptions {
  TeamBarrier::WaitPolicy BarrierPolicy = TeamBarrier::WaitPolicy::Hybrid;
  int BarrierSpinLimit = TeamBarrier::DefaultSpinLimit;
  /// k-row pad multiple for every array the executor allocates (externals
  /// and per-island intermediates); rows start cache-line aligned at the
  /// default. 0 disables padding. Layout only — results are identical.
  int PadKRows = Array3D::VectorPadK;
  /// Chaos hook: when non-null, worker threads stall before passes and
  /// team/global barriers force spurious wakeups and detect stalled-team
  /// timeouts, all per the injector's seeded plan. Results stay
  /// bit-identical (faults here perturb timing, never data); injector
  /// counters are mirrored into ExecStats (schema v3).
  FaultInjector *Chaos = nullptr;
  /// Observation hook: when non-null, worker threads report every barrier
  /// crossing, pass, and epoch import (see exec/ExecObserver.h). The
  /// shadow race detector rides on this. Results are bit-identical; only
  /// timing changes.
  ExecObserver *Observer = nullptr;
  /// Advise transparent huge pages (madvise(MADV_HUGEPAGE)) on the arenas
  /// between allocation and first touch. Best effort; Linux only.
  bool HugePages = false;
  /// Worker pinning, in the (island, thread) order of
  /// computeThreadPlacement(). Applied before the constructor's placement
  /// init epoch spawns the pool — first touch only homes pages correctly
  /// when the touching thread already sits on its socket — and kept by
  /// every later dispatch. Best effort on the host; failures are counted
  /// in ExecStats::PinFailures.
  std::vector<ThreadPlacement> Pinning;
  /// Work-stealing block scheduler: within an island, passes that are
  /// bracketed by real barriers on both sides are diced into
  /// NumThreads * StealChunksPerThread chunks along the team split
  /// dimension; each thread drains its own chunk deque front-first
  /// (LIFO-local order preserves streaming locality) and then steals from
  /// teammates' backs. Stealing never crosses an island (sockets keep
  /// their NUMA locality), stolen chunks run under the same pass-end
  /// barrier, and barrier-elided pass groups keep the static split (the
  /// race-freedom proof of core/ScheduleCheck assumes it), so results are
  /// bit-identical with stealing on or off.
  bool Stealing = false;
  /// Chunks per team thread for the stealing scheduler (>= 1); more
  /// chunks balance finer at slightly higher claim overhead.
  int StealChunksPerThread = 4;
  /// Optional machine model used to price the executed plan's predicted
  /// island skew (core/BalanceModel.h) into ExecStats — the SAME function
  /// the simulator reports, so predicted-vs-predicted parity is exact.
  /// When null, ExecStats::PredictedIslandSkew stays 0.0.
  const MachineModel *Machine = nullptr;
  /// Row folds for the program's declared reductions (see
  /// ReductionBinding in stencil/StencilIR.h; workloads registered in the
  /// WorkloadRegistry carry them). Must cover every declared reduction —
  /// checked at construction. Every worker folds the rows it has just
  /// computed of each reduced array (its static sub-region, or each chunk
  /// it runs under stealing) into its own partial slot, one Fold call per
  /// k-row; the per-worker partials are combined in worker order at the
  /// next global barrier, so every schedule yields values bit-identical to
  /// the serial stepper's canonical scan (the fold contract makes the fold
  /// order and the islands' redundant cone overlap immaterial).
  std::vector<ReductionBinding> Reductions;
};

/// Threaded executor for one plan of one program over one domain.
///
/// Temporal blocking: a plan with TemporalDepth T > 1 is executed in
/// epochs of T fused time steps between global barriers. Each epoch every
/// island imports its step inputs once into island-private buffers
/// (periodically wrap-gathered from the shared core cells, so the widened
/// overlap cones are exact — periodic boundaries are required), runs the
/// T fused steps entirely on private storage with only team-level
/// synchronization, and writes the shared output arrays only from the
/// final fused step. Results are bit-identical to the T = 1 schedule.
class ProgramExecutor {
public:
  /// \p Plan must target Dom.coreBox(); \p Kernels must cover the program.
  ProgramExecutor(StencilProgram Program, KernelTable Kernels,
                  const Domain &Dom, ExecutionPlan Plan,
                  ExecutorOptions Opts = {});
  ~ProgramExecutor();

  const Domain &domain() const { return Dom; }
  const StencilProgram &program() const { return Program; }
  const ExecutionPlan &plan() const { return Plan; }

  /// Mutable access to any step-input or step-output array.
  Array3D &array(ArrayId Id);
  const Array3D &array(ArrayId Id) const;

  /// Refreshes the halos of every step input (call after initialization):
  /// every worker fills its i-plane slice of each halo.
  void prepareInputs();

  /// Seeds the step inputs (see initWorkload): one pool dispatch in which
  /// every worker calls \p Init on the core cells of its first-touch box
  /// — the same split the placement init epoch touched the pages by —
  /// then prepareInputs().
  void seedInputs(const WorkloadInit &Init, uint64_t Seed);

  /// Turns per-stage/per-pass timing collection on or off for subsequent
  /// run() calls. Off by default; when off, run() takes no timestamps.
  void enableProfiling(bool On);

  /// The measurements accumulated so far (pool counters are maintained
  /// even with profiling off).
  const ExecStats &stats() const { return Stats; }

  /// Zeroes the accumulated measurements (layout and pool kept).
  void resetStats() { Stats.resetMeasurements(); }

  /// Advances \p Steps steps with the plan's threads. Afterwards each
  /// feedback Target array holds the newest state. \p Steps must be a
  /// multiple of the plan's TemporalDepth (whole epochs only).
  void run(int Steps);

  /// Logical bytes this executor moves between an island and the shared
  /// arrays per *time step* (averaged over an epoch): for T == 1 every
  /// island streams its input footprint in and its output part out each
  /// step; for T > 1 one import plus one final write per epoch, divided
  /// by T. This is the measured side of the simulator's
  /// SharedBytesPerStep projection.
  int64_t sharedBytesPerStep() const;

  /// The placement model's remote-DRAM bytes per time step for this
  /// plan under its placement policy (core/PlacementMap.h) — the measured
  /// side of SimResult::PlacementRemoteBytesPerStep, equal to it by
  /// construction.
  int64_t remoteBytesPerStep() const;

  /// The plan-derived page-ownership map the init epoch placed by.
  const PlacementMap &placementMap() const { return PMap; }

  /// Per-step global values of the program's \p R-th reduction, one entry
  /// per step run so far — bit-identical to the serial stepper's
  /// reductionHistory for every plan shape.
  const std::vector<double> &reductionHistory(size_t R) const;

private:
  struct IslandState;

  void threadMain(int Worker, int Island, int ThreadInTeam, int Steps,
                  void *Control);
  void rebindForStep(IslandState &IS, int StepInEpoch);
  void importEpochInputs(IslandState &IS, int Worker, int ThreadInTeam,
                         int NumThreads);
  void dispatch(const std::function<void(int)> &Job);
  Box3 firstTouchBox(int Worker) const;
  void runPlacementEpoch();
  double &partialAt(int Worker, int StepInEpoch, size_t R);
  void foldRows(const IslandState &IS, int Worker, int StepInEpoch,
                StageId Stage, const Box3 &Sub);
  void appendEpochReductions();

  StencilProgram Program;
  KernelTable Kernels;
  Domain Dom;
  ExecutionPlan Plan;
  ExecutorOptions Opts;

  std::map<ArrayId, Array3D> External;
  std::vector<std::unique_ptr<IslandState>> IslandStates;

  /// Worker I's (island, thread-in-team) coordinates.
  std::vector<std::pair<int, int>> WorkerCoords;
  std::unique_ptr<WorkerPool> Pool;

  /// Logical shared-array traffic of one epoch (all islands): import (or
  /// per-step input) reads and final-step output writes. Computed once at
  /// construction from the plan's pass regions.
  int64_t SharedReadBytesPerEpoch = 0;
  int64_t SharedWriteBytesPerEpoch = 0;

  /// Placement model state: the page-ownership map under Plan.Placement
  /// and the remote slice of the per-epoch shared traffic it implies,
  /// both fixed at construction.
  PlacementMap PMap;
  int64_t RemoteBytesPerEpoch = 0;
  int64_t PagesTouched = 0; ///< Bytes the placement epoch zeroed, in pages.

  /// Reduction machinery (empty when the program declares none).
  /// Reductions holds the row folds in ReductionDef order;
  /// StageFolds[stage] lists the reduction indices the stage produces;
  /// Partials holds one slot per (worker, step-in-epoch, reduction), each
  /// on its own cache line, written only by its worker (reset per epoch,
  /// combined at global barriers); ReductionLog accumulates the per-step
  /// global values.
  struct alignas(64) PartialSlot {
    double Value = 0.0;
  };
  std::vector<ReductionBinding> Reductions;
  std::vector<std::vector<size_t>> StageFolds;
  std::vector<PartialSlot> Partials;
  std::vector<std::vector<double>> ReductionLog;

  bool Profiling = false;
  ExecStats Stats;
  std::mutex StatsMutex;
};

} // namespace icores

#endif // ICORES_EXEC_PROGRAMEXECUTOR_H
