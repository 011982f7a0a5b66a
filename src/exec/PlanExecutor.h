//===- exec/PlanExecutor.h - MPDATA-flavoured plan execution ----*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PlanExecutor runs MPDATA ExecutionPlans with real threads: a thin,
/// domain-specific facade over the application-agnostic ProgramExecutor
/// (see exec/ProgramExecutor.h for the runtime semantics). Islands execute
/// concurrently with private intermediates (the paper's scenario 2 across
/// islands, scenario 1 inside); results are bit-identical to the serial
/// reference for every strategy, partitioning and team size.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_EXEC_PLANEXECUTOR_H
#define ICORES_EXEC_PLANEXECUTOR_H

#include "core/ExecutionPlan.h"
#include "exec/ProgramExecutor.h"
#include "grid/Array3D.h"
#include "grid/Domain.h"
#include "mpdata/Kernels.h"
#include "mpdata/MpdataProgram.h"

namespace icores {

/// Threaded executor for one MPDATA plan over one domain.
class PlanExecutor {
public:
  /// \p Plan must target Dom.coreBox(). Thread counts come from the plan;
  /// they may exceed the host's cores (oversubscription is fine for
  /// validation runs). Both kernel variants give bit-identical results,
  /// as does every ExecutorOptions barrier setting.
  PlanExecutor(const Domain &Dom, ExecutionPlan Plan,
               KernelVariant Kernels = KernelVariant::Reference,
               ExecutorOptions Opts = {});

  const Domain &domain() const { return Exec.domain(); }
  const MpdataProgram &program() const { return M; }
  const ExecutionPlan &plan() const { return Exec.plan(); }

  /// The underlying generic executor (e.g. for sharedBytesPerStep()).
  const ProgramExecutor &executor() const { return Exec; }

  /// Mutable access to the shared state/coefficient arrays for
  /// initialization (write core values, halos handled internally).
  Array3D &stateIn() { return Exec.array(M.XIn); }
  Array3D &velocity(int Dim);
  Array3D &density() { return Exec.array(M.H); }
  const Array3D &state() const { return Exec.array(M.XIn); }

  /// Refreshes the halos of the time-constant coefficient arrays.
  void prepareCoefficients() { Exec.prepareInputs(); }

  /// Profiling passthrough (see ProgramExecutor::enableProfiling).
  void enableProfiling(bool On) { Exec.enableProfiling(On); }
  const ExecStats &stats() const { return Exec.stats(); }
  void resetStats() { Exec.resetStats(); }

  /// Advances \p Steps time steps with the plan's threads.
  void run(int Steps) { Exec.run(Steps); }

  /// Deterministic serial sum of h * psi over the core (conserved).
  double conservedMass() const;

private:
  MpdataProgram M;
  ProgramExecutor Exec;
};

} // namespace icores

#endif // ICORES_EXEC_PLANEXECUTOR_H
