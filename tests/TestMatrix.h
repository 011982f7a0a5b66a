//===- tests/TestMatrix.h - Shared sweep scaffolding ------------*- C++ -*-===//
//
// The test suite's common harness pieces, extracted so every sweep-style
// test (temporal blocking, balance/stealing, kernel variants, and the
// registry-driven workload conformance matrix) builds plans, oracles and
// comparisons the same way:
//
//  - makeTestPlan: toy-machine plan construction with the suite's
//    conventional socket defaults (1 for Original, 2 otherwise) and
//    optional barrier elision,
//  - serialOracle / makeWorkloadExecutor: registry-driven runner factories
//    seeded through WorkloadSpec::Init so any pair of runners starts
//    bit-identical,
//  - newestStateArrays / maxNewestStateDiff: feedback-aware state
//    comparison — after run() the newest state lives in the feedback
//    Target arrays, plus any step output that is not fed back,
//  - reductionHistoriesMatch: bit-exact per-step reduction comparison,
//  - TestRng / randomTarget: the property tests' inclusive-range integer
//    PRNG and random-domain generator,
//  - fillStorePairRandom: paired (unpadded, vector-padded) field stores
//    filled from one random stream for kernel-equivalence tests,
//  - setMpdataCoefficients / firstOrderUpwind: hand-seeded MPDATA runs
//    for tests that need a particular field rather than the registered
//    init, and the first-order scheme the corrector is judged against.
//
// Header-only and test-only; nothing in src/ includes this.
//
//===----------------------------------------------------------------------===//

#ifndef ICORES_TESTS_TESTMATRIX_H
#define ICORES_TESTS_TESTMATRIX_H

#include "core/PlanBuilder.h"
#include "core/ScheduleOptimizer.h"
#include "exec/ProgramExecutor.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "mpdata/MpdataProgram.h"
#include "stencil/FieldStore.h"
#include "stencil/HaloAnalysis.h"
#include "stencil/SerialStepper.h"
#include "stencil/WorkloadRegistry.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

namespace icores {

/// Deterministic PRNG for property tests; a failing case number is a
/// complete reproducer. Thin wrapper adding the inclusive integer range
/// the random-domain generators want.
struct TestRng {
  SplitMix64 Rng;
  explicit TestRng(uint64_t Seed) : Rng(Seed) {}
  uint64_t next() { return Rng.next(); }
  double range(double Lo, double Hi) { return Rng.nextInRange(Lo, Hi); }
  int range(int Lo, int Hi) { // Inclusive bounds.
    return Lo +
           static_cast<int>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
};

/// A random target box, not necessarily at the origin: partitioners must
/// place cuts relative to Target.Lo, not absolute plane indices.
inline Box3 randomTarget(TestRng &R, int MinExtent0) {
  Box3 T;
  for (int D = 0; D != 3; ++D) {
    T.Lo[D] = R.range(-4, 4);
    T.Hi[D] = T.Lo[D] + R.range(D == 0 ? MinExtent0 : 3, D == 0 ? 48 : 12);
  }
  return T;
}

/// Builds a plan on the toy machine with the suite's conventional
/// defaults: Sockets == 0 derives 1 for Original and 2 otherwise (the
/// machine's socket count is raised when a case asks for more), and
/// ElideBarriers runs the barrier-elision optimizer on the result.
inline ExecutionPlan
makeTestPlan(const StencilProgram &Program, const Box3 &Target,
             Strategy Strat, int TemporalDepth = 1,
             bool ElideBarriers = false, int Sockets = 0,
             BalancePolicy Balance = BalancePolicy::Uniform,
             PartitionVariant Variant = PartitionVariant::A) {
  MachineModel Machine = makeToyMachine();
  PlanConfig Config;
  Config.Strat = Strat;
  Config.Sockets =
      Sockets > 0 ? Sockets : (Strat == Strategy::Original ? 1 : 2);
  Config.TemporalDepth = TemporalDepth;
  Config.Balance = Balance;
  Config.Variant = Variant;
  Machine.NumSockets = std::max(Machine.NumSockets, Config.Sockets);
  ExecutionPlan Plan = buildPlan(Program, Target, Machine, Config);
  if (ElideBarriers)
    optimizeBarriers(Program, Plan);
  return Plan;
}

inline ExecutionPlan
makeTestPlan(const StencilProgram &Program, const Domain &Dom,
             Strategy Strat, int TemporalDepth = 1,
             bool ElideBarriers = false, int Sockets = 0,
             BalancePolicy Balance = BalancePolicy::Uniform,
             PartitionVariant Variant = PartitionVariant::A) {
  return makeTestPlan(Program, Dom.coreBox(), Strat, TemporalDepth,
                      ElideBarriers, Sockets, Balance, Variant);
}

/// The serial oracle for a registered workload: seeded via the spec's
/// init, advanced \p Steps steps, reduction combiners bound.
inline std::unique_ptr<SerialStepper>
serialOracle(const WorkloadSpec &Spec, const Domain &Dom, int Steps,
             uint64_t Seed = 0,
             KernelVariant Variant = KernelVariant::Reference) {
  auto Stepper = std::make_unique<SerialStepper>(
      Spec.Program, Spec.Kernels(Variant), Dom, Spec.Reductions);
  initWorkload(Spec, *Stepper, Seed);
  if (Steps > 0)
    Stepper->run(Steps);
  return Stepper;
}

/// A threaded executor for a registered workload, seeded exactly like the
/// serial oracle (same Seed => bit-identical start) with the spec's
/// reduction combiners installed. Does not run it.
inline std::unique_ptr<ProgramExecutor>
makeWorkloadExecutor(const WorkloadSpec &Spec, const Domain &Dom,
                     ExecutionPlan Plan,
                     KernelVariant Variant = KernelVariant::Reference,
                     ExecutorOptions Opts = {}, uint64_t Seed = 0) {
  Opts.Reductions = Spec.Reductions;
  auto Exec = std::make_unique<ProgramExecutor>(
      Spec.Program, Spec.Kernels(Variant), Dom, std::move(Plan), Opts);
  initWorkload(Spec, *Exec, Seed);
  return Exec;
}

/// The arrays holding the newest state after run(): each feedback pair's
/// Target (the Source is stale scratch once the step advanced), plus
/// every step output that is not fed back anywhere.
inline std::vector<ArrayId> newestStateArrays(const StencilProgram &Program) {
  std::vector<ArrayId> Ids;
  for (const FeedbackPair &F : Program.feedbacks())
    Ids.push_back(F.Target);
  for (ArrayId Out : Program.stepOutputs()) {
    bool FedBack = false;
    for (const FeedbackPair &F : Program.feedbacks())
      FedBack |= F.Source == Out;
    if (!FedBack)
      Ids.push_back(Out);
  }
  return Ids;
}

/// Max absolute difference of the newest-state arrays of two runners over
/// \p Core. Zero iff the runs are bit-identical where it matters.
template <typename RunnerA, typename RunnerB>
double maxNewestStateDiff(const StencilProgram &Program, RunnerA &A,
                          RunnerB &B, const Box3 &Core) {
  double Diff = 0.0;
  for (ArrayId Id : newestStateArrays(Program))
    Diff = std::max(Diff, A.array(Id).maxAbsDiff(B.array(Id), Core));
  return Diff;
}

/// Copies a runner's newest-state core cells out (snapshot for
/// comparisons that outlive the runner). Single-state programs only.
template <typename Runner>
Array3D copyNewestState(const StencilProgram &Program, Runner &R,
                        const Domain &Dom) {
  std::vector<ArrayId> Ids = newestStateArrays(Program);
  Array3D Out(Dom.allocBox());
  Out.copyRegionFrom(R.array(Ids.front()), Dom.coreBox());
  return Out;
}

/// Bit-exact comparison of the full per-step reduction histories of two
/// runners, for every reduction the program declares.
template <typename RunnerA, typename RunnerB>
::testing::AssertionResult
reductionHistoriesMatch(const StencilProgram &Program, const RunnerA &A,
                        const RunnerB &B) {
  for (size_t R = 0; R != Program.reductions().size(); ++R) {
    const std::vector<double> &HA = A.reductionHistory(R);
    const std::vector<double> &HB = B.reductionHistory(R);
    const std::string &Name = Program.reductions()[R].Name;
    if (HA.size() != HB.size())
      return ::testing::AssertionFailure()
             << "reduction '" << Name << "': " << HA.size() << " vs "
             << HB.size() << " logged steps";
    for (size_t S = 0; S != HA.size(); ++S)
      if (HA[S] != HB[S])
        return ::testing::AssertionFailure()
               << "reduction '" << Name << "' step " << S << ": " << HA[S]
               << " vs " << HB[S] << " (not bit-exact)";
  }
  return ::testing::AssertionSuccess();
}

/// Allocates every program array in two stores — \p A unpadded, \p B with
/// vector-padded k-rows — and fills both identically from one random
/// stream, \p Range mapping each array to its (lo, hi) value range.
/// Proves padding never changes results when the pair is compared.
template <typename RangeFn>
void fillStorePairRandom(const StencilProgram &Program, const Box3 &Alloc,
                         uint64_t Seed, FieldStore &A, FieldStore &B,
                         RangeFn Range) {
  SplitMix64 Rng(Seed);
  for (unsigned Id = 0; Id != Program.numArrays(); ++Id) {
    A.allocateOwned(static_cast<ArrayId>(Id), Alloc);
    B.allocateOwned(static_cast<ArrayId>(Id), Alloc, Array3D::VectorPadK);
    Array3D &ArrA = A.get(static_cast<ArrayId>(Id));
    Array3D &ArrB = B.get(static_cast<ArrayId>(Id));
    std::pair<double, double> Lim = Range(static_cast<ArrayId>(Id));
    for (int I = Alloc.Lo[0]; I != Alloc.Hi[0]; ++I)
      for (int J = Alloc.Lo[1]; J != Alloc.Hi[1]; ++J)
        for (int K = Alloc.Lo[2]; K != Alloc.Hi[2]; ++K) {
          double V = Rng.nextInRange(Lim.first, Lim.second);
          ArrA.at(I, J, K) = V;
          ArrB.at(I, J, K) = V;
        }
  }
}

/// Constant Courant numbers (C1, C2, C3) and unit density on an MPDATA
/// runner (SerialStepper or ProgramExecutor), then prepareInputs(): the
/// hand-seeded counterpart of the registered init. Write psi (M.XIn)
/// first. Both runners allocate every array zeroed, so the density must
/// be written.
template <typename Runner>
void setMpdataCoefficients(Runner &R, const MpdataProgram &M, double C1,
                           double C2, double C3) {
  setConstantVelocity(R.array(M.U1), R.array(M.U2), R.array(M.U3),
                      R.domain(), C1, C2, C3);
  R.array(M.H).fill(1.0);
  R.prepareInputs();
}

/// Psi after \p Steps steps of MPDATA cut after its first-order upwind
/// stage, started from the step inputs of \p Seeded (seeded, not run):
/// each step evaluates stages S1..SUpwind over their dependence-cone
/// regions and psi* becomes the new state.
inline Array3D firstOrderUpwind(const MpdataProgram &M,
                                const SerialStepper &Seeded, int Steps) {
  const Domain &Dom = Seeded.domain();
  RegionRequirements Req = computeRequirements(M.Program, Dom.coreBox());
  KernelTable Kernels = buildMpdataKernels();
  FieldStore Fields(M.Program.numArrays());
  for (unsigned A = 0; A != M.Program.numArrays(); ++A)
    Fields.allocateOwned(static_cast<ArrayId>(A), Dom.allocBox());
  for (ArrayId In : M.Program.stepInputs())
    Fields.get(In).copyRegionFrom(Seeded.array(In), Dom.allocBox());
  Array3D &Psi = Fields.get(M.XIn);
  for (int Step = 0; Step != Steps; ++Step) {
    Dom.fillHalo(Psi);
    for (unsigned S = 0; S <= static_cast<unsigned>(M.SUpwind); ++S)
      Kernels.run(Fields, static_cast<StageId>(S), Req.StageRegion[S]);
    Psi.copyRegionFrom(Fields.get(M.Actual), Dom.coreBox());
  }
  return Psi;
}

} // namespace icores

#endif // ICORES_TESTS_TESTMATRIX_H
