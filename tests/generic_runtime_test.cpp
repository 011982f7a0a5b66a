//===- tests/generic_runtime_test.cpp - Generic runtime layer tests -------===//
//
// Direct tests of the application-agnostic layer: KernelTable,
// SerialStepper and ProgramExecutor — including running MPDATA on the
// threaded executor and checking it against the serial stepper.
//
//===----------------------------------------------------------------------===//

#include "core/PlanBuilder.h"
#include "exec/ProgramExecutor.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "mpdata/MpdataProgram.h"
#include "stencil/FieldStore.h"
#include "stencil/SerialStepper.h"

#include <gtest/gtest.h>

using namespace icores;

TEST(KernelTableTest, CoverageTracking) {
  MpdataProgram M = buildMpdataProgram();
  KernelTable Empty(M.Program.numStages());
  EXPECT_FALSE(Empty.coversProgram(M.Program));
  EXPECT_FALSE(Empty.isSet(0));

  KernelTable Full = buildMpdataKernels();
  EXPECT_TRUE(Full.coversProgram(M.Program));
  for (unsigned S = 0; S != M.Program.numStages(); ++S)
    EXPECT_TRUE(Full.isSet(static_cast<StageId>(S)));

  KernelTable WrongSize(3);
  EXPECT_FALSE(WrongSize.coversProgram(M.Program));
}

TEST(KernelTableTest, EmptyRegionSkipsTheKernel) {
  KernelTable Table(1);
  int Calls = 0;
  Table.set(0, [&Calls](FieldStore &, const Box3 &) { ++Calls; });
  FieldStore Fields(1);
  Table.run(Fields, 0, Box3());
  EXPECT_EQ(Calls, 0);
  Table.run(Fields, 0, Box3::fromExtents(1, 1, 1));
  EXPECT_EQ(Calls, 1);
}

namespace {

/// Initializes an MPDATA workload through the generic array(ArrayId) API.
template <typename Runner>
void initMpdata(Runner &R, const MpdataProgram &M, const Domain &Dom) {
  GaussianBlob Blob;
  Blob.CenterI = Dom.ni() / 3.0;
  Blob.CenterJ = Dom.nj() / 2.0;
  Blob.CenterK = Dom.nk() / 2.0;
  Blob.Sigma = 2.5;
  fillGaussian(R.array(M.XIn), Dom, Blob);
  R.array(M.U1).fill(0.25);
  R.array(M.U2).fill(-0.2);
  R.array(M.U3).fill(0.1);
  R.array(M.H).fill(1.0);
  R.prepareInputs();
}

} // namespace

TEST(SerialStepperTest, RejectsShallowHalo) {
  MpdataProgram M = buildMpdataProgram();
  Domain Shallow(16, 16, 16, 1); // MPDATA needs 3.
  EXPECT_DEATH(SerialStepper(M.Program, buildMpdataKernels(), Shallow),
               "halo");
}

TEST(SerialStepperTest, RejectsIncompleteKernelTable) {
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(16, 12, 8, mpdataHaloDepth());
  KernelTable Incomplete(M.Program.numStages()); // Nothing registered.
  EXPECT_DEATH(SerialStepper(M.Program, std::move(Incomplete), Dom),
               "kernel table");
}

TEST(SerialStepperTest, IntermediatesAreNotExposed) {
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(16, 12, 8, mpdataHaloDepth());
  SerialStepper Stepper(M.Program, buildMpdataKernels(), Dom);
  EXPECT_DEATH(Stepper.array(M.Actual), "not a step input or output");
}

TEST(ProgramExecutorTest, MpdataThroughGenericPathMatchesSerialStepper) {
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(18, 12, 8, mpdataHaloDepth());
  MachineModel Machine = makeToyMachine();
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;
  ExecutionPlan Plan = buildPlan(M.Program, Dom.coreBox(), Machine, Config);
  ProgramExecutor Exec(M.Program, buildMpdataKernels(KernelVariant::Optimized),
                       Dom, std::move(Plan));
  initMpdata(Exec, M, Dom);
  Exec.run(4);
  SerialStepper Oracle(M.Program, buildMpdataKernels(), Dom);
  initMpdata(Oracle, M, Dom);
  Oracle.run(4);
  EXPECT_EQ(Exec.array(M.XIn).maxAbsDiff(Oracle.array(M.XIn), Dom.coreBox()),
            0.0);
}

TEST(ProgramExecutorTest, RejectsMismatchedPlanTarget) {
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(16, 12, 8, mpdataHaloDepth());
  MachineModel Machine = makeToyMachine();
  PlanConfig Config;
  Config.Strat = Strategy::Original;
  Config.Sockets = 1;
  // Plan for a different grid than the domain.
  ExecutionPlan Plan = buildPlan(M.Program, Box3::fromExtents(8, 8, 8),
                                 Machine, Config);
  EXPECT_DEATH(ProgramExecutor(M.Program, buildMpdataKernels(), Dom,
                               std::move(Plan)),
               "plan target");
}

TEST(ProgramExecutorTest, FeedbackLeavesStateInTheTargetArray) {
  // After run(), the newest state must be readable through the feedback
  // target (xIn), and another run() must continue from it.
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(16, 12, 8, mpdataHaloDepth());
  MachineModel Machine = makeToyMachine();
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;

  auto make = [&]() {
    ExecutionPlan Plan =
        buildPlan(M.Program, Dom.coreBox(), Machine, Config);
    auto Exec = std::make_unique<ProgramExecutor>(
        M.Program, buildMpdataKernels(), Dom, std::move(Plan));
    initMpdata(*Exec, M, Dom);
    return Exec;
  };
  auto Split = make();
  Split->run(2);
  Split->run(3);
  auto Whole = make();
  Whole->run(5);
  EXPECT_EQ(Split->array(M.XIn).maxAbsDiff(Whole->array(M.XIn),
                                           Dom.coreBox()),
            0.0);
}
