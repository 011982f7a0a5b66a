//===- examples/quickstart.cpp - Five-minute tour of the library ----------===//
//
// Quickstart: advect a Gaussian tracer blob with MPDATA, first with the
// serial stepper (the correctness oracle), then with the islands-of-cores
// executor using real threads — and verify the two agree bit-for-bit.
// Both runners take any (StencilProgram, KernelTable) pair; here it is
// the 17-stage MPDATA program, seeded through array(ArrayId).
//
// Run:  ./quickstart [--ni=32 --nj=24 --nk=16 --steps=20 --islands=2]
//
//===----------------------------------------------------------------------===//

#include "core/PlanBuilder.h"
#include "exec/ProgramExecutor.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "mpdata/MpdataProgram.h"
#include "stencil/SerialStepper.h"
#include "support/CommandLine.h"

#include <cstdio>

using namespace icores;

int main(int Argc, char **Argv) {
  CommandLine CL;
  CL.registerOption("ni", "grid cells along i (default 32)");
  CL.registerOption("nj", "grid cells along j (default 24)");
  CL.registerOption("nk", "grid cells along k (default 16)");
  CL.registerOption("steps", "time steps (default 20)");
  CL.registerOption("islands", "number of islands (default 2)");
  CL.registerOption("help", "print this help");
  std::string Error;
  if (!CL.parse(Argc, Argv, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (CL.hasOption("help")) {
    std::printf("quickstart options:\n%s", CL.helpText().c_str());
    return 0;
  }
  int NI = static_cast<int>(CL.getInt("ni", 32));
  int NJ = static_cast<int>(CL.getInt("nj", 24));
  int NK = static_cast<int>(CL.getInt("nk", 16));
  int Steps = static_cast<int>(CL.getInt("steps", 20));
  int Islands = static_cast<int>(CL.getInt("islands", 2));

  std::printf("MPDATA quickstart: %dx%dx%d grid, %d steps, %d islands\n\n",
              NI, NJ, NK, Steps, Islands);

  MpdataProgram M = buildMpdataProgram();
  Domain Dom(NI, NJ, NK, mpdataHaloDepth());

  // The tracer: a Gaussian blob advected by a constant Courant-number
  // velocity field (0.25, 0.15, 0.1) over unit density.
  GaussianBlob Blob;
  Blob.CenterI = NI / 4.0;
  Blob.CenterJ = NJ / 2.0;
  Blob.CenterK = NK / 2.0;
  Blob.Sigma = NI / 10.0;
  auto seed = [&](auto &Runner) {
    fillGaussian(Runner.array(M.XIn), Dom, Blob);
    setConstantVelocity(Runner.array(M.U1), Runner.array(M.U2),
                        Runner.array(M.U3), Dom, 0.25, 0.15, 0.1);
    Runner.array(M.H).fill(1.0);
    Runner.prepareInputs(); // Halos of the step inputs.
  };

  // --- 1. Serial reference run ----------------------------------------
  SerialStepper Solver(M.Program, buildMpdataKernels(), Dom);
  seed(Solver);
  double MassBefore = mpdataMass(Dom, Solver.array(M.H), Solver.array(M.XIn));
  Solver.run(Steps);
  double MassAfter = mpdataMass(Dom, Solver.array(M.H), Solver.array(M.XIn));
  std::printf("serial stepper: mass %.12f -> %.12f (drift %.2e)\n",
              MassBefore, MassAfter, MassAfter - MassBefore);

  GaussianBlob Moved =
      Blob.translated(0.25 * Steps, 0.15 * Steps, 0.1 * Steps);
  std::printf("L2 error vs analytically translated blob: %.4e\n\n",
              l2ErrorVsBlob(Solver.array(M.XIn), Dom, Moved));

  // --- 2. Islands-of-cores run with real threads -----------------------
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = Islands; // One island per model socket.
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = Islands;
  ExecutionPlan Plan = buildPlan(M.Program, Dom.coreBox(), Machine, Config);
  std::printf("islands plan: %zu islands x %d threads, %zu blocks on "
              "island 0\n",
              Plan.Islands.size(), Plan.Islands[0].NumThreads,
              Plan.Islands[0].Blocks.size());

  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom, std::move(Plan));
  seed(Exec);
  Exec.run(Steps);

  // After run() the newest state lives in the feedback target, xIn.
  double MaxDiff =
      Exec.array(M.XIn).maxAbsDiff(Solver.array(M.XIn), Dom.coreBox());
  std::printf("max |islands - reference| over the grid: %.3e %s\n", MaxDiff,
              MaxDiff == 0.0 ? "(bit-exact)" : "");
  return MaxDiff == 0.0 ? 0 : 1;
}
