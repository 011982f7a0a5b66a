//===- examples/distributed_ranks.cpp - MPI-style distributed MPDATA ------===//
//
// Demonstrates the future-work distributed extension: the domain is slab-
// decomposed across ranks (threads standing in for MPI processes), input
// halos travel by explicit messages once per step, and each rank
// recomputes its inter-rank dependence cones — the islands-of-cores idea
// at cluster granularity. Verifies against the serial reference and prints
// the stage dependence graph that drives the cone analysis.
//
// Run:  ./distributed_ranks [--ranks=4 --ni=32 --nj=16 --nk=8 --steps=10]
//                           [--dot]   (print the DOT stage graph instead)
//
//===----------------------------------------------------------------------===//

#include "dist/DistributedSolver.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "mpdata/MpdataProgram.h"
#include "stencil/SerialStepper.h"
#include "stencil/GraphExport.h"
#include "support/CommandLine.h"
#include "support/OStream.h"

#include <cmath>
#include <cstdio>

using namespace icores;

int main(int Argc, char **Argv) {
  CommandLine CL;
  CL.registerOption("ranks", "number of ranks (default 4)");
  CL.registerOption("ni", "grid cells along i (default 32)");
  CL.registerOption("nj", "grid cells along j (default 16)");
  CL.registerOption("nk", "grid cells along k (default 8)");
  CL.registerOption("steps", "time steps (default 10)");
  CL.registerOption("dot", "print the stage graph as Graphviz DOT and exit");
  std::string Error;
  if (!CL.parse(Argc, Argv, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  if (CL.hasOption("dot")) {
    MpdataProgram M = buildMpdataProgram();
    exportProgramDot(M.Program, outs());
    return 0;
  }

  int Ranks = static_cast<int>(CL.getInt("ranks", 4));
  int NI = static_cast<int>(CL.getInt("ni", 32));
  int NJ = static_cast<int>(CL.getInt("nj", 16));
  int NK = static_cast<int>(CL.getInt("nk", 8));
  int Steps = static_cast<int>(CL.getInt("steps", 10));

  std::printf("distributed MPDATA: %d ranks over a %dx%dx%d grid, %d "
              "steps\n\n",
              Ranks, NI, NJ, NK, Steps);

  std::printf("the 17-stage program each rank executes:\n");
  {
    MpdataProgram M = buildMpdataProgram();
    exportProgramText(M.Program, outs());
  }
  std::printf("\n");

  // A smooth tracer bump plus diagonal wind, expressible pointwise so each
  // rank initializes its slab locally.
  DistributedInit Init;
  Init.State = [NI, NJ, NK](int I, int J, int K) {
    double DI = (I - NI / 2.0) / (NI / 6.0);
    double DJ = (J - NJ / 2.0) / (NJ / 6.0);
    double DK = (K - NK / 2.0) / (NK / 6.0);
    return 0.1 + std::exp(-(DI * DI + DJ * DJ + DK * DK));
  };
  Init.U1 = [](int, int, int) { return 0.3; };
  Init.U2 = [](int, int, int) { return 0.2; };
  Init.U3 = [](int, int, int) { return -0.1; };
  Init.H = [](int, int, int) { return 1.0; };

  Array3D Distributed =
      runDistributedMpdata(Ranks, NI, NJ, NK, Steps, Init);

  // Serial reference for comparison.
  MpdataProgram M = buildMpdataProgram();
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(NI, NJ, NK, mpdataHaloDepth()));
  for (int I = 0; I != NI; ++I)
    for (int J = 0; J != NJ; ++J)
      for (int K = 0; K != NK; ++K) {
        Solver.array(M.XIn).at(I, J, K) = Init.State(I, J, K);
        Solver.array(M.U1).at(I, J, K) = Init.U1(I, J, K);
        Solver.array(M.U2).at(I, J, K) = Init.U2(I, J, K);
        Solver.array(M.U3).at(I, J, K) = Init.U3(I, J, K);
        Solver.array(M.H).at(I, J, K) = Init.H(I, J, K);
      }
  Solver.prepareInputs();
  Solver.run(Steps);

  double MaxDiff = Distributed.maxAbsDiff(Solver.array(M.XIn),
                                          Box3::fromExtents(NI, NJ, NK));
  std::printf("max |distributed - serial reference| = %.3e %s\n", MaxDiff,
              MaxDiff == 0.0 ? "(bit-exact)" : "");
  std::printf("per step, each rank sent 2 halo messages of %d planes and "
              "recomputed its neighbour cones locally — no other "
              "communication.\n",
              mpdataHaloDepth());
  return MaxDiff == 0.0 ? 0 : 1;
}
