//===- examples/weather_advection.cpp - NWP-style moisture transport ------===//
//
// A scenario shaped like MPDATA's home application (the EULAG dynamic core
// used in numerical weather prediction): a moisture plume carried around a
// cyclonic (solid-body) wind field over many time steps, computed with the
// islands-of-cores executor. Prints conservation/extremum diagnostics and
// an ASCII rendering of a horizontal slice as the plume rotates.
//
// Run:  ./weather_advection [--size=48 --steps=120 --islands=2]
//
//===----------------------------------------------------------------------===//

#include "core/PlanBuilder.h"
#include "exec/ProgramExecutor.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "mpdata/MpdataProgram.h"
#include "support/CommandLine.h"

#include <algorithm>
#include <cstdio>

using namespace icores;

namespace {

/// Renders the k-midplane of the field as ASCII shades.
void renderSlice(const Array3D &Field, const Domain &Dom) {
  static const char Shades[] = " .:-=+*#%@";
  int K = Dom.nk() / 2;
  double Max = 0.0;
  for (int I = 0; I != Dom.ni(); ++I)
    for (int J = 0; J != Dom.nj(); ++J)
      Max = std::max(Max, Field.at(I, J, K));
  for (int J = Dom.nj() - 1; J >= 0; J -= 2) { // Halve rows for aspect.
    std::printf("    ");
    for (int I = 0; I != Dom.ni(); ++I) {
      double V = Field.at(I, J, K) / (Max > 0 ? Max : 1.0);
      int Level = std::min(9, static_cast<int>(V * 9.99));
      std::putchar(Shades[Level]);
    }
    std::putchar('\n');
  }
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL;
  CL.registerOption("size", "horizontal grid size (default 48)");
  CL.registerOption("steps", "time steps (default 120)");
  CL.registerOption("islands", "number of islands (default 2)");
  std::string Error;
  if (!CL.parse(Argc, Argv, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  int N = static_cast<int>(CL.getInt("size", 48));
  int Steps = static_cast<int>(CL.getInt("steps", 120));
  int Islands = static_cast<int>(CL.getInt("islands", 2));

  std::printf("moisture plume in a cyclonic wind field: %dx%dx8 grid, %d "
              "steps, %d islands\n\n",
              N, N, Steps, Islands);

  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = Islands;
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(N, N, 8, mpdataHaloDepth());
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = Islands;
  ExecutionPlan Plan = buildPlan(M.Program, Dom.coreBox(), Machine, Config);
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom, std::move(Plan));
  Array3D &Moisture = Exec.array(M.XIn); // Holds the newest state.

  // Moisture plume off-centre; cyclone centred mid-domain. Omega is kept
  // small enough that the largest Courant number stays stable.
  GaussianBlob Plume;
  Plume.CenterI = N * 0.5;
  Plume.CenterJ = N * 0.75;
  Plume.Sigma = N / 12.0;
  Plume.CenterK = 4.0;
  Plume.Background = 0.02; // Ambient humidity.
  fillGaussian(Moisture, Dom, Plume);
  double Omega = 0.8 / N; // Max Courant ~0.4 at the domain edge.
  setRotationalVelocity(Exec.array(M.U1), Exec.array(M.U2),
                        Exec.array(M.U3), Dom, Omega, N / 2.0, N / 2.0);
  Exec.array(M.H).fill(1.0);
  Exec.prepareInputs();

  double Mass0 = mpdataMass(Dom, Exec.array(M.H), Moisture);
  int Quarter = Steps / 4;
  for (int Leg = 0; Leg != 4; ++Leg) {
    Exec.run(Quarter);
    double Peak = 0.0;
    Box3 Core = Dom.coreBox();
    for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
      for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
        for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
          Peak = std::max(Peak, Moisture.at(I, J, K));
    std::printf("after %3d steps: mass drift %+.2e, plume peak %.3f\n",
                (Leg + 1) * Quarter,
                (mpdataMass(Dom, Exec.array(M.H), Moisture) - Mass0) / Mass0,
                Peak);
    renderSlice(Moisture, Dom);
    std::printf("\n");
  }
  std::printf("mass conserved to round-off; the plume rotates with the "
              "wind while staying positive and bounded\n");
  return 0;
}
