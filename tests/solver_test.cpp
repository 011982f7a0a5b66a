//===- tests/solver_test.cpp - MPDATA physics validation ------------------===//
//
// The physics of the MPDATA program, checked on the serial oracle every
// threaded schedule must match: SerialStepper over buildMpdataProgram()
// with the reference kernels, hand-seeded through array(ArrayId).
//
//===----------------------------------------------------------------------===//

#include "TestMatrix.h"

#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "mpdata/MpdataProgram.h"
#include "stencil/SerialStepper.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace icores;

namespace {

/// A serial MPDATA stepper over an NI x NJ x NK grid with halos as deep as
/// the program's cone.
SerialStepper mpdataStepper(const MpdataProgram &M, int NI, int NJ, int NK) {
  return SerialStepper(M.Program, buildMpdataKernels(),
                       Domain(NI, NJ, NK, mpdataHaloDepth()));
}

double mass(const MpdataProgram &M, const SerialStepper &Solver) {
  return mpdataMass(Solver.domain(), Solver.array(M.H),
                    Solver.array(M.XIn));
}

} // namespace

TEST(SolverTest, HaloDepthIsThree) { EXPECT_EQ(mpdataHaloDepth(), 3); }

TEST(SolverTest, ConservesMassUnderConstantVelocity) {
  MpdataProgram M = buildMpdataProgram();
  SerialStepper Solver = mpdataStepper(M, 16, 12, 8);
  GaussianBlob Blob;
  Blob.CenterI = 8.0;
  Blob.CenterJ = 6.0;
  Blob.CenterK = 4.0;
  Blob.Sigma = 2.0;
  fillGaussian(Solver.array(M.XIn), Solver.domain(), Blob);
  setMpdataCoefficients(Solver, M, 0.2, -0.15, 0.1);
  double Before = mass(M, Solver);
  Solver.run(10);
  EXPECT_NEAR(mass(M, Solver), Before, 1e-10 * std::fabs(Before));
}

TEST(SolverTest, ConservesWeightedMassWithVariableDensity) {
  MpdataProgram M = buildMpdataProgram();
  SerialStepper Solver = mpdataStepper(M, 12, 12, 6);
  fillRandomPositive(Solver.array(M.XIn), Solver.domain(), 17, 0.2, 1.2);
  setConstantVelocity(Solver.array(M.U1), Solver.array(M.U2),
                      Solver.array(M.U3), Solver.domain(), 0.15, 0.1, -0.1);
  // Smooth positive density variation.
  Box3 Core = Solver.domain().coreBox();
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        Solver.array(M.H).at(I, J, K) =
            1.0 + 0.3 * std::sin(2.0 * M_PI * I / 12.0);
  Solver.prepareInputs();
  double Before = mass(M, Solver);
  Solver.run(8);
  EXPECT_NEAR(mass(M, Solver), Before, 1e-10 * std::fabs(Before));
}

TEST(SolverTest, PreservesPositivity) {
  // "Positive definite" is MPDATA's defining property.
  MpdataProgram M = buildMpdataProgram();
  SerialStepper Solver = mpdataStepper(M, 16, 8, 8);
  GaussianBlob Blob;
  Blob.CenterI = 4.0;
  Blob.CenterJ = 4.0;
  Blob.CenterK = 4.0;
  Blob.Sigma = 1.5;
  Blob.Background = 0.0; // Sharp blob on a zero background.
  fillGaussian(Solver.array(M.XIn), Solver.domain(), Blob);
  setMpdataCoefficients(Solver, M, 0.3, 0.2, 0.1);
  Solver.run(20);
  Box3 Core = Solver.domain().coreBox();
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        EXPECT_GE(Solver.array(M.XIn).at(I, J, K), -1e-14);
}

TEST(SolverTest, NonOscillatoryBoundsRespected) {
  // The limited scheme must not produce new extrema: values stay within
  // the initial global min/max.
  MpdataProgram M = buildMpdataProgram();
  SerialStepper Solver = mpdataStepper(M, 12, 12, 8);
  fillRandomPositive(Solver.array(M.XIn), Solver.domain(), 3, 0.5, 2.5);
  setMpdataCoefficients(Solver, M, 0.25, -0.2, 0.15);
  Solver.run(12);
  Box3 Core = Solver.domain().coreBox();
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K) {
        EXPECT_GE(Solver.array(M.XIn).at(I, J, K), 0.5 - 1e-12);
        EXPECT_LE(Solver.array(M.XIn).at(I, J, K), 2.5 + 1e-12);
      }
}

TEST(SolverTest, UnitCourantShiftsExactly) {
  // With C = (1,0,0) the donor-cell pass is an exact one-cell shift and
  // the corrective pass degenerates: after N steps the field returns to
  // itself on a ring of size N.
  MpdataProgram M = buildMpdataProgram();
  SerialStepper Solver = mpdataStepper(M, 8, 4, 4);
  fillRandomPositive(Solver.array(M.XIn), Solver.domain(), 23, 0.1, 2.0);
  Array3D Initial(Solver.domain().allocBox());
  Initial.copyRegionFrom(Solver.array(M.XIn), Solver.domain().coreBox());
  setMpdataCoefficients(Solver, M, 1.0, 0.0, 0.0);
  Solver.run(8); // Full period around the periodic i-axis.
  EXPECT_LT(
      Solver.array(M.XIn).maxAbsDiff(Initial, Solver.domain().coreBox()),
      1e-12);
}

TEST(SolverTest, UnitCourantSingleStepShift) {
  MpdataProgram M = buildMpdataProgram();
  SerialStepper Solver = mpdataStepper(M, 8, 4, 4);
  fillRandomPositive(Solver.array(M.XIn), Solver.domain(), 29, 0.1, 2.0);
  Array3D Initial(Solver.domain().allocBox());
  Initial.copyRegionFrom(Solver.array(M.XIn), Solver.domain().coreBox());
  setMpdataCoefficients(Solver, M, 1.0, 0.0, 0.0);
  Solver.run(1);
  Box3 Core = Solver.domain().coreBox();
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        EXPECT_NEAR(Solver.array(M.XIn).at(I, J, K),
                    Initial.at(Domain::wrapIndex(I - 1, 8), J, K), 1e-13);
}

TEST(SolverTest, CorrectedSchemeBeatsFirstOrderUpwind) {
  // The whole point of MPDATA's stages 5..17: the corrective iteration
  // reduces the numerical diffusion of plain upwind.
  const int N = 24;
  const int Steps = 24;
  const double C = 0.5;

  MpdataProgram M = buildMpdataProgram();
  SerialStepper Solver = mpdataStepper(M, N, 8, 8);
  GaussianBlob Blob;
  Blob.CenterI = 6.0;
  Blob.CenterJ = 4.0;
  Blob.CenterK = 4.0;
  Blob.Sigma = 2.0;
  fillGaussian(Solver.array(M.XIn), Solver.domain(), Blob);
  setMpdataCoefficients(Solver, M, C, 0.0, 0.0);
  GaussianBlob Exact = Blob.translated(C * Steps, 0.0, 0.0);

  double UpwindError = l2ErrorVsBlob(firstOrderUpwind(M, Solver, Steps),
                                     Solver.domain(), Exact);
  Solver.run(Steps);
  double CorrectedError =
      l2ErrorVsBlob(Solver.array(M.XIn), Solver.domain(), Exact);
  EXPECT_LT(CorrectedError, 0.7 * UpwindError);
}

TEST(SolverTest, RotationKeepsConstantFieldConstant) {
  // The rotational velocity field is discretely divergence-free, so a
  // constant scalar field is a fixed point of the scheme.
  MpdataProgram M = buildMpdataProgram();
  SerialStepper Solver = mpdataStepper(M, 16, 16, 4);
  Solver.array(M.XIn).fill(1.0);
  setRotationalVelocity(Solver.array(M.U1), Solver.array(M.U2),
                        Solver.array(M.U3), Solver.domain(), 0.02, 8.0, 8.0);
  Solver.array(M.H).fill(1.0);
  Solver.prepareInputs();
  Solver.run(5);
  Box3 Core = Solver.domain().coreBox();
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        EXPECT_NEAR(Solver.array(M.XIn).at(I, J, K), 1.0, 1e-12);
}

TEST(SolverTest, ZeroVelocityIsIdentity) {
  MpdataProgram M = buildMpdataProgram();
  SerialStepper Solver = mpdataStepper(M, 10, 10, 6);
  fillRandomPositive(Solver.array(M.XIn), Solver.domain(), 31, 0.5, 1.5);
  Array3D Initial(Solver.domain().allocBox());
  Initial.copyRegionFrom(Solver.array(M.XIn), Solver.domain().coreBox());
  setMpdataCoefficients(Solver, M, 0.0, 0.0, 0.0);
  Solver.run(5);
  EXPECT_LT(
      Solver.array(M.XIn).maxAbsDiff(Initial, Solver.domain().coreBox()),
      1e-14);
}

TEST(SolverTest, BlobPeakMovesDownstream) {
  const int N = 32;
  MpdataProgram M = buildMpdataProgram();
  SerialStepper Solver = mpdataStepper(M, N, 8, 8);
  GaussianBlob Blob;
  Blob.CenterI = 8.0;
  Blob.CenterJ = 4.0;
  Blob.CenterK = 4.0;
  Blob.Sigma = 2.5;
  Blob.Background = 0.0;
  fillGaussian(Solver.array(M.XIn), Solver.domain(), Blob);
  setMpdataCoefficients(Solver, M, 0.4, 0.0, 0.0);
  Solver.run(20); // Peak should move by ~8 cells.
  int PeakI = -1;
  double PeakValue = -1.0;
  for (int I = 0; I != N; ++I) {
    double V = Solver.array(M.XIn).at(I, 4, 4);
    if (V > PeakValue) {
      PeakValue = V;
      PeakI = I;
    }
  }
  EXPECT_NEAR(PeakI, 16, 2);
}
