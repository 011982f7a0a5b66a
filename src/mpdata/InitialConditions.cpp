//===- mpdata/InitialConditions.cpp - Workload generators -----------------===//

#include "mpdata/InitialConditions.h"

#include "support/Error.h"
#include "support/Random.h"

#include <cmath>

using namespace icores;

namespace {

/// Distance from \p X to \p Center on a periodic axis of length \p Extent
/// (nearest image).
double periodicDelta(double X, double Center, int Extent) {
  double D = X - Center;
  double E = static_cast<double>(Extent);
  D -= E * std::round(D / E);
  return D;
}

} // namespace

double GaussianBlob::valueAt(double I, double J, double K,
                             const Domain &D) const {
  double DI = periodicDelta(I, CenterI, D.ni());
  double DJ = periodicDelta(J, CenterJ, D.nj());
  double DK = periodicDelta(K, CenterK, D.nk());
  double R2 = DI * DI + DJ * DJ + DK * DK;
  return Background + Amplitude * std::exp(-R2 / (2.0 * Sigma * Sigma));
}

GaussianBlob GaussianBlob::translated(double DI, double DJ, double DK) const {
  GaussianBlob B = *this;
  B.CenterI += DI;
  B.CenterJ += DJ;
  B.CenterK += DK;
  return B;
}

void icores::fillGaussian(Array3D &A, const Domain &D,
                          const GaussianBlob &Blob) {
  fillGaussian(A, D, Blob, D.coreBox());
}

void icores::fillGaussian(Array3D &A, const Domain &D,
                          const GaussianBlob &Blob, const Box3 &Region) {
  Box3 Cells = Region.intersect(D.coreBox());
  for (int I = Cells.Lo[0]; I < Cells.Hi[0]; ++I)
    for (int J = Cells.Lo[1]; J < Cells.Hi[1]; ++J)
      for (int K = Cells.Lo[2]; K < Cells.Hi[2]; ++K)
        A.at(I, J, K) = Blob.valueAt(I, J, K, D);
}

void icores::fillRandomUniform(Array3D &A, const Domain &D, uint64_t Seed,
                               double Lo, double Hi, const Box3 &Region) {
  Box3 Cells = Region.intersect(D.coreBox());
  for (int I = Cells.Lo[0]; I < Cells.Hi[0]; ++I)
    for (int J = Cells.Lo[1]; J < Cells.Hi[1]; ++J) {
      const uint64_t Row =
          (static_cast<uint64_t>(I) * static_cast<uint64_t>(D.nj()) +
           static_cast<uint64_t>(J)) *
          static_cast<uint64_t>(D.nk());
      for (int K = Cells.Lo[2]; K < Cells.Hi[2]; ++K)
        A.at(I, J, K) = SplitMix64::inRange(
            SplitMix64::at(Seed, Row + static_cast<uint64_t>(K)), Lo, Hi);
    }
}

void icores::fillRandomPositive(Array3D &A, const Domain &D, uint64_t Seed,
                                double Lo, double Hi) {
  ICORES_CHECK(Lo >= 0.0 && Hi > Lo, "random field bounds must be positive");
  fillRandomUniform(A, D, Seed, Lo, Hi, D.coreBox());
}

void icores::setConstantVelocity(Array3D &U1, Array3D &U2, Array3D &U3,
                                 const Domain &D, double C1, double C2,
                                 double C3) {
  (void)D;
  U1.fill(C1);
  U2.fill(C2);
  U3.fill(C3);
}

void icores::setRotationalVelocity(Array3D &U1, Array3D &U2, Array3D &U3,
                                   const Domain &D, double Omega,
                                   double CenterI, double CenterJ) {
  Box3 Core = D.coreBox();
  // u1 lives on faces (i-1/2, j, k): it depends on j only, so the discrete
  // divergence u1(i+1)-u1(i) vanishes; symmetrically for u2. The field is
  // therefore discretely divergence-free, which keeps a constant scalar
  // field exactly constant.
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K) {
        U1.at(I, J, K) = -Omega * (static_cast<double>(J) + 0.5 - CenterJ);
        U2.at(I, J, K) = Omega * (static_cast<double>(I) + 0.5 - CenterI);
      }
  U3.fill(0.0);
}

double icores::l2ErrorVsBlob(const Array3D &A, const Domain &D,
                             const GaussianBlob &Blob) {
  Box3 Core = D.coreBox();
  double Sum = 0.0;
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K) {
        double E = A.at(I, J, K) - Blob.valueAt(I, J, K, D);
        Sum += E * E;
      }
  return std::sqrt(Sum / static_cast<double>(Core.numPoints()));
}

double icores::linfErrorVsBlob(const Array3D &A, const Domain &D,
                               const GaussianBlob &Blob) {
  Box3 Core = D.coreBox();
  double Max = 0.0;
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        Max = std::max(Max,
                       std::fabs(A.at(I, J, K) - Blob.valueAt(I, J, K, D)));
  return Max;
}
