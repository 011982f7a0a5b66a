//===- grid/Domain.cpp - Physical domain and halo handling ----------------===//

#include "grid/Domain.h"

#include "grid/Array3D.h"
#include "support/Error.h"

#include <cstring>

using namespace icores;

namespace {

/// Shared halo-filling walk over the alloc box's i-planes [ILo, IHi),
/// parameterized over the source-index mapping.
///
/// Every read resolves to a core cell (the map sends any index into
/// [0, Extent)) and every write is a halo cell, so walks over disjoint
/// i-plane ranges may run concurrently. The k-interior segment of a halo
/// (i, j) row is a contiguous copy of the mapped core row — one memcpy
/// per row. Only the k-halo cells of each row need the element-wise
/// mapped gather.
template <typename MapFn>
void fillHaloWith(const Domain &Dom, Array3D &A, int ILo, int IHi,
                  MapFn &&Map) {
  Box3 Alloc = Dom.allocBox();
  ICORES_CHECK(A.indexSpace().containsBox(Alloc),
               "array does not cover the domain's alloc box");
  int NI = Dom.ni(), NJ = Dom.nj(), NK = Dom.nk();
  const size_t CoreRowBytes = static_cast<size_t>(NK) * sizeof(double);
  for (int I = ILo; I < IHi; ++I) {
    int SI = Map(I, NI);
    for (int J = Alloc.Lo[1]; J != Alloc.Hi[1]; ++J) {
      int SJ = Map(J, NJ);
      // A row is an (i, j) halo row exactly when the map moved it; its
      // whole k-interior mirrors the (distinct) mapped core row.
      if (SI != I || SJ != J)
        std::memcpy(A.pointerTo(I, J, 0), A.pointerTo(SI, SJ, 0),
                    CoreRowBytes);
      for (int K = Alloc.Lo[2]; K != 0; ++K)
        A.at(I, J, K) = A.at(SI, SJ, Map(K, NK));
      for (int K = NK; K != Alloc.Hi[2]; ++K)
        A.at(I, J, K) = A.at(SI, SJ, Map(K, NK));
    }
  }
}

/// Fills the halo cells of the alloc box's i-planes [ILo, IHi) of \p A
/// under boundary mode \p Mode.
void fillHaloPlanes(const Domain &Dom, Array3D &A, BoundaryMode Mode,
                    int ILo, int IHi) {
  if (Mode == BoundaryMode::Periodic) {
    int H = Dom.haloDepth();
    ICORES_CHECK(H <= Dom.ni() && H <= Dom.nj() && H <= Dom.nk(),
                 "halo deeper than the domain; wrap would alias twice");
    fillHaloWith(Dom, A, ILo, IHi, [](int Index, int Extent) {
      return Domain::wrapIndex(Index, Extent);
    });
  } else {
    fillHaloWith(Dom, A, ILo, IHi, [](int Index, int Extent) {
      return Domain::clampIndex(Index, Extent);
    });
  }
}

} // namespace

void Domain::fillHalo(Array3D &A) const { fillHaloSlice(A, 0, 1); }

void Domain::fillHaloSlice(Array3D &A, int Part, int Parts) const {
  ICORES_CHECK(Parts > 0 && Part >= 0 && Part < Parts,
               "halo slice index out of range");
  const Box3 Alloc = allocBox();
  const int64_t Extent = Alloc.extent(0);
  fillHaloPlanes(*this, A, Boundary,
                 Alloc.Lo[0] + static_cast<int>(Extent * Part / Parts),
                 Alloc.Lo[0] + static_cast<int>(Extent * (Part + 1) / Parts));
}

void Domain::fillHaloPeriodic(Array3D &A) const {
  fillHaloPlanes(*this, A, BoundaryMode::Periodic, allocBox().Lo[0],
                 allocBox().Hi[0]);
}

void Domain::fillHaloZeroGradient(Array3D &A) const {
  fillHaloPlanes(*this, A, BoundaryMode::ZeroGradient, allocBox().Lo[0],
                 allocBox().Hi[0]);
}
