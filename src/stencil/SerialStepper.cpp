//===- stencil/SerialStepper.cpp - Generic serial time stepping -----------===//

#include "stencil/SerialStepper.h"

#include "support/Error.h"

#include <utility>

using namespace icores;

SerialStepper::SerialStepper(StencilProgram AProgram, KernelTable AKernels,
                             const Domain &ADom,
                             std::vector<ReductionBinding> AReductions)
    : Program(std::move(AProgram)), Kernels(std::move(AKernels)), Dom(ADom),
      Req(computeRequirements(Program, Dom.coreBox())),
      Fields(Program.numArrays()) {
  Reductions = orderedReductionBindings(Program, std::move(AReductions));
  ReductionLog.resize(Reductions.size());
  ICORES_CHECK(Kernels.coversProgram(Program),
               "kernel table does not cover the program");
  std::array<int, 3> Depth = inputHaloDepth(Program, Dom.coreBox());
  for (int D = 0; D != 3; ++D)
    ICORES_CHECK(Depth[D] <= Dom.haloDepth(),
                 "domain halo shallower than the program's cone");

  Box3 Alloc = Dom.allocBox();
  for (unsigned A = 0; A != Program.numArrays(); ++A) {
    ArrayId Id = static_cast<ArrayId>(A);
    if (Program.array(Id).Role == ArrayRole::Intermediate) {
      Fields.allocateOwned(Id, Alloc);
    } else {
      External.emplace(Id, Array3D(Alloc));
      Fields.bindExternal(Id, &External.at(Id));
    }
  }
}

Array3D &SerialStepper::array(ArrayId Id) {
  auto It = External.find(Id);
  ICORES_CHECK(It != External.end(),
               "array is not a step input or output");
  return It->second;
}

const Array3D &SerialStepper::array(ArrayId Id) const {
  auto It = External.find(Id);
  ICORES_CHECK(It != External.end(),
               "array is not a step input or output");
  return It->second;
}

void SerialStepper::prepareInputs() {
  for (ArrayId In : Program.stepInputs())
    Dom.fillHalo(array(In));
}

void SerialStepper::seedInputs(const WorkloadInit &Init, uint64_t Seed) {
  Init({Dom, Seed, Dom.coreBox(),
        [this](ArrayId Id) -> Array3D & { return array(Id); }});
  prepareInputs();
}

void SerialStepper::step() {
  for (const FeedbackPair &FB : Program.feedbacks())
    Dom.fillHalo(array(FB.Target));
  for (unsigned S = 0; S != Program.numStages(); ++S)
    Kernels.run(Fields, static_cast<StageId>(S), Req.StageRegion[S]);
  // Fold the freshly produced outputs before the feedback swap: the
  // canonical i,j,k core scan, one k-row per fold call, is the reduction
  // oracle every threaded schedule must reproduce bit for bit.
  for (size_t R = 0; R != Reductions.size(); ++R) {
    const Array3D &Arr = array(Program.reductions()[R].Array);
    const Box3 Core = Dom.coreBox();
    double V = Reductions[R].Identity;
    for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
      for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
        V = Reductions[R].Fold(V, Arr.pointerTo(I, J, Core.Lo[2]),
                               Core.extent(2));
    ReductionLog[R].push_back(V);
  }
  for (const FeedbackPair &FB : Program.feedbacks())
    std::swap(array(FB.Source), array(FB.Target));
}

const std::vector<double> &SerialStepper::reductionHistory(size_t R) const {
  ICORES_CHECK(R < ReductionLog.size(), "reduction index out of range");
  return ReductionLog[R];
}

void SerialStepper::run(int Steps) {
  ICORES_CHECK(Steps >= 0, "negative step count");
  for (int S = 0; S != Steps; ++S)
    step();
}
