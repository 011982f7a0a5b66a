//===- tests/seeding_test.cpp - Region-split workload seeding -------------===//
//
// Runners seed a workload by splitting the domain core into regions and
// calling its Init once per region: the serial stepper passes the whole
// core, the threaded executor passes every worker its first-touch sub-box,
// concurrently. These tests pin the contract that makes the split
// invisible:
//
//  - for every registered workload, seeding through i-slab and j-slab
//    tilings gives arrays bit-identical to one whole-core Init, and no
//    Init writes a cell outside its region;
//  - seeding through the executor's own worker regions (islands, (3+1)D
//    and original plans), including its parallel halo refresh, gives
//    arrays bit-identical to the serial stepper's, and those regions tile
//    the core;
//  - SplitMix64::at(S, n) is the (n+1)-th next() of the stream seeded
//    with S, and fillRandomPositive (whole core) and fillRandomUniform
//    (region by region) still draw the values of the old sequential
//    i,j,k loop.
//
//===----------------------------------------------------------------------===//

#include "TestMatrix.h"

#include "apps/Workloads.h"
#include "mpdata/InitialConditions.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

using namespace icores;

namespace {

constexpr int GridNI = 13;
constexpr int GridNJ = 10;
constexpr int GridNK = 6;
constexpr uint64_t Seed = 2024;
/// What every cell holds before seeding, so a write outside the region
/// an Init was given shows up as a changed cell.
constexpr double Sentinel = -7.25;

bool sameBits(double A, double B) {
  return std::bit_cast<uint64_t>(A) == std::bit_cast<uint64_t>(B);
}

/// Number of cells of \p Region where \p A and \p B differ bitwise.
int64_t bitDifferences(const Array3D &A, const Array3D &B,
                       const Box3 &Region) {
  int64_t N = 0;
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K)
        N += !sameBits(A.at(I, J, K), B.at(I, J, K));
  return N;
}

/// The program's external (step input and output) arrays: the ones an
/// Init may be handed.
std::vector<ArrayId> externalArrays(const StencilProgram &Program) {
  std::vector<ArrayId> Ids;
  for (unsigned A = 0; A != Program.numArrays(); ++A)
    if (Program.array(static_cast<ArrayId>(A)).Role !=
        ArrayRole::Intermediate)
      Ids.push_back(static_cast<ArrayId>(A));
  return Ids;
}

/// Sentinel-filled external arrays of \p Spec over \p Dom, seeded by one
/// Init call per region of \p Regions.
std::map<ArrayId, Array3D> seedThrough(const WorkloadSpec &Spec,
                                       const Domain &Dom,
                                       const std::vector<Box3> &Regions) {
  std::map<ArrayId, Array3D> Arrays;
  for (ArrayId Id : externalArrays(Spec.Program)) {
    Arrays[Id].reset(Dom.allocBox(), Array3D::VectorPadK);
    Arrays[Id].fill(Sentinel);
  }
  for (const Box3 &Region : Regions)
    Spec.Init({Dom, Seed, Region,
               [&Arrays](ArrayId Id) -> Array3D & { return Arrays.at(Id); }});
  return Arrays;
}

/// The core cut into \p Parts slabs along \p Dim (empty slabs dropped).
std::vector<Box3> slabs(const Box3 &Core, int Dim, int Parts) {
  std::vector<Box3> Regions;
  const int E = Core.extent(Dim);
  for (int P = 0; P != Parts; ++P) {
    Box3 Slab = Core;
    Slab.Lo[Dim] = Core.Lo[Dim] + E * P / Parts;
    Slab.Hi[Dim] = Core.Lo[Dim] + E * (P + 1) / Parts;
    if (!Slab.empty())
      Regions.push_back(Slab);
  }
  return Regions;
}

/// One step of the SplitMix64 generator as first written, kept here
/// independent of support/Random.h.
uint64_t splitMixStep(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

} // namespace

TEST(WorkloadSeeding, SlabTilingsMatchOneWholeCoreInit) {
  for (const WorkloadSpec &Spec : builtinWorkloads().workloads()) {
    Domain Dom = workloadDomain(Spec, GridNI, GridNJ, GridNK);
    const Box3 Core = Dom.coreBox();
    std::map<ArrayId, Array3D> Whole = seedThrough(Spec, Dom, {Core});

    // A whole-core Init writes core cells only, and every core cell of
    // every step input.
    Array3D Untouched(Dom.allocBox(), Array3D::VectorPadK);
    Untouched.fill(Sentinel);
    for (auto &[Id, Arr] : Whole) {
      Array3D Outside = Arr;
      Outside.copyRegionFrom(Untouched, Core);
      EXPECT_EQ(bitDifferences(Outside, Untouched, Dom.allocBox()), 0)
          << Spec.Name << " array " << Id << " written outside the core";
    }
    for (ArrayId In : Spec.Program.stepInputs())
      EXPECT_EQ(bitDifferences(Whole.at(In), Untouched, Core),
                Core.numPoints())
          << Spec.Name << " step input " << In << " not fully seeded";

    for (int Dim : {0, 1})
      for (int Parts : {1, 2, 3, 7}) {
        std::map<ArrayId, Array3D> Tiled =
            seedThrough(Spec, Dom, slabs(Core, Dim, Parts));
        for (auto &[Id, Arr] : Whole)
          EXPECT_EQ(bitDifferences(Tiled.at(Id), Arr, Dom.allocBox()), 0)
              << Spec.Name << " array " << Id << ": " << Parts
              << " slabs along dimension " << Dim;
      }
  }
}

TEST(WorkloadSeeding, ExecutorWorkerRegionsMatchTheSerialStepper) {
  for (const WorkloadSpec &Spec : builtinWorkloads().workloads())
    for (BoundaryMode Boundary :
         {BoundaryMode::Periodic, BoundaryMode::ZeroGradient})
      for (Strategy Strat : {Strategy::IslandsOfCores, Strategy::Block31D,
                             Strategy::Original}) {
        Domain Dom = workloadDomain(Spec, GridNI, GridNJ, GridNK, Boundary);
        auto Oracle = serialOracle(Spec, Dom, /*Steps=*/0, Seed);

        // Record the regions the executor's workers seed.
        std::mutex Mutex;
        std::vector<Box3> Regions;
        WorkloadSpec Recorded = Spec;
        Recorded.Init = [&](const WorkloadInitContext &Ctx) {
          {
            std::lock_guard<std::mutex> Lock(Mutex);
            Regions.push_back(Ctx.Region);
          }
          Spec.Init(Ctx);
        };
        ExecutorOptions Opts;
        Opts.Reductions = Spec.Reductions;
        ExecutionPlan Plan = makeTestPlan(Spec.Program, Dom, Strat);
        int Workers = 0;
        for (const IslandPlan &Island : Plan.Islands)
          Workers += Island.NumThreads;
        ProgramExecutor Exec(Spec.Program,
                             Spec.Kernels(KernelVariant::Reference), Dom,
                             std::move(Plan), Opts);
        initWorkload(Recorded, Exec, Seed);

        const std::string Case = Spec.Name + " " + strategyName(Strat) +
                                 (Boundary == BoundaryMode::Periodic
                                      ? " periodic"
                                      : " zero-gradient");
        // Halos included: the executor refreshes them across its workers.
        for (ArrayId Id : externalArrays(Spec.Program))
          EXPECT_EQ(bitDifferences(Exec.array(Id), Oracle->array(Id),
                                   Dom.allocBox()),
                    0)
              << Case << " array " << Id;

        // The worker regions tile the core, one per worker at most, and a
        // multi-worker plan really splits the seeding.
        const Box3 Core = Dom.coreBox();
        int64_t Covered = 0;
        for (size_t A = 0; A != Regions.size(); ++A) {
          EXPECT_TRUE(Core.containsBox(Regions[A])) << Case;
          Covered += Regions[A].numPoints();
          for (size_t B = A + 1; B != Regions.size(); ++B)
            EXPECT_TRUE(Regions[A].intersect(Regions[B]).empty()) << Case;
        }
        EXPECT_EQ(Covered, Core.numPoints()) << Case;
        EXPECT_LE(static_cast<int>(Regions.size()), Workers) << Case;
        if (Workers > 1) {
          EXPECT_GT(Regions.size(), 1u) << Case;
        }
      }
}

TEST(WorkloadSeeding, SplitMixAtMatchesTheSequentialStream) {
  for (uint64_t S : {uint64_t{0}, uint64_t{1}, uint64_t{2024},
                     uint64_t{0x6d70646174610001ULL}, ~uint64_t{0}}) {
    SplitMix64 Rng(S);
    uint64_t State = S;
    for (uint64_t N = 0; N <= 100000; ++N) {
      uint64_t Next = Rng.next();
      ASSERT_EQ(Next, splitMixStep(State)) << "seed " << S << " n " << N;
      ASSERT_EQ(SplitMix64::at(S, N), Next) << "seed " << S << " n " << N;
    }
  }
}

TEST(WorkloadSeeding, FillRandomPositiveReproducesTheSequentialLoop) {
  Domain Dom(GridNI, GridNJ, GridNK, 2);
  const Box3 Core = Dom.coreBox();
  const double Lo = 0.1, Hi = 2.0;

  // The loop fillRandomPositive ran before it became region-addressable.
  Array3D Expected(Dom.allocBox());
  uint64_t State = Seed;
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        Expected.at(I, J, K) =
            Lo + (Hi - Lo) * (static_cast<double>(splitMixStep(State) >> 11) *
                              0x1.0p-53);

  Array3D Whole(Dom.allocBox());
  fillRandomPositive(Whole, Dom, Seed, Lo, Hi);
  EXPECT_EQ(bitDifferences(Whole, Expected, Dom.allocBox()), 0);

  // Region by region, in reverse order, gives the same cells.
  Array3D Pieces(Dom.allocBox());
  std::vector<Box3> Regions = slabs(Core, 2, 4);
  for (auto It = Regions.rbegin(); It != Regions.rend(); ++It)
    fillRandomUniform(Pieces, Dom, Seed, Lo, Hi, *It);
  EXPECT_EQ(bitDifferences(Pieces, Expected, Dom.allocBox()), 0);
}
