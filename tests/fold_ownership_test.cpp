//===- tests/fold_ownership_test.cpp - Per-worker reduction folds ---------===//
//
// Directed proof that ProgramExecutor's reduction folds are owner-local:
// every worker folds exactly the k-rows of each reduced array that its
// own kernel calls wrote, and nothing else. A recording kernel wrapper
// logs, keyed by thread id, every row of a reduced array a kernel call
// wrote; a recording row fold logs every row it was handed. Running one
// epoch per run() call puts all cross-worker partial combining on the
// calling thread (after the pool dispatch returns), so every fold made on
// a worker thread is a row fold and every fold made on the caller is a
// one-slot combine.
//
// Covered shapes: the static team split, work stealing, temporal depth 2,
// and a team wider than the split extent, whose idle workers must leave
// their partials at the identity. Reduction histories and state stay
// bit-exact against SerialStepper throughout.
//
//===----------------------------------------------------------------------===//

#include "TestMatrix.h"

#include "apps/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

using namespace icores;

namespace {

/// One k-row: its first element and its length.
using Row = std::pair<const double *, int>;

/// Thread-keyed logs of written and folded rows, per reduction.
struct FoldRecorder {
  std::mutex M;
  /// [reduction][thread] -> rows a kernel call on that thread wrote.
  std::vector<std::map<std::thread::id, std::vector<Row>>> Written;
  /// [reduction][thread] -> rows a Fold call on that thread received.
  std::vector<std::map<std::thread::id, std::vector<Row>>> Folded;
  /// [reduction] -> values the calling thread's one-slot combines read.
  std::vector<std::vector<double>> Combined;

  explicit FoldRecorder(size_t NumReductions)
      : Written(NumReductions), Folded(NumReductions),
        Combined(NumReductions) {}

  void clear() {
    std::lock_guard<std::mutex> Lock(M);
    for (size_t R = 0; R != Written.size(); ++R) {
      Written[R].clear();
      Folded[R].clear();
      Combined[R].clear();
    }
  }
};

/// The fold-identity sentinel: below every value the cfl-advect folds
/// see (Courant sums and absolute values are >= 0), so a partial still
/// equal to it was never folded into.
constexpr double Sentinel = -1.0;

/// \p Spec with the sentinel identity on every reduction; with
/// \p Rec non-null, also with recording kernels and row folds.
WorkloadSpec instrumentedSpec(const WorkloadSpec &Spec,
                              const std::shared_ptr<FoldRecorder> &Rec,
                              std::thread::id Caller) {
  WorkloadSpec Out = Spec;
  for (ReductionBinding &B : Out.Reductions)
    B.Identity = Sentinel;
  if (!Rec)
    return Out;

  const StencilProgram &P = Spec.Program;
  for (size_t R = 0; R != Out.Reductions.size(); ++R) {
    ICORES_CHECK(Out.Reductions[R].Name == P.reductions()[R].Name,
                 "bindings must be in declaration order");
    auto Inner = Out.Reductions[R].Fold;
    Out.Reductions[R].Fold = [Inner, Rec, Caller,
                              R](double Acc, const double *Row, int Count) {
      {
        std::lock_guard<std::mutex> Lock(Rec->M);
        if (std::this_thread::get_id() == Caller) {
          EXPECT_EQ(Count, 1) << "the caller only combines one-slot partials";
          Rec->Combined[R].push_back(*Row);
        } else {
          Rec->Folded[R][std::this_thread::get_id()].emplace_back(Row, Count);
        }
      }
      return Inner(Acc, Row, Count);
    };
  }

  auto InnerKernels = Spec.Kernels;
  Out.Kernels = [InnerKernels, Rec, P](KernelVariant V) {
    auto Inner = std::make_shared<KernelTable>(InnerKernels(V));
    KernelTable Table(P.numStages());
    for (unsigned S = 0; S != P.numStages(); ++S) {
      StageId Stage = static_cast<StageId>(S);
      std::vector<std::pair<size_t, ArrayId>> Reduced;
      for (size_t R = 0; R != P.reductions().size(); ++R)
        if (P.producerOf(P.reductions()[R].Array) == Stage)
          Reduced.emplace_back(R, P.reductions()[R].Array);
      Table.set(Stage, [Inner, Rec, Stage, Reduced](FieldStore &F,
                                                     const Box3 &Region) {
        Inner->run(F, Stage, Region);
        if (Region.empty() || Reduced.empty())
          return;
        std::lock_guard<std::mutex> Lock(Rec->M);
        for (const auto &[R, Array] : Reduced) {
          std::vector<Row> &Rows =
              Rec->Written[R][std::this_thread::get_id()];
          for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
            for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
              Rows.emplace_back(F.get(Array).pointerTo(I, J, Region.Lo[2]),
                                Region.extent(2));
        }
      });
    }
    return Table;
  };
  return Out;
}

struct FoldCase {
  Strategy Strat = Strategy::IslandsOfCores;
  int Depth = 1;
  bool Stealing = false;
  int Sockets = 0;
  int NI = 16, NJ = 12, NK = 8;
};

/// Runs \p Case one epoch per run() call and checks, after every epoch,
/// that every worker thread folded exactly the rows it wrote, and that the
/// number of partials left at the identity equals the number of workers
/// that wrote no row (T == 1, where each worker has one slot per
/// reduction). Returns the number of worker threads that wrote no row of
/// any reduced array in some epoch.
int checkFoldOwnership(const FoldCase &Case) {
  const WorkloadSpec *Base = builtinWorkloads().find("cfl-advect");
  EXPECT_NE(Base, nullptr);
  if (!Base)
    return 0;
  const size_t NumRed = Base->Program.reductions().size();
  auto Rec = std::make_shared<FoldRecorder>(NumRed);
  WorkloadSpec Recording =
      instrumentedSpec(*Base, Rec, std::this_thread::get_id());
  WorkloadSpec Oracle = instrumentedSpec(*Base, nullptr, {});

  Domain Dom = workloadDomain(*Base, Case.NI, Case.NJ, Case.NK);
  ExecutionPlan Plan =
      makeTestPlan(Recording.Program, Dom, Case.Strat, Case.Depth,
                   /*ElideBarriers=*/true, Case.Sockets);
  int Workers = 0;
  for (const IslandPlan &Island : Plan.Islands)
    Workers += Island.NumThreads;
  ExecutorOptions Opts;
  Opts.Stealing = Case.Stealing;
  auto Exec =
      makeWorkloadExecutor(Recording, Dom, std::move(Plan),
                           KernelVariant::Reference, Opts, /*Seed=*/7);

  const int Epochs = 3;
  int IdleWorkers = 0;
  for (int E = 0; E != Epochs; ++E) {
    Rec->clear();
    Exec->run(Case.Depth);
    std::lock_guard<std::mutex> Lock(Rec->M);
    for (size_t R = 0; R != NumRed; ++R) {
      SCOPED_TRACE(testing::Message() << "epoch " << E << ", reduction "
                                      << Base->Program.reductions()[R].Name);
      // Every worker thread's fold calls are exactly its written rows.
      std::map<std::thread::id, std::vector<Row>> Written = Rec->Written[R];
      std::map<std::thread::id, std::vector<Row>> Folded = Rec->Folded[R];
      EXPECT_FALSE(Written.empty());
      for (auto &[Thread, Rows] : Written)
        std::sort(Rows.begin(), Rows.end());
      for (auto &[Thread, Rows] : Folded)
        std::sort(Rows.begin(), Rows.end());
      EXPECT_EQ(Folded, Written)
          << "a worker folded rows it did not write (or missed its own)";
      EXPECT_LE(static_cast<int>(Written.size()), Workers);

      // The caller combines one slot per (worker, fused step).
      const std::vector<double> &Slots = Rec->Combined[R];
      EXPECT_EQ(Slots.size(), static_cast<size_t>(Workers * Case.Depth));
      const int Untouched = static_cast<int>(
          std::count(Slots.begin(), Slots.end(), Sentinel));
      const int Idle = Workers - static_cast<int>(Written.size());
      IdleWorkers = std::max(IdleWorkers, Idle);
      if (Case.Depth == 1) {
        EXPECT_EQ(Untouched, Idle)
            << "idle workers must leave their partial at the identity, "
               "working ones must not";
      }
    }
  }

  auto Serial = serialOracle(Oracle, Dom, Epochs * Case.Depth, /*Seed=*/7);
  EXPECT_TRUE(reductionHistoriesMatch(Base->Program, *Exec, *Serial));
  EXPECT_EQ(maxNewestStateDiff(Base->Program, *Exec, *Serial, Dom.coreBox()),
            0.0);
  return IdleWorkers;
}

} // namespace

TEST(ReductionFoldOwnership, StaticSplitFoldsOwnRows) {
  FoldCase C;
  EXPECT_EQ(checkFoldOwnership(C), 0);
  C.Strat = Strategy::Block31D;
  EXPECT_EQ(checkFoldOwnership(C), 0);
}

TEST(ReductionFoldOwnership, StealingFoldsEachClaimedChunk) {
  FoldCase C;
  C.Stealing = true;
  checkFoldOwnership(C);
  C.Strat = Strategy::Original;
  C.Sockets = 2;
  checkFoldOwnership(C);
}

TEST(ReductionFoldOwnership, TemporalDepthTwoFoldsEveryFusedStep) {
  FoldCase C;
  C.Depth = 2;
  checkFoldOwnership(C);
  C.Stealing = true;
  checkFoldOwnership(C);
}

TEST(ReductionFoldOwnership, TeamWiderThanSplitLeavesIdentityUntouched) {
  // One team of 4 over a 3 x 3 core: the split extent is 3, so one worker
  // owns an empty sub-region of every reduced pass.
  FoldCase C;
  C.Strat = Strategy::Original;
  C.Sockets = 2;
  C.NI = 3;
  C.NJ = 3;
  EXPECT_GE(checkFoldOwnership(C), 1);
}
