//===- perfbench/src/main.cpp - Host-true benchmark of the workloads -----===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one registered workload through the same public path as
/// `mpdata_cli execute --workload=`: registry spec -> buildPlan ->
/// optimizeBarriers -> ProgramExecutor, checked bit-exactly against a
/// SerialStepper seeded alike. The load is closed-loop: one caller
/// advances the simulation one step at a time with run(1), and each call
/// is one sample.
///
/// A run makes several repetitions. Each builds the plan, constructs a
/// fresh executor, seeds it and runs the pool-spawning first epoch (one
/// set-up sample); a timed repetition then times epochs for its share of
/// --seconds, a set-up-only one stops there. With --trace 0 the run
/// prints the end-to-end metrics; with --trace 1 it adds
/// a second, traced phase that wraps every call into a layer in spans and
/// turns on the executor's own profiling, and prints the per-layer
/// metrics. The last stdout line is one JSON object
/// {"correct", "attempted", "failed", "metrics"}.
///
/// Usage: icores_perfbench --workload NAME --seed N --seconds S
///                         --trace 0|1 [--quick] [--spans-out FILE]
///
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Spans.h"

#include "apps/Workloads.h"
#include "core/PlanBuilder.h"
#include "core/ScheduleOptimizer.h"
#include "exec/ProgramExecutor.h"
#include "machine/MachineModel.h"
#include "sim/Simulator.h"
#include "stencil/SerialStepper.h"
#include "stencil/WorkloadRegistry.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace icores;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// One benchmark workload: a registered workload plus the plan knobs and
/// grid it runs with. Every other knob stays at its default (elision on,
/// hybrid barrier wait, no stealing, uniform balance, no placement epoch).
struct BenchWorkload {
  const char *Name;
  const char *Registered;
  KernelVariant Kernels;
  Strategy Strat;
  int NI, NJ, NK;
};

const BenchWorkload Workloads[] = {
    {"mpdata-islands", "mpdata", KernelVariant::Simd,
     Strategy::IslandsOfCores, 128, 96, 64},
    {"cfl-advect-31d", "cfl-advect", KernelVariant::Reference,
     Strategy::Block31D, 128, 96, 64},
    {"hotspot-stream", "hotspot", KernelVariant::Reference,
     Strategy::Original, 256, 256, 128},
};

/// The grid every workload uses under --quick (the self-test).
constexpr int QuickNI = 32, QuickNJ = 24, QuickNK = 16;

/// Sockets of the planning model: makeToyMachine() at 2 x 2 cores gives
/// the 4 workers of every plan.
constexpr int ModelSockets = 2;

/// Step-time percentiles come from each timed repetition's own samples.
/// The 90th is reported only with at least 10 samples beyond it, so every
/// timed repetition takes at least 10 / (1 - 0.9) samples, plus a margin.
constexpr int MinRepSamples = 110;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  bool Quick = false;
  std::string SpansOut;
};

bool parseArgs(int Argc, char **Argv, Options &O, std::string &Err) {
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--quick") {
      O.Quick = true;
      continue;
    }
    if (I + 1 >= Argc) {
      Err = "missing value for " + A;
      return false;
    }
    std::string V = Argv[++I];
    try {
      if (A == "--workload") {
        O.Workload = V;
        HaveWorkload = true;
      } else if (A == "--seed") {
        O.Seed = std::stoull(V);
        HaveSeed = true;
      } else if (A == "--seconds") {
        O.Seconds = std::stod(V);
        HaveSeconds = O.Seconds > 0.0;
      } else if (A == "--trace") {
        if (V != "0" && V != "1") {
          Err = "--trace takes 0 or 1";
          return false;
        }
        O.Trace = V == "1";
        HaveTrace = true;
      } else if (A == "--spans-out") {
        O.SpansOut = V;
      } else {
        Err = "unknown option " + A;
        return false;
      }
    } catch (const std::exception &) {
      Err = "bad value '" + V + "' for " + A;
      return false;
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace) {
    Err = "--workload, --seed, --seconds (> 0) and --trace are required";
    return false;
  }
  return true;
}

/// Linear-interpolated percentile of \p Sorted (ascending, non-empty).
double percentile(const std::vector<double> &Sorted, double P) {
  double Pos = P * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] +
         (Pos - static_cast<double>(Lo)) * (Sorted[Hi] - Sorted[Lo]);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  return percentile(V, 0.5);
}

/// The arrays the oracle gate compares, as `mpdata_cli execute` does:
/// every feedback target (the newest state after run()) and every step
/// output that is not fed back.
std::vector<ArrayId> comparedArrays(const StencilProgram &Prog) {
  std::vector<ArrayId> Ids;
  for (const FeedbackPair &FB : Prog.feedbacks())
    Ids.push_back(FB.Target);
  for (ArrayId Out : Prog.stepOutputs()) {
    bool FedBack = false;
    for (const FeedbackPair &FB : Prog.feedbacks())
      FedBack = FedBack || FB.Source == Out;
    if (!FedBack)
      Ids.push_back(Out);
  }
  return Ids;
}

uint64_t mix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// A 64-bit digest of the bit patterns of every core cell of the compared
/// arrays. Each step through the chain is a bijection with full
/// avalanche, so any differing bit changes the digest except with
/// probability about 2^-64.
template <typename Runner>
uint64_t stateDigest(const Runner &R, const std::vector<ArrayId> &Ids) {
  Box3 Core = R.domain().coreBox();
  uint64_t H = 0x243f6a8885a308d3ULL;
  for (ArrayId Id : Ids) {
    const Array3D &A = R.array(Id);
    H = mix64(H ^ static_cast<uint64_t>(Id));
    for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
      for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
        for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K) {
          double V = A.at(I, J, K);
          uint64_t Bits;
          std::memcpy(&Bits, &V, sizeof(Bits));
          H = mix64(H ^ Bits);
        }
  }
  return H;
}

bool sameBits(const std::vector<double> &Got, const std::vector<double> &Want,
              size_t Count) {
  return Got.size() == Count && Want.size() >= Count &&
         (Count == 0 ||
          std::memcmp(Got.data(), Want.data(), Count * sizeof(double)) == 0);
}

/// Everything one set-up-and-time repetition leaves behind.
struct RepResult {
  bool Failed = false;
  std::string Error;
  int Steps = 0; ///< Steps advanced, first epoch included.
  std::vector<double> SampleMs; ///< Timed step samples; empty when set-up only.
  double TimedS = 0.0;
  double StepMsP50 = 0.0, StepMsP90 = 0.0;
  size_t BeyondP90 = 0; ///< Samples strictly slower than StepMsP90.
  uint64_t Digest = 0;
  std::vector<std::vector<double>> Reductions;
  // Set-up parts (ms) and their total (s).
  double SetupS = 0.0;
  double BuildPlanMs = 0.0, OptimizeMs = 0.0, ConstructMs = 0.0,
         InitMs = 0.0, FirstEpochMs = 0.0;
};

/// Executor profiling totals over the traced repetitions.
struct ExecTotals {
  int64_t Steps = 0;
  double WallS = 0.0, KernelS = 0.0, TeamBarrierS = 0.0,
         GlobalBarrierS = 0.0, IdleS = 0.0;
  int64_t SpinWakes = 0, SleepWakes = 0;
  std::vector<double> StageKernelS;
  std::vector<double> IslandSkews, TeamImbalances;
  int64_t SharedBytesPerStep = 0;
};

/// One phase: timed and set-up-only repetitions.
struct Phase {
  std::vector<RepResult> Reps;
  ExecTotals Totals;

  /// The median over the timed repetitions that completed their timed
  /// loop of a per-repetition statistic. A noisy spell on the host then
  /// moves a minority of the values instead of every pooled sample.
  template <typename Stat> double medianOverTimed(Stat S) const {
    std::vector<double> V;
    for (const RepResult &R : Reps)
      if (R.SampleMs.size() >= MinRepSamples)
        V.push_back(S(R));
    if (V.empty())
      throw std::runtime_error("no timed repetition completed");
    return median(V);
  }

  std::vector<double> pooledSorted() const {
    std::vector<double> All;
    for (const RepResult &R : Reps)
      All.insert(All.end(), R.SampleMs.begin(), R.SampleMs.end());
    std::sort(All.begin(), All.end());
    return All;
  }
};

/// The fixed inputs of a benchmark run.
struct Bench {
  const BenchWorkload *W = nullptr;
  const WorkloadSpec *Spec = nullptr;
  MachineModel Model;
  PlanConfig Config;
  Box3 Grid;
  Domain Dom{1, 1, 1, 0}; ///< Replaced by the workload's domain.
  uint64_t Seed = 0;
  int Threads = 0;
};

/// Sets up a fresh executor, then times single-step epochs for
/// \p SliceS seconds and at least \p MinSamples samples (none for a
/// set-up-only repetition).
void runRep(const Bench &B, double SliceS, int MinSamples, bool Traced,
            SpanRecorder &Rec, Phase &P) {
  const StencilProgram &Prog = B.Spec->Program;
  RepResult R;
  ScopedSpan RepSpan(Rec, "bench", Traced ? "rep.traced" : "rep");
  auto ms = [](Clock::time_point T) { return secondsSince(T) * 1e3; };
  try {
    auto T0 = Clock::now();
    ExecutionPlan Plan;
    {
      ScopedSpan S(Rec, "core", "buildPlan");
      Plan = buildPlan(Prog, B.Grid, B.Model, B.Config);
    }
    R.BuildPlanMs = ms(T0);
    auto T1 = Clock::now();
    {
      ScopedSpan S(Rec, "core", "optimizeBarriers");
      optimizeBarriers(Prog, Plan);
    }
    R.OptimizeMs = ms(T1);
    ExecutorOptions Opts;
    Opts.Machine = &B.Model;
    Opts.Reductions = B.Spec->Reductions;
    KernelTable Kernels;
    {
      ScopedSpan S(Rec, "apps", "Kernels");
      Kernels = B.Spec->Kernels(B.W->Kernels);
    }
    auto T2 = Clock::now();
    std::unique_ptr<ProgramExecutor> Exec;
    {
      ScopedSpan S(Rec, "exec", "ProgramExecutor");
      Exec = std::make_unique<ProgramExecutor>(Prog, std::move(Kernels),
                                               B.Dom, std::move(Plan), Opts);
    }
    R.ConstructMs = ms(T2);
    if (Traced) {
      ScopedSpan S(Rec, "exec", "enableProfiling");
      Exec->enableProfiling(true);
    }
    auto T3 = Clock::now();
    {
      ScopedSpan S(Rec, "stencil", "initWorkload");
      initWorkload(*B.Spec, *Exec, B.Seed);
    }
    R.InitMs = ms(T3);
    auto T4 = Clock::now();
    {
      ScopedSpan S(Rec, "exec", "run.first");
      Exec->run(1);
    }
    R.FirstEpochMs = ms(T4);
    R.Steps = 1;
    R.SetupS = secondsSince(T0);
    if (Traced) {
      ScopedSpan S(Rec, "exec", "resetStats");
      Exec->resetStats();
    }

    auto SliceStart = Clock::now();
    while (static_cast<int>(R.SampleMs.size()) < MinSamples ||
           secondsSince(SliceStart) < SliceS) {
      auto T = Clock::now();
      {
        ScopedSpan S(Rec, "exec", "run");
        Exec->run(1);
      }
      double Seconds = secondsSince(T);
      ++R.Steps;
      R.SampleMs.push_back(Seconds * 1e3);
      R.TimedS += Seconds;
    }
    if (!R.SampleMs.empty()) {
      std::vector<double> Sorted = R.SampleMs;
      std::sort(Sorted.begin(), Sorted.end());
      R.StepMsP50 = percentile(Sorted, 0.5);
      R.StepMsP90 = percentile(Sorted, 0.9);
      R.BeyondP90 = static_cast<size_t>(
          Sorted.end() -
          std::upper_bound(Sorted.begin(), Sorted.end(), R.StepMsP90));
    }

    {
      ScopedSpan S(Rec, "exec", "array+reductionHistory");
      R.Digest = stateDigest(*Exec, comparedArrays(Prog));
      for (size_t I = 0; I != Prog.reductions().size(); ++I)
        R.Reductions.push_back(Exec->reductionHistory(I));
    }

    if (Traced && !R.SampleMs.empty()) {
      ScopedSpan S(Rec, "exec", "stats");
      const ExecStats &St = Exec->stats();
      ExecTotals &T = P.Totals;
      T.Steps += St.StepsRun;
      T.WallS += St.WallSeconds;
      T.KernelS += St.kernelSeconds();
      T.TeamBarrierS += St.teamBarrierWaitSeconds();
      T.GlobalBarrierS += St.GlobalBarrierWaitSeconds;
      T.IdleS += St.idleSeconds();
      T.SpinWakes += St.spinWakes();
      T.SleepWakes += St.sleepWakes();
      T.StageKernelS.resize(Prog.numStages(), 0.0);
      double Imbalance = 0.0;
      for (const IslandStat &IS : St.Islands) {
        for (size_t St2 = 0; St2 != IS.Stages.size(); ++St2)
          T.StageKernelS[St2] += IS.Stages[St2].KernelSeconds;
        Imbalance = std::max(Imbalance, IS.imbalance());
      }
      T.IslandSkews.push_back(St.measuredIslandSkew());
      T.TeamImbalances.push_back(Imbalance);
      T.SharedBytesPerStep = Exec->sharedBytesPerStep();
    }
    {
      ScopedSpan S(Rec, "exec", "~ProgramExecutor");
      Exec.reset();
    }
  } catch (const std::exception &E) {
    // A throwing run counts as failed; the samples it took stay.
    R.Failed = true;
    R.Error = E.what();
  }
  P.Reps.push_back(std::move(R));
}

/// Runs \p TimedReps timed repetitions that share \p Seconds, each
/// followed by a set-up-only one, so set-up is sampled twice as often and
/// across the whole phase.
Phase runPhase(const Bench &B, double Seconds, int TimedReps, bool Traced,
               SpanRecorder &Rec) {
  Phase P;
  for (int I = 0; I != TimedReps; ++I) {
    runRep(B, Seconds / TimedReps, MinRepSamples, Traced, Rec, P);
    runRep(B, 0.0, 0, Traced, Rec, P);
  }
  return P;
}

/// Runs the SerialStepper oracle to the longest repetition and marks every
/// repetition whose state digest or reduction history differs from it.
/// Returns the oracle's per-step milliseconds.
std::vector<double> oracleGate(const Bench &B,
                               std::vector<RepResult *> &Reps,
                               SpanRecorder &Rec) {
  const StencilProgram &Prog = B.Spec->Program;
  std::set<int> Needed;
  int MaxSteps = 0;
  for (RepResult *R : Reps)
    if (!R->Failed) {
      Needed.insert(R->Steps);
      MaxSteps = std::max(MaxSteps, R->Steps);
    }
  std::vector<ArrayId> Ids = comparedArrays(Prog);
  std::map<int, uint64_t> Digests;
  std::vector<double> StepMs;
  std::unique_ptr<SerialStepper> Oracle;
  {
    ScopedSpan S(Rec, "stencil", "SerialStepper");
    Oracle = std::make_unique<SerialStepper>(
        Prog, B.Spec->Kernels(B.W->Kernels), B.Dom, B.Spec->Reductions);
  }
  {
    ScopedSpan S(Rec, "stencil", "initWorkload.oracle");
    initWorkload(*B.Spec, *Oracle, B.Seed);
  }
  for (int Step = 1; Step <= MaxSteps; ++Step) {
    auto T = Clock::now();
    {
      ScopedSpan S(Rec, "stencil", "SerialStepper.run");
      Oracle->run(1);
    }
    StepMs.push_back(secondsSince(T) * 1e3);
    if (Needed.count(Step)) {
      ScopedSpan S(Rec, "stencil", "SerialStepper.array");
      Digests[Step] = stateDigest(*Oracle, Ids);
    }
  }
  for (RepResult *R : Reps) {
    if (R->Failed)
      continue;
    bool Match = Digests.at(R->Steps) == R->Digest;
    for (size_t I = 0; I != R->Reductions.size(); ++I)
      Match = Match && sameBits(R->Reductions[I], Oracle->reductionHistory(I),
                                static_cast<size_t>(R->Steps));
    if (!Match) {
      R->Failed = true;
      R->Error = "state or reduction history differs from the serial oracle";
    }
  }
  return StepMs;
}

/// Metrics in print order, each with its unit.
struct MetricSet {
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Entries;

  void add(std::string Name, double Value, std::string Unit) {
    if (!std::isfinite(Value))
      throw std::runtime_error("metric " + Name + " is not finite");
    Entries.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

void printResult(bool Correct, int Attempted, int Failed,
                 const MetricSet &M) {
  for (const MetricSet::Entry &E : M.Entries)
    std::printf("metric %-36s %16.6f %s\n", E.Name.c_str(), E.Value,
                E.Unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I != M.Entries.size(); ++I) {
    const MetricSet::Entry &E = M.Entries[I];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I == 0 ? "" : ", ", E.Name.c_str(), E.Value, E.Unit.c_str());
  }
  std::printf("}}\n");
}

/// Adds the per-layer metrics of a traced run. \p P50 is the untraced
/// step_ms_p50 the computed rates and ratios divide by.
void addLayerMetrics(MetricSet &M, const Bench &B, const ExecutionPlan &Plan,
                     const Phase &Traced, double P50, double TriadGBps,
                     const std::vector<double> &SerialMs, SpanRecorder &Rec) {
  const StencilProgram &Prog = B.Spec->Program;
  double Cells = static_cast<double>(B.Dom.numCells());
  // --- core ---
  auto RepMedian = [&](double RepResult::*Field) {
    std::vector<double> V;
    for (const RepResult &R : Traced.Reps)
      V.push_back(R.*Field);
    return median(V);
  };
  M.add("core.build_plan_ms", RepMedian(&RepResult::BuildPlanMs), "ms");
  M.add("core.optimize_barriers_ms", RepMedian(&RepResult::OptimizeMs),
        "ms");
  int64_t Blocks = 0, Passes = 0;
  for (const IslandPlan &IP : Plan.Islands) {
    Blocks += static_cast<int64_t>(IP.Blocks.size());
    for (const BlockTask &BT : IP.Blocks)
      Passes += static_cast<int64_t>(BT.Passes.size());
  }
  double Depth = Plan.TemporalDepth;
  M.add("core.islands", static_cast<double>(Plan.Islands.size()), "count");
  M.add("core.threads", B.Threads, "count");
  M.add("core.blocks_per_step", static_cast<double>(Blocks) / Depth,
        "count");
  M.add("core.passes_per_step", static_cast<double>(Passes) / Depth,
        "count");
  M.add("core.team_barriers_per_step",
        static_cast<double>(Plan.teamBarriersPerStep()), "count");
  M.add("core.elided_barriers_per_step",
        static_cast<double>(Plan.elidedBarriersPerStep()), "count");
  PlanConfig OrigConfig = B.Config;
  OrigConfig.Strat = Strategy::Original;
  ExecutionPlan Orig;
  {
    ScopedSpan S(Rec, "core", "buildPlan.original");
    Orig = buildPlan(Prog, B.Grid, B.Model, OrigConfig);
  }
  double PlanFlops = static_cast<double>(Plan.totalFlops(Prog));
  double OrigFlops = static_cast<double>(Orig.totalFlops(Prog));
  M.add("core.redundant_flop_frac", PlanFlops / OrigFlops - 1.0,
        "fraction");

  // --- exec ---
  const ExecTotals &T = Traced.Totals;
  if (T.Steps == 0)
    throw std::runtime_error("the traced phase profiled no step");
  double Steps = static_cast<double>(T.Steps);
  double ThreadWallS = B.Threads * T.WallS;
  double Named = T.KernelS + T.TeamBarrierS + T.GlobalBarrierS + T.IdleS;
  std::printf("thread time per step: %.3f ms = kernel %.1f%%, team barrier "
              "%.1f%%, global barrier %.1f%%, idle %.1f%%, other %.1f%%\n",
              ThreadWallS / Steps * 1e3, 100 * T.KernelS / ThreadWallS,
              100 * T.TeamBarrierS / ThreadWallS,
              100 * T.GlobalBarrierS / ThreadWallS,
              100 * T.IdleS / ThreadWallS,
              100 * (ThreadWallS - Named) / ThreadWallS);
  M.add("exec.kernel_s", T.KernelS / Steps, "s");
  M.add("exec.kernel_gflops", PlanFlops * Steps / T.KernelS / 1e9,
        "Gflop/s");
  // Every stage of every benchmark workload is reported, so all
  // workloads print one metric set; stages absent here read 0.
  std::map<std::string, double> StageMs;
  for (unsigned Id = 0; Id != Prog.numStages(); ++Id)
    StageMs[Prog.stage(static_cast<StageId>(Id)).Name] +=
        T.StageKernelS[Id] / Steps * 1e3;
  std::set<std::string> Reported;
  for (const BenchWorkload &Other : Workloads) {
    const StencilProgram &OP =
        builtinWorkloads().find(Other.Registered)->Program;
    for (unsigned Id = 0; Id != OP.numStages(); ++Id) {
      const std::string &Stage = OP.stage(static_cast<StageId>(Id)).Name;
      if (Reported.insert(Stage).second)
        M.add("exec.stage." + Stage + ".kernel_ms",
              StageMs.count(Stage) ? StageMs[Stage] : 0.0, "ms");
    }
  }
  M.add("exec.team_barrier_s", T.TeamBarrierS / Steps, "s");
  M.add("exec.spin_wakes", static_cast<double>(T.SpinWakes) / Steps,
        "count");
  M.add("exec.sleep_wakes", static_cast<double>(T.SleepWakes) / Steps,
        "count");
  M.add("exec.global_barrier_s", T.GlobalBarrierS / Steps, "s");
  M.add("exec.island_skew", median(T.IslandSkews), "ratio");
  M.add("exec.team_imbalance", median(T.TeamImbalances), "ratio");
  M.add("exec.idle_s", T.IdleS / Steps, "s");
  M.add("exec.other_s", (ThreadWallS - Named) / Steps, "s");
  M.add("exec.attributed_frac", Named / ThreadWallS, "fraction");
  M.add("exec.barrier_share",
        (T.TeamBarrierS + T.GlobalBarrierS) /
            (T.KernelS + T.TeamBarrierS + T.GlobalBarrierS),
        "fraction");
  M.add("exec.shared_bytes_per_step",
        static_cast<double>(T.SharedBytesPerStep), "B");
  SimResult Sim;
  {
    ScopedSpan S(Rec, "sim", "simulate");
    SimOptions SO;
    SO.Kernels = B.W->Kernels;
    Sim = simulate(Plan, Prog, B.Model, 1, SO);
  }
  double DramGBps =
      static_cast<double>(Sim.DramBytesPerStep) / (P50 / 1e3) / 1e9;
  M.add("exec.dram_gbps", DramGBps, "GB/s");
  M.add("exec.dram_frac", DramGBps / TriadGBps, "fraction");
  M.add("exec.construct_ms", RepMedian(&RepResult::ConstructMs), "ms");
  M.add("exec.first_epoch_ms", RepMedian(&RepResult::FirstEpochMs), "ms");
  double TracedP50 = Traced.medianOverTimed(
      [](const RepResult &R) { return R.StepMsP50; });
  M.add("exec.trace_overhead_frac", TracedP50 / P50 - 1.0, "fraction");

  // --- stencil ---
  double SerialStepMs = median(SerialMs);
  M.add("stencil.init_ms", RepMedian(&RepResult::InitMs), "ms");
  M.add("stencil.serial_step_ms", SerialStepMs, "ms");
  M.add("stencil.parallel_speedup", SerialStepMs / P50, "ratio");
  M.add("stencil.flops_per_cell", OrigFlops / Cells, "flop");

  // --- sim and machine ---
  double PredMs = Sim.StepSeconds * 1e3;
  M.add("sim.predicted_step_ms", PredMs, "ms");
  M.add("sim.predicted_barrier_share",
        Sim.CriticalIsland.Barrier / Sim.CriticalIsland.total(),
        "fraction");
  M.add("sim.step_model_ratio", PredMs / P50, "ratio");
  M.add("sim.dram_bytes_per_step",
        static_cast<double>(Sim.DramBytesPerStep), "B");
  M.add("machine.triad_gbps", TriadGBps, "GB/s");
  M.add("machine.model_dram_gbps",
        B.Model.DramBandwidthPerSocket * B.Model.NumSockets / 1e9, "GB/s");

  // --- set-up closure: the parts against the whole, per traced rep ---
  std::vector<double> Total, Unattributed, Frac;
  for (const RepResult &R : Traced.Reps) {
    double Parts = R.BuildPlanMs + R.OptimizeMs + R.ConstructMs +
                   R.InitMs + R.FirstEpochMs;
    Total.push_back(R.SetupS * 1e3);
    Unattributed.push_back(R.SetupS * 1e3 - Parts);
    Frac.push_back(Parts / (R.SetupS * 1e3));
  }
  M.add("setup.total_ms", median(Total), "ms");
  M.add("setup.unattributed_ms", median(Unattributed), "ms");
  M.add("setup.attributed_frac", median(Frac), "fraction");
}

int run(const Options &O) {
  const BenchWorkload *W = nullptr;
  for (const BenchWorkload &C : Workloads)
    if (O.Workload == C.Name)
      W = &C;
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  SpanRecorder Rec(O.Trace);
  HostInfo Host = probeHost();

  Bench B;
  B.W = W;
  B.Seed = O.Seed;
  {
    ScopedSpan S(Rec, "apps", "builtinWorkloads");
    B.Spec = builtinWorkloads().find(W->Registered);
  }
  if (!B.Spec) {
    std::fprintf(stderr, "error: workload '%s' is not registered\n",
                 W->Registered);
    return 2;
  }
  {
    ScopedSpan S(Rec, "machine", "makeToyMachine");
    B.Model = makeToyMachine();
  }
  B.Model.NumSockets = ModelSockets;
  B.Config.Strat = W->Strat;
  B.Config.Sockets = ModelSockets;
  int NI = O.Quick ? QuickNI : W->NI, NJ = O.Quick ? QuickNJ : W->NJ,
      NK = O.Quick ? QuickNK : W->NK;
  B.Grid = Box3::fromExtents(NI, NJ, NK);
  {
    ScopedSpan S(Rec, "stencil", "workloadDomain");
    B.Dom = workloadDomain(*B.Spec, NI, NJ, NK);
  }
  const StencilProgram &Prog = B.Spec->Program;

  // The plan every repetition rebuilds; its counts, the simulator's
  // prediction and the oversubscription guard come from this copy.
  ExecutionPlan Plan;
  {
    ScopedSpan S(Rec, "core", "buildPlan.preflight");
    Plan = buildPlan(Prog, B.Grid, B.Model, B.Config);
  }
  {
    ScopedSpan S(Rec, "core", "optimizeBarriers.preflight");
    optimizeBarriers(Prog, Plan);
  }
  for (const IslandPlan &IP : Plan.Islands)
    B.Threads += IP.NumThreads;
  if (B.Threads > Host.NumCpus) {
    std::fprintf(stderr,
                 "error: workload '%s' plans %d worker threads but this host "
                 "offers %d CPUs; refusing to oversubscribe\n",
                 W->Name, B.Threads, Host.NumCpus);
    return 3;
  }

  // Untraced phase: the end-to-end metrics. With --trace 1 a traced phase
  // of equal length follows, for the per-layer metrics.
  int TimedReps = O.Quick ? 2 : (O.Trace ? 3 : 5);
  double PhaseSeconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  CpuTicks TicksBefore = readCpuTicks();
  Phase Plain;
  {
    SpanRecorder Off(false);
    Plain = runPhase(B, PhaseSeconds, TimedReps, /*Traced=*/false, Off);
  }
  double PeakRss = peakRssMiB();
  Phase Traced;
  if (O.Trace)
    Traced = runPhase(B, PhaseSeconds, TimedReps, /*Traced=*/true, Rec);
  CpuTicks TicksAfter = readCpuTicks();

  std::vector<RepResult *> All;
  for (Phase *P : {&Plain, &Traced})
    for (RepResult &R : P->Reps)
      All.push_back(&R);
  std::vector<double> SerialMs;
  {
    ScopedSpan S(Rec, "bench", "oracleGate");
    SerialMs = oracleGate(B, All, Rec);
  }
  int Failed = 0;
  for (const RepResult *R : All)
    if (R->Failed) {
      ++Failed;
      std::fprintf(stderr, "run failed: %s\n", R->Error.c_str());
    }
  int Attempted = static_cast<int>(All.size());

  int64_t TriadElems =
      O.Quick ? (int64_t{1} << 20)
              : std::max<int64_t>(4 * Host.L3Bytes, int64_t{256} << 20) / 8;
  double TriadGBps;
  {
    ScopedSpan S(Rec, "bench", "triad");
    TriadGBps = measureTriadGBps(TriadElems, Host.NumCpus, 5);
  }

  std::printf("host: nproc %d, L2 %.1f MiB, L3 %.1f MiB, NUMA nodes %d\n",
              Host.NumCpus, static_cast<double>(Host.L2Bytes) / (1 << 20),
              static_cast<double>(Host.L3Bytes) / (1 << 20), Host.NumaNodes);
  std::printf("planning model: %s, %d sockets x %d cores, LLC %.1f MiB per "
              "socket, DRAM %.1f GB/s per socket\n",
              B.Model.Name.c_str(), B.Model.NumSockets,
              B.Model.CoresPerSocket,
              static_cast<double>(B.Model.LlcBytesPerSocket) / (1 << 20),
              B.Model.DramBandwidthPerSocket / 1e9);
  std::printf("workload: %s = %s, %s kernels, %s, %dx%dx%d, %zu islands, %d "
              "threads, seed %llu%s\n",
              W->Name, W->Registered, kernelVariantName(W->Kernels),
              strategyName(W->Strat), NI, NJ, NK, Plan.Islands.size(),
              B.Threads, static_cast<unsigned long long>(O.Seed),
              O.Quick ? " (quick)" : "");
  std::printf("build: %s; machine.triad_gbps %.3f (3 x %.0f MiB arrays)\n",
              PERFBENCH_BUILD_TYPE, TriadGBps,
              static_cast<double>(TriadElems) * 8 / (1 << 20));
  // Hypervisor steal while the executor ran: a few per cent already moves
  // the barrier-bound workloads, so a comparison should check it.
  if (TicksAfter.Total > TicksBefore.Total)
    std::printf("host steal during the executor phases: %.1f%%\n",
                100.0 * static_cast<double>(TicksAfter.Steal -
                                            TicksBefore.Steal) /
                    static_cast<double>(TicksAfter.Total -
                                        TicksBefore.Total));
  std::printf("runs: %d attempted, %d failed\n", Attempted, Failed);
  double Cells = static_cast<double>(B.Dom.numCells());
  auto RepMlups = [Cells](const RepResult &R) {
    return Cells * static_cast<double>(R.SampleMs.size()) / R.TimedS / 1e6;
  };
  for (const RepResult *R : All) {
    std::printf("  run: %d steps, setup %.2f ms", R->Steps, R->SetupS * 1e3);
    if (!R->SampleMs.empty())
      std::printf(", %zu samples, %.3f Mcells/s, step p50 %.4f ms, p90 "
                  "%.4f ms (%zu beyond)",
                  R->SampleMs.size(), RepMlups(*R), R->StepMsP50,
                  R->StepMsP90, R->BeyondP90);
    std::printf("%s\n", R->Failed ? " FAILED" : "");
    if (R->SampleMs.size() >= MinRepSamples && R->BeyondP90 < 10)
      throw std::runtime_error("fewer than 10 samples beyond p90");
  }

  // End-to-end step statistics: medians over the untraced timed
  // repetitions of each repetition's own figure.
  double Mlups = Plain.medianOverTimed(RepMlups);
  double P50 = Plain.medianOverTimed(
      [](const RepResult &R) { return R.StepMsP50; });
  double P90 = Plain.medianOverTimed(
      [](const RepResult &R) { return R.StepMsP90; });
  std::vector<double> PlainSetups;
  for (const RepResult &R : Plain.Reps)
    PlainSetups.push_back(R.SetupS);
  std::vector<double> Pooled = Plain.pooledSorted();
  std::printf("step ms (untraced, pooled): min %.4f p10 %.4f p25 %.4f p50 "
              "%.4f p75 %.4f p90 %.4f p99 %.4f max %.4f over %zu samples\n",
              Pooled.front(), percentile(Pooled, 0.1),
              percentile(Pooled, 0.25), percentile(Pooled, 0.5),
              percentile(Pooled, 0.75), percentile(Pooled, 0.9),
              percentile(Pooled, 0.99), Pooled.back(), Pooled.size());

  double ErrorRate = static_cast<double>(Failed) / Attempted;
  std::printf("end to end (untraced): mlups %.3f Mcells/s, step_ms_p50 %.4f "
              "ms, step_ms_p90 %.4f ms, setup_s %.4f s, peak_rss_mib %.1f "
              "MiB, error_rate %g\n",
              Mlups, P50, P90, median(PlainSetups), PeakRss, ErrorRate);

  MetricSet M;
  if (!O.Trace) {
    // step_ms_p90 is printed above but kept out of the gated end-to-end
    // set: on a shared host its run-to-run spread exceeds the largest
    // regression bound a gated metric may have. The traced run reports it
    // among the unbounded per-layer metrics.
    M.add("mlups", Mlups, "Mcells/s");
    M.add("step_ms_p50", P50, "ms");
    M.add("setup_s", median(PlainSetups), "s");
    M.add("peak_rss_mib", PeakRss, "MiB");
    M.add("success_rate", 1.0 - ErrorRate, "fraction");
  } else {
    addLayerMetrics(M, B, Plan, Traced, P50, TriadGBps, SerialMs, Rec);
    M.add("exec.step_ms_p90", P90, "ms");
    std::printf("span self time by layer (traced phase and oracle):\n");
    for (const auto &[Layer, Ms] : Rec.selfMsByLayer())
      std::printf("  %-8s %12.3f ms\n", Layer.c_str(), Ms);
    std::printf("spans recorded: %zu\n", Rec.spans().size());
    if (!O.SpansOut.empty() && !Rec.writeJson(O.SpansOut)) {
      std::fprintf(stderr, "error: cannot write spans to '%s'\n",
                   O.SpansOut.c_str());
      return 1;
    }
  }
  std::fflush(stderr);
  printResult(Failed == 0, Attempted, Failed, M);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Err;
  if (!parseArgs(Argc, Argv, O, Err)) {
    std::fprintf(stderr, "error: %s\nusage: %s --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--quick] "
                         "[--spans-out FILE]\n",
                 Err.c_str(), Argv[0]);
    return 2;
  }
  // Pin glibc's mmap threshold: every array above 128 KiB is then mapped
  // at construction and unmapped at destruction, so each repetition pays
  // the same page faults and the peak RSS does not depend on how earlier
  // repetitions fragmented the heap (the default threshold adapts upward
  // after the first large free).
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return run(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
