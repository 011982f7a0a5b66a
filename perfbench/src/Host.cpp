//===- perfbench/src/Host.cpp - What the benchmark learns about its host --===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//

#include "Host.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

std::string readLine(const fs::path &P) {
  std::ifstream In(P);
  std::string Line;
  std::getline(In, Line);
  return Line;
}

/// Parses sysfs cache sizes such as "48K", "2048K" or "105M".
int64_t parseSize(const std::string &S) {
  if (S.empty())
    return 0;
  int64_t N = std::stoll(S);
  switch (S.back()) {
  case 'K':
    return N << 10;
  case 'M':
    return N << 20;
  case 'G':
    return N << 30;
  default:
    return N;
  }
}

} // namespace

HostInfo perfbench::probeHost() {
  HostInfo H;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  H.NumCpus = sched_getaffinity(0, sizeof(Set), &Set) == 0
                  ? CPU_COUNT(&Set)
                  : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));

  std::error_code EC;
  fs::path Caches = "/sys/devices/system/cpu/cpu0/cache";
  for (const fs::directory_entry &E : fs::directory_iterator(Caches, EC)) {
    if (E.path().filename().string().rfind("index", 0) != 0)
      continue;
    std::string Type = readLine(E.path() / "type");
    if (Type != "Unified" && Type != "Data")
      continue;
    std::string Level = readLine(E.path() / "level");
    int64_t Size = parseSize(readLine(E.path() / "size"));
    if (Level == "2")
      H.L2Bytes = Size;
    else if (Level == "3")
      H.L3Bytes = Size;
  }

  for (const fs::directory_entry &E :
       fs::directory_iterator("/sys/devices/system/node", EC)) {
    std::string Name = E.path().filename().string();
    if (Name.size() > 4 && Name.rfind("node", 0) == 0 &&
        std::all_of(Name.begin() + 4, Name.end(),
                    [](char C) { return C >= '0' && C <= '9'; }))
      ++H.NumaNodes;
  }
  return H;
}

CpuTicks perfbench::readCpuTicks() {
  // "cpu user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user, so only the first 8 add up.
  std::ifstream In("/proc/stat");
  std::string Label;
  CpuTicks T;
  if (!(In >> Label) || Label != "cpu")
    return T;
  for (int Field = 0; Field != 8; ++Field) {
    uint64_t V = 0;
    if (!(In >> V))
      return CpuTicks();
    T.Total += V;
    if (Field == 7)
      T.Steal = V;
  }
  return T;
}

double perfbench::peakRssMiB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return static_cast<double>(std::stoll(Line.substr(6))) / 1024.0;
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double perfbench::measureTriadGBps(int64_t ElemsPerArray, int Threads,
                                   int Reps) {
  // Uninitialised storage, so each thread first-touches its own slice.
  std::unique_ptr<double[]> A(new double[ElemsPerArray]);
  std::unique_ptr<double[]> B(new double[ElemsPerArray]);
  std::unique_ptr<double[]> C(new double[ElemsPerArray]);
  auto OnSlices = [&](auto &&Body) {
    std::vector<std::thread> Pool;
    for (int T = 0; T != Threads; ++T) {
      int64_t Lo = ElemsPerArray * T / Threads;
      int64_t Hi = ElemsPerArray * (T + 1) / Threads;
      Pool.emplace_back([&Body, Lo, Hi] { Body(Lo, Hi); });
    }
    for (std::thread &Th : Pool)
      Th.join();
  };
  OnSlices([&](int64_t Lo, int64_t Hi) {
    for (int64_t I = Lo; I != Hi; ++I) {
      A[I] = 0.0;
      B[I] = 1.0;
      C[I] = 2.0;
    }
  });
  const double Scalar = 3.0;
  std::vector<double> Rates;
  for (int R = 0; R != Reps; ++R) {
    auto Start = std::chrono::steady_clock::now();
    OnSlices([&](int64_t Lo, int64_t Hi) {
      double *__restrict Out = A.get();
      const double *__restrict In1 = B.get();
      const double *__restrict In2 = C.get();
      for (int64_t I = Lo; I != Hi; ++I)
        Out[I] = In1[I] + Scalar * In2[I];
    });
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    Rates.push_back(24.0 * static_cast<double>(ElemsPerArray) / Seconds /
                    1e9);
  }
  if (A[ElemsPerArray / 2] != 7.0)
    throw std::runtime_error("triad produced a wrong value");
  std::sort(Rates.begin(), Rates.end());
  return Rates[Rates.size() / 2];
}
