//===- perfbench/src/Host.h - What the benchmark learns about its host ----===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host facts printed with every benchmark result: usable CPUs, cache
/// sizes and NUMA nodes read from sysfs, hypervisor steal time, the
/// process's peak resident set, and a STREAM-triad bandwidth measured in
/// the same process.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_PERFBENCH_HOST_H
#define ICORES_PERFBENCH_HOST_H

#include <cstdint>

namespace perfbench {

struct HostInfo {
  int NumCpus = 0;        ///< CPUs this process may run on.
  int64_t L2Bytes = 0;    ///< Per-core unified L2 (0 when sysfs lacks it).
  int64_t L3Bytes = 0;    ///< Shared L3 of cpu0 (0 when sysfs lacks it).
  int NumaNodes = 0;      ///< /sys/devices/system/node/node* entries.
};

/// Reads the host facts from sched_getaffinity and sysfs.
HostInfo probeHost();

/// Host-wide CPU time from the first line of /proc/stat, in clock ticks:
/// the time stolen by the hypervisor and the total of the time fields.
struct CpuTicks {
  uint64_t Steal = 0;
  uint64_t Total = 0;
};

/// Reads CpuTicks; both zero when /proc/stat is unreadable.
CpuTicks readCpuTicks();

/// Peak resident set size of this process in MiB (VmHWM).
double peakRssMiB();

/// STREAM triad a[i] = b[i] + s * c[i] over three arrays of
/// \p ElemsPerArray doubles, split among \p Threads threads that also
/// first-touch their slices. Returns the median of \p Reps timed sweeps in
/// GB/s, counting 24 bytes per element (no write-allocate traffic).
double measureTriadGBps(int64_t ElemsPerArray, int Threads, int Reps);

} // namespace perfbench

#endif // ICORES_PERFBENCH_HOST_H
