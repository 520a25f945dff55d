//===- perfbench/src/Host.h - Host noise and process memory -----*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Readings of the host, not of the program: CPU steal from /proc/stat
/// (on a shared VM the hypervisor takes the CPU away in episodes, which
/// drags wall-clock numbers), online CPUs, load average, and the
/// process's peak resident set.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Aggregate "cpu" line of /proc/stat, in clock ticks.
struct CpuTicks {
  uint64_t Total = 0;
  uint64_t Steal = 0;
};
CpuTicks readCpuTicks();

/// Steal ticks as a percentage of all ticks between two readings.
double stealPercent(const CpuTicks &Begin, const CpuTicks &End);

unsigned onlineCpus();
double loadAverage1m();

/// Keeps every thread of the process on a window of Width CPUs that
/// steps round-robin through the CPUs the process may use, one step per
/// step() call. Threads created later inherit their creator's window.
///
/// Why: on a VM, waking a thread on an idle vCPU waits for the host to
/// schedule that vCPU, and the host counts the wait as steal. With every
/// handoff of an op inside one window, a serve op's median held within
/// 25% of a quiet host's through a 33%-steal episode, where the unpinned
/// median ran 3x slower. A fixed window, though, rides one vCPU's host
/// core, whose speed changes by up to 40% between runs; moving the
/// window every ~0.2 s samples all of them in every run.
class CpuRotation {
public:
  explicit CpuRotation(unsigned Width);
  /// Moves every thread of the process to the next window.
  void step();

private:
  std::vector<int> Cpus;
  unsigned Width;
  size_t Next = 0;
};

/// VmHWM of this process in MiB.
double peakRssMiB();

/// Milliseconds a fixed single-thread integer loop takes. Read at the
/// start and end of a run, it shows how fast the host ran this process
/// then: the host's speed drifts by ±15% over minutes, and this reading
/// lets a disagreeing pair of runs be traced to that drift.
double referenceLoopMs();

} // namespace perfbench

#endif // PERFBENCH_HOST_H
