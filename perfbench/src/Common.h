//===- perfbench/src/Common.h - Shared benchmark types ----------*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the workload runners and the result printer: the
/// command-line options, the per-op samples a closed loop collects, and
/// the clocks every measurement reads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Host.h"

#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its span file ("" = do not write).
  std::string OutDir;
};

/// Wall clock for spans and op latency.
inline uint64_t wallNs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(Ts.tv_nsec);
}

/// CPU time of the whole process, summed over all threads. With one op in
/// flight every thread's CPU in an op's interval belongs to that op.
inline uint64_t processCpuNs() {
  timespec Ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(Ts.tv_nsec);
}

/// What one closed-loop phase of a workload measured.
struct LoopSamples {
  std::vector<double> WallMs; ///< Per-op latency, send to result checked.
  std::vector<double> CpuMs;  ///< Per-op process CPU time.
  uint64_t Attempted = 0;
  uint64_t Ok = 0;
  /// The process's peak RSS is read once this many ops have completed
  /// (or when the phase ends, if it ends first). The program keeps some
  /// per-job state for the life of a session, so RSS read at the end of a
  /// timed phase would grow with however many ops the host let it run.
  uint64_t RssCheckpointOps = 0;
  double RssMiB = 0;

  void add(uint64_t Wall0, uint64_t Wall1, uint64_t Cpu0, uint64_t Cpu1,
           bool Passed) {
    WallMs.push_back(static_cast<double>(Wall1 - Wall0) * 1e-6);
    CpuMs.push_back(static_cast<double>(Cpu1 - Cpu0) * 1e-6);
    ++Attempted;
    Ok += Passed ? 1 : 0;
    if (Attempted == RssCheckpointOps)
      RssMiB = peakRssMiB();
  }
};

/// Per-layer metric values by name (the traced run's output).
using LayerMetrics = std::map<std::string, double>;

/// Everything a workload runner hands back to main.
struct WorkloadOutcome {
  std::vector<double> SetupSeconds; ///< One entry per repeated set-up.
  /// Warm-up ops in set-up whose output check failed; any makes the run
  /// incorrect.
  uint64_t SetupFailures = 0;
  LoopSamples Untraced;             ///< End-to-end phase (tracing off).
  LoopSamples Traced;               ///< Traced phase (--trace 1 only).
  LayerMetrics Layers;              ///< --trace 1 only.
};

/// Quantile by linear interpolation between order statistics; 0 for an
/// empty sample.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

/// Run one workload into \p Out. Between ops the loops step \p Rotation,
/// which keeps the process on a small window of CPUs that moves across
/// all of them (see CpuRotation).
void runGuestExec(const Options &Opts, CpuRotation &Rotation,
                  WorkloadOutcome &Out);
void runServeWire(const Options &Opts, bool Cold, CpuRotation &Rotation,
                  WorkloadOutcome &Out);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
