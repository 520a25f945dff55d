//===- perfbench/src/Probe.h - Side measurements ----------------*- C++ -*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's side probe. On machines the benchmark owns and shapes
/// like the workload's, it measures the layer costs a closed loop cannot
/// see from outside: construction, cold load, reset, snapshot and restore,
/// the empty-run floor, and per-block translate and compile cost.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include "core/Machine.h"

#include <memory>
#include <vector>

namespace perfbench {

/// Layer costs measured on benchmark-owned machines.
struct ProbeCosts {
  double CreateMs = 0;
  double ColdLoadUs = 0;   ///< Machine::load of a new image (cache flush).
  double ResetUs = 0;
  double SnapshotMs = 0;
  double RestoreUs = 0;
  double RunFloorUs = 0;   ///< Machine::run of `halt` at the config's vCPUs.
  double CloneBlocks = 0;  ///< Blocks a run on a restored clone translates.
  double BlocksPerImage = 0;   ///< Blocks a cold run translates.
  double TranslateUsPerBlock = 0;
  double CompileUsPerBlock = 0;
  double CodeBytesPerBlock = 0;
  double IrKeptRatio = 0;
};

/// Runs the probe for machines shaped like \p Config over \p Images (each
/// measured cold and warm on one vCPU, with tier 1 on and off). \p Snap is
/// restored on a probe machine; when null, the probe snapshots Images[0]
/// itself.
ProbeCosts probeMachine(const llsc::MachineConfig &Config,
                        const std::vector<llsc::guest::Program> &Images,
                        std::shared_ptr<const llsc::MachineSnapshot> Snap);

} // namespace perfbench

#endif // PERFBENCH_PROBE_H
