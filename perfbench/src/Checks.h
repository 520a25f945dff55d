//===- perfbench/src/Checks.h - Per-op output checks ------------*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checks every op's output must pass, and the negative control that
/// proves they can fail. A failed check counts the op against ok_ratio;
/// nothing is retried or dropped.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "net/Json.h"

#include <cstdint>
#include <string>

namespace perfbench {

/// guest-exec: the shared counters, read from guest memory after the run,
/// sum to \p ExpectedSum and every vCPU halted.
bool checkKernel(uint64_t ExpectedSum, uint64_t CounterSum, bool AllHalted,
                 std::string *Why);

/// Serve workloads: \p Job is the "job" object of a streamed result event.
/// It must be done (done lines carry no "state" key; any other state is
/// spelled out), report all_halted, and count exactly \p ExpectedSc
/// successful store-conditionals.
bool checkJobLine(const llsc::net::JsonValue &Job, uint64_t ExpectedSc,
                  std::string *Why);

/// Negative control: hands each check a result that is off by one (and,
/// for the job check, a failed and a not-halted result) and requires the
/// check to reject it, and a matching result and requires it to pass.
/// \returns false, with the first disagreement in \p Why, otherwise.
bool selfTest(std::string *Why);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
