//===- perfbench/src/Inputs.h - Seeded workload inputs ----------*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three input generators, all driven by the one --seed value. Each
/// generator draws from its own stream of that seed, so the same seed
/// always yields the same kernel, the same snapshot program and the same
/// sequence of cold programs. Each input carries the value its output
/// check expects.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "guest/Program.h"
#include "workloads/ParsecKernels.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// guest-exec: a barrier-free, freqmine-shaped kernel on 2 vCPUs.
struct KernelInput {
  llsc::workloads::KernelParams Params;
  unsigned Threads = 2;
  llsc::guest::Program Prog;
  /// The four 32-bit counters rt_atomic_add_w increments.
  uint64_t CounterAddr = 0;
  static constexpr unsigned CounterWords = 4;
  /// threads x iterations x adds: what the counters must sum to.
  uint64_t ExpectedSum = 0;
};
KernelInput makeKernelInput(uint64_t Seed);

/// A 1-vCPU program for the serve workloads. Its result line must report
/// exactly ExpectedSc successful store-conditionals.
struct WireProgram {
  std::string Asm;             ///< Source (snapshot program only).
  llsc::guest::Program Prog;   ///< Assembled at the raw-image base.
  uint64_t ExpectedSc = 0;
};

/// serve-snapshot-wire: a short LL/SC fetch-add loop.
WireProgram makeSnapshotProgram(uint64_t Seed);

/// serve-cold-wire: program number \p Index of the seed's sequence. Wide
/// straight-line code (64 sites of ALU and memory ops, some of them LL/SC
/// increments) looped just past the tier-1 hot threshold. Distinct indices
/// give distinct images, so every op is code the fleet has not seen. The
/// image is a raw GRV binary: entry at its first byte, base 0x1000.
WireProgram makeColdProgram(uint64_t Seed, uint64_t Index);

/// `halt` alone: the run-floor probe.
llsc::guest::Program haltProgram();

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
