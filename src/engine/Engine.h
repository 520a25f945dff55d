//===- engine/Engine.h - IR execution engine --------------------*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes translated blocks for one vCPU: a threaded-dispatch interpreter
/// over the micro-op IR with QEMU-style block chaining, safepoint polling
/// for exclusive sections, per-block HTM footprint accounting (PICO-HTM),
/// and instruction-mix counting.
///
/// Two driving modes:
///  - runCpu(): run until HALT; one host thread per vCPU (the
///    multi-threaded emulation mode whose scalability Fig. 10 studies —
///    Machine runs vCPU 0 on its caller's thread, the rest on spawned
///    ones);
///  - stepBlocks(): run a bounded number of blocks, used by the
///    cooperative round-robin runner that replays the deterministic
///    interleavings of Section IV-A's litmus sequences.
///
//===----------------------------------------------------------------------===//

#ifndef LLSC_ENGINE_ENGINE_H
#define LLSC_ENGINE_ENGINE_H

#include "engine/TbCache.h"
#include "runtime/VCpu.h"

#include <vector>

namespace llsc {

class Translator;

namespace jit {
class Jit;
} // namespace jit

/// Engine tunables.
struct EngineConfig {
  /// Attribute time/ops to profile buckets (Fig. 12 runs).
  bool Profile = false;
  /// Stop a vCPU after this many executed blocks (0 = unlimited). Guards
  /// against livelock (PICO-HTM) and runaway guests.
  uint64_t MaxBlocksPerCpu = 0;
  /// Stop a vCPU after this much wall time (0 = unlimited), polled every
  /// few hundred blocks. Catches livelocks whose time is spent inside
  /// scheme spin loops rather than in guest blocks.
  uint64_t MaxWallNanosPerCpu = 0;
};

/// Per-run execution budgets, settable between runs without rebuilding
/// the Engine — how Machine::run(RunOptions) applies per-job deadlines
/// and block budgets on a pooled, reused Machine (docs/SERVING.md).
struct EngineBudgets {
  uint64_t MaxBlocksPerCpu = 0;    ///< 0 = unlimited.
  uint64_t MaxWallNanosPerCpu = 0; ///< 0 = unlimited.
};

/// Why execution of a vCPU stopped.
enum class RunStatus {
  Halted,   ///< The guest executed HALT.
  Running,  ///< stepBlocks() budget exhausted; more work remains.
  TimedOut, ///< MaxBlocksPerCpu reached.
};

/// Executes guest code for vCPUs of one machine.
class Engine {
public:
  Engine(MachineContext &Ctx, TbCache &Cache, Translator &Trans,
         const EngineConfig &Config)
      : Ctx(Ctx), Cache(&Cache), Trans(&Trans), Config(Config) {}

  /// Runs \p Cpu until HALT (or the block budget). Brackets execution with
  /// ExclusiveContext::execStart/execEnd and polls safepoints, so it is
  /// safe to run one runCpu per host thread concurrently.
  ErrorOr<RunStatus> runCpu(VCpu &Cpu);

  /// Runs at most \p MaxBlocks blocks of \p Cpu without registering as a
  /// running thread (single-threaded cooperative mode).
  ErrorOr<RunStatus> stepBlocks(VCpu &Cpu, uint64_t MaxBlocks);

  /// Replaces the block/wall budgets for subsequent runs. Must not be
  /// called while any vCPU is executing — Machine::run applies it before
  /// starting the vCPU threads.
  void setBudgets(const EngineBudgets &Budgets) {
    Config.MaxBlocksPerCpu = Budgets.MaxBlocksPerCpu;
    Config.MaxWallNanosPerCpu = Budgets.MaxWallNanosPerCpu;
  }

  /// Wires the tier-1 JIT (null = tier-0 only). Set by Machine::create
  /// before any vCPU runs; never changed while one executes.
  void setJit(jit::Jit *J) { TheJit = J; }

  /// Repoints the engine at a different TB cache — how Machine adopts a
  /// snapshot's shared warm cache (restoreFrom) or swaps in a private one
  /// (privatizeCode). Must not be called while any vCPU is executing.
  void setCache(TbCache *C) { Cache = C; }

private:
  /// How a block handed control back.
  struct BlockExit {
    enum Kind : uint8_t {
      TakenBranch, ///< BrCond taken: chain slot 0.
      FallThrough, ///< Final SetPcImm: chain slot 1.
      Indirect,    ///< SetPc: full cache lookup.
      Halted,
    } ExitKind;
    uint64_t NextPc;
  };

  BlockExit execBlock(VCpu &Cpu, const CachedBlock &Block,
                      std::vector<uint64_t> &Temps);

  /// Shared body of runCpu/stepBlocks. \p Registered: whether the caller
  /// holds an execStart registration (enables safepoints). The temp value
  /// file lives in the caller's frame, so one Engine instance serves any
  /// number of concurrent host threads.
  ErrorOr<RunStatus> runLoop(VCpu &Cpu, uint64_t MaxBlocks, bool Registered);

  MachineContext &Ctx;
  TbCache *Cache;
  Translator *Trans;
  EngineConfig Config;
  jit::Jit *TheJit = nullptr;
};

} // namespace llsc

#endif // LLSC_ENGINE_ENGINE_H
