//===- engine/jit/Jit.h - Tier-1 JIT facade ---------------------*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tier-1 JIT as the engine sees it: a hotness-driven tier-up query
/// (codeFor), an entry point into emitted code (enter), and chain-site
/// patching (patchChain). One executable CodeCache region is active per
/// TbCache generation; Jit listens to the TB cache's flush/reap events so
/// regions retire and free in lockstep with the blocks that point into
/// them (docs/JIT.md "Code cache lifecycle").
///
/// Thread-safety model, leaning on the machine's quiescence rules:
///  - codeFor/enter/patchChain run concurrently from every vCPU; per-block
///    tier state is atomic, installs serialize on one mutex.
///  - onTbFlush runs only while no vCPU executes (quiescence floor or no
///    threads started), so swapping the active region is race-free.
///  - onTbReapRetired frees retired regions under the same guarantee,
///    keeping one as the spare that the next onTbFlush recycles.
///
//===----------------------------------------------------------------------===//

#ifndef LLSC_ENGINE_JIT_JIT_H
#define LLSC_ENGINE_JIT_JIT_H

#include "engine/TbCache.h"
#include "engine/jit/CodeCache.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

/// Host support for the tier-1 backend: it emits x86-64 and maps
/// dual-view memfd code regions (Linux), and TSAN cannot instrument
/// emitted code, so machines stay tier-0 under that sanitizer (the CI
/// TSAN leg exercises exactly those fallback paths).
#if defined(__x86_64__) && defined(__linux__) && !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LLSC_JIT_SUPPORTED 0
#else
#define LLSC_JIT_SUPPORTED 1
#endif
#else
#define LLSC_JIT_SUPPORTED 1
#endif
#else
#define LLSC_JIT_SUPPORTED 0
#endif

namespace llsc {

struct VCpu;

namespace jit {

/// Tier-1 JIT tuning knobs (resolved by Machine::create from MachineConfig
/// and the LLSC_FORCE_JIT / LLSC_NO_JIT environment overrides).
struct JitConfig {
  /// Bytes per executable code region (one region per TbCache generation;
  /// a full region stops tier-up for the rest of the generation).
  size_t CodeBytes = 16u << 20;

  /// Tier-0 dispatches of a block before it compiles. 0 means compile on
  /// first dispatch (LLSC_FORCE_JIT, and what the differential tests use).
  uint32_t HotThreshold = 16;
};

/// The tier-1 JIT: owns the active code region plus the regions retired
/// by TB-cache flushes but still referenced by retired blocks.
class Jit final : public TbCacheListener {
public:
  /// Creates a JIT with one fresh code region. \returns null when the
  /// region cannot be allocated — the machine simply runs tier-0 only.
  /// Emitted code carries no machine-instance addresses (everything is
  /// loaded through VCpu::Ctx at runtime), so a Jit can be shared
  /// read-only between a snapshot and its clones.
  static std::unique_ptr<Jit> create(const JitConfig &Config);

  // --- Hot path (any vCPU) -------------------------------------------------

  /// Tier-up query for one dispatch of \p Block by \p Cpu: returns the
  /// block's executable entry when it is (or just became) tier-1, else
  /// null. Bumps the hotness counter and compiles inline on the vCPU that
  /// wins the NotCompiled -> Compiling transition; compile bails and
  /// installs are charged to \p Cpu's event counters.
  const void *codeFor(CachedBlock &Block, VCpu &Cpu);

  /// Runs \p Cpu through \p Code (obtained from codeFor in this TB-cache
  /// generation) until the emitted code exits.
  JitExit enter(VCpu &Cpu, const void *Code) {
    return enterJit(Active->enterFn(), Cpu, Code);
  }

  /// Patches the pending chain site whose rel32 operand lives at
  /// executable address \p SiteOpndAddr (from VCpu::JitPendingPatch) to
  /// jump to \p TargetCode. Silently skipped unless both addresses lie in
  /// the active region — a stale site from before a flush must not be
  /// written through.
  void patchChain(uint64_t SiteOpndAddr, const void *TargetCode, VCpu &Cpu);

  // --- TbCacheListener (quiesced contexts only) ----------------------------

  void onTbFlush() override;
  void onTbReapRetired() override;

  size_t codeBytesUsed() const { return Active ? Active->bytesUsed() : 0; }

private:
  explicit Jit(JitConfig C) : Config(C) {}

  /// Lowers and installs \p Block (tier already CASed to Compiling by the
  /// caller). \returns the entry on success, null on bail/full/raced-flush.
  const void *compile(CachedBlock &Block, VCpu &Cpu);

  JitConfig Config;

  /// Region of the current TB-cache generation. Swapped only in
  /// onTbFlush (quiesced), read without locks on the hot path.
  std::unique_ptr<CodeCache> Active;

  /// Regions retired by onTbFlush, freed by onTbReapRetired — mirrors
  /// TbCache's retire-don't-free discipline for blocks.
  std::vector<std::unique_ptr<CodeCache>> Retired;

  /// One reaped region kept for reuse: the next onTbFlush recycles it
  /// instead of mapping a fresh one (docs/JIT.md "Code cache lifecycle").
  std::unique_ptr<CodeCache> Spare;

  /// Serializes install() calls and guards the compile-vs-flush race.
  std::mutex InstallMutex;

  /// Bumped per region swap; a compilation that started against an older
  /// serial discards its result instead of installing into the new region.
  std::atomic<uint64_t> RegionSerial{0};
};

} // namespace jit
} // namespace llsc

#endif // LLSC_ENGINE_JIT_JIT_H
