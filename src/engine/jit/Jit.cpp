//===- engine/jit/Jit.cpp - Tier-1 JIT facade ----------------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "engine/jit/Jit.h"

#include "engine/jit/JitCompiler.h"
#include "engine/jit/X86Emitter.h"
#include "runtime/VCpu.h"

using namespace llsc;
using namespace llsc::jit;

std::unique_ptr<Jit> Jit::create(const JitConfig &Config) {
  auto Region = CodeCache::create(Config.CodeBytes);
  if (!Region)
    return nullptr;
  std::unique_ptr<Jit> J(new Jit(Config));
  J->Active = std::move(Region);
  return J;
}

const void *Jit::codeFor(CachedBlock &Block, VCpu &Cpu) {
  uint8_t Tier = Block.Tier.load(std::memory_order_acquire);
  if (Tier == static_cast<uint8_t>(BlockTier::Jitted))
    return Block.JitCode.load(std::memory_order_acquire);
  if (Tier != static_cast<uint8_t>(BlockTier::NotCompiled))
    return nullptr; // Compiling on another vCPU, or bailed for good.

  if (Block.HotCount.fetch_add(1, std::memory_order_relaxed) <
      Config.HotThreshold)
    return nullptr;

  uint8_t Expected = static_cast<uint8_t>(BlockTier::NotCompiled);
  if (!Block.Tier.compare_exchange_strong(
          Expected, static_cast<uint8_t>(BlockTier::Compiling),
          std::memory_order_acq_rel, std::memory_order_acquire))
    return nullptr; // Lost the race; the winner will publish JitCode.

  return compile(Block, Cpu);
}

const void *Jit::compile(CachedBlock &Block, VCpu &Cpu) {
  // Compiled bodies are machine-neutral (all instance addresses load
  // through VCpu::Ctx at runtime); the serial captured here detects the
  // (quiesced-only, so effectively impossible while we are inside this
  // function — but cheap to check) case of installing into a region newer
  // than the one this compilation started against.
  uint64_t Serial = RegionSerial.load(std::memory_order_acquire);

  // The compiling thread's buffers: install() copies the bytes out, so
  // they are free again for the thread's next block.
  thread_local X86Emitter Em;
  thread_local std::vector<Fixup> Fixups;
  Em.clear();
  Fixups.clear();
  if (!compileBlock(Block, Em, Fixups)) {
    Cpu.Events.JitCompileBails++;
    Block.Tier.store(static_cast<uint8_t>(BlockTier::Bailed),
                     std::memory_order_release);
    return nullptr;
  }

  std::lock_guard<std::mutex> Lock(InstallMutex);
  if (!Active || RegionSerial.load(std::memory_order_acquire) != Serial) {
    // The region was swapped mid-compile; the block itself was retired
    // with it. Put the tier back so a fresh block compiles cleanly.
    Block.Tier.store(static_cast<uint8_t>(BlockTier::NotCompiled),
                     std::memory_order_release);
    return nullptr;
  }

  const void *Code = Active->install(Em, Fixups);
  if (!Code) {
    // Region full: this block (and, as other blocks heat up, the rest of
    // the generation) stays on tier-0.
    Cpu.Events.JitCompileBails++;
    Block.Tier.store(static_cast<uint8_t>(BlockTier::Bailed),
                     std::memory_order_release);
    return nullptr;
  }

  Cpu.Events.JitBlocksCompiled++;
  Block.JitCode.store(Code, std::memory_order_release);
  Block.Tier.store(static_cast<uint8_t>(BlockTier::Jitted),
                   std::memory_order_release);
  return Code;
}

void Jit::patchChain(uint64_t SiteOpndAddr, const void *TargetCode,
                     VCpu &Cpu) {
  uintptr_t Site = static_cast<uintptr_t>(SiteOpndAddr);
  uintptr_t Target = reinterpret_cast<uintptr_t>(TargetCode);
  if (!Active || !Active->contains(Site) || !Active->contains(Target))
    return;
  Active->patchChain(Site, Target);
  Cpu.Events.JitChainPatches++;
}

void Jit::onTbFlush() {
  std::lock_guard<std::mutex> Lock(InstallMutex);
  if (Active)
    Retired.push_back(std::move(Active));
  // The new generation's region: the spare from the last reap, emptied,
  // or else a fresh one. On allocation failure the JIT idles (codeFor
  // still runs, but installs fail the serial/Active checks).
  if (Spare) {
    Spare->recycle();
    Active = std::move(Spare);
  } else {
    Active = CodeCache::create(Config.CodeBytes);
  }
  RegionSerial.fetch_add(1, std::memory_order_release);
}

void Jit::onTbReapRetired() {
  std::lock_guard<std::mutex> Lock(InstallMutex);
  // The blocks pointing into retired regions are freed by now; keep one
  // region for the next flush instead of unmapping it.
  if (!Spare && !Retired.empty()) {
    Spare = std::move(Retired.back());
    Retired.pop_back();
  }
  Retired.clear();
}
