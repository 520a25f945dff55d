//===- core/Machine.cpp - Public emulator facade --------------------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Machine.h"

#include "core/Snapshot.h"
#include "engine/jit/Jit.h"
#include "guest/Assembler.h"
#include "mem/FaultGuard.h"
#include "support/BitUtils.h"
#include "support/Compiler.h"
#include "support/Logging.h"
#include "support/Stats.h"
#include "support/Timing.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <thread>

using namespace llsc;

Machine::Machine(const MachineConfig &Config) : Config(Config) {}

Machine::~Machine() {
  // Complete the lifecycle: the active scheme may hold machine-visible
  // state (page protections, published tables). Retired schemes were
  // detached when they were swapped out.
  if (Scheme)
    Scheme->detach();
}

ErrorOr<std::unique_ptr<Machine>> Machine::create(const MachineConfig &Config) {
  if (Config.NumThreads == 0)
    return makeError("machine needs at least one thread");
  if (Config.StackBytes * Config.NumThreads >= Config.MemBytes)
    return makeError("stacks (%u x %llu) do not fit in guest memory",
                     Config.NumThreads,
                     static_cast<unsigned long long>(Config.StackBytes));

  auto M = std::unique_ptr<Machine>(new Machine(Config));

  auto MemOrErr = GuestMemory::create(Config.MemBytes);
  if (!MemOrErr)
    return MemOrErr.error();
  M->Mem = MemOrErr.take();

  const SchemeTraits &Traits = schemeTraits(Config.Scheme);
  if (Traits.RequiresHtm) {
    SoftHtmConfig SoftConfig = Config.SoftHtm;
    SoftConfig.MaxThreads = std::max(SoftConfig.MaxThreads,
                                     Config.NumThreads);
    M->Htm = Config.ForceSoftHtm ? createSoftHtm(SoftConfig)
                                 : createBestHtm(SoftConfig);
  }

  M->Scheme =
      createScheme(Config.Scheme, Config.HstTableLog2, Config.HtmMaxRetries);

  M->Ctx.Mem = M->Mem.get();
  M->Ctx.Excl = &M->Excl;
  M->Ctx.Htm = M->Htm.get();
  M->Ctx.Scheme = M->Scheme.get();
  M->Ctx.NumThreads = Config.NumThreads;
  M->Ctx.ExclPendingAddr = M->Excl.pendingFlagAddr();
  M->Ctx.FastEpochAddr = M->Mem->fastPathEpochAddr();
  M->Scheme->attach(M->Ctx);

  M->Trans = std::make_unique<Translator>(*M->Mem,
                                          input::inputArch(Config.Arch),
                                          M->Scheme.get(),
                                          Config.Translation);
  M->Cache = std::make_shared<TbCache>();

  EngineConfig EngineCfg;
  EngineCfg.Profile = Config.Profile;
  EngineCfg.MaxBlocksPerCpu = Config.MaxBlocksPerCpu;
  EngineCfg.MaxWallNanosPerCpu =
      static_cast<uint64_t>(Config.MaxSecondsPerCpu * 1e9);
  M->Exec = std::make_unique<Engine>(M->Ctx, *M->Cache, *M->Trans, EngineCfg);

  // Tier-1 JIT, on supported hosts: region allocation failure or an
  // explicit disable leaves TheJit null and the machine tier-0 only.
  if (LLSC_JIT_SUPPORTED && Config.Jit && !std::getenv("LLSC_NO_JIT")) {
    jit::JitConfig JitCfg;
    JitCfg.HotThreshold =
        std::getenv("LLSC_FORCE_JIT") ? 0 : Config.JitHotThreshold;
    M->TheJit = jit::Jit::create(JitCfg);
    if (M->TheJit) {
      M->Cache->setListener(M->TheJit.get());
      M->Exec->setJit(M->TheJit.get());
    }
  }

  M->Cpus.resize(Config.NumThreads);
  for (unsigned Tid = 0; Tid < Config.NumThreads; ++Tid) {
    M->Cpus[Tid].Tid = Tid;
    M->Cpus[Tid].Ctx = &M->Ctx;
    M->Cpus[Tid].ProfilingEnabled = Config.Profile;
  }

  // The page-protection schemes rely on recoverable faults; installing the
  // handler here keeps the first run free of lazy-init hiccups.
  FaultGuard::ensureInstalled();
  return M;
}

/// Identity of a program image as the translator sees it: the bytes and
/// where they sit. Symbols are metadata; they never reach translation.
static uint64_t programImageHash(const guest::Program &Prog) {
  uint64_t Hash = 0xcbf29ce484222325ULL; // FNV-1a 64.
  auto Mix = [&Hash](uint64_t V) {
    for (unsigned I = 0; I < 8; ++I) {
      Hash ^= (V >> (I * 8)) & 0xff;
      Hash *= 0x100000001b3ULL;
    }
  };
  Mix(Prog.baseAddr());
  Mix(Prog.entryAddr());
  Mix(Prog.image().size());
  for (uint8_t Byte : Prog.image()) {
    Hash ^= Byte;
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

ErrorOr<void> Machine::load(input::GuestImage Image) {
  if (Image.Arch != Config.Arch)
    return makeError("image arch '%s' does not match machine arch '%s' "
                     "(the frontend is fixed at Machine::create)",
                     input::guestArchName(Image.Arch),
                     input::guestArchName(Config.Arch));
  guest::Program NewProg = std::move(Image.Prog);
  auto LoadedOrErr = Mem->loadProgram(NewProg);
  if (!LoadedOrErr)
    return LoadedOrErr.error();
  // Translations are a pure function of the image bytes plus per-machine
  // translator config, the frontend (fixed at create) and the attached
  // scheme (whose change paths flush on their own), so a byte-identical
  // reload — the pooled-reuse pattern in serve/MachinePool.h — keeps the
  // previous job's code cache warm and skips retranslation entirely.
  // Guest stores into the code region are not tracked (the engine assumes
  // no self-modifying code), which is the same contract a single run
  // already has.
  uint64_t Hash = programImageHash(NewProg);
  if (Hash != LoadedImageHash) {
    // A shared cache holds translations siblings still execute; walk away
    // to a fresh private cache instead of flushing under them.
    if (CodeShared)
      privatizeCode();
    else
      Cache->flush();
    LoadedImageHash = Hash;
  }
  Prog = std::move(NewProg);
  return {};
}

ErrorOr<void> Machine::loadProgram(guest::Program NewProg) {
  return load(input::GuestImage(input::GuestArch::Grv, std::move(NewProg)));
}

ErrorOr<void> Machine::loadAssembly(std::string_view Source,
                                    uint64_t BaseAddr) {
  auto ProgOrErr = guest::assemble(Source, BaseAddr);
  if (!ProgOrErr)
    return ProgOrErr.error();
  return loadProgram(ProgOrErr.take());
}

void Machine::reset() {
  // 1. Scheme state: releases monitors, restores PST page protections,
  //    zeroes HST tables — the reset() half of the lifecycle contract.
  Ctx.Scheme->reset();

  // 2. Counter rollover. The previous job's numbers were merged into its
  //    JobReport by collectResult when the run ended; zero the live
  //    blocks so the next job starts clean.
  for (VCpu &Cpu : Cpus)
    Cpu.resetForRun(/*EntryPc=*/0);
  AdaptiveEvents.reset();
  if (Htm)
    Htm->resetStats();

  // 3. Code cache: live translations survive the reset — they depend only
  //    on the image bytes, and loadProgram() flushes if the next image
  //    differs — so a pooled machine re-running the same program (the
  //    batch-service steady state) skips retranslation entirely. Blocks
  //    retired by earlier hot-swap flushes, and the retired schemes their
  //    helpers reference, are freed now: no vCPU runs between jobs, so
  //    nothing can hold a stale pointer. A *shared* cache is left alone:
  //    siblings execute out of it, and it holds no retired blocks by
  //    construction (every flush path privatizes first).
  if (!CodeShared) {
    Cache->reapRetired();
    RetiredSchemes.clear();
  }

  // 4. Guest memory and program. resetZero punches the backing pages out
  //    of the memfd — O(1) RSS release instead of a 64 MiB memset — and
  //    the next touch faults in a fresh zero page. An attached snapshot
  //    is detached inside resetZero; drop our handle on it too.
  Mem->resetZero();
  AttachedSnapshot.reset();
  RestorePoint.reset();
  PendingCpuRestore = false;
  Prog = guest::Program();
  ++Resets;
}

void Machine::acquireFloor() {
  // Quiesce + drain. Holding the floor parks every vCPU at a TB boundary,
  // but a vCPU may already be *queued* for its own SC exclusive section —
  // and schemes capture monitor validity before queuing (Hst checks
  // Cpu.Monitor, Pst snapshots AddrOk), so letting that SC resume against
  // reset scheme state could succeed on stale evidence: a false SC
  // success, the one outcome a swap or snapshot must never produce.
  // Release and re-acquire until ours is the only section, so queued
  // old-state SCs complete under their own semantics first. This
  // terminates: each queued SC section is finite, and new ones cannot
  // arrive while we hold the floor (queuing requires the requester to be
  // running).
  for (;;) {
    Excl.startExclusive(/*SelfRunning=*/false);
    if (Excl.soleExclusive())
      break;
    Excl.endExclusive(/*SelfRunning=*/false);
    std::this_thread::yield();
  }
}

void Machine::setScheme(std::unique_ptr<AtomicScheme> NewScheme) {
  assert(NewScheme && "setScheme(nullptr)");
  assert(NewScheme->state() == SchemeState::Detached &&
         "setScheme requires a freshly created (Detached) scheme");
  acquireFloor();
  setSchemeLocked(std::move(NewScheme));
  Excl.endExclusive(/*SelfRunning=*/false);
}

void Machine::setSchemeLocked(std::unique_ptr<AtomicScheme> NewScheme) {
  // Blocks retired by the previous swap are now unreachable: every parked
  // vCPU re-resolves its block by cache generation before touching it
  // (engine/Engine.cpp), and the jump caches were invalidated by that
  // flush. Free them, and with them the scheme whose helpers they called.
  // A shared cache is exempt: siblings still run out of it, and it holds
  // no retired blocks anyway (shared caches are never flushed).
  if (!CodeShared) {
    Cache->reapRetired();
    RetiredSchemes.clear();
  }

  // Break cross-instruction state on every vCPU: open HTM transactions or
  // exclusive-fallback floors (onCpuStopped), then the armed LL window
  // (clearExclusive). An SC whose LL predates the swap will simply fail —
  // the architecture permits spurious SC failure at any point.
  for (VCpu &Cpu : Cpus) {
    Scheme->onCpuStopped(Cpu);
    Scheme->clearExclusive(Cpu);
  }
  // Detach returns the machine to scheme-neutral state: page protections
  // restored, published tables unpublished (the AtomicScheme contract).
  Scheme->detach();

  // A swap may introduce the machine's first HTM-backed scheme.
  if (NewScheme->traits().RequiresHtm && !Htm) {
    SoftHtmConfig SoftConfig = Config.SoftHtm;
    SoftConfig.MaxThreads = std::max(SoftConfig.MaxThreads, Config.NumThreads);
    Htm = Config.ForceSoftHtm ? createSoftHtm(SoftConfig)
                              : createBestHtm(SoftConfig);
    Ctx.Htm = Htm.get();
  }

  Ctx.Scheme = NewScheme.get();
  NewScheme->attach(Ctx);
  Trans->setHooks(NewScheme.get());
  RetiredSchemes.push_back(std::move(Scheme));
  Scheme = std::move(NewScheme);

  // Flush last, after the new hooks are in place: translated blocks embed
  // scheme instrumentation (and helper pointers into the scheme object),
  // so executing a stale block under the new scheme would be a
  // correctness bug. Retired blocks stay allocated until the next swap —
  // a resuming vCPU may still hold a pointer for one last generation
  // check. When the cache is co-owned by a snapshot, flushing would yank
  // warm translations out from under sibling clones — walk away to fresh
  // private caches instead; the shared ones live on untouched.
  if (CodeShared) {
    privatizeCode();
    // Page-protection schemes need own-memfd backing (their remap entry
    // points restore memfd pages); fold the CoW view into own backing
    // before the new scheme starts protecting.
    if (Mem->snapshotAttached() && Scheme->traits().UsesPageProtection) {
      if (auto R = Mem->privatizeFromSnapshot(); !R)
        LLSC_ERROR("privatizing snapshot memory for scheme swap failed: %s",
                   R.error().message().c_str());
      AttachedSnapshot.reset();
    }
  } else {
    Cache->flush();
  }
}

void Machine::privatizeCode() {
  Cache = std::make_shared<TbCache>();
  if (TheJit) {
    // A fresh JIT, not a shared one: compiled code lives in the old Jit's
    // regions, co-owned by the snapshot. Same config resolution as
    // create().
    jit::JitConfig JitCfg;
    JitCfg.HotThreshold =
        std::getenv("LLSC_FORCE_JIT") ? 0 : Config.JitHotThreshold;
    TheJit = jit::Jit::create(JitCfg);
  }
  if (TheJit)
    Cache->setListener(TheJit.get());
  Exec->setCache(Cache.get());
  Exec->setJit(TheJit.get());
  // Jump-cache entries point into the old shared cache's blocks; the
  // generation trick cannot catch a cache *swap* (the fresh cache also
  // starts at generation 1), so clear explicitly. Generation 0 never
  // matches a live cache.
  for (VCpu &Cpu : Cpus) {
    Cpu.JmpCache.clear();
    Cpu.JmpCache.Generation = 0;
  }
  CodeShared = false;
}

ErrorOr<std::shared_ptr<const MachineSnapshot>> Machine::snapshot() {
  if (Prog.image().empty())
    return makeError("snapshot requires a loaded program");
  acquireFloor();

  // Break cross-instruction state on every vCPU, then reset the scheme:
  // the captured image must be exclusive-monitor neutral (no armed LL
  // window — its SC simply fails, which the architecture permits), with
  // page protections restored and published tables at their attach state,
  // so any clone of any scheme kind can restore from it.
  for (VCpu &Cpu : Cpus) {
    Scheme->onCpuStopped(Cpu);
    Scheme->clearExclusive(Cpu);
  }
  Scheme->reset();

  auto Snap = std::make_shared<MachineSnapshot>();
  Snap->Config = Config;
  Snap->SchemeAtCapture = Scheme->traits().Kind;
  Snap->Prog = Prog;
  Snap->ImageHash = LoadedImageHash;

  auto FdOrErr = Mem->snapshotTo();
  if (!FdOrErr) {
    Excl.endExclusive(/*SelfRunning=*/false);
    return FdOrErr.error();
  }
  Snap->MemFd = FdOrErr.take();
  Snap->MemBytes = Mem->size();

  Snap->Cpus.resize(Config.NumThreads);
  bool MidRun = false;
  for (unsigned Tid = 0; Tid < Config.NumThreads; ++Tid) {
    const VCpu &Cpu = Cpus[Tid];
    MachineSnapshot::CpuState &S = Snap->Cpus[Tid];
    std::copy(std::begin(Cpu.Regs), std::end(Cpu.Regs), std::begin(S.Regs));
    S.Pc = Cpu.Pc;
    S.Halted = Cpu.Halted;
    if (!Cpu.Halted && Cpu.Pc != 0)
      MidRun = true;
  }
  Snap->MidRun = MidRun;

  // Share the warm code when translations are machine-neutral — the
  // serve-layer headline: clones start with warm tier-0 and tier-1 code
  // and recompile nothing. HST-HELPER bakes a scheme-instance pointer
  // into its helper records (SchemeTraits::NeutralTranslations is
  // false), so its snapshots carry memory + registers only.
  if (Scheme->traits().NeutralTranslations) {
    if (!CodeShared) {
      // Retired blocks reference retired schemes; free both now (we are
      // quiesced) so the shared cache holds live blocks only.
      Cache->reapRetired();
      RetiredSchemes.clear();
      CodeShared = true;
    }
    Snap->Cache = Cache;
    Snap->Jit = TheJit;
  }

  Excl.endExclusive(/*SelfRunning=*/false);
  return std::shared_ptr<const MachineSnapshot>(std::move(Snap));
}

ErrorOr<void> Machine::restoreFrom(std::shared_ptr<const MachineSnapshot> Snap) {
  if (!Snap)
    return makeError("restoreFrom(null snapshot)");
  if (Snap->MemBytes != Mem->size() ||
      Snap->Config.NumThreads != Config.NumThreads)
    return makeError(
        "snapshot shape mismatch: snapshot has %u threads / %llu mem bytes, "
        "machine has %u / %llu",
        Snap->Config.NumThreads,
        static_cast<unsigned long long>(Snap->MemBytes), Config.NumThreads,
        static_cast<unsigned long long>(Mem->size()));
  // Shared translations (and the captured register file) are in the
  // snapshot arch's lowering; restoring across frontends would execute
  // one ISA's code under another's conventions.
  if (Snap->Config.Arch != Config.Arch)
    return makeError("snapshot guest arch '%s' does not match machine "
                     "arch '%s'",
                     input::guestArchName(Snap->Config.Arch),
                     input::guestArchName(Config.Arch));

  // Fast path — this machine is already a clone of this very snapshot
  // (the pool's restore-on-release steady state): revert CoW-dirty pages
  // with one madvise and reset architectural state. O(pages dirtied by
  // the last job), no syscalls proportional to memory size.
  if (AttachedSnapshot == Snap) {
    Scheme->reset();
    Mem->resetToSnapshot();
    for (VCpu &Cpu : Cpus)
      Cpu.resetForRun(/*EntryPc=*/0);
    AdaptiveEvents.reset();
    if (Htm)
      Htm->resetStats();
    RestorePoint = Snap;
    PendingCpuRestore = Snap->MidRun;
    return {};
  }

  // Cold path — first restore on this machine (or a re-target to a
  // different snapshot). Re-attach the capture-time scheme kind first:
  // shared translations embed that kind's instrumentation.
  if (Scheme->traits().Kind != Snap->SchemeAtCapture)
    setScheme(createScheme(Snap->SchemeAtCapture, Config.HstTableLog2,
                           Config.HtmMaxRetries));
  Scheme->reset();

  if (Scheme->traits().UsesPageProtection) {
    // PST-family: remap entry points restore own-memfd backing, so a CoW
    // attachment is off the table — deep-copy the image instead.
    if (auto R = Mem->restoreCopyFrom(Snap->MemFd); !R)
      return R.error();
    AttachedSnapshot.reset();
  } else {
    if (auto R = Mem->attachSnapshotCow(Snap->MemFd); !R)
      return R.error();
    AttachedSnapshot = Snap;
  }

  if (Snap->Cache && Cache != Snap->Cache) {
    // Adopt the shared warm code (our old private cache is simply
    // dropped; nothing executes during restore). The snapshot's Jit is
    // the cache's listener already — wired by the donor.
    Cache = Snap->Cache;
    TheJit = Snap->Jit;
    Exec->setCache(Cache.get());
    Exec->setJit(TheJit.get());
    CodeShared = true;
    LoadedImageHash = Snap->ImageHash;
  } else if (!Snap->Cache && LoadedImageHash != Snap->ImageHash) {
    // Memory/register-only snapshot over a different image: our cached
    // translations are stale.
    if (CodeShared)
      privatizeCode();
    else
      Cache->flush();
    LoadedImageHash = Snap->ImageHash;
  }

  Prog = Snap->Prog;
  for (VCpu &Cpu : Cpus)
    Cpu.resetForRun(/*EntryPc=*/0);
  AdaptiveEvents.reset();
  if (Htm)
    Htm->resetStats();
  RestorePoint = Snap;
  PendingCpuRestore = Snap->MidRun;
  return {};
}

void Machine::prepareRun() {
  Ctx.Scheme->reset(); // The active scheme (may be a custom one).
  AdaptiveEvents.reset();
  if (Htm)
    Htm->resetStats();
  const input::InputArch &Frontend = input::inputArch(Config.Arch);
  for (unsigned Tid = 0; Tid < Config.NumThreads; ++Tid) {
    VCpu &Cpu = Cpus[Tid];
    Cpu.resetForRun(Prog.entryAddr());
    // Entry conventions are the frontend's: which register carries the
    // tid, which is the stack pointer (GRV: r0/r13, RV32: a0/x2). Stacks
    // are carved from the top of guest memory downwards.
    uint64_t StackTop = Config.MemBytes - Tid * Config.StackBytes;
    Frontend.setupEntry(Cpu, Tid, StackTop);
  }

  // A mid-run snapshot restore replaces the fresh-entry conventions with
  // the captured architectural state: the clone resumes where the donor
  // was quiesced. One-shot — a later run on the same machine starts from
  // the program entry again.
  if (PendingCpuRestore && RestorePoint) {
    for (unsigned Tid = 0; Tid < Config.NumThreads; ++Tid) {
      const MachineSnapshot::CpuState &S = RestorePoint->Cpus[Tid];
      VCpu &Cpu = Cpus[Tid];
      std::copy(std::begin(S.Regs), std::end(S.Regs), std::begin(Cpu.Regs));
      Cpu.Pc = S.Pc;
      Cpu.Halted = S.Halted;
    }
    PendingCpuRestore = false;
  }
}

Machine::RunBaseline Machine::sampleBaseline() const {
  RunBaseline Base;
  Base.Faults = FaultGuard::recoveredFaultCount();
  Base.LockWaits = Cache->lockWaits();
  Base.ExclSections = Excl.exclusiveCount();
  return Base;
}

RunResult Machine::collectResult(bool AllHalted,
                                 const RunBaseline &Base) const {
  RunResult Result;
  Result.AllHalted = AllHalted;
  for (const VCpu &Cpu : Cpus) {
    Result.Total.merge(Cpu.Counters);
    Result.Profile.merge(Cpu.Profile);
    Result.PerCpu.push_back(Cpu.Counters);
    Result.Events.merge(Cpu.Events);
    Result.PerCpuEvents.push_back(Cpu.Events);
  }
  Result.Events.merge(AdaptiveEvents);
  Result.FinalSchemeKind = Scheme->traits().Kind;
  Result.GuestArch = Config.Arch;
  if (Htm)
    Result.Htm = Htm->stats();
  // Deltas, not absolutes: the underlying totals are monotonic across
  // Machine reuse (reset() does not rewind them), so each job's report
  // covers only its own run.
  Result.ExclusiveSections = Excl.exclusiveCount() - Base.ExclSections;
  Result.RecoveredFaults = FaultGuard::recoveredFaultCount() - Base.Faults;
  Result.TbLockWaits = Cache->lockWaits() - Base.LockWaits;
  // Make the run visible process-wide: tools and long-lived embedders read
  // the aggregated events from CounterRegistry::snapshot().
  Result.Events.flushToRegistry();
  if (Result.TbLockWaits) {
    static std::atomic<uint64_t> *const ShardLockWaits =
        CounterRegistry::instance().counter("engine.shard.lock_waits");
    ShardLockWaits->fetch_add(Result.TbLockWaits, std::memory_order_relaxed);
  }
  return Result;
}

ErrorOr<RunResult> Machine::run(const RunOptions &Opts) {
  if (Prog.image().empty())
    return makeError("no program loaded (run after create or reset "
                     "requires loadProgram/loadAssembly first)");

  // Per-run budget overrides (the serve layer's per-job deadlines and
  // block budgets); the engine reads them at loop entry, so setting them
  // here — before any vCPU starts — is race-free.
  EngineBudgets Budgets;
  Budgets.MaxBlocksPerCpu =
      Opts.MaxBlocksPerCpu.value_or(Config.MaxBlocksPerCpu);
  Budgets.MaxWallNanosPerCpu = static_cast<uint64_t>(
      Opts.MaxSecondsPerCpu.value_or(Config.MaxSecondsPerCpu) * 1e9);
  Exec->setBudgets(Budgets);

  switch (Opts.ExecMode) {
  case RunOptions::Mode::Threaded:
    return runThreaded();
  case RunOptions::Mode::Cooperative:
  case RunOptions::Mode::Scheduled:
    return runSliced(Opts);
  }
  llsc_unreachable("bad RunOptions::Mode");
}

ErrorOr<RunResult> Machine::runThreaded() {
  prepareRun();
  RunBaseline Base = sampleBaseline();

  // vCPU 0 runs on the calling thread, which would otherwise only sit in
  // join(): a 1-vCPU job starts no host thread at all, an N-vCPU job
  // starts N-1.
  const unsigned NumCpus = Config.NumThreads;
  std::vector<std::thread> Threads;
  std::vector<ErrorOr<RunStatus>> Statuses(NumCpus,
                                           ErrorOr<RunStatus>(
                                               RunStatus::Halted));
  // Start gate: guest threads must overlap in time, not run back-to-back
  // as their host threads happen to get spawned (essential on few-core
  // hosts where a whole workload can fit in one scheduling quantum). The
  // caller counts itself in up front.
  std::atomic<unsigned> Ready{1};
  std::atomic<bool> Go{false};
  Threads.reserve(NumCpus - 1);
  for (unsigned Tid = 1; Tid < NumCpus; ++Tid)
    Threads.emplace_back([this, Tid, &Statuses, &Ready, &Go] {
      Ready.fetch_add(1, std::memory_order_acq_rel);
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      Statuses[Tid] = Exec->runCpu(Cpus[Tid]);
    });
  while (Ready.load(std::memory_order_acquire) != NumCpus)
    std::this_thread::yield();

  // The adaptive controller is a plain host thread beside the vCPUs; it
  // swaps schemes via the same quiesce/drain protocol as setScheme, so it
  // must never itself be a vCPU (the floor holder cannot park).
  std::atomic<bool> StopController{false};
  std::thread Controller;
  if (Config.Adaptive)
    Controller = std::thread([this, &StopController] {
      adaptiveLoop(StopController);
    });

  uint64_t WallStart = monotonicNanos();
  Go.store(true, std::memory_order_release);
  Statuses[0] = Exec->runCpu(Cpus[0]);
  for (std::thread &Thread : Threads)
    Thread.join();
  uint64_t WallEnd = monotonicNanos();

  if (Controller.joinable()) {
    StopController.store(true, std::memory_order_release);
    Controller.join();
  }

  bool AllHalted = true;
  for (unsigned Tid = 0; Tid < Config.NumThreads; ++Tid) {
    if (!Statuses[Tid])
      return Statuses[Tid].error();
    if (*Statuses[Tid] != RunStatus::Halted)
      AllHalted = false;
  }

  RunResult Result = collectResult(AllHalted, Base);
  Result.WallSeconds = static_cast<double>(WallEnd - WallStart) * 1e-9;
  return Result;
}

void Machine::adaptiveLoop(const std::atomic<bool> &Stop) {
  AdaptiveController Controller(Scheme->traits().Kind, Config.AdaptiveTuning);
  EventCounters Previous;
  uint64_t PreviousNs = monotonicNanos();
  const auto Interval =
      std::chrono::milliseconds(Config.AdaptiveTuning.SampleIntervalMs);

  while (!Stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(Interval);
    if (Stop.load(std::memory_order_acquire))
      break;

    // Take the floor for the sample; if another exclusive section is
    // queued behind us (a scheme SC), yield to it and retry next tick
    // instead of spin-holding the world (the setScheme drain loop is only
    // justified when a swap is actually happening).
    Excl.startExclusive(/*SelfRunning=*/false);
    if (!Excl.soleExclusive()) {
      Excl.endExclusive(/*SelfRunning=*/false);
      continue;
    }

    // The per-vCPU counters are plain non-atomic fields; reading them is
    // legal only here, under the floor — parked and exited vCPUs alike
    // synchronized with us through the ExclusiveContext mutex.
    EventCounters Current;
    for (const VCpu &Cpu : Cpus)
      Current.merge(Cpu.Events);
    uint64_t NowNs = monotonicNanos();

    AdaptiveSample Delta;
    Delta.WallNs = NowNs - PreviousNs;
    Delta.ScAttempted = Current.ScAttempted - Previous.ScAttempted;
    Delta.ScFailHashConflict =
        Current.ScFailHashConflict - Previous.ScFailHashConflict;
    Delta.FalseSharingFaults =
        Current.FalseSharingFaults - Previous.FalseSharingFaults;
    Delta.ExclWaitNs = Current.ExclWaitNs - Previous.ExclWaitNs;
    Delta.HtmBegins = Current.HtmBegins - Previous.HtmBegins;
    Delta.HtmFallbacks = Current.HtmFallbacks - Previous.HtmFallbacks;
    Previous = Current;
    PreviousNs = NowNs;

    if (auto Want = Controller.onSample(Delta, NowNs)) {
      setSchemeLocked(
          createScheme(*Want, Config.HstTableLog2, Config.HtmMaxRetries));
      Controller.onSwapComplete(*Want, NowNs);
      if (TraceRecorder *Recorder = TraceRecorder::active())
        // Tid 0's trace buffer normally belongs to vCPU 0, but that vCPU
        // is parked under our floor — the write is ordered, not racing.
        Recorder->instant(0, "adaptive.swap", "adaptive", "to_kind",
                          static_cast<uint64_t>(*Want));
    }
    Excl.endExclusive(/*SelfRunning=*/false);
  }

  // Published after the vCPU join + controller join in run(), before
  // collectResult reads it.
  AdaptiveEvents.AdaptiveSamples = Controller.samples();
  AdaptiveEvents.AdaptiveSwaps = Controller.swaps();
  AdaptiveEvents.AdaptiveCooldownBlocked = Controller.cooldownBlocked();
}

ErrorOr<RunResult> Machine::runSliced(const RunOptions &Opts) {
  assert(Opts.BlocksPerSlice > 0 && "slice must be positive");
  // Cooperative mode is Scheduled mode with the canonical round-robin
  // controller and no observer.
  RoundRobinSchedule RoundRobin;
  ScheduleController *Sched = Opts.Sched;
  if (Opts.ExecMode == RunOptions::Mode::Cooperative)
    Sched = &RoundRobin;
  assert(Sched && "Scheduled mode requires RunOptions::Sched");
  SliceObserver *Observer = Opts.Observer;
  uint64_t BlocksPerSlice = Opts.BlocksPerSlice;

  prepareRun();
  RunBaseline Base = sampleBaseline();
  Sched->begin(Config.NumThreads);

  // A vCPU leaves the runnable set when it halts or exhausts its block /
  // time budget (TimedOut); the run ends when the set empties or either
  // the controller or the observer stops it.
  std::vector<bool> TimedOut(Config.NumThreads, false);
  std::vector<unsigned> Runnable;
  uint64_t StepIndex = 0;

  uint64_t WallStart = monotonicNanos();
  while (true) {
    Runnable.clear();
    for (unsigned Tid = 0; Tid < Config.NumThreads; ++Tid)
      if (!Cpus[Tid].Halted && !TimedOut[Tid])
        Runnable.push_back(Tid);
    if (Runnable.empty())
      break;

    int Choice = Sched->pickNext(Runnable);
    if (Choice < 0)
      break;
    assert(static_cast<unsigned>(Choice) < Config.NumThreads &&
           !Cpus[Choice].Halted && !TimedOut[Choice] &&
           "controller picked a non-runnable tid");

    auto StatusOrErr = Exec->stepBlocks(Cpus[Choice], BlocksPerSlice);
    if (!StatusOrErr)
      return StatusOrErr.error();
    if (*StatusOrErr == RunStatus::TimedOut)
      TimedOut[Choice] = true;

    bool Continue =
        !Observer ||
        Observer->onSlice(static_cast<unsigned>(Choice), StepIndex);
    ++StepIndex;
    if (!Continue)
      break;
  }
  uint64_t WallEnd = monotonicNanos();

  bool AllHalted = true;
  for (unsigned Tid = 0; Tid < Config.NumThreads; ++Tid)
    AllHalted = AllHalted && Cpus[Tid].Halted;

  RunResult Result = collectResult(AllHalted, Base);
  Result.WallSeconds = static_cast<double>(WallEnd - WallStart) * 1e-9;
  return Result;
}
