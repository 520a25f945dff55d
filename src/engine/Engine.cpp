//===- engine/Engine.cpp - IR execution engine ---------------------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
//
// Threaded-dispatch interpreter over the pre-decoded micro-op form
// (engine/Decoded.h). Handler bodies are written once with the OP/NEXT
// macros and compiled either as computed-goto labels (GCC/Clang) or as a
// switch in a dispatch loop (LLSC_FORCE_SWITCH_DISPATCH or other
// compilers) — identical semantics, different dispatch cost.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "atomic/AtomicScheme.h"
#include "engine/jit/Jit.h"
#include "htm/Htm.h"
#include "mem/GuestMemory.h"
#include "runtime/Exclusive.h"
#include "support/BitUtils.h"
#include "support/Compiler.h"
#include "support/Logging.h"
#include "support/Trace.h"

#include <atomic>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <sched.h>

using namespace llsc;
using namespace llsc::ir;
using namespace llsc::engine;

namespace {

/// Relaxed-atomic host memory accessors for scheme tables (LoadHost /
/// StoreHost micro-ops emitted by inline instrumentation).
uint64_t hostLoad(uint64_t Addr, unsigned Size) {
  switch (Size) {
  case 1:
    return __atomic_load_n(reinterpret_cast<uint8_t *>(Addr),
                           __ATOMIC_RELAXED);
  case 2:
    return __atomic_load_n(reinterpret_cast<uint16_t *>(Addr),
                           __ATOMIC_RELAXED);
  case 4:
    return __atomic_load_n(reinterpret_cast<uint32_t *>(Addr),
                           __ATOMIC_RELAXED);
  case 8:
    return __atomic_load_n(reinterpret_cast<uint64_t *>(Addr),
                           __ATOMIC_RELAXED);
  default:
    llsc_unreachable("bad host access size");
  }
}

void hostStore(uint64_t Addr, uint64_t Value, unsigned Size) {
  switch (Size) {
  case 1:
    __atomic_store_n(reinterpret_cast<uint8_t *>(Addr),
                     static_cast<uint8_t>(Value), __ATOMIC_RELAXED);
    return;
  case 2:
    __atomic_store_n(reinterpret_cast<uint16_t *>(Addr),
                     static_cast<uint16_t>(Value), __ATOMIC_RELAXED);
    return;
  case 4:
    __atomic_store_n(reinterpret_cast<uint32_t *>(Addr),
                     static_cast<uint32_t>(Value), __ATOMIC_RELAXED);
    return;
  case 8:
    __atomic_store_n(reinterpret_cast<uint64_t *>(Addr), Value,
                     __ATOMIC_RELAXED);
    return;
  default:
    llsc_unreachable("bad host access size");
  }
}

} // namespace

Engine::BlockExit Engine::execBlock(VCpu &Cpu, const CachedBlock &Block,
                                    std::vector<uint64_t> &Temps) {
  const IRBlock &IR = Block.IR;
  if (Temps.size() < static_cast<size_t>(IR.NumValues))
    Temps.resize(IR.NumValues);

  // Operand banks: decode resolved every ValueId into {bank, index}, so
  // the per-op register-vs-temp branch becomes one indexed load. Temps
  // are indexed with the absolute id (the first FirstTempId slots of the
  // vector are unused).
  uint64_t *const Banks[2] = {Cpu.Regs, Temps.data()};

  const bool Profiling = Cpu.ProfilingEnabled;
  GuestMemory &Mem = *Ctx.Mem;
  AtomicScheme &Scheme = *Ctx.Scheme;

  // Fast-path window, revalidated by runLoop() before each block.
  uint8_t *const FastBase = Cpu.FastMemBase;
  const uint64_t FastLimit = Cpu.FastMemLimit;

  const DecodedInst *D = Block.Decoded.data();

// Operand access. A/B reads and the Dst write are single indexed loads
// and stores; every handler uses these only.
#define VAL_A() (Banks[D->ABank][D->A])
#define VAL_B() (Banks[D->BBank][D->B])
#define SET_DST(Value) (Banks[D->DstBank][D->Dst] = (Value))

// Bookkeeping for scheme-injected ops, hoisted behind one flag test per
// dispatch (the flags byte is already in the decoded form's cache line).
#define INSTRUMENT_CHECK()                                                     \
  do {                                                                         \
    if (LLSC_UNLIKELY(D->Flags & DecodedFlagInstrument)) {                     \
      if (Profiling)                                                           \
        Cpu.Profile.InlineInstrumentOps++;                                     \
      if (D->Flags & DecodedFlagCountInline)                                   \
        Cpu.Events.InlineInstrumentOps++;                                      \
    }                                                                          \
  } while (false)

#if LLSC_HAS_COMPUTED_GOTO

  // Handler table indexed by IROp; the opcode byte is the handler index.
  static const void *const JumpTable[] = {
      &&H_MovImm,  &&H_Mov,      &&H_Add,     &&H_Sub,      &&H_Mul,
      &&H_UDiv,    &&H_SDiv,     &&H_URem,    &&H_SRem,     &&H_And,
      &&H_Or,      &&H_Xor,      &&H_Shl,     &&H_Shr,      &&H_Sar,
      &&H_SltS,    &&H_SltU,     &&H_AddImm,  &&H_AndImm,   &&H_OrImm,
      &&H_XorImm,  &&H_ShlImm,   &&H_ShrImm,  &&H_SarImm,   &&H_SltSImm,
      &&H_SltUImm, &&H_LoadG,    &&H_StoreG,  &&H_LoadHost, &&H_StoreHost,
      &&H_LoadLink, &&H_StoreCond, &&H_ClearExcl, &&H_Fence,
      &&H_HelperStore, &&H_HelperLoad, &&H_Helper, &&H_AtomicAddG,
      &&H_AtomicRmwG, &&H_HstStoreTag, &&H_ReadSpecial, &&H_SysCall, &&H_Yield,
      &&H_SetPcImm, &&H_SetPc,   &&H_BrCond,  &&H_Halt,
  };
  static_assert(sizeof(JumpTable) / sizeof(JumpTable[0]) ==
                    static_cast<size_t>(IROp::NumOps),
                "jump table must cover every opcode in enum order");

#define OP(Name) H_##Name:
#define DISPATCH()                                                             \
  do {                                                                         \
    INSTRUMENT_CHECK();                                                        \
    goto *JumpTable[static_cast<unsigned>(D->Op)];                             \
  } while (false)
#define NEXT()                                                                 \
  do {                                                                         \
    ++D;                                                                       \
    DISPATCH();                                                                \
  } while (false)

  DISPATCH();

#else // !LLSC_HAS_COMPUTED_GOTO

#define OP(Name) case IROp::Name:
#define NEXT()                                                                 \
  do {                                                                         \
    ++D;                                                                       \
    goto DispatchTop;                                                          \
  } while (false)

DispatchTop:
  INSTRUMENT_CHECK();
  switch (D->Op) {

#endif // LLSC_HAS_COMPUTED_GOTO

  // --- ALU (constant-folder semantics, one handler per op) ----------------
  OP(MovImm) {
    SET_DST(static_cast<uint64_t>(D->Imm));
    NEXT();
  }
  OP(Mov) {
    SET_DST(VAL_A());
    NEXT();
  }
  OP(Add) {
    SET_DST(VAL_A() + VAL_B());
    NEXT();
  }
  OP(Sub) {
    SET_DST(VAL_A() - VAL_B());
    NEXT();
  }
  OP(Mul) {
    SET_DST(VAL_A() * VAL_B());
    NEXT();
  }
  OP(UDiv) {
    uint64_t B = VAL_B();
    SET_DST(B == 0 ? 0 : VAL_A() / B);
    NEXT();
  }
  OP(SDiv) {
    int64_t A = static_cast<int64_t>(VAL_A());
    int64_t B = static_cast<int64_t>(VAL_B());
    SET_DST(B == 0 || (A == INT64_MIN && B == -1)
                ? 0
                : static_cast<uint64_t>(A / B));
    NEXT();
  }
  OP(URem) {
    uint64_t B = VAL_B();
    SET_DST(B == 0 ? 0 : VAL_A() % B);
    NEXT();
  }
  OP(SRem) {
    int64_t A = static_cast<int64_t>(VAL_A());
    int64_t B = static_cast<int64_t>(VAL_B());
    SET_DST(B == 0 || (A == INT64_MIN && B == -1)
                ? 0
                : static_cast<uint64_t>(A % B));
    NEXT();
  }
  OP(And) {
    SET_DST(VAL_A() & VAL_B());
    NEXT();
  }
  OP(Or) {
    SET_DST(VAL_A() | VAL_B());
    NEXT();
  }
  OP(Xor) {
    SET_DST(VAL_A() ^ VAL_B());
    NEXT();
  }
  OP(Shl) {
    SET_DST(VAL_A() << (VAL_B() & 63));
    NEXT();
  }
  OP(Shr) {
    SET_DST(VAL_A() >> (VAL_B() & 63));
    NEXT();
  }
  OP(Sar) {
    SET_DST(static_cast<uint64_t>(static_cast<int64_t>(VAL_A()) >>
                                  (VAL_B() & 63)));
    NEXT();
  }
  OP(SltS) {
    SET_DST(static_cast<int64_t>(VAL_A()) < static_cast<int64_t>(VAL_B())
                ? 1
                : 0);
    NEXT();
  }
  OP(SltU) {
    SET_DST(VAL_A() < VAL_B() ? 1 : 0);
    NEXT();
  }
  OP(AddImm) {
    SET_DST(VAL_A() + static_cast<uint64_t>(D->Imm));
    NEXT();
  }
  OP(AndImm) {
    SET_DST(VAL_A() & static_cast<uint64_t>(D->Imm));
    NEXT();
  }
  OP(OrImm) {
    SET_DST(VAL_A() | static_cast<uint64_t>(D->Imm));
    NEXT();
  }
  OP(XorImm) {
    SET_DST(VAL_A() ^ static_cast<uint64_t>(D->Imm));
    NEXT();
  }
  OP(ShlImm) {
    SET_DST(VAL_A() << (static_cast<uint64_t>(D->Imm) & 63));
    NEXT();
  }
  OP(ShrImm) {
    SET_DST(VAL_A() >> (static_cast<uint64_t>(D->Imm) & 63));
    NEXT();
  }
  OP(SarImm) {
    SET_DST(static_cast<uint64_t>(static_cast<int64_t>(VAL_A()) >>
                                  (static_cast<uint64_t>(D->Imm) & 63)));
    NEXT();
  }
  OP(SltSImm) {
    SET_DST(static_cast<int64_t>(VAL_A()) < D->Imm ? 1 : 0);
    NEXT();
  }
  OP(SltUImm) {
    SET_DST(VAL_A() < static_cast<uint64_t>(D->Imm) ? 1 : 0);
    NEXT();
  }

  // --- Guest memory -------------------------------------------------------
  OP(LoadG) {
    uint64_t Addr = VAL_A() + static_cast<uint64_t>(D->Imm);
    // Fast path: window valid (no restricted pages), access in bounds,
    // and the op is not scheme-injected — direct relaxed read through
    // the primary mapping, no accessor call.
    if (LLSC_LIKELY(!(D->Flags & DecodedFlagInstrument) &&
                    Addr < FastLimit && D->Size <= FastLimit - Addr)) {
      uint64_t Value = GuestMemory::loadRelaxed(FastBase + Addr, D->Size);
      if (D->Flags & DecodedFlagSignExtend)
        Value = static_cast<uint64_t>(signExtend(Value, D->Size * 8));
      SET_DST(Value);
      Cpu.Counters.Loads++;
      Cpu.Events.FastMemHits++;
      NEXT();
    }
    Cpu.Events.FastMemSlow++;
    if (LLSC_UNLIKELY(Addr >= Mem.size() || Mem.size() - Addr < D->Size)) {
      LLSC_ERROR("tid %u: guest load out of range at pc-block 0x%" PRIx64
                 " addr 0x%" PRIx64,
                 Cpu.Tid, IR.GuestPc, Addr);
      Cpu.Halted = true;
      return {BlockExit::Halted, 0};
    }
    uint64_t Value = Mem.load(Addr, D->Size);
    if (D->Flags & DecodedFlagSignExtend)
      Value = static_cast<uint64_t>(signExtend(Value, D->Size * 8));
    SET_DST(Value);
    Cpu.Counters.Loads++;
    NEXT();
  }
  OP(StoreG) {
    uint64_t Addr = VAL_A() + static_cast<uint64_t>(D->Imm);
    if (LLSC_LIKELY(!(D->Flags & DecodedFlagInstrument) &&
                    Addr < FastLimit && D->Size <= FastLimit - Addr)) {
      GuestMemory::storeRelaxed(FastBase + Addr, VAL_B(), D->Size);
      Cpu.Counters.Stores++;
      Cpu.Events.FastMemHits++;
      NEXT();
    }
    Cpu.Events.FastMemSlow++;
    if (LLSC_UNLIKELY(Addr >= Mem.size() || Mem.size() - Addr < D->Size)) {
      LLSC_ERROR("tid %u: guest store out of range at pc-block 0x%" PRIx64
                 " addr 0x%" PRIx64,
                 Cpu.Tid, IR.GuestPc, Addr);
      Cpu.Halted = true;
      return {BlockExit::Halted, 0};
    }
    Mem.store(Addr, VAL_B(), D->Size);
    Cpu.Counters.Stores++;
    NEXT();
  }

  // --- Host memory (scheme tables) ----------------------------------------
  OP(LoadHost) {
    SET_DST(hostLoad(VAL_A() + static_cast<uint64_t>(D->Imm), D->Size));
    NEXT();
  }
  OP(StoreHost) {
    hostStore(VAL_A() + static_cast<uint64_t>(D->Imm), VAL_B(), D->Size);
    NEXT();
  }

  // --- Atomics --------------------------------------------------------------
  OP(LoadLink) {
    uint64_t LlAddr = VAL_A();
    if (LLSC_UNLIKELY((D->Flags & DecodedFlagCheckAlign) &&
                      (LlAddr & (D->Size - 1)))) {
      LLSC_ERROR("tid %u: misaligned LR at pc-block 0x%" PRIx64
                 " addr 0x%" PRIx64,
                 Cpu.Tid, IR.GuestPc, LlAddr);
      Cpu.Halted = true;
      return {BlockExit::Halted, 0};
    }
    SET_DST(Scheme.emulateLoadLink(Cpu, LlAddr, D->Size));
    Cpu.Counters.LoadLinks++;
    Cpu.Events.LlIssued++;
    if (TraceRecorder *Trace = TraceRecorder::active())
      Trace->instant(Cpu.Tid, "ll", "atomic");
    NEXT();
  }
  OP(StoreCond) {
    uint64_t ScAddr = VAL_A();
    if (LLSC_UNLIKELY((D->Flags & DecodedFlagCheckAlign) &&
                      (ScAddr & (D->Size - 1)))) {
      LLSC_ERROR("tid %u: misaligned SC at pc-block 0x%" PRIx64
                 " addr 0x%" PRIx64,
                 Cpu.Tid, IR.GuestPc, ScAddr);
      Cpu.Halted = true;
      return {BlockExit::Halted, 0};
    }
    bool Ok = Scheme.emulateStoreCond(Cpu, ScAddr, VAL_B(), D->Size);
    SET_DST(Ok ? 0 : 1);
    Cpu.Counters.StoreConds++;
    Cpu.Events.ScAttempted++;
    if (Ok) {
      Cpu.Events.ScSucceeded++;
    } else {
      Cpu.Counters.StoreCondFailures++;
      Cpu.Events.ScFailed++;
    }
    if (TraceRecorder *Trace = TraceRecorder::active())
      Trace->instant(Cpu.Tid, Ok ? "sc" : "sc-fail", "atomic");
    NEXT();
  }
  OP(ClearExcl) {
    Scheme.clearExclusive(Cpu);
    NEXT();
  }
  OP(Fence) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    NEXT();
  }

  // --- Helper-routed memory -------------------------------------------------
  OP(HelperStore) {
    Scheme.storeHook(Cpu, VAL_A() + static_cast<uint64_t>(D->Imm), VAL_B(),
                     D->Size);
    Cpu.Counters.Stores++;
    Cpu.Events.HelperStoreCalls++;
    NEXT();
  }
  OP(HelperLoad) {
    uint64_t Value =
        Scheme.loadHook(Cpu, VAL_A() + static_cast<uint64_t>(D->Imm), D->Size);
    if (D->Flags & DecodedFlagSignExtend)
      Value = static_cast<uint64_t>(signExtend(Value, D->Size * 8));
    SET_DST(Value);
    Cpu.Counters.Loads++;
    Cpu.Events.HelperLoadCalls++;
    NEXT();
  }
  OP(Helper) {
    const HelperFn &Fn = IR.Helpers[static_cast<size_t>(D->Imm)];
    SET_DST(Fn.Fn(Fn.Ctx, &Cpu, VAL_A(), VAL_B()));
    Cpu.Events.SchemeHelperCalls++;
    NEXT();
  }

  OP(HstStoreTag) {
    // Fused HST instrumentation (Figure 5's 4-instruction inline
    // sequence): one dispatch, no scheme call. Guarded in case a
    // custom scheme emits the op without publishing a table. Every
    // 4-byte granule the store touches must be tagged, or a wider or
    // misaligned store could slip past a monitor armed on a granule the
    // first entry does not cover; aligned stores of <= 4 bytes cover one
    // granule and keep the single-store fast path.
    if (LLSC_LIKELY(Ctx.HstTable != nullptr)) {
      uint64_t Addr = VAL_A() + static_cast<uint64_t>(D->Imm);
      uint64_t First = Addr >> 2;
      uint64_t Last = (Addr + D->Size - 1) >> 2;
      Ctx.HstTable[First & Ctx.HstMask].store(Cpu.Tid + 1,
                                              std::memory_order_relaxed);
      while (LLSC_UNLIKELY(First != Last)) {
        ++First;
        Ctx.HstTable[First & Ctx.HstMask].store(Cpu.Tid + 1,
                                                std::memory_order_relaxed);
      }
    }
    NEXT();
  }

  OP(AtomicAddG) {
    uint64_t Addr = VAL_A();
    if (LLSC_UNLIKELY(Addr >= Mem.size() || Mem.size() - Addr < D->Size)) {
      LLSC_ERROR("tid %u: atomic rmw out of range addr 0x%" PRIx64, Cpu.Tid,
                 Addr);
      Cpu.Halted = true;
      return {BlockExit::Halted, 0};
    }
    SET_DST(Mem.fetchAdd(Addr, VAL_B(), D->Size));
    NEXT();
  }

  OP(AtomicRmwG) {
    // Single host-RMW lowering of a guest AMO (Section VI rule-based
    // path and the GRV fetch-add idiom's generalised sibling). Imm is an
    // ir::RmwKind; GuestMemory::atomicRmw matches it numerically. AMOs
    // are architecturally aligned, so misalignment is a translation bug
    // for the naturally-aligned frontends — but guest addresses are
    // data-dependent, so misalignment halts rather than asserts.
    uint64_t Addr = VAL_A();
    if (LLSC_UNLIKELY(Addr >= Mem.size() || Mem.size() - Addr < D->Size ||
                      (Addr & (D->Size - 1)))) {
      LLSC_ERROR("tid %u: atomic rmw out of range or misaligned addr"
                 " 0x%" PRIx64,
                 Cpu.Tid, Addr);
      Cpu.Halted = true;
      return {BlockExit::Halted, 0};
    }
    SET_DST(Mem.atomicRmw(Addr, VAL_B(), D->Size,
                          static_cast<unsigned>(D->Imm)));
    NEXT();
  }

  // --- Specials ---------------------------------------------------------------
  OP(ReadSpecial) {
    switch (static_cast<SpecialValue>(D->Imm)) {
    case SpecialValue::Tid:
      SET_DST(Cpu.Tid);
      break;
    case SpecialValue::NumThreads:
      SET_DST(Ctx.NumThreads);
      break;
    case SpecialValue::ClockNanos:
      SET_DST(monotonicNanos());
      break;
    }
    NEXT();
  }
  OP(SysCall) {
    if (static_cast<guest::SysCall>(D->Imm) == guest::SysCall::PrintReg) {
      std::fprintf(stderr, "[guest tid %u] 0x%016" PRIx64 " (%" PRId64 ")\n",
                   Cpu.Tid, VAL_A(), static_cast<int64_t>(VAL_A()));
      SET_DST(VAL_A());
    } else {
      LLSC_WARN("unknown SYS selector %lld", static_cast<long long>(D->Imm));
      SET_DST(0);
    }
    NEXT();
  }
  OP(Yield) {
    Cpu.Counters.Yields++;
    // Mostly a scheduler yield; occasionally a short random sleep.
    // sched_yield() alone produces near-perfect FIFO rotation on a
    // single-core host, a schedule so structured that cross-thread
    // interleavings (the ABA ingredient) cannot form; the sleep models
    // the timer-interrupt descheduling a loaded multicore shows.
    thread_local uint64_t YieldLcg =
        0x9e3779b97f4a7c15ULL ^ (uint64_t)(uintptr_t)&YieldLcg;
    YieldLcg = YieldLcg * 6364136223846793005ULL + 1442695040888963407ULL;
    if ((YieldLcg >> 60) == 0) {
      timespec Ts{0, static_cast<long>(20000 + ((YieldLcg >> 20) % 100000))};
      nanosleep(&Ts, nullptr);
    } else {
      sched_yield();
    }
    NEXT();
  }

  // --- Terminators --------------------------------------------------------------
  OP(BrCond) {
    if (evalCondCode(D->Cc, VAL_A(), VAL_B()))
      return {BlockExit::TakenBranch, static_cast<uint64_t>(D->Imm)};
    NEXT();
  }
  OP(SetPcImm) {
    return {BlockExit::FallThrough, static_cast<uint64_t>(D->Imm)};
  }
  OP(SetPc) {
    return {BlockExit::Indirect, VAL_A()};
  }
  OP(Halt) {
    Cpu.Halted = true;
    return {BlockExit::Halted, 0};
  }

#if !LLSC_HAS_COMPUTED_GOTO
  case IROp::NumOps:
    break;
  }
#endif
  llsc_unreachable("invalid opcode reached the interpreter");

#undef OP
#undef NEXT
#undef DISPATCH
#undef INSTRUMENT_CHECK
#undef VAL_A
#undef VAL_B
#undef SET_DST
}

ErrorOr<RunStatus> Engine::runLoop(VCpu &Cpu, uint64_t MaxBlocks,
                                   bool Registered) {
  ExclusiveContext &Excl = *Ctx.Excl;
  GuestMemory &Mem = *Ctx.Mem;
  std::vector<uint64_t> Temps;

  // The wall budget is per *run*, not per runLoop entry: sliced modes
  // re-enter here once per slice, so the clock must carry over or a
  // cooperative vCPU could never exceed its budget inside one slice.
  // Profile.WallNs holds exactly the wall time accrued by this vCPU's
  // earlier slices of the current run (reset in prepareRun).
  uint64_t WallStart = monotonicNanos();
  const uint64_t WallBase = Cpu.Profile.WallNs;
  auto Finish = [&](RunStatus Status) {
    Cpu.Profile.WallNs += monotonicNanos() - WallStart;
    return Status;
  };
  if (Config.MaxWallNanosPerCpu && WallBase > Config.MaxWallNanosPerCpu)
    return Finish(RunStatus::TimedOut);

  // First-level block lookup for indirect control flow: the per-vCPU
  // direct-mapped jump cache, dropped wholesale when the TbCache
  // generation moves (flush), filled lock-free from lookups.
  auto LookupJmpCached = [&](uint64_t Pc) -> ErrorOr<CachedBlock *> {
    uint64_t Gen = Cache->generation();
    if (LLSC_UNLIKELY(Gen != Cpu.JmpCache.Generation)) {
      Cpu.JmpCache.clear();
      Cpu.JmpCache.Generation = Gen;
    }
    if (CachedBlock *Hit = Cpu.JmpCache.probe(Pc)) {
      Cpu.Events.JmpCacheHits++;
      return Hit;
    }
    Cpu.Events.JmpCacheMisses++;
    auto BlockOrErr = Cache->lookup(Pc, *Trans);
    if (!BlockOrErr)
      return BlockOrErr.error();
    Cpu.JmpCache.insert(Pc, *BlockOrErr);
    return *BlockOrErr;
  };

  auto BlockOrErr = LookupJmpCached(Cpu.Pc);
  if (!BlockOrErr)
    return BlockOrErr.error();
  CachedBlock *Block = *BlockOrErr;

  // Wall-budget bookkeeping: the clock is read every WallCheckLeft blocks
  // (see below), starting with an immediate read.
  uint64_t WallCheckLeft = 0;

  uint64_t Executed = 0;
  while (true) {
    if (Registered && Excl.safepoint()) {
      Cpu.Events.SafepointParks++;
      // The exclusive section we parked for may have been a scheme
      // hot-swap, which flushes the TB cache: the held Block would then
      // be retired, carrying the *old* scheme's instrumentation (and
      // possibly freed at the next swap). At the loop top Block's pc is
      // Cpu.Pc, so re-resolve before touching it. Costs nothing on the
      // non-parked fast path. A pending chain site belongs to the old
      // generation's code region, which by now may be live again as a
      // recycled one (or a fresh mapping at the same address) holding
      // other code: drop it rather than patch through it.
      if (LLSC_UNLIKELY(Cache->generation() != Cpu.JmpCache.Generation)) {
        Cpu.JitPendingPatch = 0;
        BlockOrErr = LookupJmpCached(Cpu.Pc);
        if (!BlockOrErr)
          return BlockOrErr.error();
        Block = *BlockOrErr;
      }
    }

    // Re-validate the guest-memory fast-path window. One counter load +
    // compare per block; transitions (PST's mprotect/remap) are rare.
    uint64_t MemEpoch = Mem.fastPathEpoch();
    if (LLSC_UNLIKELY(MemEpoch != Cpu.FastMemEpoch)) {
      Cpu.FastMemEpoch = MemEpoch;
      Cpu.FastMemBase = Mem.primaryBase();
      Cpu.FastMemLimit = Mem.fastPathAllowed() ? Mem.size() : 0;
    }

    // --- Tier-1 dispatch ---------------------------------------------------
    // Hand hot blocks to the JIT and let emitted code chain through its
    // successors until an exit condition (docs/JIT.md). Stays tier-0 in
    // cooperative mode (unregistered; the litmus replayer counts blocks
    // one at a time), under profiling (bucket attribution is interpreter
    // state), under HTM schemes (per-block footprint accounting), and
    // while per-block trace logging is on.
    if (TheJit && Registered && !Config.Profile && !Ctx.Htm &&
        LLSC_LIKELY(!logEnabled(LogLevel::Trace))) {
      if (const void *Code = TheJit->codeFor(*Block, Cpu)) {
        // A previous tier-1 exit left an unchained site whose target is
        // this very block; patch it now that the target has code so the
        // next pass through the site never leaves emitted code.
        if (Cpu.JitPendingPatch) {
          TheJit->patchChain(Cpu.JitPendingPatch, Code, Cpu);
          Cpu.JitPendingPatch = 0;
        }

        // Chained-execution budget: emitted prologues decrement it once
        // per block and exit at zero, so the budget/wall checks below
        // still run often enough. Unlimited runs re-enter every ~2^30
        // blocks; wall-budgeted runs every 64 (the interpreter's maximum
        // clock-check stride).
        int64_t Budget = int64_t(1) << 30;
        if (Config.MaxBlocksPerCpu) {
          uint64_t Done = Cpu.Counters.ExecutedBlocks;
          uint64_t Left =
              Config.MaxBlocksPerCpu > Done ? Config.MaxBlocksPerCpu - Done : 1;
          if (static_cast<uint64_t>(Budget) > Left)
            Budget = static_cast<int64_t>(Left);
        }
        if (Config.MaxWallNanosPerCpu && Budget > 64)
          Budget = 64;
        Cpu.JitChainBudget = Budget;

        uint64_t BlocksBefore = Cpu.Counters.ExecutedBlocks;
        Cpu.Events.JitEnters++;
        jit::JitExit JExit = TheJit->enter(Cpu, Code);
        Executed += Cpu.Counters.ExecutedBlocks - BlocksBefore;

        if (JExit.kind() == jit::ExitKind::Halted) {
          Cpu.Pc = 0;
          return Finish(RunStatus::Halted);
        }
        Cpu.Pc = JExit.NextPc;
        if (JExit.kind() == jit::ExitKind::Deopt)
          Cpu.Events.JitDeopts++;

        if (MaxBlocks && Executed >= MaxBlocks)
          return Finish(RunStatus::Running);
        if (Config.MaxBlocksPerCpu &&
            Cpu.Counters.ExecutedBlocks >= Config.MaxBlocksPerCpu)
          return Finish(RunStatus::TimedOut);
        if (Config.MaxWallNanosPerCpu) {
          if (WallBase + (monotonicNanos() - WallStart) >
              Config.MaxWallNanosPerCpu)
            return Finish(RunStatus::TimedOut);
          WallCheckLeft = 0; // Stride state is stale; re-read next block.
        }

        BlockOrErr = LookupJmpCached(Cpu.Pc);
        if (!BlockOrErr)
          return BlockOrErr.error();
        Block = *BlockOrErr;
        // Loop top re-runs the safepoint poll and window revalidation the
        // emitted prologue may have exited for (Safepoint/Deopt kinds).
        continue;
      }
      // The pending site's target stays tier-0 (cold or bailed): the site
      // keeps its fall-through stub and re-reports on every pass.
      Cpu.JitPendingPatch = 0;
    }

    if (LLSC_UNLIKELY(logEnabled(LogLevel::Trace)))
      LLSC_TRACE("tid %u exec block 0x%" PRIx64 " (%u insts)", Cpu.Tid,
                 Block->IR.GuestPc, Block->IR.GuestInstCount);

    BlockExit Exit = execBlock(Cpu, *Block, Temps);
    Cpu.Counters.ExecutedBlocks++;
    Cpu.Counters.ExecutedInsts += Block->IR.GuestInstCount;

    if (Cpu.InLongTx && Ctx.Htm)
      Ctx.Htm->noteFootprint(Cpu.Tid, Block->IR.GuestInstCount);

    if (Exit.ExitKind == BlockExit::Halted) {
      Cpu.Pc = 0;
      return Finish(RunStatus::Halted);
    }
    Cpu.Pc = Exit.NextPc;

    ++Executed;
    if (MaxBlocks && Executed >= MaxBlocks)
      return Finish(RunStatus::Running);
    if (Config.MaxBlocksPerCpu &&
        Cpu.Counters.ExecutedBlocks >= Config.MaxBlocksPerCpu)
      return Finish(RunStatus::TimedOut);

    // Wall-clock budget with an adaptive stride. Under scheme livelock a
    // thread may spend nearly all wall time parked or asleep and execute
    // blocks only rarely, so a fixed sampling stride would detect the
    // timeout arbitrarily late; instead the next check distance is sized
    // from the measured per-block cost so slow (parked) blocks re-check
    // every block while tight loops pay one clock read per 64 blocks,
    // and the deadline can never be overshot by more than ~half the
    // remaining budget.
    if (Config.MaxWallNanosPerCpu) {
      if (WallCheckLeft == 0) {
        uint64_t Elapsed = WallBase + (monotonicNanos() - WallStart);
        if (Elapsed > Config.MaxWallNanosPerCpu)
          return Finish(RunStatus::TimedOut);
        uint64_t Remaining = Config.MaxWallNanosPerCpu - Elapsed;
        uint64_t AvgBlockNs =
            Executed ? (Elapsed / Executed) + 1 : 1;
        uint64_t Stride = Remaining / (2 * AvgBlockNs);
        WallCheckLeft = Stride > 64 ? 64 : Stride;
      } else {
        --WallCheckLeft;
      }
    }

    // Next block: direct chain for the two static successors, jump-cached
    // lookup for indirect branches.
    ErrorOr<CachedBlock *> NextOrErr = [&]() -> ErrorOr<CachedBlock *> {
      switch (Exit.ExitKind) {
      case BlockExit::TakenBranch:
        return Cache->chain(*Block, 0, Exit.NextPc, *Trans);
      case BlockExit::FallThrough:
        return Cache->chain(*Block, 1, Exit.NextPc, *Trans);
      case BlockExit::Indirect:
        return LookupJmpCached(Exit.NextPc);
      case BlockExit::Halted:
        break;
      }
      llsc_unreachable("unexpected exit kind");
    }();
    if (!NextOrErr)
      return NextOrErr.error();
    Block = *NextOrErr;
  }
}

ErrorOr<RunStatus> Engine::runCpu(VCpu &Cpu) {
  Ctx.Excl->execStart();
  Cpu.InRunLoop = true;
  auto Result = runLoop(Cpu, /*MaxBlocks=*/0, /*Registered=*/true);
  // Release scheme state that may span guest instructions (open PICO-HTM
  // transactions / exclusive floors) before deregistering.
  Ctx.Scheme->onCpuStopped(Cpu);
  Cpu.InRunLoop = false;
  Ctx.Excl->execEnd();
  return Result;
}

ErrorOr<RunStatus> Engine::stepBlocks(VCpu &Cpu, uint64_t MaxBlocks) {
  if (Cpu.Halted)
    return RunStatus::Halted;
  return runLoop(Cpu, MaxBlocks, /*Registered=*/false);
}
