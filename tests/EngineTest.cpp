//===- tests/EngineTest.cpp - engine/TB-cache behavioral tests -------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Machine.h"
#include "engine/TbCache.h"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <thread>

using namespace llsc;

namespace {

std::unique_ptr<Machine> makeMachine(unsigned Threads = 1,
                                     uint64_t MaxBlocks = 0) {
  MachineConfig Config;
  Config.Scheme = SchemeKind::PicoCas;
  Config.NumThreads = Threads;
  Config.MemBytes = 8ULL << 20;
  Config.MaxBlocksPerCpu = MaxBlocks;
  auto MachineOrErr = Machine::create(Config);
  EXPECT_TRUE(bool(MachineOrErr)) << MachineOrErr.error().render();
  return MachineOrErr.take();
}

} // namespace

TEST(TbCache, TranslatesOncePerPc) {
  auto M = makeMachine();
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: li  r2, #100
loop:   cbz r2, done
        addi r2, r2, #-1
        b   loop
done:   halt
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  // The loop body executes 100 times but translates once; the program has
  // a handful of distinct blocks.
  EXPECT_LE(M->cache().size(), 6u);
  EXPECT_GE(M->cache().misses(), 2u);
  EXPECT_GT(M->cache().lookups(), 0u);
}

TEST(TbCache, ChainingAvoidsLookups) {
  auto M = makeMachine();
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: li  r2, #10000
loop:   cbz r2, done
        addi r2, r2, #-1
        b   loop
done:   halt
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  // With direct chaining, cache lookups stay near the block count rather
  // than the dynamic block execution count (~20k here).
  EXPECT_LT(M->cache().lookups(), 100u)
      << "chaining should bypass the hash lookup on hot edges";
}

TEST(TbCache, FlushRetranslates) {
  auto M = makeMachine();
  ASSERT_TRUE(bool(M->loadAssembly("_start: halt\n")));
  ASSERT_TRUE(bool(M->run({})));
  size_t MissesBefore = M->cache().misses();
  M->cache().flush();
  EXPECT_EQ(M->cache().size(), 0u);
  ASSERT_TRUE(bool(M->run({})));
  EXPECT_GT(M->cache().misses(), MissesBefore);
}

TEST(Engine, IndirectBranchesViaBlAndRet) {
  auto M = makeMachine();
  ASSERT_TRUE(bool(M->loadAssembly(R"(
; call the same function through two call sites (indirect returns)
_start: bl   inc
        bl   inc
        la   r2, out
        std  r1, [r2]
        halt
inc:    addi r1, r1, #1
        ret
out:    .quad 0
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("out"), 8), 2u);
}

TEST(Engine, BlockBudgetStopsRunawayGuest) {
  auto M = makeMachine(1, /*MaxBlocks=*/1000);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: b _start      ; infinite loop
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_FALSE(Result->AllHalted);
  EXPECT_LE(Result->Total.ExecutedBlocks, 1001u);
}

TEST(Engine, OutOfRangeAccessHaltsWithError) {
  auto M = makeMachine();
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: li  r1, #0x40000000     ; far beyond the 8 MiB guest memory
        ldd r2, [r1]
        halt
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  // The cpu halts (with a logged error) instead of crashing the host.
  EXPECT_TRUE(Result->AllHalted);
}

TEST(Engine, FenceAndYieldExecute) {
  auto M = makeMachine();
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: dmb
        yield
        dmb
        halt
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_EQ(Result->Total.Yields, 1u);
}

TEST(Engine, CooperativeDeterminism) {
  // The same cooperative schedule must give bit-identical executions.
  auto RunOnce = [](uint64_t Slice) {
    auto M = makeMachine(3);
    auto Loaded = M->loadAssembly(R"(
_start: tid     r1
        la      r2, data
        li      r4, #50
loop:   cbz     r4, done
        ldw     r3, [r2]
        add     r3, r3, r1
        addi    r3, r3, #1
        stw     r3, [r2]
        addi    r4, r4, #-1
        b       loop
done:   halt
        .align 64
data:   .word 0
)");
    EXPECT_TRUE(bool(Loaded));
    RunOptions Opts;
    Opts.ExecMode = RunOptions::Mode::Cooperative;
    Opts.BlocksPerSlice = Slice;
    auto Result = M->run(Opts);
    EXPECT_TRUE(bool(Result));
    return M->mem().shadowLoad(M->program().requiredSymbol("data"), 4);
  };
  EXPECT_EQ(RunOnce(2), RunOnce(2));
  EXPECT_EQ(RunOnce(5), RunOnce(5));
}

TEST(Engine, RuleBasedTranslationEndToEnd) {
  // The atomic_add idiom must produce identical architectural results
  // with and without the Section VI rule-based pass, and the pass must
  // actually fire.
  for (bool RuleBased : {false, true}) {
    MachineConfig Config;
    Config.Scheme = SchemeKind::Hst;
    Config.NumThreads = 4;
    Config.MemBytes = 8ULL << 20;
    Config.Translation.RuleBasedAtomics = RuleBased;
    auto M = Machine::create(Config).take();
    ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: la      r1, counter
        movz    r2, #1
        li      r9, #1000
loop:   cbz     r9, done
retry:  ldxr.w  r3, [r1]
        add     r5, r3, r2
        stxr.w  r6, r5, [r1]
        cbnz    r6, retry
        addi    r9, r9, #-1
        b       loop
done:   halt
        .align 4096
counter: .word 0
)")));
    auto Result = M->run({});
    ASSERT_TRUE(bool(Result)) << Result.error().render();
    EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("counter"), 4),
              4000u)
        << "rule-based=" << RuleBased;
    if (RuleBased) {
      EXPECT_GT(M->translator().stats().AtomicIdiomsMatched, 0u);
      EXPECT_EQ(Result->Total.LoadLinks, 0u)
          << "the idiom should lower to a host RMW, not LL/SC";
    } else {
      EXPECT_GT(Result->Total.LoadLinks, 0u);
    }
  }
}

TEST(Engine, ProfilingCountsInstrumentOps) {
  MachineConfig Config;
  Config.Scheme = SchemeKind::Hst;
  Config.NumThreads = 1;
  Config.MemBytes = 8ULL << 20;
  Config.Profile = true;
  auto M = Machine::create(Config).take();
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: la  r1, data
        li  r4, #100
loop:   cbz r4, done
        std r4, [r1]
        addi r4, r4, #-1
        b   loop
done:   halt
        .align 64
data:   .quad 0
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  // 100 instrumented stores, one fused instrumentation op each.
  EXPECT_GE(Result->Profile.InlineInstrumentOps, 100u);
  EXPECT_GT(Result->Profile.WallNs, 0u);
}

TEST(Engine, CustomSchemeIntegration) {
  // setScheme rewires translation and execution.
  struct CountingScheme final : AtomicScheme {
    uint64_t Lls = 0, Scs = 0, Stores = 0;
    const SchemeTraits &traits() const override {
      return schemeTraits(SchemeKind::PicoCas);
    }
    bool storesViaHelper() const override { return true; }
    uint64_t emulateLoadLink(VCpu &Cpu, uint64_t Addr,
                             unsigned Size) override {
      ++Lls;
      uint64_t Value = Ctx->Mem->shadowLoad(Addr, Size);
      Cpu.Monitor.arm(Addr, Value, Size);
      return Value;
    }
    bool emulateStoreCond(VCpu &Cpu, uint64_t Addr, uint64_t Value,
                          unsigned Size) override {
      ++Scs;
      Ctx->Mem->shadowStore(Addr, Value, Size);
      Cpu.Monitor.clear();
      return true;
    }
    void storeHook(VCpu &Cpu, uint64_t Addr, uint64_t Value,
                   unsigned Size) override {
      ++Stores;
      Ctx->Mem->shadowStore(Addr, Value, Size);
    }
  };

  auto M = makeMachine();
  auto Owned = std::make_unique<CountingScheme>();
  CountingScheme &Counting = *Owned;
  M->setScheme(std::move(Owned));
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: la      r1, data
        ldxr.w  r2, [r1]
        stxr.w  r3, r2, [r1]
        stw     r2, [r1, #4]
        halt
        .align 64
data:   .quad 0
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_EQ(Counting.Lls, 1u);
  EXPECT_EQ(Counting.Scs, 1u);
  EXPECT_EQ(Counting.Stores, 1u);
}

namespace {

// Contended LL/SC counter: NumThreads x Iters increments of one word.
// Exercises the guest-memory fast path (plain loads/stores around the
// atomic sequence) while the page-protection schemes restrict and
// restore pages underneath it.
constexpr const char *ContendedCounterSource = R"(
_start: la      r1, counter
        la      r8, scratch
        li      r9, #200
loop:   cbz     r9, done
retry:  ldxr.w  r3, [r1]
        addi    r5, r3, #1
        stxr.w  r6, r5, [r1]
        cbnz    r6, retry
        ldd     r7, [r8]        ; plain load on the fastmem path
        addi    r7, r7, #1
        std     r7, [r8, #8]    ; plain store on the fastmem path
        addi    r9, r9, #-1
        b       loop
done:   halt
        .align 4096
counter: .word 0
        .align 64
scratch: .quad 0
        .quad 0
)";

} // namespace

TEST(Engine, PstFaultsCorrectlyWithFastMem) {
  // PST restricts pages with mprotect during exclusive sections. The raw
  // fastmem path must never let a plain access slip past the protection:
  // the final count proves no increment was lost to a missed fault.
  MachineConfig Config;
  Config.Scheme = SchemeKind::Pst;
  Config.NumThreads = 4;
  Config.MemBytes = 8ULL << 20;
  auto M = Machine::create(Config).take();
  ASSERT_TRUE(bool(M->loadAssembly(ContendedCounterSource)));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_TRUE(Result->AllHalted);
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("counter"), 4),
            800u)
      << "a lost increment means a plain store bypassed the PST fault";
  EXPECT_GT(Result->Events.MprotectCalls, 0u)
      << "the scheme must actually have protected pages during the run";
}

TEST(Engine, PstRemapFaultsCorrectlyWithFastMem) {
  MachineConfig Config;
  Config.Scheme = SchemeKind::PstRemap;
  Config.NumThreads = 4;
  Config.MemBytes = 8ULL << 20;
  auto M = Machine::create(Config).take();
  ASSERT_TRUE(bool(M->loadAssembly(ContendedCounterSource)));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_TRUE(Result->AllHalted);
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("counter"), 4),
            800u)
      << "a lost increment means a plain access bypassed the remap fault";
  EXPECT_GT(Result->Events.RemapCalls, 0u);
}

TEST(Engine, PstFaultRecoveryOnAPlainCallerThread) {
  // vCPU 0 runs on the thread that calls run(); PST's fault recovery
  // (a per-thread jump buffer the SIGSEGV handler longjmps through) must
  // work there like on an engine-spawned thread. Store-between: the LL
  // protects the page, the plain store inside the window faults.
  MachineConfig Config;
  Config.Scheme = SchemeKind::Pst;
  Config.NumThreads = 1;
  Config.MemBytes = 8ULL << 20;
  auto M = Machine::create(Config).take();
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: la      r1, counter
        la      r6, noise
        li      r4, #50
loop:   cbz     r4, done
retry:  ldxr.d  r2, [r1]
        addi    r2, r2, #1
        std     r2, [r6]
        stxr.d  r3, r2, [r1]
        cbnz    r3, retry
        addi    r4, r4, #-1
        b       loop
done:   halt
        .align 4096
counter: .quad 0
noise:   .quad 0
)")));
  ErrorOr<RunResult> Result = makeError("not run");
  std::thread Caller([&] { Result = M->run({}); });
  Caller.join();
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_TRUE(Result->AllHalted);
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("counter"), 8),
            50u);
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("noise"), 8),
            50u);
  EXPECT_EQ(Result->Events.ScSucceeded, 50u);
  EXPECT_GT(Result->RecoveredFaults, 0u)
      << "the in-window store must have faulted and been recovered";
}

TEST(Engine, FastMemDisabledWhilePagesRestricted) {
  // Force a page restriction around a run: the per-vCPU fast-path window
  // must close (all accesses take the slow checked path) and reopen once
  // the restriction clears.
  auto M = makeMachine();
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: la  r1, data
        li  r4, #100
loop:   cbz r4, done
        ldd r2, [r1]
        addi r2, r2, #1
        std r2, [r1]
        addi r4, r4, #-1
        b   loop
done:   halt
        .align 64
data:   .quad 0
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_GT(Result->Events.FastMemHits, 0u);
  EXPECT_EQ(Result->Events.FastMemSlow, 0u);

  // Restrict an unrelated page: the window collapses machine-wide.
  ASSERT_TRUE(M->mem().protectPage(1000, PROT_READ));
  EXPECT_FALSE(M->mem().fastPathAllowed());
  auto Restricted = M->run({});
  ASSERT_TRUE(bool(Restricted)) << Restricted.error().render();
  EXPECT_EQ(Restricted->Events.FastMemHits, 0u)
      << "no raw access may happen while any page is restricted";
  EXPECT_GT(Restricted->Events.FastMemSlow, 0u);

  ASSERT_TRUE(M->mem().protectPage(1000, PROT_READ | PROT_WRITE));
  auto Reopened = M->run({});
  ASSERT_TRUE(bool(Reopened)) << Reopened.error().render();
  EXPECT_GT(Reopened->Events.FastMemHits, 0u);
}

TEST(Engine, JumpCacheCountersOnIndirectWorkload) {
  auto M = makeMachine();
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: li   r2, #1000
loop:   cbz  r2, done
        bl   callee
        addi r2, r2, #-1
        b    loop
done:   halt
callee: addi r3, r3, #1
        ret
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_EQ(M->cpu(0).Regs[3], 1000u);
  // Every `ret` is an indirect branch; after the cold misses the jump
  // cache must serve nearly all of them.
  uint64_t Hits = Result->Events.JmpCacheHits;
  uint64_t Misses = Result->Events.JmpCacheMisses;
  EXPECT_GT(Hits + Misses, 900u);
  EXPECT_GE(Hits * 100, (Hits + Misses) * 95)
      << "jump-cache hit rate below 95% on a two-target indirect loop";
}

TEST(Engine, WallBudgetStopsRunawayGuest) {
  MachineConfig Config;
  Config.Scheme = SchemeKind::PicoCas;
  Config.NumThreads = 1;
  Config.MemBytes = 8ULL << 20;
  Config.MaxSecondsPerCpu = 0.05;
  auto M = Machine::create(Config).take();
  ASSERT_TRUE(bool(M->loadAssembly("_start: b _start\n")));
  uint64_t Start = monotonicNanos();
  auto Result = M->run({});
  uint64_t ElapsedNs = monotonicNanos() - Start;
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_FALSE(Result->AllHalted);
  EXPECT_LT(ElapsedNs, 2'000'000'000ull) << "wall budget must bound the run";
}
