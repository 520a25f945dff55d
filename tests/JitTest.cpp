//===- tests/JitTest.cpp - tier-0 vs tier-1 differential suite -------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The tier-1 JIT (engine/jit/, docs/JIT.md) is only allowed to be faster,
/// never different: every test here runs the same guest program on two
/// Machines — one with the JIT disabled (pure tier-0 interpreter) and one
/// with JitHotThreshold = 0 (every block compiles on first dispatch) — and
/// requires byte-identical final guest state plus identical event counters
/// modulo the tier bookkeeping itself (engine.jit.*, engine.jmpcache.*,
/// and the timing-dependent excl.wait_ns / excl.safepoint_parks).
///
/// Also covered: the PST fastmem fault→deopt path, deopt/re-tier across a
/// runtime scheme hot-swap (setScheme mid-run flushes the code cache), a
/// stale chain patch carried across two swaps into a recycled region, the
/// block-budget contract under chained execution, the W^X policy of the
/// dual-mapped code cache (/proc/self/maps must never show rwx), and code
/// region recycling across cold reloads.
///
//===----------------------------------------------------------------------===//

#include "core/Machine.h"
#include "engine/jit/Jit.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace llsc;

namespace {

/// Counters that legitimately differ between tiers (or across any two
/// runs): the jit.* tier counters themselves, the jump cache the JIT's
/// chained code never consults, timing-dependent waits, and the adaptive
/// controller's sampling.
bool tierDependent(const std::string &Name) {
  return Name.rfind("engine.jit.", 0) == 0 ||
         Name.rfind("engine.jmpcache.", 0) == 0 ||
         Name.rfind("adaptive.", 0) == 0 || Name == "excl.wait_ns" ||
         Name == "excl.safepoint_parks";
}

std::map<std::string, uint64_t> counterMap(const EventCounters &Events) {
  std::map<std::string, uint64_t> Map;
  Events.forEach([&](const char *Name, uint64_t Value) {
    if (!tierDependent(Name))
      Map[Name] = Value;
  });
  return Map;
}

std::unique_ptr<Machine> makeMachine(SchemeKind Kind, bool Jit,
                                     unsigned Threads = 1) {
  MachineConfig Config;
  Config.Scheme = Kind;
  Config.NumThreads = Threads;
  Config.MemBytes = 8ULL << 20;
  Config.ForceSoftHtm = true;
  Config.Jit = Jit;
  Config.JitHotThreshold = 0; // Compile on first dispatch when enabled.
  auto MachineOrErr = Machine::create(Config);
  EXPECT_TRUE(bool(MachineOrErr)) << MachineOrErr.error().render();
  return MachineOrErr.take();
}

/// Whether this build/host actually runs tier-1 (x86-64 Linux, non-TSAN,
/// LLSC_NO_JIT unset). Differential tests still pass where it is off —
/// they just degenerate to tier-0 vs tier-0 — but tier-1-specific
/// assertions must be skipped.
bool jitAvailable() {
  auto M = makeMachine(SchemeKind::PicoCas, /*Jit=*/true);
  return M && M->jitBackend() != nullptr;
}

/// A random program in the llsc-fuzz style: a counted loop whose body
/// mixes ALU work, 1/2/4/8-byte memory traffic into a scratch page, and
/// LL/SC pairs — several blocks per program, so compilation, chaining and
/// the block epilogue all get exercised. Deterministic per seed and
/// single-threaded, so *all* counters must match across tiers.
std::string randomProgram(Rng &R) {
  std::string Asm = "_start:\n        la r10, scratch\n        li r11, #6\n"
                    "loop:\n";
  unsigned Ops = 20 + static_cast<unsigned>(R.nextBelow(30));
  for (unsigned N = 0; N < Ops; ++N) {
    switch (R.nextBelow(7)) {
    case 0:
      Asm += formatString("        addi r%u, r%u, #%lld\n",
                          1 + (unsigned)R.nextBelow(8),
                          1 + (unsigned)R.nextBelow(8),
                          (long long)R.nextInRange(0, 200) - 100);
      break;
    case 1:
      Asm += formatString("        mul r%u, r%u, r%u\n",
                          1 + (unsigned)R.nextBelow(8),
                          1 + (unsigned)R.nextBelow(8),
                          1 + (unsigned)R.nextBelow(8));
      break;
    case 2:
      Asm += formatString("        std r%u, [r10, #%u]\n",
                          1 + (unsigned)R.nextBelow(8),
                          8 * (unsigned)R.nextBelow(16));
      break;
    case 3:
      Asm += formatString("        ldd r%u, [r10, #%u]\n",
                          1 + (unsigned)R.nextBelow(8),
                          8 * (unsigned)R.nextBelow(16));
      break;
    case 4:
      Asm += formatString("        eori r%u, r%u, #%llu\n",
                          1 + (unsigned)R.nextBelow(8),
                          1 + (unsigned)R.nextBelow(8),
                          (unsigned long long)R.nextBelow(8191));
      break;
    case 5:
      Asm += formatString("        stb r%u, [r10, #%u]\n",
                          1 + (unsigned)R.nextBelow(8),
                          (unsigned)R.nextBelow(128));
      break;
    default: {
      unsigned Val = 1 + (unsigned)R.nextBelow(8);
      const char *Suffix = R.nextBool(0.5) ? "d" : "w";
      Asm += formatString("        ldxr.%s  r%u, [r10]\n"
                          "        addi    r%u, r%u, #1\n"
                          "        stxr.%s  r9, r%u, [r10]\n",
                          Suffix, Val, Val, Val, Suffix, Val);
      break;
    }
    }
  }
  Asm += "        addi r11, r11, #-1\n        cbnz r11, loop\n"
         "        halt\n        .align 4096\nscratch: .space 256\n";
  return Asm;
}

struct RunSnapshot {
  std::array<uint64_t, guest::NumGuestRegs> Regs;
  std::vector<uint8_t> Scratch;
  std::map<std::string, uint64_t> Counters;
  uint64_t ExecutedBlocks;
  uint64_t ExecutedInsts;
  EventCounters Events;
};

RunSnapshot runOnce(Machine &M, const std::string &Asm) {
  RunSnapshot Snap{};
  EXPECT_TRUE(bool(M.loadAssembly(Asm)));
  auto Result = M.run({});
  EXPECT_TRUE(bool(Result)) << Result.error().render();
  if (!Result)
    return Snap;
  EXPECT_TRUE(Result->AllHalted);
  std::copy_n(std::begin(M.cpu(0).Regs), guest::NumGuestRegs,
              Snap.Regs.begin());
  uint64_t Scratch = M.program().requiredSymbol("scratch");
  Snap.Scratch.resize(256);
  for (unsigned B = 0; B < 256; ++B)
    Snap.Scratch[B] = static_cast<uint8_t>(M.mem().shadowLoad(Scratch + B, 1));
  Snap.Counters = counterMap(Result->Events);
  Snap.ExecutedBlocks = Result->Total.ExecutedBlocks;
  Snap.ExecutedInsts = Result->Total.ExecutedInsts;
  Snap.Events = Result->Events;
  return Snap;
}

} // namespace

// --- Smoke: the JIT actually runs, chains, and agrees -----------------------

TEST(JitSmoke, CompilesChainsAndCounts) {
  if (!jitAvailable())
    GTEST_SKIP() << "tier-1 JIT not available on this build/host";

  auto M = makeMachine(SchemeKind::Hst, /*Jit=*/true);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: la      r1, counter
        li      r4, #1000
loop:   cbz     r4, done
retry:  ldxr.d  r2, [r1]
        addi    r2, r2, #1
        stxr.d  r3, r2, [r1]
        cbnz    r3, retry
        addi    r4, r4, #-1
        b       loop
done:   halt
        .align 4096
counter: .quad 0
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_TRUE(Result->AllHalted);
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("counter"), 8),
            1000u);
  EXPECT_GT(Result->Events.JitBlocksCompiled, 0u);
  EXPECT_GT(Result->Events.JitEnters, 0u);
  // The loop back-edges are static exits: they must have been patched
  // into direct jumps, so re-entering the trampoline stays rare.
  EXPECT_GT(Result->Events.JitChainPatches, 0u);
  EXPECT_LT(Result->Events.JitEnters, Result->Total.ExecutedBlocks / 4);
  EXPECT_EQ(Result->Events.JitCompileBails, 0u);
  EXPECT_GT(M->jitBackend()->codeBytesUsed(), 0u);
}

// --- Differential: tier-0 vs tier-1, per scheme kind ------------------------

class JitDifferentialTest : public ::testing::TestWithParam<SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(Schemes, JitDifferentialTest,
                         ::testing::ValuesIn(allSchemeKinds()),
                         [](const ::testing::TestParamInfo<SchemeKind> &Info) {
                           std::string Name = schemeTraits(Info.param).Name;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

TEST_P(JitDifferentialTest, RandomProgramsMatchInterpreterExactly) {
  SchemeKind Kind = GetParam();
  Rng R(0x71e4 + static_cast<uint64_t>(Kind));
  for (int Trial = 0; Trial < 8; ++Trial) {
    std::string Asm = randomProgram(R);

    auto Tier0 = makeMachine(Kind, /*Jit=*/false);
    RunSnapshot S0 = runOnce(*Tier0, Asm);
    auto Tier1 = makeMachine(Kind, /*Jit=*/true);
    RunSnapshot S1 = runOnce(*Tier1, Asm);

    EXPECT_EQ(S0.Regs, S1.Regs)
        << schemeTraits(Kind).Name << " trial " << Trial;
    EXPECT_EQ(S0.Scratch, S1.Scratch)
        << schemeTraits(Kind).Name << " trial " << Trial;
    EXPECT_EQ(S0.ExecutedBlocks, S1.ExecutedBlocks)
        << schemeTraits(Kind).Name << " trial " << Trial;
    EXPECT_EQ(S0.ExecutedInsts, S1.ExecutedInsts)
        << schemeTraits(Kind).Name << " trial " << Trial;
    EXPECT_EQ(S0.Counters, S1.Counters)
        << schemeTraits(Kind).Name << " trial " << Trial
        << ": tier-1 diverges from the interpreter's bookkeeping";

    // HTM machines deliberately stay tier-0 (the gate in Engine::runLoop);
    // every other scheme must actually have run emitted code here.
    if (Tier1->jitBackend() && !Tier1->htm()) {
      EXPECT_GT(S1.Events.JitEnters, 0u) << schemeTraits(Kind).Name;
      EXPECT_GT(S1.Events.JitBlocksCompiled, 0u) << schemeTraits(Kind).Name;
    }
  }
}

TEST_P(JitDifferentialTest, ContendedCounterExactUnderThreads) {
  SchemeKind Kind = GetParam();
  constexpr unsigned Threads = 4;
  constexpr uint64_t Iters = 300;
  const std::string Asm = R"(
_start: la      r1, counter
        li      r4, #300
loop:   cbz     r4, done
retry:  ldxr.d  r2, [r1]
        addi    r2, r2, #1
        stxr.d  r3, r2, [r1]
        cbnz    r3, retry
        addi    r4, r4, #-1
        b       loop
done:   halt
        .align 4096
counter: .quad 0
)";
  for (bool Jit : {false, true}) {
    auto M = makeMachine(Kind, Jit, Threads);
    ASSERT_TRUE(bool(M->loadAssembly(Asm)));
    auto Result = M->run({});
    ASSERT_TRUE(bool(Result))
        << schemeTraits(Kind).Name << ": " << Result.error().render();
    EXPECT_TRUE(Result->AllHalted) << schemeTraits(Kind).Name;
    EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("counter"), 8),
              Threads * Iters)
        << schemeTraits(Kind).Name << (Jit ? " tier-1" : " tier-0");
    // Bookkeeping invariant that survives nondeterministic interleaving:
    // every loop iteration retires exactly one successful SC.
    EXPECT_EQ(Result->Events.ScSucceeded, Threads * Iters)
        << schemeTraits(Kind).Name << (Jit ? " tier-1" : " tier-0");
    if (Jit && M->jitBackend() && !M->htm()) {
      EXPECT_GT(Result->Events.JitEnters, 0u) << schemeTraits(Kind).Name;
    }
  }
}

// --- PST: fault-driven deopt -------------------------------------------------

TEST(JitDeopt, PstFaultsDeoptToInterpreter) {
  if (!jitAvailable())
    GTEST_SKIP() << "tier-1 JIT not available on this build/host";

  // Deterministic single-threaded store-between: the LL protects the
  // page, so the plain store inside the window faults (storeHook ->
  // FaultGuard recovery, own monitor survives) and the protect/unprotect
  // mprotect pair bumps the fastmem epoch every iteration. The retry
  // block contains a non-instrumented plain load, so its jitted form
  // carries the epoch entry check and must deopt — never read through a
  // stale fastmem window.
  auto M = makeMachine(SchemeKind::Pst, /*Jit=*/true);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: la      r1, counter
        la      r6, noise
        li      r4, #100
loop:   cbz     r4, done
retry:  ldxr.d  r2, [r1]
        addi    r2, r2, #1
        std     r2, [r6]
        ldd     r5, [r6]
        stxr.d  r3, r2, [r1]
        cbnz    r3, retry
        addi    r4, r4, #-1
        b       loop
done:   halt
        .align 4096
counter: .quad 0
noise:   .quad 0
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_TRUE(Result->AllHalted);
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("counter"), 8),
            100u);
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("noise"), 8),
            100u);
  EXPECT_EQ(Result->Events.ScSucceeded, 100u);
  EXPECT_GT(Result->RecoveredFaults, 0u);
  EXPECT_GT(Result->Events.JitDeopts, 0u);
}

// --- Hot-swap: setScheme mid-run flushes and re-tiers ------------------------

TEST(JitHotSwap, SetSchemeMidRunStaysCorrectAndRetiers) {
  if (!jitAvailable())
    GTEST_SKIP() << "tier-1 JIT not available on this build/host";

  // The guest increments a counter until the host raises a flag; the host
  // hot-swaps HST -> PST while jitted code is running. Correctness
  // invariant that survives the swap: final counter == total successful
  // SCs, i.e. no SC was lost or double-applied across the flush.
  auto M = makeMachine(SchemeKind::Hst, /*Jit=*/true, /*Threads=*/2);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: la      r1, counter
        la      r5, flag
loop:   ldxr.d  r2, [r1]
        addi    r2, r2, #1
        stxr.d  r3, r2, [r1]
        cbnz    r3, loop
        ldd     r4, [r5]
        cbz     r4, loop
        halt
        .align 4096
counter: .quad 0
flag:    .quad 0
)")));

  ErrorOr<RunResult> Result = makeError("not run");
  std::thread Runner([&] { Result = M->run({}); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  M->setScheme(createScheme(SchemeKind::Pst));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  M->mem().shadowStore(M->program().requiredSymbol("flag"), 1, 8);
  Runner.join();

  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_TRUE(Result->AllHalted);
  EXPECT_EQ(Result->FinalSchemeKind, SchemeKind::Pst);
  uint64_t Counter =
      M->mem().shadowLoad(M->program().requiredSymbol("counter"), 8);
  EXPECT_EQ(Counter, Result->Events.ScSucceeded);
  EXPECT_GT(Counter, 0u);
  EXPECT_GT(Result->Events.JitEnters, 0u);
  EXPECT_GT(Result->Events.JitBlocksCompiled, 0u);
}

namespace {

/// Minimal value-semantics LL/SC scheme for tests that need hooks.
struct PlainScheme : AtomicScheme {
  const SchemeTraits &traits() const override {
    return schemeTraits(SchemeKind::PicoCas);
  }
  uint64_t emulateLoadLink(VCpu &Cpu, uint64_t Addr, unsigned Size) override {
    uint64_t Value = Ctx->Mem->shadowLoad(Addr, Size);
    Cpu.Monitor.arm(Addr, Value, Size);
    return Value;
  }
  bool emulateStoreCond(VCpu &Cpu, uint64_t Addr, uint64_t Value,
                        unsigned Size) override {
    Ctx->Mem->shadowStore(Addr, Value, Size);
    Cpu.Monitor.clear();
    return true;
  }
};

/// Drives two back-to-back scheme swaps that a vCPU sleeps through. The
/// guest's first LL starts swap 1 and returns once it holds the floor;
/// the vCPU then parks at its next safepoint. Swap 1's new scheme, while
/// attaching under the floor, queues swap 2 — so the exclusive-request
/// count never drops to zero and the vCPU wakes only after both.
struct DoubleSwap {
  explicit DoubleSwap(Machine *M) : M(M) {}
  DoubleSwap(const DoubleSwap &) = delete;
  DoubleSwap &operator=(const DoubleSwap &) = delete;
  ~DoubleSwap() { join(); }

  Machine *M;
  std::thread First, Second;

  struct Trigger final : PlainScheme {
    DoubleSwap *Swapper;
    bool Fired = false;
    explicit Trigger(DoubleSwap *D) : Swapper(D) {}
    uint64_t emulateLoadLink(VCpu &Cpu, uint64_t Addr,
                             unsigned Size) override {
      if (!Fired) {
        Fired = true;
        Swapper->First = std::thread([D = Swapper] {
          D->M->setScheme(std::make_unique<QueueSecond>(D));
        });
        while (!Swapper->M->exclusive().debugState().ExclActive)
          std::this_thread::yield();
      }
      return PlainScheme::emulateLoadLink(Cpu, Addr, Size);
    }
  };

  struct QueueSecond final : PlainScheme {
    DoubleSwap *Swapper;
    explicit QueueSecond(DoubleSwap *D) : Swapper(D) {}
    void onAttach() override {
      Swapper->Second = std::thread([D = Swapper] {
        D->M->setScheme(std::make_unique<PlainScheme>());
      });
      while (Swapper->M->exclusive().debugState().ExclRequests < 2)
        std::this_thread::yield();
    }
  };

  /// First before Second: First's thread is the one that starts Second.
  void join() {
    if (First.joinable())
      First.join();
    if (Second.joinable())
      Second.join();
  }
};

} // namespace

// --- Hot-swap: a chain site pending across two swaps is dropped ---------------

TEST(JitHotSwap, PendingChainPatchDroppedAcrossTwoSwaps) {
  // The vCPU leaves llblk's tier-1 code through the unpatched `b big`
  // site (VCpu::JitPendingPatch = that site) and parks through two swaps.
  // The first retires the region, the second recycles it as the new
  // active one, and `big` — compiled first on resume, at the region's
  // first block offset and longer than the two blocks before the stale
  // site — covers the old site's address. Patching it would overwrite
  // big's own code; the run must instead match the interpreter exactly.
  std::string Big;
  for (unsigned N = 0; N < 48; ++N)
    Big += formatString("        addi    r%u, r%u, #%u\n", 4 + N % 4,
                        4 + (N + 1) % 4, N + 1);
  const std::string Asm = R"(
_start: la      r1, data
        b       llblk
llblk:  ldxr.d  r2, [r1]
        addi    r2, r2, #1
        stxr.d  r3, r2, [r1]
        b       big
big:
)" + Big + R"(
        std     r4, [r1, #8]
        std     r7, [r1, #16]
        halt
        .align 4096
data:   .quad 0
        .quad 0
        .quad 0
)";

  std::map<std::string, uint64_t> Counters[2];
  std::array<uint64_t, guest::NumGuestRegs> Regs[2];
  uint64_t Data[2][3];
  for (bool Jit : {false, true}) {
    auto M = makeMachine(SchemeKind::PicoCas, Jit);
    DoubleSwap Swapper(M.get());
    M->setScheme(std::make_unique<DoubleSwap::Trigger>(&Swapper));
    ASSERT_TRUE(bool(M->loadAssembly(Asm)));
    auto Result = M->run({});
    Swapper.join();
    ASSERT_TRUE(bool(Result)) << Result.error().render();
    EXPECT_TRUE(Result->AllHalted);
    if (Jit && M->jitBackend()) {
      EXPECT_GT(Result->Events.JitEnters, 0u);
    }
    Counters[Jit] = counterMap(Result->Events);
    std::copy_n(std::begin(M->cpu(0).Regs), guest::NumGuestRegs,
                Regs[Jit].begin());
    uint64_t Base = M->program().requiredSymbol("data");
    for (unsigned W = 0; W < 3; ++W)
      Data[Jit][W] = M->mem().shadowLoad(Base + 8 * W, 8);
  }
  EXPECT_EQ(Regs[0], Regs[1]);
  EXPECT_EQ(Counters[0], Counters[1]);
  for (unsigned W = 0; W < 3; ++W)
    EXPECT_EQ(Data[0][W], Data[1][W]) << "data word " << W;
  EXPECT_EQ(Data[1][0], 1u);
}

// --- Budgets: chained execution must still honor per-vCPU block limits -------

TEST(JitBudget, BlockBudgetStopsChainedExecution) {
  if (!jitAvailable())
    GTEST_SKIP() << "tier-1 JIT not available on this build/host";

  MachineConfig Config;
  Config.Scheme = SchemeKind::PicoCas;
  Config.NumThreads = 1;
  Config.MemBytes = 4ULL << 20;
  Config.JitHotThreshold = 0;
  Config.MaxBlocksPerCpu = 1000;
  auto M = Machine::create(Config).take();
  ASSERT_TRUE(bool(M->loadAssembly("_start: addi r1, r1, #1\n        b _start\n")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_FALSE(Result->AllHalted);
  // Chained jitted code must not overrun the budget: the chain budget is
  // derived from MaxBlocksPerCpu, so the stop lands on (or within one
  // trampoline re-entry of) the limit.
  EXPECT_GE(Result->Total.ExecutedBlocks, 1000u);
  EXPECT_LE(Result->Total.ExecutedBlocks, 1010u);
}

// --- W^X: the code cache must never be writable and executable at once -------

TEST(JitWx, NoRwxMappingsWhileJitLive) {
  if (!jitAvailable())
    GTEST_SKIP() << "tier-1 JIT not available on this build/host";

  // Keep a machine with installed code alive while scanning, so the code
  // cache mappings are present in the table.
  auto M = makeMachine(SchemeKind::Hst, /*Jit=*/true);
  ASSERT_TRUE(bool(M->loadAssembly(
      "_start: li r2, #64\nloop: addi r1, r1, #1\n        addi r2, r2, #-1\n"
      "        cbnz r2, loop\n        halt\n")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  ASSERT_GT(Result->Events.JitBlocksCompiled, 0u);

  std::ifstream Maps("/proc/self/maps");
  ASSERT_TRUE(Maps.is_open());
  std::string Line;
  while (std::getline(Maps, Line))
    EXPECT_EQ(Line.find("rwx"), std::string::npos)
        << "writable+executable mapping: " << Line;
}

// --- Code regions: cold reloads recycle instead of remapping -----------------

namespace {

/// The code-region mappings in /proc/self/maps (address range, perms and
/// memfd inode — a new region shows up as a new line).
std::set<std::string> jitCodeMappings() {
  std::set<std::string> Lines;
  std::ifstream Maps("/proc/self/maps");
  std::string Line;
  while (std::getline(Maps, Line))
    if (Line.find("llsc-jit-code") != std::string::npos)
      Lines.insert(Line);
  return Lines;
}

} // namespace

TEST(JitCodeCache, ColdReloadsRecycleOneSpareRegion) {
  if (!jitAvailable())
    GTEST_SKIP() << "tier-1 JIT not available on this build/host";

  // Every job loads a never-seen image, so every load flushes the code
  // cache. The flushed region is reaped at the next reset and recycled
  // by the flush after it: from the second job on, the machine runs out
  // of the same two regions, mapping and unmapping nothing.
  const std::set<std::string> Before = jitCodeMappings();
  auto M = makeMachine(SchemeKind::Hst, /*Jit=*/true);
  std::set<std::string> Steady;
  for (int Job = 0; Job < 100; ++Job) {
    ASSERT_TRUE(bool(M->loadAssembly(formatString(
        "_start: li r2, #%d\nloop: addi r1, r1, #%d\n"
        "        addi r2, r2, #-1\n        cbnz r2, loop\n        halt\n",
        8 + Job, 1 + Job))));
    auto Result = M->run({});
    ASSERT_TRUE(bool(Result)) << Result.error().render();
    ASSERT_TRUE(Result->AllHalted);
    ASSERT_GT(Result->Events.JitBlocksCompiled, 0u) << "job " << Job;
    EXPECT_EQ(M->cpu(0).Regs[1], uint64_t(8 + Job) * uint64_t(1 + Job));
    M->reset();
    if (Job == 2)
      for (const std::string &Line : jitCodeMappings())
        if (!Before.count(Line))
          Steady.insert(Line);
  }

  std::set<std::string> After;
  for (const std::string &Line : jitCodeMappings())
    if (!Before.count(Line))
      After.insert(Line);
  EXPECT_EQ(After, Steady) << "a code region was mapped or unmapped after "
                              "the cache reached steady state";
  unsigned WriteViews = 0, ExecViews = 0;
  for (const std::string &Line : After) {
    EXPECT_EQ(Line.find("rwx"), std::string::npos) << Line;
    if (Line.find(" rw-s ") != std::string::npos)
      ++WriteViews;
    if (Line.find(" r-xs ") != std::string::npos)
      ++ExecViews;
  }
  EXPECT_LE(WriteViews, 2u);
  EXPECT_LE(ExecViews, 2u);
  EXPECT_GE(ExecViews, 1u);
}
