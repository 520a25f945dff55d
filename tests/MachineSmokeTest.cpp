//===- tests/MachineSmokeTest.cpp - end-to-end machine tests -------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// End-to-end smoke tests: assemble small guest programs and run them on a
/// Machine under every scheme, checking architectural results via guest
/// memory.
///
//===----------------------------------------------------------------------===//

#include "core/Machine.h"

#include <gtest/gtest.h>

#include <array>
#include <thread>

using namespace llsc;

namespace {

std::unique_ptr<Machine> makeMachine(SchemeKind Scheme, unsigned Threads = 1,
                                     uint64_t MemBytes = 16ULL << 20) {
  MachineConfig Config;
  Config.Scheme = Scheme;
  Config.NumThreads = Threads;
  Config.MemBytes = MemBytes;
  Config.ForceSoftHtm = true;
  Config.MaxBlocksPerCpu = 50'000'000;
  auto MachineOrErr = Machine::create(Config);
  EXPECT_TRUE(bool(MachineOrErr)) << MachineOrErr.error().render();
  return MachineOrErr.take();
}

/// All schemes, for parameterized sweeps.
const std::vector<SchemeKind> &schemes() { return allSchemeKinds(); }

} // namespace

TEST(MachineSmoke, ArithmeticAndMemory) {
  auto M = makeMachine(SchemeKind::PicoCas);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start:
        li      r1, #6
        li      r2, #7
        mul     r3, r1, r2
        la      r4, out
        std     r3, [r4]
        li      r1, #-5
        asri    r1, r1, #1
        std     r1, [r4, #8]
        halt
out:    .quad 0
        .quad 0
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_TRUE(Result->AllHalted);
  uint64_t Out = M->program().requiredSymbol("out");
  EXPECT_EQ(M->mem().shadowLoad(Out, 8), 42u);
  EXPECT_EQ(static_cast<int64_t>(M->mem().shadowLoad(Out + 8, 8)), -3);
}

TEST(MachineSmoke, LoopsAndBranches) {
  auto M = makeMachine(SchemeKind::Hst);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
; sum 1..100 into out
_start:
        movz    r1, #0          ; sum
        movz    r2, #100        ; i
loop:   cbz     r2, done
        add     r1, r1, r2
        addi    r2, r2, #-1
        b       loop
done:   la      r3, out
        stw     r1, [r3]
        halt
out:    .word 0
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("out"), 4),
            5050u);
}

TEST(MachineSmoke, CallsAndStack) {
  auto M = makeMachine(SchemeKind::Hst);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
; out = f(10) where f(x) = x*2, via bl/ret with a stack spill
_start:
        li      r1, #10
        addi    sp, sp, #-16
        std     lr, [sp]
        bl      double_it
        ldd     lr, [sp]
        addi    sp, sp, #16
        la      r2, out
        std     r1, [r2]
        halt
double_it:
        add     r1, r1, r1
        ret
out:    .quad 0
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("out"), 8), 20u);
}

TEST(MachineSmoke, LoadStoreSizesAndSignExtension) {
  auto M = makeMachine(SchemeKind::PicoCas);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start:
        la      r1, data
        ldsb    r2, [r1]        ; 0xff -> -1
        la      r3, out
        std     r2, [r3]
        ldb     r2, [r1]        ; 0xff -> 255
        std     r2, [r3, #8]
        ldsh    r2, [r1, #2]    ; 0x8000 -> -32768
        std     r2, [r3, #16]
        ldsw    r2, [r1, #4]    ; 0x80000000 -> negative
        std     r2, [r3, #24]
        halt
        .align 8
data:   .byte 0xff, 0
        .half 0x8000
        .word 0x80000000
out:    .space 32
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  uint64_t Out = M->program().requiredSymbol("out");
  auto Load = [&](unsigned Slot) {
    return static_cast<int64_t>(M->mem().shadowLoad(Out + Slot * 8, 8));
  };
  EXPECT_EQ(Load(0), -1);
  EXPECT_EQ(Load(1), 255);
  EXPECT_EQ(Load(2), -32768);
  EXPECT_EQ(Load(3), -2147483648LL);
}

class AllSchemesTest : public ::testing::TestWithParam<SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(
    Schemes, AllSchemesTest, ::testing::ValuesIn(schemes()),
    [](const ::testing::TestParamInfo<SchemeKind> &Info) {
      std::string Name = schemeTraits(Info.param).Name;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

/// Single-threaded LL/SC increment: must produce an exact count under
/// every scheme (even the incorrect ones — no contention here).
TEST_P(AllSchemesTest, SingleThreadLlscCounter) {
  auto M = makeMachine(GetParam());
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start:
        la      r1, counter
        li      r4, #1000
loop:   cbz     r4, done
retry:  ldxr.w  r2, [r1]
        addi    r2, r2, #1
        stxr.w  r3, r2, [r1]
        cbnz    r3, retry
        addi    r4, r4, #-1
        b       loop
done:   halt
        .align 4096
counter: .word 0
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_TRUE(Result->AllHalted);
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("counter"), 4),
            1000u);
  EXPECT_GE(Result->Total.StoreConds, 1000u);
}

/// Multi-threaded atomic counter: every *correct-under-contention* scheme
/// must produce threads*iters. (PICO-CAS also passes this: value-based CAS
/// is sufficient for a pure counter — the ABA stack test is where it
/// breaks.)
TEST_P(AllSchemesTest, MultiThreadAtomicCounter) {
  constexpr unsigned Threads = 4;
  constexpr unsigned Iters = 500;
  auto M = makeMachine(GetParam(), Threads);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start:
        la      r1, counter
        li      r4, #500
loop:   cbz     r4, done
retry:  ldxr.w  r2, [r1]
        addi    r2, r2, #1
        stxr.w  r3, r2, [r1]
        cbnz    r3, retry
        addi    r4, r4, #-1
        b       loop
done:   halt
        .align 4096
counter: .word 0
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_TRUE(Result->AllHalted);
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("counter"), 4),
            Threads * Iters);
}

/// Same counter, cooperative deterministic mode.
TEST_P(AllSchemesTest, CooperativeAtomicCounter) {
  constexpr unsigned Threads = 3;
  auto M = makeMachine(GetParam(), Threads);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start:
        la      r1, counter
        li      r4, #100
loop:   cbz     r4, done
retry:  ldxr.w  r2, [r1]
        addi    r2, r2, #1
        stxr.w  r3, r2, [r1]
        cbnz    r3, retry
        addi    r4, r4, #-1
        b       loop
done:   halt
        .align 4096
counter: .word 0
)")));
  RunOptions Opts;
  Opts.ExecMode = RunOptions::Mode::Cooperative;
  Opts.BlocksPerSlice = 2;
  auto Result = M->run(Opts);
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_TRUE(Result->AllHalted);
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("counter"), 4),
            Threads * 100u);
}

TEST(MachineSmoke, TidAndNumThreads) {
  auto M = makeMachine(SchemeKind::Hst, 4);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
; each thread writes its tid+numthreads into out[tid]
_start:
        tid     r1
        sys     r2, #2          ; r2 = num threads
        add     r3, r1, r2
        la      r4, out
        lsli    r5, r1, #3
        add     r4, r4, r5
        std     r3, [r4]
        halt
        .align 8
out:    .space 64
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  uint64_t Out = M->program().requiredSymbol("out");
  for (unsigned Tid = 0; Tid < 4; ++Tid)
    EXPECT_EQ(M->mem().shadowLoad(Out + Tid * 8, 8), Tid + 4u);
}

TEST(MachineSmoke, R0HoldsTidAtEntry) {
  auto M = makeMachine(SchemeKind::Hst, 2);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start:
        la      r4, out
        lsli    r5, r0, #3
        add     r4, r4, r5
        addi    r1, r0, #100
        std     r1, [r4]
        halt
        .align 8
out:    .space 16
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  uint64_t Out = M->program().requiredSymbol("out");
  EXPECT_EQ(M->mem().shadowLoad(Out, 8), 100u);
  EXPECT_EQ(M->mem().shadowLoad(Out + 8, 8), 101u);
}

TEST(MachineSmoke, CountersTrackInstructionMix) {
  auto M = makeMachine(SchemeKind::Hst);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start:
        la      r1, data
        ldw     r2, [r1]
        stw     r2, [r1, #4]
        stw     r2, [r1, #8]
retry:  ldxr.w  r3, [r1]
        stxr.w  r4, r3, [r1]
        cbnz    r4, retry
        halt
        .align 4096
data:   .space 16
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_EQ(Result->Total.Stores, 2u);
  EXPECT_EQ(Result->Total.LoadLinks, 1u);
  EXPECT_EQ(Result->Total.StoreConds, 1u);
  EXPECT_GE(Result->Total.Loads, 1u);
  EXPECT_GT(Result->Total.ExecutedInsts, 0u);
}

TEST(MachineSmoke, HaltsEveryThreadIndependently) {
  auto M = makeMachine(SchemeKind::PicoCas, 3);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
; thread 0 spins a while; others exit immediately
_start:
        tid     r1
        cbnz    r1, out
        li      r2, #2000
spin:   cbz     r2, out
        addi    r2, r2, #-1
        b       spin
out:    halt
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_TRUE(Result->AllHalted);
}

/// Records which host thread executed each vCPU's LL.
struct ThreadRecordingScheme final : AtomicScheme {
  std::array<std::thread::id, 4> LlThread{};
  const SchemeTraits &traits() const override {
    return schemeTraits(SchemeKind::PicoCas);
  }
  uint64_t emulateLoadLink(VCpu &Cpu, uint64_t Addr, unsigned Size) override {
    LlThread[Cpu.Tid] = std::this_thread::get_id();
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

TEST(MachineSmoke, VcpuZeroRunsOnTheCallingThread) {
  constexpr const char *Source = R"(
_start: la      r1, data
        ldxr.w  r2, [r1]
        stxr.w  r3, r2, [r1]
        halt
        .align 64
data:   .quad 0
)";
  for (unsigned Threads : {1u, 3u}) {
    auto M = makeMachine(SchemeKind::PicoCas, Threads);
    auto Owned = std::make_unique<ThreadRecordingScheme>();
    ThreadRecordingScheme &Recorder = *Owned;
    M->setScheme(std::move(Owned));
    ASSERT_TRUE(bool(M->loadAssembly(Source)));

    // Run from a plain std::thread, not the test's main thread: vCPU 0
    // belongs to whichever thread calls run().
    std::thread::id Caller;
    ErrorOr<RunResult> Result = makeError("not run");
    std::thread Runner([&] {
      Caller = std::this_thread::get_id();
      Result = M->run({});
    });
    Runner.join();
    ASSERT_TRUE(bool(Result)) << Result.error().render();
    EXPECT_TRUE(Result->AllHalted);

    EXPECT_EQ(Recorder.LlThread[0], Caller) << Threads << " vCPUs";
    for (unsigned Tid = 1; Tid < Threads; ++Tid) {
      EXPECT_NE(Recorder.LlThread[Tid], std::thread::id()) << "tid " << Tid;
      EXPECT_NE(Recorder.LlThread[Tid], Caller) << "tid " << Tid;
      for (unsigned Other = 0; Other < Tid; ++Other)
        EXPECT_NE(Recorder.LlThread[Tid], Recorder.LlThread[Other])
            << "tids " << Other << " and " << Tid << " shared a thread";
    }
  }
}
