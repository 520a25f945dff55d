//===- tests/AllocBudgetTest.cpp - heap allocations on the cold path -----===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Translating and compiling a block works in the translating thread's
/// scratch (docs/JIT.md "Compile-time memory"), so what a never-seen block
/// still allocates is what the cache keeps for it: the CachedBlock, its IR
/// and decoded arrays, and the shard's map node. This binary
/// replaces the global operator new with a counting one and holds the
/// translate-and-compile path to a per-block budget.
///
//===----------------------------------------------------------------------===//

#include "core/Machine.h"
#include "engine/jit/Jit.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <unordered_set>
#include <vector>

namespace {
std::atomic<uint64_t> Allocations{0};
} // namespace

// The replacements pair operator new with malloc and operator delete with
// free. GCC, once it inlines a replacement into a new/delete pair, reports
// that pairing as a mismatch although it is the definition itself.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *operator new(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { ::operator delete(P); }
void operator delete(void *P, std::size_t) noexcept { ::operator delete(P); }
void operator delete[](void *P, std::size_t) noexcept { ::operator delete(P); }
#pragma GCC diagnostic pop

using namespace llsc;

namespace {

/// Heap allocations one never-seen block may cost once the thread's
/// scratch is warm: today four (CachedBlock, IR.Insts, Decoded, map
/// node), plus headroom for an occasional map rehash or helper table.
constexpr uint64_t BudgetPerBlock = 6;

/// A 64-site program shaped like a cold serving job: each site is a few
/// ALU ops, a private load and store, and for some sites an LL/SC
/// increment, then a branch that ends the block. Distinct \p Index values
/// give distinct images.
std::string coldProgram(uint64_t Index) {
  Rng R(0xa110c + Index);
  auto Reg = [&R] { return 1 + static_cast<unsigned>(R.nextBelow(8)); };
  static const char *RegOps[] = {"add", "sub", "mul", "eor", "orr", "and"};
  std::string Asm = "_start: la r10, data\n        la r11, word\n"
                    "        li r12, #2\nloop:   cbz r12, done\n";
  for (unsigned Site = 0; Site < 64; ++Site) {
    unsigned AluOps = 4 + static_cast<unsigned>(R.nextBelow(5));
    for (unsigned Op = 0; Op < AluOps; ++Op) {
      if (R.nextBelow(2))
        Asm += formatString("        %s r%u, r%u, r%u\n",
                            RegOps[R.nextBelow(6)], Reg(), Reg(), Reg());
      else
        Asm += formatString("        addi r%u, r%u, #%lld\n", Reg(), Reg(),
                            static_cast<long long>(R.nextBelow(16384)) -
                                8192);
    }
    Asm += formatString("        ldd r%u, [r10, #%u]\n", Reg(),
                        8 * static_cast<unsigned>(R.nextBelow(64)));
    Asm += formatString("        std r%u, [r10, #%u]\n", Reg(),
                        8 * static_cast<unsigned>(R.nextBelow(64)));
    if (R.nextBelow(4) == 0)
      Asm += formatString("try%u:  ldxr.d r9, [r11]\n"
                          "        addi r9, r9, #1\n"
                          "        stxr.d r15, r9, [r11]\n"
                          "        cbnz r15, try%u\n",
                          Site, Site);
    Asm += formatString("        b site%u\nsite%u:\n", Site, Site);
  }
  Asm += "        addi r12, r12, #-1\n        b loop\ndone:   halt\n"
         "        .align 8\ndata:   .space 512\nword:   .quad 0\n";
  return Asm;
}

/// Translates (and, where tier-1 runs, compiles) every block statically
/// reachable from the entry of \p M's program. \returns the number of
/// blocks; \p Allocated receives the allocations made inside the cache
/// lookups and compiles alone.
unsigned translateAndCompileAll(Machine &M, uint64_t &Allocated) {
  std::vector<uint64_t> Work{M.program().entryAddr()};
  std::unordered_set<uint64_t> Seen(Work.begin(), Work.end());
  Allocated = 0;
  unsigned Blocks = 0;
  while (!Work.empty()) {
    uint64_t Pc = Work.back();
    Work.pop_back();
    uint64_t Before = Allocations.load(std::memory_order_relaxed);
    auto BlockOrErr = M.cache().lookup(Pc, M.translator());
    EXPECT_TRUE(bool(BlockOrErr)) << BlockOrErr.error().render();
    if (!BlockOrErr)
      return Blocks;
    CachedBlock &Block = **BlockOrErr;
    if (jit::Jit *J = M.jitBackend()) {
      EXPECT_NE(J->codeFor(Block, M.cpu(0)), nullptr)
          << formatString("block at 0x%llx did not compile",
                          static_cast<unsigned long long>(Pc));
    }
    Allocated += Allocations.load(std::memory_order_relaxed) - Before;
    ++Blocks;
    for (const ir::IRInst &I : Block.IR.Insts)
      if ((I.Op == ir::IROp::BrCond || I.Op == ir::IROp::SetPcImm) &&
          Seen.insert(static_cast<uint64_t>(I.Imm)).second)
        Work.push_back(static_cast<uint64_t>(I.Imm));
  }
  return Blocks;
}

} // namespace

TEST(AllocBudget, ColdTranslateAndCompileStaysWithinBudget) {
  MachineConfig Config;
  Config.Scheme = SchemeKind::Hst;
  Config.NumThreads = 1;
  Config.MemBytes = 8ULL << 20;
  Config.JitHotThreshold = 0; // Compile on first dispatch.
  auto MachineOrErr = Machine::create(Config);
  ASSERT_TRUE(bool(MachineOrErr)) << MachineOrErr.error().render();
  Machine &M = **MachineOrErr;

  // Warm-up on the same thread: the per-thread scratch grows here.
  ASSERT_TRUE(bool(M.loadAssembly(coldProgram(0))));
  M.prepareRun();
  uint64_t Allocated = 0;
  ASSERT_GT(translateAndCompileAll(M, Allocated), 64u);

  ASSERT_TRUE(bool(M.loadAssembly(coldProgram(1))));
  M.prepareRun();
  unsigned Blocks = translateAndCompileAll(M, Allocated);
  ASSERT_GT(Blocks, 64u);
  EXPECT_LE(Allocated, BudgetPerBlock * Blocks)
      << Allocated << " allocations for " << Blocks << " never-seen blocks ("
      << (M.jitBackend() ? "translated and compiled" : "translated only")
      << ")";
  std::printf("[ alloc    ] %llu allocations for %u blocks\n",
              static_cast<unsigned long long>(Allocated), Blocks);
}
