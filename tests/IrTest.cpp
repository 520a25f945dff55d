//===- tests/IrTest.cpp - IR, verifier and optimizer unit tests ----------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/IRVerifier.h"
#include "ir/Optimizer.h"

#include "support/Random.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <thread>

using namespace llsc;
using namespace llsc::ir;

namespace {

/// Counts ops of a given opcode.
unsigned countOps(const IRBlock &Block, IROp Op) {
  unsigned Count = 0;
  for (const IRInst &I : Block.Insts)
    if (I.Op == Op)
      ++Count;
  return Count;
}

} // namespace

TEST(IrAlu, EvalSemantics) {
  EXPECT_EQ(evalAluOp(IROp::Add, 2, 3, 0), 5u);
  EXPECT_EQ(evalAluOp(IROp::Sub, 2, 3, 0), static_cast<uint64_t>(-1));
  EXPECT_EQ(evalAluOp(IROp::UDiv, 7, 2, 0), 3u);
  EXPECT_EQ(evalAluOp(IROp::UDiv, 7, 0, 0), 0u) << "div by zero yields 0";
  EXPECT_EQ(evalAluOp(IROp::SDiv, static_cast<uint64_t>(-7), 2, 0),
            static_cast<uint64_t>(-3));
  EXPECT_EQ(evalAluOp(IROp::SDiv, static_cast<uint64_t>(INT64_MIN),
                      static_cast<uint64_t>(-1), 0),
            0u)
      << "INT_MIN / -1 yields 0, not UB";
  EXPECT_EQ(evalAluOp(IROp::Shl, 1, 65, 0), 2u) << "shift amounts mod 64";
  EXPECT_EQ(evalAluOp(IROp::Sar, static_cast<uint64_t>(-8), 1, 0),
            static_cast<uint64_t>(-4));
  EXPECT_EQ(evalAluOp(IROp::SltS, static_cast<uint64_t>(-1), 0, 0), 1u);
  EXPECT_EQ(evalAluOp(IROp::SltU, static_cast<uint64_t>(-1), 0, 0), 0u);
  EXPECT_EQ(evalAluOp(IROp::AddImm, 10, 0, -3), 7u);
}

TEST(IrAlu, CondCodes) {
  EXPECT_TRUE(evalCondCode(CondCode::Eq, 5, 5));
  EXPECT_TRUE(evalCondCode(CondCode::Ne, 5, 6));
  EXPECT_TRUE(evalCondCode(CondCode::LtS, static_cast<uint64_t>(-1), 0));
  EXPECT_FALSE(evalCondCode(CondCode::LtU, static_cast<uint64_t>(-1), 0));
  EXPECT_TRUE(evalCondCode(CondCode::GeU, static_cast<uint64_t>(-1), 0));
  EXPECT_TRUE(evalCondCode(CondCode::GeS, 0, static_cast<uint64_t>(-1)));
}

TEST(IrVerifier, AcceptsWellFormed) {
  IRBuilder B(0x1000);
  ValueId T = B.emitMovImm(1);
  B.emitBinTo(IROp::Add, IRBuilder::guestReg(1), T, T);
  B.emitSetPcImm(0x1004);
  IRBlock Block = B.take();
  EXPECT_TRUE(bool(verify(Block)));
}

TEST(IrVerifier, RejectsMissingTerminator) {
  IRBuilder B(0x1000);
  B.emitMovImm(1);
  IRBlock Block = B.take();
  EXPECT_FALSE(bool(verify(Block)));
}

TEST(IrVerifier, RejectsMidBlockTerminator) {
  IRBuilder B(0x1000);
  B.emitSetPcImm(0x1004);
  B.emitMovImm(1);
  B.emitSetPcImm(0x1008);
  IRBlock Block = B.take();
  EXPECT_FALSE(bool(verify(Block)));
}

TEST(IrVerifier, RejectsBadOperands) {
  IRBuilder B(0x1000);
  B.emitMovImm(1);
  B.emitSetPcImm(0x1004);
  IRBlock Block = B.take();
  Block.Insts[0].Dst = Block.NumValues; // Out of range.
  EXPECT_FALSE(bool(verify(Block)));
}

TEST(IrVerifier, RejectsBadMemSize) {
  IRBuilder B(0x1000);
  B.emitLoadG(IRBuilder::guestReg(1), 0, 4, false);
  B.emitSetPcImm(0x1004);
  IRBlock Block = B.take();
  Block.Insts[0].Size = 3;
  EXPECT_FALSE(bool(verify(Block)));
}

TEST(IrOptimizer, FoldsConstantChains) {
  IRBuilder B(0x1000);
  // r1 = 6; r2 = 7; r3 = r1 * r2.
  B.emitMovImmTo(IRBuilder::guestReg(1), 6);
  B.emitMovImmTo(IRBuilder::guestReg(2), 7);
  B.emitBinTo(IROp::Mul, IRBuilder::guestReg(3), IRBuilder::guestReg(1),
              IRBuilder::guestReg(2));
  B.emitSetPcImm(0x1010);
  IRBlock Block = B.take();
  OptStats Stats = optimize(Block);
  EXPECT_GE(Stats.ConstantsFolded, 1u);
  // The mul must now be a MovImm 42 into r3.
  bool Found = false;
  for (const IRInst &I : Block.Insts)
    if (I.Op == IROp::MovImm && I.Dst == 3 && I.Imm == 42)
      Found = true;
  EXPECT_TRUE(Found) << printBlock(Block);
}

TEST(IrOptimizer, MovkChainFoldsToSingleConstant) {
  // Simulates the translator's lowering of li r1, #0x12345678 via
  // movz + and/or movk pair.
  IRBuilder B(0x1000);
  ValueId R1 = IRBuilder::guestReg(1);
  B.emitMovImmTo(R1, 0x5678);
  B.emitBinImmTo(IROp::AndImm, R1, R1,
                 static_cast<int64_t>(~(0xffffULL << 16)));
  B.emitBinImmTo(IROp::OrImm, R1, R1, 0x1234LL << 16);
  B.emitSetPcImm(0x100c);
  IRBlock Block = B.take();
  optimize(Block);
  ASSERT_FALSE(Block.Insts.empty());
  // Final write to r1 must be the folded constant.
  bool Found = false;
  for (const IRInst &I : Block.Insts)
    if (I.Op == IROp::MovImm && I.Dst == 1 && I.Imm == 0x12345678)
      Found = true;
  EXPECT_TRUE(Found) << printBlock(Block);
}

TEST(IrOptimizer, DceRemovesDeadTemps) {
  IRBuilder B(0x1000);
  B.emitMovImm(1); // Dead temp.
  B.emitMovImm(2); // Dead temp.
  B.emitMovImmTo(IRBuilder::guestReg(1), 3);
  B.emitSetPcImm(0x1004);
  IRBlock Block = B.take();
  OptStats Stats = eliminateDeadOps(Block);
  EXPECT_EQ(Stats.DeadOpsRemoved, 2u);
  EXPECT_EQ(Block.Insts.size(), 2u);
}

TEST(IrOptimizer, DceKeepsSideEffects) {
  IRBuilder B(0x1000);
  ValueId Addr = B.emitMovImm(0x100);
  B.emitLoadG(Addr, 0, 8, false); // Result unused but load kept (may fault).
  B.emitStoreG(Addr, 0, Addr, 8);
  B.emitSetPcImm(0x1004);
  IRBlock Block = B.take();
  optimize(Block);
  EXPECT_EQ(countOps(Block, IROp::LoadG), 1u);
  EXPECT_EQ(countOps(Block, IROp::StoreG), 1u);
}

TEST(IrOptimizer, DceKeepsRegsAcrossHelpers) {
  IRBuilder B(0x1000);
  // r1 written, then an LL (which may observe registers), then r1
  // rewritten: the first write must survive.
  B.emitMovImmTo(IRBuilder::guestReg(1), 10);
  B.emitLoadLink(IRBuilder::guestReg(2), 4);
  B.emitMovImmTo(IRBuilder::guestReg(1), 20);
  B.emitSetPcImm(0x100c);
  IRBlock Block = B.take();
  optimize(Block);
  unsigned WritesToR1 = 0;
  for (const IRInst &I : Block.Insts)
    if (writesDst(I.Op) && I.Dst == 1)
      ++WritesToR1;
  EXPECT_EQ(WritesToR1, 2u) << printBlock(Block);
}

TEST(IrOptimizer, DceDropsOverwrittenRegWrite) {
  IRBuilder B(0x1000);
  B.emitMovImmTo(IRBuilder::guestReg(1), 10); // Dead: overwritten below.
  B.emitMovImmTo(IRBuilder::guestReg(1), 20);
  B.emitSetPcImm(0x1008);
  IRBlock Block = B.take();
  optimize(Block);
  unsigned WritesToR1 = 0;
  for (const IRInst &I : Block.Insts)
    if (writesDst(I.Op) && I.Dst == 1)
      ++WritesToR1;
  EXPECT_EQ(WritesToR1, 1u) << printBlock(Block);
}

TEST(IrOptimizer, CopyPropagation) {
  IRBuilder B(0x1000);
  ValueId T1 = B.emitMovImm(5);
  ValueId T2 = B.newTemp();
  B.emitMovTo(T2, T1);
  B.emitBinTo(IROp::Add, IRBuilder::guestReg(1), T2, T2);
  B.emitSetPcImm(0x1008);
  IRBlock Block = B.take();
  OptStats Stats = propagateCopies(Block);
  EXPECT_GE(Stats.CopiesPropagated, 2u);
  // After copy-prop + fold + DCE the add collapses to a constant.
  optimize(Block);
  bool Found = false;
  for (const IRInst &I : Block.Insts)
    if (I.Op == IROp::MovImm && I.Dst == 1 && I.Imm == 10)
      Found = true;
  EXPECT_TRUE(Found) << printBlock(Block);
}

TEST(IrOptimizer, CopyPropInvalidatedByRedefinition) {
  IRBuilder B(0x1000);
  ValueId T1 = B.newTemp();
  ValueId T2 = B.newTemp();
  B.emitMovImmTo(T1, 5);
  B.emitMovTo(T2, T1);      // T2 = T1 (=5).
  B.emitMovImmTo(T1, 9);    // T1 changes; T2 must stay 5.
  B.emitBinTo(IROp::Add, IRBuilder::guestReg(1), T2, T1);
  B.emitSetPcImm(0x1010);
  IRBlock Block = B.take();
  optimize(Block);
  bool Found = false;
  for (const IRInst &I : Block.Insts)
    if (I.Op == IROp::MovImm && I.Dst == 1 && I.Imm == 14)
      Found = true;
  EXPECT_TRUE(Found) << printBlock(Block);
}

namespace {

/// The copy-propagation pass as it was before definition generations:
/// every definition scans all values for copies of the redefined one.
/// Kept as the reference the linear pass must match exactly. Handles the
/// op subset copyPropBlock() emits.
OptStats quadraticPropagateCopies(IRBlock &Block) {
  OptStats Stats;
  std::vector<ValueId> CopyOf(Block.NumValues);
  std::vector<bool> HasCopy(Block.NumValues, false);
  auto Resolve = [&](ValueId V) { return HasCopy[V] ? CopyOf[V] : V; };
  auto InvalidateDef = [&](ValueId Def) {
    HasCopy[Def] = false;
    for (ValueId V = 0; V < Block.NumValues; ++V)
      if (HasCopy[V] && CopyOf[V] == Def)
        HasCopy[V] = false;
  };
  for (IRInst &I : Block.Insts) {
    bool ReadsA = I.Op == IROp::Mov || I.Op == IROp::AddImm ||
                  I.Op == IROp::Add || I.Op == IROp::Sub ||
                  I.Op == IROp::Xor;
    bool ReadsB = I.Op == IROp::Add || I.Op == IROp::Sub || I.Op == IROp::Xor;
    if (ReadsA && Resolve(I.A) != I.A) {
      I.A = Resolve(I.A);
      ++Stats.CopiesPropagated;
    }
    if (ReadsB && Resolve(I.B) != I.B) {
      I.B = Resolve(I.B);
      ++Stats.CopiesPropagated;
    }
    if (writesDst(I.Op)) {
      InvalidateDef(I.Dst);
      if (I.Op == IROp::Mov && I.A != I.Dst) {
        CopyOf[I.Dst] = Resolve(I.A);
        HasCopy[I.Dst] = true;
      }
    }
  }
  return Stats;
}

/// A long block over a few guest registers and temps that are copied and
/// redefined over and over — copy chains, self-moves, copies of copies.
IRBlock copyPropBlock(Rng &R, unsigned Insts) {
  IRBuilder B(0x1000);
  std::vector<ValueId> Values;
  for (unsigned Reg = 1; Reg <= 6; ++Reg)
    Values.push_back(IRBuilder::guestReg(Reg));
  for (int T = 0; T < 10; ++T)
    Values.push_back(B.emitMovImm(T));
  auto Pick = [&] { return Values[R.nextBelow(Values.size())]; };
  const IROp BinOps[] = {IROp::Add, IROp::Sub, IROp::Xor};
  for (unsigned N = 0; N < Insts; ++N) {
    switch (R.nextBelow(5)) {
    case 0:
    case 1:
      B.emitMovTo(Pick(), Pick());
      break;
    case 2:
      B.emitMovImmTo(Pick(), static_cast<int64_t>(R.nextBelow(100)));
      break;
    case 3:
      B.emitBinImmTo(IROp::AddImm, Pick(), Pick(), 3);
      break;
    default:
      B.emitBinTo(BinOps[R.nextBelow(std::size(BinOps))], Pick(), Pick(),
                  Pick());
      break;
    }
  }
  B.emitSetPcImm(0x2000);
  return B.take();
}

} // namespace

TEST(IrOptimizer, CopyPropMatchesQuadraticReferenceOnLongBlocks) {
  Rng R(0xc0b1e5);
  for (int Trial = 0; Trial < 40; ++Trial) {
    IRBlock Linear = copyPropBlock(R, 500 + 100 * Trial);
    IRBlock Reference = Linear;
    OptStats LinearStats = propagateCopies(Linear);
    OptStats ReferenceStats = quadraticPropagateCopies(Reference);
    ASSERT_EQ(printBlock(Linear), printBlock(Reference)) << "trial " << Trial;
    EXPECT_EQ(LinearStats.CopiesPropagated, ReferenceStats.CopiesPropagated);
    EXPECT_GT(LinearStats.CopiesPropagated, 0u);
  }
}

namespace {

/// A short block that defines many fresh temps, some constant and some
/// dead, so its value count sits below or above copyPropBlock()'s.
IRBlock wideBlock(Rng &R, unsigned Temps) {
  IRBuilder B(0x1000);
  std::vector<ValueId> Values{IRBuilder::guestReg(1), IRBuilder::guestReg(2)};
  for (unsigned N = 0; N < Temps; ++N) {
    ValueId A = Values[R.nextBelow(Values.size())];
    Values.push_back(R.nextBelow(3) == 0
                         ? B.emitMovImm(static_cast<int64_t>(R.nextBelow(50)))
                         : B.emitBinImm(IROp::AddImm, A, 1));
  }
  B.emitMovTo(IRBuilder::guestReg(3), Values[Values.size() / 2]);
  B.emitSetPcImm(0x2000);
  return B.take();
}

struct OptOutcome {
  std::string Printed;
  OptStats Stats;
};

OptOutcome optimizeCopy(IRBlock Block) {
  OptStats Stats = optimize(Block);
  return {printBlock(Block), Stats};
}

} // namespace

/// The passes keep their working arrays per thread and reuse them. The 40
/// long blocks of CopyPropMatchesQuadraticReferenceOnLongBlocks,
/// interleaved with short blocks of fewer and of more values and run on
/// one thread in two orders, must optimize exactly as each does alone on
/// a fresh thread.
TEST(IrOptimizer, ReusedScratchMatchesFreshThreads) {
  Rng R(0xc0b1e5);
  Rng Small(0x5ca1ab1e);
  std::vector<IRBlock> Blocks;
  for (int Trial = 0; Trial < 40; ++Trial) {
    Blocks.push_back(copyPropBlock(R, 500 + 100 * Trial));
    Blocks.push_back(
        wideBlock(Small, 3 + static_cast<unsigned>(Small.nextBelow(300))));
  }

  std::vector<OptOutcome> Fresh;
  for (const IRBlock &Block : Blocks)
    std::thread([&] { Fresh.push_back(optimizeCopy(Block)); }).join();

  std::thread([&] {
    for (size_t I = 0; I < Blocks.size(); ++I) {
      OptOutcome Forward = optimizeCopy(Blocks[I]);
      ASSERT_EQ(Forward.Printed, Fresh[I].Printed) << "block " << I;
      EXPECT_EQ(Forward.Stats, Fresh[I].Stats) << "block " << I;
    }
    for (size_t I = Blocks.size(); I-- > 0;) {
      OptOutcome Backward = optimizeCopy(Blocks[I]);
      ASSERT_EQ(Backward.Printed, Fresh[I].Printed) << "block " << I;
      EXPECT_EQ(Backward.Stats, Fresh[I].Stats) << "block " << I;
    }
  }).join();
}

TEST(IrOptimizer, BrCondConstantFolding) {
  {
    // Always-taken branch becomes the terminator.
    IRBuilder B(0x1000);
    ValueId T1 = B.emitMovImm(1);
    ValueId T2 = B.emitMovImm(1);
    B.emitBrCond(CondCode::Eq, T1, T2, 0x2000);
    B.emitSetPcImm(0x1008);
    IRBlock Block = B.take();
    optimize(Block);
    ASSERT_TRUE(bool(verify(Block)));
    EXPECT_EQ(Block.Insts.back().Op, IROp::SetPcImm);
    EXPECT_EQ(Block.Insts.back().Imm, 0x2000);
  }
  {
    // Never-taken branch disappears.
    IRBuilder B(0x1000);
    ValueId T1 = B.emitMovImm(1);
    ValueId T2 = B.emitMovImm(2);
    B.emitBrCond(CondCode::Eq, T1, T2, 0x2000);
    B.emitSetPcImm(0x1008);
    IRBlock Block = B.take();
    optimize(Block);
    EXPECT_EQ(countOps(Block, IROp::BrCond), 0u);
    EXPECT_EQ(Block.Insts.back().Imm, 0x1008);
  }
}

TEST(IrOptimizer, InstrumentCountMaintained) {
  IRBuilder B(0x1000);
  B.setInstrumentMode(true);
  ValueId T = B.emitMovImm(0x1234); // Instrumented, dead.
  B.emitStoreHost(T, 0, T, 4);      // Instrumented, kept.
  B.setInstrumentMode(false);
  B.emitSetPcImm(0x1004);
  IRBlock Block = B.take();
  EXPECT_EQ(Block.InstrumentOpCount, 2u);
  optimize(Block);
  // The StoreHost keeps its operand alive; count must stay consistent
  // with the surviving flagged ops.
  unsigned Flagged = 0;
  for (const IRInst &I : Block.Insts)
    if (I.Flags & IRFlagInstrument)
      ++Flagged;
  EXPECT_EQ(Block.InstrumentOpCount, Flagged);
}

TEST(IrPrinter, RendersRegsAndTemps) {
  EXPECT_EQ(printValue(0), "r0");
  EXPECT_EQ(printValue(13), "sp");
  // Machine register-file slots past GRV's 16 names (used by wider
  // frontends) print as g<N>; ids past FirstTempId are temps.
  EXPECT_EQ(printValue(guest::NumGuestRegs),
            formatString("g%u", guest::NumGuestRegs));
  EXPECT_EQ(printValue(FirstTempId), formatString("t%u", FirstTempId));
  IRBuilder B(0x1000);
  ValueId T = B.emitMovImm(42);
  B.emitStoreG(T, 8, T, 4);
  B.emitSetPcImm(0x1004);
  std::string Text = printBlock(B.peek());
  std::string TName = formatString("t%u", FirstTempId);
  EXPECT_NE(Text.find(TName + " = 0x2a"), std::string::npos) << Text;
  EXPECT_NE(Text.find("stg.4 [" + TName + "+8] = " + TName),
            std::string::npos)
      << Text;
}

/// Property: the optimizer never changes the architectural effect of a
/// random pure-ALU block. We compare the final guest register state of an
/// unoptimized vs optimized block under a tiny reference executor.
TEST(IrOptimizer, PropertyOptimizationPreservesSemantics) {
  Rng R(2024);
  for (int Trial = 0; Trial < 200; ++Trial) {
    IRBuilder B(0x1000);
    std::vector<ValueId> Temps;
    for (int I = 0; I < 4; ++I)
      Temps.push_back(B.emitMovImm(static_cast<int64_t>(R.next())));
    const IROp Ops[] = {IROp::Add,  IROp::Sub, IROp::Mul, IROp::And,
                        IROp::Or,   IROp::Xor, IROp::Shl, IROp::Shr,
                        IROp::SltS, IROp::SltU};
    for (int I = 0; I < 12; ++I) {
      IROp Op = Ops[R.nextBelow(std::size(Ops))];
      ValueId A = Temps[R.nextBelow(Temps.size())];
      ValueId C = Temps[R.nextBelow(Temps.size())];
      if (R.nextBool(0.5)) {
        Temps.push_back(B.emitBin(Op, A, C));
      } else {
        // Write into a guest register occasionally.
        B.emitBinTo(Op, IRBuilder::guestReg(R.nextBelow(8)), A, C);
      }
    }
    B.emitSetPcImm(0x2000);
    IRBlock Original = B.take();
    IRBlock Optimized = Original;
    optimize(Optimized);
    ASSERT_TRUE(bool(verify(Optimized)));

    auto Execute = [](const IRBlock &Block) {
      std::vector<uint64_t> Values(Block.NumValues, 0);
      for (const IRInst &I : Block.Insts) {
        if (I.Op == IROp::SetPcImm)
          break;
        Values[I.Dst] = evalAluOp(I.Op, Values[I.A], Values[I.B], I.Imm);
      }
      return std::vector<uint64_t>(Values.begin(),
                                   Values.begin() + FirstTempId);
    };
    EXPECT_EQ(Execute(Original), Execute(Optimized))
        << printBlock(Original) << "\nvs\n"
        << printBlock(Optimized);
  }
}

TEST(IrOptimizer, StoreToLoadForwarding) {
  IRBuilder B(0x1000);
  ValueId Base = IRBuilder::guestReg(1);
  ValueId Val = IRBuilder::guestReg(2);
  B.emitStoreG(Base, 8, Val, 8);
  ValueId Loaded = B.emitLoadG(Base, 8, 8, false);
  B.emitBinTo(IROp::Add, IRBuilder::guestReg(3), Loaded, Loaded);
  B.emitSetPcImm(0x100c);
  IRBlock Block = B.take();
  forwardStoresToLoads(Block);
  unsigned Loads = 0;
  for (const IRInst &I : Block.Insts)
    if (I.Op == IROp::LoadG)
      ++Loads;
  EXPECT_EQ(Loads, 0u) << printBlock(Block);
}

TEST(IrOptimizer, ForwardingBlockedByAliasingWrite) {
  IRBuilder B(0x1000);
  ValueId Base = IRBuilder::guestReg(1);
  ValueId Other = IRBuilder::guestReg(4);
  ValueId Val = IRBuilder::guestReg(2);
  B.emitStoreG(Base, 8, Val, 8);
  B.emitStoreG(Other, 0, Val, 8); // Different base: may alias.
  B.emitLoadG(Base, 8, 8, false);
  B.emitSetPcImm(0x1010);
  IRBlock Block = B.take();
  forwardStoresToLoads(Block);
  unsigned Loads = 0;
  for (const IRInst &I : Block.Insts)
    if (I.Op == IROp::LoadG)
      ++Loads;
  EXPECT_EQ(Loads, 1u) << "aliasing store must block forwarding";
}

TEST(IrOptimizer, ForwardingBlockedByHelperAndRedefinition) {
  {
    IRBuilder B(0x1000);
    ValueId Base = IRBuilder::guestReg(1);
    B.emitStoreG(Base, 0, IRBuilder::guestReg(2), 8);
    B.emitLoadLink(Base, 4); // Order-sensitive: invalidates.
    B.emitLoadG(Base, 0, 8, false);
    B.emitSetPcImm(0x100c);
    IRBlock Block = B.take();
    forwardStoresToLoads(Block);
    unsigned Loads = 0;
    for (const IRInst &I : Block.Insts)
      if (I.Op == IROp::LoadG)
        ++Loads;
    EXPECT_EQ(Loads, 1u);
  }
  {
    IRBuilder B(0x1000);
    ValueId Base = IRBuilder::guestReg(1);
    B.emitStoreG(Base, 0, IRBuilder::guestReg(2), 8);
    B.emitBinImmTo(IROp::AddImm, Base, Base, 8); // Base redefined.
    B.emitLoadG(Base, 0, 8, false);
    B.emitSetPcImm(0x100c);
    IRBlock Block = B.take();
    forwardStoresToLoads(Block);
    unsigned Loads = 0;
    for (const IRInst &I : Block.Insts)
      if (I.Op == IROp::LoadG)
        ++Loads;
    EXPECT_EQ(Loads, 1u) << "redefined base must block forwarding";
  }
}

TEST(IrOptimizer, ForwardingSkipsNarrowAndDisjointKeeps) {
  IRBuilder B(0x1000);
  ValueId Base = IRBuilder::guestReg(1);
  B.emitStoreG(Base, 0, IRBuilder::guestReg(2), 4); // Narrow store.
  B.emitLoadG(Base, 0, 4, false);                   // Not forwarded (4B).
  B.emitStoreG(Base, 16, IRBuilder::guestReg(3), 8); // Disjoint 8B store.
  B.emitStoreG(Base, 32, IRBuilder::guestReg(4), 8); // Disjoint again.
  B.emitLoadG(Base, 16, 8, false);                   // Forwarded.
  B.emitSetPcImm(0x1018);
  IRBlock Block = B.take();
  forwardStoresToLoads(Block);
  unsigned Loads = 0;
  for (const IRInst &I : Block.Insts)
    if (I.Op == IROp::LoadG)
      ++Loads;
  EXPECT_EQ(Loads, 1u) << printBlock(Block);
}
