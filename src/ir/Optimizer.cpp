//===- ir/Optimizer.cpp - Block-local IR optimizations -----------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Optimizer.h"

#include <cassert>
#include <numeric>
#include <optional>
#include <vector>

using namespace llsc;
using namespace llsc::ir;

namespace {

/// Which of A/B an opcode actually reads.
void operandsRead(const IRInst &I, bool &ReadsA, bool &ReadsB) {
  switch (I.Op) {
  case IROp::MovImm:
  case IROp::ReadSpecial:
  case IROp::ClearExcl:
  case IROp::Fence:
  case IROp::Yield:
  case IROp::SetPcImm:
  case IROp::Halt:
    ReadsA = ReadsB = false;
    return;
  case IROp::Add:
  case IROp::Sub:
  case IROp::Mul:
  case IROp::UDiv:
  case IROp::SDiv:
  case IROp::URem:
  case IROp::SRem:
  case IROp::And:
  case IROp::Or:
  case IROp::Xor:
  case IROp::Shl:
  case IROp::Shr:
  case IROp::Sar:
  case IROp::SltS:
  case IROp::SltU:
  case IROp::StoreG:
  case IROp::StoreHost:
  case IROp::StoreCond:
  case IROp::HelperStore:
  case IROp::Helper:
  case IROp::AtomicAddG:
  case IROp::AtomicRmwG:
  case IROp::BrCond:
    ReadsA = ReadsB = true;
    return;
  default:
    ReadsA = true;
    ReadsB = false;
    return;
  }
}

/// \returns the immediate form of a reg-reg ALU op, or NumOps if none.
IROp immFormOf(IROp Op) {
  switch (Op) {
  case IROp::Add:
    return IROp::AddImm;
  case IROp::And:
    return IROp::AndImm;
  case IROp::Or:
    return IROp::OrImm;
  case IROp::Xor:
    return IROp::XorImm;
  case IROp::Shl:
    return IROp::ShlImm;
  case IROp::Shr:
    return IROp::ShrImm;
  case IROp::Sar:
    return IROp::SarImm;
  case IROp::SltS:
    return IROp::SltSImm;
  case IROp::SltU:
    return IROp::SltUImm;
  default:
    return IROp::NumOps;
  }
}

bool isRegRegAlu(IROp Op) {
  switch (Op) {
  case IROp::Add:
  case IROp::Sub:
  case IROp::Mul:
  case IROp::UDiv:
  case IROp::SDiv:
  case IROp::URem:
  case IROp::SRem:
  case IROp::And:
  case IROp::Or:
  case IROp::Xor:
  case IROp::Shl:
  case IROp::Shr:
  case IROp::Sar:
  case IROp::SltS:
  case IROp::SltU:
    return true;
  default:
    return false;
  }
}

bool isImmAlu(IROp Op) {
  switch (Op) {
  case IROp::AddImm:
  case IROp::AndImm:
  case IROp::OrImm:
  case IROp::XorImm:
  case IROp::ShlImm:
  case IROp::ShrImm:
  case IROp::SarImm:
  case IROp::SltSImm:
  case IROp::SltUImm:
    return true;
  default:
    return false;
  }
}

void recountInstrumentOps(IRBlock &Block) {
  uint32_t Count = 0;
  for (const IRInst &I : Block.Insts)
    if (I.Flags & IRFlagInstrument)
      ++Count;
  Block.InstrumentOpCount = Count;
}

} // namespace

OptStats ir::foldConstants(IRBlock &Block) {
  OptStats Stats;
  std::vector<std::optional<uint64_t>> Known(Block.NumValues, std::nullopt);

  std::vector<IRInst> NewInsts;
  NewInsts.reserve(Block.Insts.size());
  bool Truncated = false;

  for (IRInst I : Block.Insts) {
    if (Truncated)
      break;

    auto KnownVal = [&](ValueId Id) { return Known[Id]; };
    auto Define = [&](ValueId Id, std::optional<uint64_t> Value) {
      Known[Id] = Value;
    };

    // Fold reg-reg ALU with both operands known, or rewrite to imm form.
    if (isRegRegAlu(I.Op)) {
      auto CA = KnownVal(I.A), CB = KnownVal(I.B);
      if (CA && CB) {
        uint64_t Result = evalAluOp(I.Op, *CA, *CB, 0);
        I = {IROp::MovImm, 0, I.Flags, CondCode::Eq, I.Dst, 0, 0,
             static_cast<int64_t>(Result)};
        ++Stats.ConstantsFolded;
      } else if (CB && immFormOf(I.Op) != IROp::NumOps) {
        I.Op = immFormOf(I.Op);
        I.Imm = static_cast<int64_t>(*CB);
        I.B = 0;
        ++Stats.ConstantsFolded;
      } else if (CA && (I.Op == IROp::Add || I.Op == IROp::And ||
                        I.Op == IROp::Or || I.Op == IROp::Xor)) {
        // Commutative: swap the constant into the immediate.
        I.Op = immFormOf(I.Op);
        I.Imm = static_cast<int64_t>(*CA);
        I.A = I.B;
        I.B = 0;
        ++Stats.ConstantsFolded;
      }
    } else if (isImmAlu(I.Op)) {
      if (auto CA = KnownVal(I.A)) {
        uint64_t Result = evalAluOp(I.Op, *CA, 0, I.Imm);
        I = {IROp::MovImm, 0, I.Flags, CondCode::Eq, I.Dst, 0, 0,
             static_cast<int64_t>(Result)};
        ++Stats.ConstantsFolded;
      }
    } else if (I.Op == IROp::Mov) {
      if (auto CA = KnownVal(I.A)) {
        I = {IROp::MovImm, 0, I.Flags, CondCode::Eq, I.Dst, 0, 0,
             static_cast<int64_t>(*CA)};
        ++Stats.ConstantsFolded;
      }
    } else if (I.Op == IROp::BrCond) {
      auto CA = KnownVal(I.A), CB = KnownVal(I.B);
      if (CA && CB) {
        if (evalCondCode(I.Cc, *CA, *CB)) {
          // Always taken: becomes the block terminator.
          I = {IROp::SetPcImm, 0, I.Flags, CondCode::Eq, 0, 0, 0, I.Imm};
          Truncated = true;
        } else {
          // Never taken: drop the op.
          ++Stats.ConstantsFolded;
          continue;
        }
        ++Stats.ConstantsFolded;
      }
    } else if (I.Op == IROp::LoadG || I.Op == IROp::StoreG ||
               I.Op == IROp::HelperStore || I.Op == IROp::HelperLoad ||
               I.Op == IROp::LoadHost || I.Op == IROp::StoreHost) {
      // Fold a known base into the displacement.
      if (auto CA = KnownVal(I.A)) {
        // Keep the op but materialize the constant base: A + Imm is fully
        // known; represent as A=value via a MovImm would need a temp, so
        // instead fold into Imm with A pointing at a zero... simplest:
        // leave memory ops untouched when the base is constant — the
        // interpreter cost is identical. (No-op on purpose.)
        (void)CA;
      }
    }

    // Update known-ness for the defined value.
    if (writesDst(I.Op)) {
      if (I.Op == IROp::MovImm)
        Define(I.Dst, static_cast<uint64_t>(I.Imm));
      else if (I.Op == IROp::Mov)
        Define(I.Dst, Known[I.A]);
      else
        Define(I.Dst, std::nullopt);
    }
    NewInsts.push_back(I);
  }

  Block.Insts = std::move(NewInsts);
  recountInstrumentOps(Block);
  return Stats;
}

OptStats ir::propagateCopies(IRBlock &Block) {
  OptStats Stats;
  // CopyOf[V] = S means V holds the same value as S — valid only while S
  // has not been redefined since, i.e. while CopyGen[V] == DefGen[S].
  // Redefining S bumps DefGen[S], which invalidates every copy of S at
  // once instead of scanning all values for them. A value that is no
  // copy is its own source.
  std::vector<ValueId> CopyOf(Block.NumValues);
  std::iota(CopyOf.begin(), CopyOf.end(), ValueId(0));
  std::vector<uint32_t> CopyGen(Block.NumValues, 0);
  std::vector<uint32_t> DefGen(Block.NumValues, 0);

  auto Resolve = [&](ValueId V) {
    // Single-step resolution is enough because we canonicalize on insert.
    return CopyGen[V] == DefGen[CopyOf[V]] ? CopyOf[V] : V;
  };

  for (IRInst &I : Block.Insts) {
    bool ReadsA, ReadsB;
    operandsRead(I, ReadsA, ReadsB);
    if (ReadsA) {
      ValueId R = Resolve(I.A);
      if (R != I.A) {
        I.A = R;
        ++Stats.CopiesPropagated;
      }
    }
    if (ReadsB) {
      ValueId R = Resolve(I.B);
      if (R != I.B) {
        I.B = R;
        ++Stats.CopiesPropagated;
      }
    }
    if (writesDst(I.Op)) {
      ++DefGen[I.Dst];
      ValueId Src = I.Dst;
      if (I.Op == IROp::Mov && I.A != I.Dst)
        Src = Resolve(I.A);
      CopyOf[I.Dst] = Src;
      CopyGen[I.Dst] = DefGen[Src];
    }
  }
  return Stats;
}

namespace {
/// Ops that may observe guest register state beyond their explicit
/// operands (helpers receive the VCpu and could in principle read any
/// register), so register liveness must be conservatively revived there.
bool observesAllRegs(IROp Op) {
  switch (Op) {
  case IROp::LoadLink:
  case IROp::StoreCond:
  case IROp::ClearExcl:
  case IROp::Helper:
  case IROp::HelperStore:
  case IROp::HelperLoad:
  case IROp::SysCall:
  case IROp::AtomicAddG:
  case IROp::AtomicRmwG:
    return true;
  default:
    return false;
  }
}
} // namespace

OptStats ir::eliminateDeadOps(IRBlock &Block) {
  OptStats Stats;
  std::vector<bool> Live(Block.NumValues, false);
  // All guest registers are live-out of every block.
  for (ValueId V = 0; V < FirstTempId; ++V)
    Live[V] = true;

  std::vector<bool> Keep(Block.Insts.size(), true);
  for (size_t Index = Block.Insts.size(); Index-- > 0;) {
    const IRInst &I = Block.Insts[Index];
    bool DefinesDeadValue = writesDst(I.Op) && !Live[I.Dst];
    if (isPure(I.Op) && DefinesDeadValue) {
      Keep[Index] = false;
      ++Stats.DeadOpsRemoved;
      continue;
    }
    if (writesDst(I.Op))
      Live[I.Dst] = false; // Def kills liveness going upward.
    if (observesAllRegs(I.Op))
      for (ValueId V = 0; V < FirstTempId; ++V)
        Live[V] = true;
    bool ReadsA, ReadsB;
    operandsRead(I, ReadsA, ReadsB);
    if (ReadsA)
      Live[I.A] = true;
    if (ReadsB)
      Live[I.B] = true;
  }

  if (Stats.DeadOpsRemoved) {
    std::vector<IRInst> NewInsts;
    NewInsts.reserve(Block.Insts.size() - Stats.DeadOpsRemoved);
    for (size_t Index = 0; Index < Block.Insts.size(); ++Index)
      if (Keep[Index])
        NewInsts.push_back(Block.Insts[Index]);
    Block.Insts = std::move(NewInsts);
    recountInstrumentOps(Block);
  }
  return Stats;
}

OptStats ir::forwardStoresToLoads(IRBlock &Block) {
  OptStats Stats;
  struct TrackedStore {
    ValueId Base;
    int64_t Offset;
    uint8_t Size;
    ValueId Value;
  };
  std::vector<TrackedStore> Stores;

  auto InvalidateAll = [&] { Stores.clear(); };
  auto InvalidateValue = [&](ValueId Def) {
    // A redefined value id invalidates entries using it as base or value.
    for (size_t Index = 0; Index < Stores.size();) {
      if (Stores[Index].Base == Def || Stores[Index].Value == Def) {
        Stores[Index] = Stores.back();
        Stores.pop_back();
      } else {
        ++Index;
      }
    }
  };

  for (IRInst &I : Block.Insts) {
    switch (I.Op) {
    case IROp::StoreG: {
      // Keep only entries provably disjoint from this store: same base
      // value with non-overlapping ranges. Different bases may hold the
      // same address, so everything else is dropped.
      for (size_t Index = 0; Index < Stores.size();) {
        const TrackedStore &Tracked = Stores[Index];
        bool SameBase = Tracked.Base == I.A;
        bool Disjoint = SameBase &&
                        (Tracked.Offset + Tracked.Size <= I.Imm ||
                         I.Imm + I.Size <= Tracked.Offset);
        if (Disjoint) {
          ++Index;
        } else {
          Stores[Index] = Stores.back();
          Stores.pop_back();
        }
      }
      Stores.push_back({I.A, I.Imm, I.Size, I.B});
      break;
    }
    case IROp::LoadG: {
      if (I.Flags & IRFlagSignExtend)
        break; // Forwarding would need a re-extension; skip.
      for (const TrackedStore &Tracked : Stores) {
        if (Tracked.Base == I.A && Tracked.Offset == I.Imm &&
            Tracked.Size == I.Size && I.Size == 8) {
          // Only full-width forwards are value-preserving (narrower
          // loads zero-extend a truncation of the stored value).
          I = {IROp::Mov, 0, I.Flags, CondCode::Eq, I.Dst, Tracked.Value,
               0, 0};
          ++Stats.CopiesPropagated;
          break;
        }
      }
      break;
    }
    // Possibly aliasing or order-sensitive memory effects.
    case IROp::StoreCond:
    case IROp::HelperStore:
    case IROp::Helper:
    case IROp::AtomicAddG:
    case IROp::AtomicRmwG:
    case IROp::LoadLink:
    case IROp::ClearExcl:
    case IROp::Fence:
    case IROp::SysCall:
      InvalidateAll();
      break;
    default:
      break;
    }
    if (writesDst(I.Op))
      InvalidateValue(I.Dst);
  }
  return Stats;
}

OptStats ir::optimize(IRBlock &Block, unsigned MaxIterations) {
  OptStats Total;
  for (unsigned Iter = 0; Iter < MaxIterations; ++Iter) {
    OptStats Fold = foldConstants(Block);
    OptStats Copy = propagateCopies(Block);
    OptStats Forward = forwardStoresToLoads(Block);
    Copy.CopiesPropagated += Forward.CopiesPropagated;
    OptStats Dce = eliminateDeadOps(Block);
    Total.ConstantsFolded += Fold.ConstantsFolded + Copy.ConstantsFolded;
    Total.CopiesPropagated += Copy.CopiesPropagated;
    Total.DeadOpsRemoved += Dce.DeadOpsRemoved;
    if (Fold.ConstantsFolded == 0 && Copy.CopiesPropagated == 0 &&
        Dce.DeadOpsRemoved == 0)
      break;
  }
  return Total;
}
