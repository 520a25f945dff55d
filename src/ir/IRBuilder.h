//===- ir/IRBuilder.h - IR construction helper ------------------*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builder for IRBlocks: allocates temps, appends micro-ops, and tracks
/// instrumentation markers. Used by the translator and by the atomic
/// schemes' inline instrumentation (TranslationHooks).
///
//===----------------------------------------------------------------------===//

#ifndef LLSC_IR_IRBUILDER_H
#define LLSC_IR_IRBUILDER_H

#include "ir/IR.h"

#include <cassert>
#include <utility>

namespace llsc {
namespace ir {

/// Appends micro-ops to an IRBlock under construction.
class IRBuilder {
public:
  /// Starts a fresh block beginning at guest address \p GuestPc.
  explicit IRBuilder(uint64_t GuestPc) : IRBuilder(GuestPc, IRBlock()) {}

  /// Starts a fresh block at \p GuestPc in the storage of \p Recycled:
  /// its contents are dropped, the capacity of its vectors is kept. The
  /// translator hands its per-thread block back and forth this way, so
  /// building a block does not regrow a new vector each time.
  IRBuilder(uint64_t GuestPc, IRBlock Recycled) : Block(std::move(Recycled)) {
    Block.Insts.clear();
    Block.Helpers.clear();
    Block.GuestPc = GuestPc;
    Block.GuestInstCount = 0;
    Block.NumValues = FirstTempId;
    Block.InstrumentOpCount = 0;
  }

  /// While set, every emitted op is tagged IRFlagInstrument. Schemes set
  /// this around their injected code so the profiler and tests can tell
  /// translation proper from instrumentation.
  void setInstrumentMode(bool Enabled) { InstrumentMode = Enabled; }

  /// Allocates a new temp value id.
  ValueId newTemp() {
    assert(Block.NumValues < UINT16_MAX && "too many temps in block");
    return Block.NumValues++;
  }

  /// \returns the value id of guest register \p Reg (machine register
  /// file slot; frontends index their architectural registers here).
  static ValueId guestReg(unsigned Reg) {
    assert(Reg < guest::MaxGuestRegs && "invalid guest register");
    return static_cast<ValueId>(Reg);
  }

  // --- Value ops -----------------------------------------------------------

  ValueId emitMovImm(int64_t Imm) {
    ValueId Dst = newTemp();
    emitMovImmTo(Dst, Imm);
    return Dst;
  }
  void emitMovImmTo(ValueId Dst, int64_t Imm) {
    append({IROp::MovImm, 0, 0, CondCode::Eq, Dst, 0, 0, Imm});
  }
  void emitMovTo(ValueId Dst, ValueId Src) {
    append({IROp::Mov, 0, 0, CondCode::Eq, Dst, Src, 0, 0});
  }
  ValueId emitBin(IROp Op, ValueId A, ValueId B) {
    ValueId Dst = newTemp();
    emitBinTo(Op, Dst, A, B);
    return Dst;
  }
  void emitBinTo(IROp Op, ValueId Dst, ValueId A, ValueId B) {
    append({Op, 0, 0, CondCode::Eq, Dst, A, B, 0});
  }
  ValueId emitBinImm(IROp Op, ValueId A, int64_t Imm) {
    ValueId Dst = newTemp();
    emitBinImmTo(Op, Dst, A, Imm);
    return Dst;
  }
  void emitBinImmTo(IROp Op, ValueId Dst, ValueId A, int64_t Imm) {
    append({Op, 0, 0, CondCode::Eq, Dst, A, 0, Imm});
  }

  // --- Memory --------------------------------------------------------------

  ValueId emitLoadG(ValueId Addr, int64_t Offset, unsigned Size,
                    bool SignExtend) {
    ValueId Dst = newTemp();
    emitLoadGTo(Dst, Addr, Offset, Size, SignExtend);
    return Dst;
  }
  void emitLoadGTo(ValueId Dst, ValueId Addr, int64_t Offset, unsigned Size,
                   bool SignExtend) {
    append({IROp::LoadG, static_cast<uint8_t>(Size),
            static_cast<uint8_t>(SignExtend ? IRFlagSignExtend : 0),
            CondCode::Eq, Dst, Addr, 0, Offset});
  }
  void emitStoreG(ValueId Addr, int64_t Offset, ValueId Value, unsigned Size) {
    append({IROp::StoreG, static_cast<uint8_t>(Size), 0, CondCode::Eq, 0,
            Addr, Value, Offset});
  }
  ValueId emitLoadHost(ValueId Addr, int64_t Offset, unsigned Size) {
    ValueId Dst = newTemp();
    append({IROp::LoadHost, static_cast<uint8_t>(Size), 0, CondCode::Eq, Dst,
            Addr, 0, Offset});
    return Dst;
  }
  void emitStoreHost(ValueId Addr, int64_t Offset, ValueId Value,
                     unsigned Size) {
    append({IROp::StoreHost, static_cast<uint8_t>(Size), 0, CondCode::Eq, 0,
            Addr, Value, Offset});
  }

  // --- Atomics and helpers ---------------------------------------------------

  ValueId emitLoadLink(ValueId Addr, unsigned Size) {
    ValueId Dst = newTemp();
    emitLoadLinkTo(Dst, Addr, Size);
    return Dst;
  }
  void emitLoadLinkTo(ValueId Dst, ValueId Addr, unsigned Size,
                      bool CheckAlign = false) {
    append({IROp::LoadLink, static_cast<uint8_t>(Size),
            static_cast<uint8_t>(CheckAlign ? IRFlagCheckAlign : 0),
            CondCode::Eq, Dst, Addr, 0, 0});
  }
  ValueId emitStoreCond(ValueId Addr, ValueId Value, unsigned Size) {
    ValueId Dst = newTemp();
    emitStoreCondTo(Dst, Addr, Value, Size);
    return Dst;
  }
  void emitStoreCondTo(ValueId Dst, ValueId Addr, ValueId Value,
                       unsigned Size, bool CheckAlign = false) {
    append({IROp::StoreCond, static_cast<uint8_t>(Size),
            static_cast<uint8_t>(CheckAlign ? IRFlagCheckAlign : 0),
            CondCode::Eq, Dst, Addr, Value, 0});
  }
  void emitClearExcl() {
    append({IROp::ClearExcl, 0, 0, CondCode::Eq, 0, 0, 0, 0});
  }
  void emitFence() { append({IROp::Fence, 0, 0, CondCode::Eq, 0, 0, 0, 0}); }

  void emitHelperStore(ValueId Addr, int64_t Offset, ValueId Value,
                       unsigned Size) {
    append({IROp::HelperStore, static_cast<uint8_t>(Size), 0, CondCode::Eq, 0,
            Addr, Value, Offset});
  }
  ValueId emitHelperLoad(ValueId Addr, int64_t Offset, unsigned Size,
                         bool SignExtend) {
    ValueId Dst = newTemp();
    emitHelperLoadTo(Dst, Addr, Offset, Size, SignExtend);
    return Dst;
  }
  void emitHelperLoadTo(ValueId Dst, ValueId Addr, int64_t Offset,
                        unsigned Size, bool SignExtend) {
    append({IROp::HelperLoad, static_cast<uint8_t>(Size),
            static_cast<uint8_t>(SignExtend ? IRFlagSignExtend : 0),
            CondCode::Eq, Dst, Addr, 0, Offset});
  }

  /// Registers \p Fn and emits a generic helper call.
  ValueId emitHelper(const HelperFn &Fn, ValueId A, ValueId B) {
    Block.Helpers.push_back(Fn);
    ValueId Dst = newTemp();
    append({IROp::Helper, 0, 0, CondCode::Eq, Dst, A, B,
            static_cast<int64_t>(Block.Helpers.size() - 1)});
    return Dst;
  }

  void emitHstStoreTag(ValueId Addr, int64_t Offset, unsigned Size) {
    append({IROp::HstStoreTag, static_cast<uint8_t>(Size), 0, CondCode::Eq, 0,
            Addr, 0, Offset});
  }

  ValueId emitAtomicAddG(ValueId Addr, ValueId Delta, unsigned Size) {
    ValueId Dst = newTemp();
    emitAtomicAddGTo(Dst, Addr, Delta, Size);
    return Dst;
  }
  void emitAtomicAddGTo(ValueId Dst, ValueId Addr, ValueId Delta,
                        unsigned Size) {
    append({IROp::AtomicAddG, static_cast<uint8_t>(Size), 0, CondCode::Eq,
            Dst, Addr, Delta, 0});
  }

  ValueId emitAtomicRmwG(RmwKind Kind, ValueId Addr, ValueId Operand,
                         unsigned Size) {
    ValueId Dst = newTemp();
    emitAtomicRmwGTo(Dst, Kind, Addr, Operand, Size);
    return Dst;
  }
  void emitAtomicRmwGTo(ValueId Dst, RmwKind Kind, ValueId Addr,
                        ValueId Operand, unsigned Size) {
    append({IROp::AtomicRmwG, static_cast<uint8_t>(Size), 0, CondCode::Eq,
            Dst, Addr, Operand, static_cast<int64_t>(Kind)});
  }

  ValueId emitReadSpecial(SpecialValue Which) {
    ValueId Dst = newTemp();
    emitReadSpecialTo(Dst, Which);
    return Dst;
  }
  void emitReadSpecialTo(ValueId Dst, SpecialValue Which) {
    append({IROp::ReadSpecial, 0, 0, CondCode::Eq, Dst, 0, 0,
            static_cast<int64_t>(Which)});
  }
  void emitSysCallTo(ValueId Dst, int64_t Selector, ValueId Arg) {
    append({IROp::SysCall, 0, 0, CondCode::Eq, Dst, Arg, 0, Selector});
  }
  void emitYield() { append({IROp::Yield, 0, 0, CondCode::Eq, 0, 0, 0, 0}); }

  // --- Terminators -----------------------------------------------------------

  void emitSetPcImm(uint64_t Pc) {
    append({IROp::SetPcImm, 0, 0, CondCode::Eq, 0, 0, 0,
            static_cast<int64_t>(Pc)});
  }
  void emitSetPc(ValueId Target) {
    append({IROp::SetPc, 0, 0, CondCode::Eq, 0, Target, 0, 0});
  }
  void emitBrCond(CondCode Cc, ValueId A, ValueId B, uint64_t TakenPc) {
    append({IROp::BrCond, 0, 0, Cc, 0, A, B, static_cast<int64_t>(TakenPc)});
  }
  void emitHalt() { append({IROp::Halt, 0, 0, CondCode::Eq, 0, 0, 0, 0}); }

  /// Notes one more guest instruction covered by this block.
  void noteGuestInst() { ++Block.GuestInstCount; }

  /// Finishes and returns the block.
  IRBlock take() { return std::move(Block); }

  /// Read-only access while building (used by tests).
  const IRBlock &peek() const { return Block; }

private:
  void append(IRInst Inst) {
    if (InstrumentMode) {
      Inst.Flags |= IRFlagInstrument;
      ++Block.InstrumentOpCount;
    }
    Block.Insts.push_back(Inst);
  }

  IRBlock Block;
  bool InstrumentMode = false;
};

} // namespace ir
} // namespace llsc

#endif // LLSC_IR_IRBUILDER_H
