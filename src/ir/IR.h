//===- ir/IR.h - Micro-op intermediate representation -----------*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The translator's intermediate representation, modeled after QEMU's TCG:
/// each guest instruction lowers to a handful of micro-ops over an infinite
/// set of block-local values. Value ids below FirstTempId denote the guest
/// registers themselves (TCG "globals"); higher ids are block-local temps.
///
/// The atomic-emulation schemes inject micro-ops here — this is the paper's
/// key HST implementation point: store instrumentation is inlined at the IR
/// level (a short shift/mask/store sequence) instead of calling out to a
/// helper, which is what makes HST cheaper than PICO-ST (Section III-A).
///
//===----------------------------------------------------------------------===//

#ifndef LLSC_IR_IR_H
#define LLSC_IR_IR_H

#include "guest/Isa.h"

#include <cstdint>
#include <string>
#include <vector>

namespace llsc {
namespace ir {

/// Block-local value id. Ids [0, FirstTempId) name guest registers.
using ValueId = uint16_t;

/// First value id that denotes a temp rather than a guest register. Sized
/// by the widest frontend's register file (guest::MaxGuestRegs), not by
/// GRV's: value ids below this bound are architectural registers for
/// whichever input::InputArch produced the block.
constexpr ValueId FirstTempId = guest::MaxGuestRegs;

/// Micro-op opcodes.
enum class IROp : uint8_t {
  // Pure value ops.
  MovImm, ///< dst = Imm.
  Mov,    ///< dst = A.
  Add,    ///< dst = A + B (all ALU ops are 64-bit).
  Sub,
  Mul,
  UDiv, ///< Division by zero yields 0 (ARM-style).
  SDiv,
  URem,
  SRem,
  And,
  Or,
  Xor,
  Shl, ///< Shift amounts are taken modulo 64.
  Shr,
  Sar,
  SltS, ///< dst = (int64)A < (int64)B.
  SltU,
  AddImm, ///< dst = A + Imm.
  AndImm,
  OrImm,
  XorImm,
  ShlImm,
  ShrImm,
  SarImm,
  SltSImm,
  SltUImm,

  // Guest memory (addresses are guest-physical; Size in {1,2,4,8}).
  LoadG,  ///< dst = guest[A + Imm]; Flags SignExtend extends from Size*8.
  StoreG, ///< guest[A + Imm] = B.

  // Raw host memory, used by inline scheme instrumentation to touch
  // scheme-owned tables (e.g. the HST hash table). A + Imm is a host
  // virtual address. Accesses are relaxed host atomics.
  LoadHost,  ///< dst = *(SizeBytes*)(A + Imm).
  StoreHost, ///< *(SizeBytes*)(A + Imm) = B.

  // Atomic / exclusive operations, dispatched to the active AtomicScheme.
  LoadLink,  ///< dst = scheme.LL(cpu, addr=A, Size).
  StoreCond, ///< dst = scheme.SC(cpu, addr=A, val=B, Size) ? 0 : 1.
  ClearExcl, ///< scheme.clearExclusive(cpu).
  Fence,     ///< Sequentially-consistent fence.

  // Helper routing for schemes that need full store/load interposition
  // (PICO-ST's instrumented stores, PST's fault-tested stores,
  // PST-REMAP's guarded loads).
  HelperStore, ///< scheme.storeHook(cpu, addr=A+Imm, val=B, Size).
  HelperLoad,  ///< dst = scheme.loadHook(cpu, addr=A+Imm, Size, Flags).
  Helper,      ///< dst = Block.Helpers[Imm].Fn(ctx, cpu, A, B).

  // Host atomic read-modify-write on guest memory; emitted by the optional
  // rule-based translation pass for recognized LL/SC idioms (Section VI).
  AtomicAddG, ///< dst = atomic_fetch_add(guest[A], B) (Size).

  // Generalized host atomic RMW on guest memory: the Section VI rule-based
  // lowering of single-instruction guest atomics (RV32 AMOs). Imm selects
  // the operation (RmwKind); like AtomicAddG it bypasses the scheme and
  // runs as one sequentially-consistent host RMW.
  AtomicRmwG, ///< dst = atomic_rmw<Imm>(guest[A], B) (Size).

  // Fused HST store instrumentation: one micro-op tagging every 4-byte
  // granule covered by [A + Imm, A + Imm + Size) in the hash table the
  // active scheme published in MachineContext (aligned accesses of <= 4
  // bytes cover exactly one granule — the fast path). In a JIT the
  // instrumentation is ~4 inlined host instructions (Figure 5) — i.e. a
  // fraction of one interpreter dispatch — so modeling it as a single
  // micro-op preserves the paper's inline-vs-helper cost ratio under an
  // interpreted engine.
  HstStoreTag, ///< hst_table[granule & mask] = tid + 1 for covered granules.

  // Special reads and services.
  ReadSpecial, ///< dst = special value selected by Imm (SpecialValue).
  SysCall,     ///< dst = system service Imm with argument A (SysCall enum).
  Yield,       ///< Scheduling hint; not a terminator.

  // Terminators.
  SetPcImm, ///< pc = Imm; end of block.
  SetPc,    ///< pc = A; end of block.
  BrCond,   ///< if cc(A, B): pc = Imm, end of block; else fall through.
  Halt,     ///< Thread finished; end of block.

  NumOps
};

/// Selectors for ReadSpecial.
enum class SpecialValue : uint8_t {
  Tid = 0,        ///< Current guest thread id.
  NumThreads = 1, ///< Guest thread count of the machine.
  ClockNanos = 2, ///< Host monotonic nanoseconds.
};

/// Condition codes for BrCond.
enum class CondCode : uint8_t { Eq, Ne, LtS, LtU, GeS, GeU };

/// Operation selector for AtomicRmwG, carried in IRInst::Imm. The numeric
/// values are baked into emitted tier-1 code (thunk argument) — append only.
enum class RmwKind : uint8_t {
  Swap = 0, ///< dst = exchange(guest[A], B).
  Add = 1,  ///< dst = fetch_add(guest[A], B).
  And = 2,  ///< dst = fetch_and(guest[A], B).
  Or = 3,   ///< dst = fetch_or(guest[A], B).
  Xor = 4,  ///< dst = fetch_xor(guest[A], B).
};
constexpr unsigned NumRmwKinds = 5;

/// IRInst::Flags bits.
enum : uint8_t {
  IRFlagSignExtend = 1 << 0, ///< LoadG/HelperLoad sign-extends.
  IRFlagInstrument = 1 << 1, ///< Op was injected by scheme instrumentation.
  /// LoadLink/StoreCond: fault (error-halt) when A is not Size-aligned.
  /// RV32 requires LR/SC addresses naturally aligned; GRV does not. Bit
  /// position 1 << 2 is deliberately skipped: the engine's decoded flag
  /// space derives DecodedFlagCountInline there (engine/Decoded.h), and
  /// keeping pass-through bits at equal positions in both spaces lets
  /// decodeBlock copy them with a mask.
  IRFlagCheckAlign = 1 << 3,
};

/// One micro-op. Fields unused by an opcode are zero.
struct IRInst {
  IROp Op = IROp::MovImm;
  uint8_t Size = 0;  ///< Access size in bytes for memory ops.
  uint8_t Flags = 0; ///< IRFlag* bits.
  CondCode Cc = CondCode::Eq;
  ValueId Dst = 0;
  ValueId A = 0;
  ValueId B = 0;
  int64_t Imm = 0;

  bool operator==(const IRInst &Other) const = default;
};

/// Signature of a generic helper callable from IR. \p Cpu is the executing
/// VCpu (passed as void* to keep the IR library independent of the
/// runtime layer).
using HelperFnPtr = uint64_t (*)(void *Ctx, void *Cpu, uint64_t A, uint64_t B);

/// A registered helper for IROp::Helper.
struct HelperFn {
  HelperFnPtr Fn = nullptr;
  void *Ctx = nullptr;
  const char *Name = "";
};

/// A translated block: straight-line micro-ops for one guest basic block.
struct IRBlock {
  uint64_t GuestPc = 0;        ///< Guest address of the first instruction.
  uint32_t GuestInstCount = 0; ///< Guest instructions covered.
  ValueId NumValues = FirstTempId; ///< Guest regs + temps.
  std::vector<IRInst> Insts;
  std::vector<HelperFn> Helpers;

  /// Number of ops carrying IRFlagInstrument, maintained by the builder;
  /// the profiler uses this to attribute inline-instrumentation cost.
  uint32_t InstrumentOpCount = 0;
};

/// \returns the mnemonic of \p Op (for the printer and diagnostics).
const char *irOpName(IROp Op);

/// \returns the printable name of \p Cc.
const char *condCodeName(CondCode Cc);

/// \returns the printable name of \p Kind ("swap", "add", ...).
const char *rmwKindName(RmwKind Kind);

/// Applies \p Kind to two values (the new value an AtomicRmwG stores).
/// Shared by the interpreter, the JIT thunk, and the constant folder.
inline uint64_t applyRmwKind(RmwKind Kind, uint64_t Old, uint64_t Operand) {
  switch (Kind) {
  case RmwKind::Swap:
    return Operand;
  case RmwKind::Add:
    return Old + Operand;
  case RmwKind::And:
    return Old & Operand;
  case RmwKind::Or:
    return Old | Operand;
  case RmwKind::Xor:
    return Old ^ Operand;
  }
  return Operand;
}

/// \returns true if \p Op ends a block (SetPc/SetPcImm/Halt). BrCond is
/// conditional and therefore not a final terminator.
bool isTerminator(IROp Op);

/// \returns true if the op has no side effects and its result is dead when
/// unused (candidates for dead-code elimination).
bool isPure(IROp Op);

/// \returns true if the op writes Dst.
bool writesDst(IROp Op);

/// Evaluates a pure binary/unary ALU op on constants (used by the constant
/// folder and by the interpreter's shared semantics).
uint64_t evalAluOp(IROp Op, uint64_t A, uint64_t B, int64_t Imm);

/// Evaluates a branch condition.
bool evalCondCode(CondCode Cc, uint64_t A, uint64_t B);

} // namespace ir
} // namespace llsc

#endif // LLSC_IR_IR_H
