//===- engine/jit/JitCompiler.cpp - IR block -> x86-64 lowering ----------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
//
// Lowering strategy (docs/JIT.md):
//  - guest registers are memory-resident at [rbx + Regs[i]] (rbx pins the
//    VCpu*), QEMU-style — correct across thunk calls and safepoint exits
//    for free;
//  - IR temps get linear-scan allocation over {rbp, r12, r13, r14, r15}
//    using last-use indices computed from the block at compile time,
//    spilling to VCpu::JitSpill when the pool is dry;
//  - every op computes through caller-saved scratch (rax/rcx/rdx/rsi/rdi/
//    r8-r11), so values that live across a thunk call are by construction
//    in callee-saved registers or memory;
//  - per-op counter bookkeeping is emitted inline as `add qword [rbx+off]`
//    so tier-1 runs produce the same RunResult counters as tier-0.
//
// Block shape:
//   prologue:  safepoint poll -> chain-budget decrement -> fastmem-epoch
//              check (only if the block uses the inline window) — all
//              before any side effect, so these exits can re-run the block;
//              then ExecutedBlocks/ExecutedInsts bookkeeping.
//   body:      one lowering per DecodedInst, in order.
//   exits:     static exits end in a patchable `jmp rel32` chain site
//              (4-byte-aligned operand) falling through to a stub that
//              reports ExitKind::Exit; other exits load {NextPc, Kind}
//              and jump to the region's shared epilogue.
//
//===----------------------------------------------------------------------===//

#include "engine/jit/JitCompiler.h"

#include "engine/TbCache.h"
#include "engine/jit/JitRuntime.h"
#include "engine/jit/X86Emitter.h"
#include "runtime/VCpu.h"

#include <cstddef>

using namespace llsc;
using namespace llsc::jit;
using namespace llsc::engine;
using namespace llsc::ir;

namespace {

// VCpu field displacements off rbx. VCpu is a plain aggregate; every
// offset fits an int32 displacement.
constexpr int32_t offReg(unsigned Id) {
  return static_cast<int32_t>(offsetof(VCpu, Regs) + 8 * Id);
}
constexpr int32_t offSpill(unsigned Slot) {
  return static_cast<int32_t>(offsetof(VCpu, JitSpill) + 8 * Slot);
}
constexpr int32_t OffHalted = offsetof(VCpu, Halted);
constexpr int32_t OffTid = offsetof(VCpu, Tid);
constexpr int32_t OffFastMemBase = offsetof(VCpu, FastMemBase);
constexpr int32_t OffFastMemLimit = offsetof(VCpu, FastMemLimit);
constexpr int32_t OffFastMemEpoch = offsetof(VCpu, FastMemEpoch);
constexpr int32_t OffChainBudget = offsetof(VCpu, JitChainBudget);
constexpr int32_t OffPendingPatch = offsetof(VCpu, JitPendingPatch);
constexpr int32_t OffCtx = offsetof(VCpu, Ctx);

// MachineContext fields, reached as [[rbx + OffCtx] + off]. Loading these
// at runtime (instead of baking the addresses the old CompileEnv carried)
// keeps emitted code machine-neutral: a snapshot clone with a different
// ExclusiveContext/GuestMemory/scheme instance runs the same bytes.
constexpr int32_t OffCtxExclPending = offsetof(MachineContext, ExclPendingAddr);
constexpr int32_t OffCtxFastEpoch = offsetof(MachineContext, FastEpochAddr);
constexpr int32_t OffCtxHstTable = offsetof(MachineContext, HstTable);
constexpr int32_t OffCtxHstMask = offsetof(MachineContext, HstMask);
constexpr int32_t OffCtxNumThreads = offsetof(MachineContext, NumThreads);

constexpr int32_t offCounter(size_t Member) {
  return static_cast<int32_t>(offsetof(VCpu, Counters) + Member);
}
constexpr int32_t offEvent(size_t Member) {
  return static_cast<int32_t>(offsetof(VCpu, Events) + Member);
}

constexpr int32_t OffExecutedBlocks =
    offCounter(offsetof(CpuCounters, ExecutedBlocks));
constexpr int32_t OffExecutedInsts =
    offCounter(offsetof(CpuCounters, ExecutedInsts));
constexpr int32_t OffLoads = offCounter(offsetof(CpuCounters, Loads));
constexpr int32_t OffStores = offCounter(offsetof(CpuCounters, Stores));
constexpr int32_t OffFastMemHits =
    offEvent(offsetof(EventCounters, FastMemHits));
constexpr int32_t OffInlineInstrumentOps =
    offEvent(offsetof(EventCounters, InlineInstrumentOps));

/// The callee-saved temp pool. rbx is the VCpu pin and not poolable.
constexpr Reg TempPool[] = {RBP, R12, R13, R14, R15};
constexpr unsigned NumPoolRegs = sizeof(TempPool) / sizeof(TempPool[0]);

/// Where a temp currently lives.
struct TempLoc {
  enum Kind : uint8_t { None, InReg, InSpill } K = None;
  uint8_t R = 0;     ///< InReg: pool register.
  uint16_t Slot = 0; ///< InSpill: VCpu::JitSpill index.
};

Cond condFor(CondCode Cc) {
  switch (Cc) {
  case CondCode::Eq:
    return CC_E;
  case CondCode::Ne:
    return CC_NE;
  case CondCode::LtS:
    return CC_L;
  case CondCode::LtU:
    return CC_B;
  case CondCode::GeS:
    return CC_GE;
  case CondCode::GeU:
    return CC_AE;
  }
  llsc_unreachable("bad cond code");
}

Cond invert(Cond Cc) { return static_cast<Cond>(Cc ^ 1); }

bool fitsInt32(uint64_t V) {
  int64_t S = static_cast<int64_t>(V);
  return S >= INT32_MIN && S <= INT32_MAX;
}

/// Register-allocation state indexed by ValueId. One instance per
/// compiling thread: computeLastUse() resizes and refills every array for
/// the block at hand, so nothing carries over between blocks but the
/// capacity.
struct AllocScratch {
  std::vector<TempLoc> Locs;     ///< Where each temp lives.
  std::vector<uint32_t> LastUse; ///< Last referencing inst; ~0u = unused.
  std::vector<bool> Defined;     ///< Use-before-def detection.
  std::vector<uint16_t> FreeSlots;
};

/// Per-block lowering context.
class BlockCompiler {
public:
  BlockCompiler(const CachedBlock &Block, X86Emitter &Em,
                std::vector<Fixup> &Fixups, AllocScratch &Scratch)
      : Block(Block), IR(Block.IR), Em(Em), Fixups(Fixups),
        Locs(Scratch.Locs), LastUse(Scratch.LastUse),
        Defined(Scratch.Defined), FreeSlots(Scratch.FreeSlots) {}

  bool run();

private:
  // --- Register allocation -------------------------------------------------

  void computeLastUse();
  void freeDeadTemps(unsigned InstIdx);
  TempLoc &allocTemp(ValueId Id);

  /// Materializes operand (Bank, Id) into \p Target.
  void readInto(Reg Target, uint8_t Bank, ValueId Id);

  /// \returns a register holding operand (Bank, Id): the temp's pool
  /// register when it has one, else \p Scratch after a load.
  Reg readVal(uint8_t Bank, ValueId Id, Reg Scratch);

  /// Stores \p Src to destination (Bank, Id), allocating temp homes on
  /// first definition.
  void writeDst(uint8_t Bank, ValueId Id, Reg Src);

  // --- Emission helpers ----------------------------------------------------

  void emitCall(const void *Fn) {
    Em.movImm64(R10, reinterpret_cast<uint64_t>(Fn));
    Em.callReg(R10);
  }

  /// jmp rel32 to the region's shared epilogue.
  void emitJmpEpilogue() {
    Em.emit8(0xE9);
    Fixups.push_back({Fixup::RelEpilogue,
                      static_cast<uint32_t>(Em.size()), 0});
    Em.emit32(0);
  }

  /// Loads {NextPc, Kind} and leaves through the epilogue.
  void emitExit(uint64_t NextPc, ExitKind Kind) {
    Em.movImm64(RAX, NextPc);
    Em.movImm64(RDX, static_cast<uint64_t>(Kind));
    emitJmpEpilogue();
  }

  /// A patchable static exit to \p TargetPc: the chain site (jmp rel32,
  /// operand 4-byte aligned, initially falling through) plus the stub
  /// that records the site and reports ExitKind::Exit.
  void emitStaticExit(uint64_t TargetPc) {
    // Block starts are 16-byte aligned, so buffer offsets equal code
    // offsets mod 16; pad until the rel32 operand (opcode + 1) is
    // 4-byte aligned for atomic patching.
    Em.alignWithBias(4, 1); // opcode at size, operand at size+1 ≡ 0 mod 4.
    size_t Site = Em.jmp(); // rel32 0: falls through to the stub below.
    size_t Opnd = Em.movImm64Fixed(R10, 0);
    Fixups.push_back({Fixup::AbsBlockAddr, static_cast<uint32_t>(Opnd),
                      static_cast<uint32_t>(Site)});
    Em.storeQ(RBX, OffPendingPatch, R10);
    emitExit(TargetPc, ExitKind::Exit);
  }

  /// Test VCpu::Halted after a thunk that may halt (out-of-range access);
  /// exits like the interpreter's mid-block halt when set.
  void emitHaltedCheck() {
    Em.cmpByteImm(RBX, OffHalted, 0);
    size_t Skip = Em.jcc(CC_E);
    emitExit(0, ExitKind::Halted);
    Em.patchRel32(Skip, Em.size());
  }

  /// addq [rbx + Disp], 1 — counter bookkeeping.
  void emitCount(int32_t Disp) { Em.addMemImm(RBX, Disp, 1); }

  /// Materializes operand A plus the op's immediate into \p Target (the
  /// effective-address pattern of the memory ops).
  void emitAddrAPlusImm(const DecodedInst &D, Reg Target) {
    readInto(Target, D.ABank, D.A);
    if (D.Imm == 0)
      return;
    if (fitsInt32(static_cast<uint64_t>(D.Imm))) {
      Em.addImm(Target, static_cast<int32_t>(D.Imm));
    } else {
      Em.movImm64(R11, static_cast<uint64_t>(D.Imm));
      Em.add(Target, R11);
    }
  }

  // --- Per-op lowering -----------------------------------------------------

  void emitPrologue();
  bool emitInst(const DecodedInst &D, unsigned InstIdx);
  void emitAluRR(const DecodedInst &D);
  void emitAluImm(const DecodedInst &D);
  void emitLoadG(const DecodedInst &D);
  void emitStoreG(const DecodedInst &D);
  void emitHstStoreTag(const DecodedInst &D);

  const CachedBlock &Block;
  const IRBlock &IR;
  X86Emitter &Em;
  std::vector<Fixup> &Fixups;

  std::vector<TempLoc> &Locs;
  std::vector<uint32_t> &LastUse;
  std::vector<bool> &Defined;
  std::vector<uint16_t> &FreeSlots;
  bool RegFree[NumPoolRegs] = {true, true, true, true, true};
  uint16_t NextSlot = 0;
  bool UseBeforeDef = false;
};

void BlockCompiler::computeLastUse() {
  const unsigned NumValues = IR.NumValues;
  Locs.assign(NumValues, TempLoc());
  Defined.assign(NumValues, false);
  LastUse.assign(NumValues, ~0u);
  FreeSlots.clear();

  // Computed here, not at translation, so blocks that never get hot
  // never pay for it and the cache keeps no liveness array per block.
  for (unsigned I = 0; I < Block.Decoded.size(); ++I) {
    const DecodedInst &D = Block.Decoded[I];
    if (D.ABank == BankTemps)
      LastUse[D.A] = I;
    if (D.BBank == BankTemps)
      LastUse[D.B] = I;
    // Forward iteration leaves the last reference (use or def) in place;
    // a def with no later uses frees its home right after the def.
    if (D.DstBank == BankTemps && writesDst(D.Op))
      LastUse[D.Dst] = I;
  }
}

void BlockCompiler::freeDeadTemps(unsigned InstIdx) {
  for (ValueId Id = FirstTempId; Id < Locs.size(); ++Id) {
    if (LastUse[Id] != InstIdx)
      continue;
    TempLoc &L = Locs[Id];
    if (L.K == TempLoc::InReg) {
      for (unsigned P = 0; P < NumPoolRegs; ++P)
        if (TempPool[P] == static_cast<Reg>(L.R))
          RegFree[P] = true;
    } else if (L.K == TempLoc::InSpill) {
      FreeSlots.push_back(L.Slot);
    }
    L = TempLoc();
  }
}

TempLoc &BlockCompiler::allocTemp(ValueId Id) {
  TempLoc &L = Locs[Id];
  if (L.K != TempLoc::None)
    return L;
  for (unsigned P = 0; P < NumPoolRegs; ++P) {
    if (RegFree[P]) {
      RegFree[P] = false;
      L.K = TempLoc::InReg;
      L.R = TempPool[P];
      return L;
    }
  }
  L.K = TempLoc::InSpill;
  if (!FreeSlots.empty()) {
    L.Slot = FreeSlots.back();
    FreeSlots.pop_back();
  } else {
    L.Slot = NextSlot++;
  }
  return L;
}

void BlockCompiler::readInto(Reg Target, uint8_t Bank, ValueId Id) {
  if (Bank == BankRegs) {
    Em.loadQ(Target, RBX, offReg(Id));
    return;
  }
  if (!Defined[Id])
    UseBeforeDef = true;
  const TempLoc &L = Locs[Id];
  switch (L.K) {
  case TempLoc::InReg:
    if (static_cast<Reg>(L.R) != Target)
      Em.movReg(Target, static_cast<Reg>(L.R));
    return;
  case TempLoc::InSpill:
    Em.loadQ(Target, RBX, offSpill(L.Slot));
    return;
  case TempLoc::None:
    // Use-before-def: flagged above; emit a deterministic zero so the
    // buffer stays well-formed until run() notices and bails.
    Em.xor_(Target, Target);
    return;
  }
}

Reg BlockCompiler::readVal(uint8_t Bank, ValueId Id, Reg Scratch) {
  if (Bank == BankTemps && Locs[Id].K == TempLoc::InReg) {
    if (!Defined[Id])
      UseBeforeDef = true;
    return static_cast<Reg>(Locs[Id].R);
  }
  readInto(Scratch, Bank, Id);
  return Scratch;
}

void BlockCompiler::writeDst(uint8_t Bank, ValueId Id, Reg Src) {
  if (Bank == BankRegs) {
    Em.storeQ(RBX, offReg(Id), Src);
    return;
  }
  Defined[Id] = true;
  TempLoc &L = allocTemp(Id);
  if (L.K == TempLoc::InReg) {
    if (static_cast<Reg>(L.R) != Src)
      Em.movReg(static_cast<Reg>(L.R), Src);
  } else {
    Em.storeQ(RBX, offSpill(L.Slot), Src);
  }
}

void BlockCompiler::emitPrologue() {
  const uint64_t Pc = IR.GuestPc;

  // Safepoint poll: one byte compare against the ExclusiveContext flag,
  // reached through the machine context so the code stays machine-neutral.
  Em.loadQ(R10, RBX, OffCtx);
  Em.loadQ(R10, R10, OffCtxExclPending);
  Em.cmpByteImm(R10, 0, 0);
  size_t SkipSp = Em.jcc(CC_E);
  emitExit(Pc, ExitKind::Safepoint);
  Em.patchRel32(SkipSp, Em.size());

  // Chained-execution budget.
  Em.decMem(RBX, OffChainBudget);
  size_t SkipBudget = Em.jcc(CC_NS);
  emitExit(Pc, ExitKind::Budget);
  Em.patchRel32(SkipBudget, Em.size());

  // Fastmem-epoch check, only when the block has inline window accesses:
  // a protection transition (PST family) while this vCPU was parked makes
  // the cached window stale — deopt before any side effect and let the
  // runtime revalidate (the fault-driven path of docs/JIT.md).
  bool UsesFastMem = false;
  for (const DecodedInst &D : Block.Decoded)
    if ((D.Op == IROp::LoadG || D.Op == IROp::StoreG) &&
        !(D.Flags & DecodedFlagInstrument))
      UsesFastMem = true;
  if (UsesFastMem) {
    Em.loadQ(R10, RBX, OffCtx);
    Em.loadQ(R10, R10, OffCtxFastEpoch);
    Em.loadQ(R10, R10, 0);
    Em.cmpRegMem(R10, RBX, OffFastMemEpoch);
    size_t SkipEpoch = Em.jcc(CC_E);
    emitExit(Pc, ExitKind::Deopt);
    Em.patchRel32(SkipEpoch, Em.size());
  }

  // Past every re-runnable exit: the block now counts as executed, like
  // the interpreter's post-execBlock bookkeeping (halts included).
  Em.addMemImm(RBX, OffExecutedBlocks, 1);
  Em.addMemImm(RBX, OffExecutedInsts,
               static_cast<int32_t>(IR.GuestInstCount));
}

void BlockCompiler::emitAluRR(const DecodedInst &D) {
  readInto(RAX, D.ABank, D.A);
  switch (D.Op) {
  case IROp::Mov:
    break;
  case IROp::Add:
    Em.add(RAX, readVal(D.BBank, D.B, RCX));
    break;
  case IROp::Sub:
    Em.sub(RAX, readVal(D.BBank, D.B, RCX));
    break;
  case IROp::Mul:
    Em.imul(RAX, readVal(D.BBank, D.B, RCX));
    break;
  case IROp::And:
    Em.and_(RAX, readVal(D.BBank, D.B, RCX));
    break;
  case IROp::Or:
    Em.or_(RAX, readVal(D.BBank, D.B, RCX));
    break;
  case IROp::Xor:
    Em.xor_(RAX, readVal(D.BBank, D.B, RCX));
    break;
  case IROp::Shl:
    readInto(RCX, D.BBank, D.B);
    Em.shiftCl(4, RAX);
    break;
  case IROp::Shr:
    readInto(RCX, D.BBank, D.B);
    Em.shiftCl(5, RAX);
    break;
  case IROp::Sar:
    readInto(RCX, D.BBank, D.B);
    Em.shiftCl(7, RAX);
    break;
  case IROp::SltS:
    Em.cmp(RAX, readVal(D.BBank, D.B, RCX));
    Em.setccZx(CC_L, RAX);
    break;
  case IROp::SltU:
    Em.cmp(RAX, readVal(D.BBank, D.B, RCX));
    Em.setccZx(CC_B, RAX);
    break;
  default:
    llsc_unreachable("not a reg-reg ALU op");
  }
  writeDst(D.DstBank, D.Dst, RAX);
}

void BlockCompiler::emitAluImm(const DecodedInst &D) {
  readInto(RAX, D.ABank, D.A);
  uint64_t Imm = static_cast<uint64_t>(D.Imm);
  bool Small = fitsInt32(Imm);
  if (!Small)
    Em.movImm64(RCX, Imm);
  int32_t I32 = static_cast<int32_t>(Imm);
  switch (D.Op) {
  case IROp::AddImm:
    Small ? Em.addImm(RAX, I32) : Em.add(RAX, RCX);
    break;
  case IROp::AndImm:
    Small ? Em.andImm(RAX, I32) : Em.and_(RAX, RCX);
    break;
  case IROp::OrImm:
    Small ? Em.aluImm(1, RAX, I32) : Em.or_(RAX, RCX);
    break;
  case IROp::XorImm:
    Small ? Em.aluImm(6, RAX, I32) : Em.xor_(RAX, RCX);
    break;
  case IROp::ShlImm:
    Em.shiftImm(4, RAX, static_cast<uint8_t>(Imm & 63));
    break;
  case IROp::ShrImm:
    Em.shiftImm(5, RAX, static_cast<uint8_t>(Imm & 63));
    break;
  case IROp::SarImm:
    Em.shiftImm(7, RAX, static_cast<uint8_t>(Imm & 63));
    break;
  case IROp::SltSImm:
    Small ? Em.cmpImm(RAX, I32) : Em.cmp(RAX, RCX);
    Em.setccZx(CC_L, RAX);
    break;
  case IROp::SltUImm:
    Small ? Em.cmpImm(RAX, I32) : Em.cmp(RAX, RCX);
    Em.setccZx(CC_B, RAX);
    break;
  default:
    llsc_unreachable("not an ALU-imm op");
  }
  writeDst(D.DstBank, D.Dst, RAX);
}

void BlockCompiler::emitLoadG(const DecodedInst &D) {
  emitAddrAPlusImm(D, RSI); // rsi = guest address (slow-path arg 2).
  bool Sext = (D.Flags & DecodedFlagSignExtend) != 0;
  bool Inline = !(D.Flags & DecodedFlagInstrument);

  size_t ToDone = 0;
  if (Inline) {
    // Inline fastmem window, interpreter condition verbatim:
    // Addr < FastLimit && Size <= FastLimit - Addr. The subtraction form
    // (not addr+size vs limit) is deliberate — addr+size can wrap at the
    // top of the 64-bit space and a wrapped sum would slip past a
    // compare, turning an out-of-range guest access into an unguarded
    // host fault.
    Em.loadQ(R10, RBX, OffFastMemLimit);
    Em.cmp(RSI, R10);
    size_t Slow1 = Em.jcc(CC_AE);
    Em.movReg(R11, R10);
    Em.sub(R11, RSI);
    Em.cmpImm(R11, static_cast<int32_t>(D.Size));
    size_t Slow2 = Em.jcc(CC_B);
    Em.loadQ(R10, RBX, OffFastMemBase);
    if (Sext)
      Em.loadSx(RAX, R10, RSI, D.Size);
    else
      Em.loadZx(RAX, R10, RSI, D.Size);
    emitCount(OffLoads);
    emitCount(OffFastMemHits);
    ToDone = Em.jmp();
    Em.patchRel32(Slow1, Em.size());
    Em.patchRel32(Slow2, Em.size());
  }

  // Slow path (always taken for instrumented ops, like the interpreter).
  Em.movReg(RDI, RBX);
  Em.movImm64(RDX, D.Size | (Sext ? 0x100u : 0u));
  Em.movImm64(RCX, IR.GuestPc);
  emitCall(reinterpret_cast<const void *>(&llscJitLoadSlow));
  emitHaltedCheck();

  if (Inline)
    Em.patchRel32(ToDone, Em.size());
  writeDst(D.DstBank, D.Dst, RAX);
}

void BlockCompiler::emitStoreG(const DecodedInst &D) {
  emitAddrAPlusImm(D, RSI);        // rsi = guest address.
  readInto(RDX, D.BBank, D.B);     // rdx = value (slow-path arg 3).
  bool Inline = !(D.Flags & DecodedFlagInstrument);

  size_t ToDone = 0;
  if (Inline) {
    Em.loadQ(R10, RBX, OffFastMemLimit);
    Em.cmp(RSI, R10);
    size_t Slow1 = Em.jcc(CC_AE);
    Em.movReg(R11, R10);
    Em.sub(R11, RSI);
    Em.cmpImm(R11, static_cast<int32_t>(D.Size));
    size_t Slow2 = Em.jcc(CC_B);
    Em.loadQ(R10, RBX, OffFastMemBase);
    Em.storeSized(R10, RSI, RDX, D.Size);
    emitCount(OffStores);
    emitCount(OffFastMemHits);
    ToDone = Em.jmp();
    Em.patchRel32(Slow1, Em.size());
    Em.patchRel32(Slow2, Em.size());
  }

  Em.movReg(RDI, RBX);
  Em.movImm64(RCX, D.Size);
  Em.movImm64(R8, IR.GuestPc);
  emitCall(reinterpret_cast<const void *>(&llscJitStoreSlow));
  emitHaltedCheck();

  if (Inline)
    Em.patchRel32(ToDone, Em.size());
}

void BlockCompiler::emitHstStoreTag(const DecodedInst &D) {
  // Fused multi-granule tag store (the paper's Figure 5 inline sequence).
  // Table and mask are read through the machine context at runtime with
  // the interpreter's null guard — no scheme publishes a table => skip —
  // so the same code body serves any machine: snapshot clones adopt it
  // wholesale and each supplies its own tables through its own context.
  Em.loadQ(RDX, RBX, OffCtx);
  Em.loadQ(RAX, RDX, OffCtxHstMask);
  Em.loadQ(RDX, RDX, OffCtxHstTable);
  Em.cmpImm(RDX, 0);
  size_t SkipAll = Em.jcc(CC_E);
  emitAddrAPlusImm(D, RSI);
  Em.movReg(RCX, RSI);
  Em.shiftImm(5, RCX, 2); // rcx = First = Addr >> 2.
  Em.lea(R10, RSI, static_cast<int32_t>(D.Size) - 1);
  Em.shiftImm(5, R10, 2); // r10 = Last.
  Em.loadDword(R11, RBX, OffTid);
  Em.addImm(R11, 1); // r11 = Tid + 1 (tag value).
  size_t Loop = Em.size();
  Em.movReg(RDI, RCX);
  Em.and_(RDI, RAX);
  Em.storeDwordScaled4(RDX, RDI, R11); // table[granule & mask] = tag.
  Em.cmp(RCX, R10);
  size_t Done = Em.jcc(CC_E);
  Em.addImm(RCX, 1);
  Em.patchRel32(Em.jmp(), Loop);
  Em.patchRel32(Done, Em.size());
  Em.patchRel32(SkipAll, Em.size());
}

bool BlockCompiler::emitInst(const DecodedInst &D, unsigned InstIdx) {
  // The interpreter's INSTRUMENT_CHECK, folded to its !Profiling form
  // (tier-1 never runs with profiling enabled).
  if (D.Flags & DecodedFlagCountInline)
    emitCount(OffInlineInstrumentOps);

  switch (D.Op) {
  case IROp::MovImm:
    Em.movImm64(RAX, static_cast<uint64_t>(D.Imm));
    writeDst(D.DstBank, D.Dst, RAX);
    break;

  case IROp::Mov:
  case IROp::Add:
  case IROp::Sub:
  case IROp::Mul:
  case IROp::And:
  case IROp::Or:
  case IROp::Xor:
  case IROp::Shl:
  case IROp::Shr:
  case IROp::Sar:
  case IROp::SltS:
  case IROp::SltU:
    emitAluRR(D);
    break;

  case IROp::UDiv:
  case IROp::SDiv:
  case IROp::URem:
  case IROp::SRem:
    // Division edge semantics (x/0 and INT64_MIN/-1 yield 0) via the
    // shared evalAluOp thunk; division is rare in guest code.
    readInto(RSI, D.ABank, D.A);
    readInto(RDX, D.BBank, D.B);
    Em.movImm64(RDI, static_cast<uint64_t>(D.Op));
    emitCall(reinterpret_cast<const void *>(&llscJitDivRem));
    writeDst(D.DstBank, D.Dst, RAX);
    break;

  case IROp::AddImm:
  case IROp::AndImm:
  case IROp::OrImm:
  case IROp::XorImm:
  case IROp::ShlImm:
  case IROp::ShrImm:
  case IROp::SarImm:
  case IROp::SltSImm:
  case IROp::SltUImm:
    emitAluImm(D);
    break;

  case IROp::LoadG:
    emitLoadG(D);
    break;
  case IROp::StoreG:
    emitStoreG(D);
    break;

  case IROp::LoadHost:
    // Relaxed host access to scheme tables; plain movs (the tables are
    // naturally aligned — same access the interpreter's hostLoad makes).
    emitAddrAPlusImm(D, RSI);
    Em.loadSizedZx(RAX, RSI, 0, D.Size);
    writeDst(D.DstBank, D.Dst, RAX);
    break;
  case IROp::StoreHost:
    emitAddrAPlusImm(D, RSI);
    readInto(RDX, D.BBank, D.B);
    Em.storeSizedAt(RSI, 0, RDX, D.Size);
    break;

  case IROp::LoadLink:
    Em.movReg(RDI, RBX);
    readInto(RSI, D.ABank, D.A);
    Em.movImm64(RDX,
                D.Size | ((D.Flags & DecodedFlagCheckAlign) ? 0x100u : 0u));
    emitCall(reinterpret_cast<const void *>(&llscJitLoadLink));
    if (D.Flags & DecodedFlagCheckAlign)
      emitHaltedCheck();
    writeDst(D.DstBank, D.Dst, RAX);
    break;
  case IROp::StoreCond:
    Em.movReg(RDI, RBX);
    readInto(RSI, D.ABank, D.A);
    readInto(RDX, D.BBank, D.B);
    Em.movImm64(RCX,
                D.Size | ((D.Flags & DecodedFlagCheckAlign) ? 0x100u : 0u));
    emitCall(reinterpret_cast<const void *>(&llscJitStoreCond));
    if (D.Flags & DecodedFlagCheckAlign)
      emitHaltedCheck();
    writeDst(D.DstBank, D.Dst, RAX);
    break;
  case IROp::ClearExcl:
    Em.movReg(RDI, RBX);
    emitCall(reinterpret_cast<const void *>(&llscJitClearExcl));
    break;
  case IROp::Fence:
    Em.mfence();
    break;

  case IROp::HelperStore:
    emitAddrAPlusImm(D, RSI);
    Em.movReg(RDI, RBX);
    readInto(RDX, D.BBank, D.B);
    Em.movImm64(RCX, D.Size);
    emitCall(reinterpret_cast<const void *>(&llscJitHelperStore));
    break;
  case IROp::HelperLoad:
    emitAddrAPlusImm(D, RSI);
    Em.movReg(RDI, RBX);
    Em.movImm64(RDX, D.Size);
    Em.movImm64(RCX, (D.Flags & DecodedFlagSignExtend) ? 1 : 0);
    emitCall(reinterpret_cast<const void *>(&llscJitHelperLoad));
    writeDst(D.DstBank, D.Dst, RAX);
    break;
  case IROp::Helper: {
    const HelperFn *Fn = &IR.Helpers[static_cast<size_t>(D.Imm)];
    Em.movReg(RDI, RBX);
    Em.movImm64(RSI, reinterpret_cast<uint64_t>(Fn));
    readInto(RDX, D.ABank, D.A);
    readInto(RCX, D.BBank, D.B);
    emitCall(reinterpret_cast<const void *>(&llscJitHelper));
    writeDst(D.DstBank, D.Dst, RAX);
    break;
  }

  case IROp::AtomicAddG:
    Em.movReg(RDI, RBX);
    readInto(RSI, D.ABank, D.A);
    readInto(RDX, D.BBank, D.B);
    Em.movImm64(RCX, D.Size);
    emitCall(reinterpret_cast<const void *>(&llscJitAtomicAdd));
    emitHaltedCheck();
    writeDst(D.DstBank, D.Dst, RAX);
    break;

  case IROp::AtomicRmwG:
    Em.movReg(RDI, RBX);
    readInto(RSI, D.ABank, D.A);
    readInto(RDX, D.BBank, D.B);
    Em.movImm64(RCX, D.Size | (static_cast<uint64_t>(D.Imm) << 8));
    emitCall(reinterpret_cast<const void *>(&llscJitAtomicRmw));
    emitHaltedCheck();
    writeDst(D.DstBank, D.Dst, RAX);
    break;

  case IROp::HstStoreTag:
    emitHstStoreTag(D);
    break;

  case IROp::ReadSpecial:
    switch (static_cast<SpecialValue>(D.Imm)) {
    case SpecialValue::Tid:
      Em.loadDword(RAX, RBX, OffTid);
      break;
    case SpecialValue::NumThreads:
      Em.loadQ(RAX, RBX, OffCtx);
      Em.loadDword(RAX, RAX, OffCtxNumThreads); // mov r32 zero-extends.
      break;
    case SpecialValue::ClockNanos:
      emitCall(reinterpret_cast<const void *>(&llscJitClockNanos));
      break;
    }
    writeDst(D.DstBank, D.Dst, RAX);
    break;

  case IROp::SysCall:
    Em.movReg(RDI, RBX);
    readInto(RSI, D.ABank, D.A);
    Em.movImm64(RDX, static_cast<uint64_t>(D.Imm));
    emitCall(reinterpret_cast<const void *>(&llscJitSysCall));
    writeDst(D.DstBank, D.Dst, RAX);
    break;

  case IROp::Yield:
    Em.movReg(RDI, RBX);
    emitCall(reinterpret_cast<const void *>(&llscJitYield));
    break;

  case IROp::BrCond: {
    readInto(RAX, D.ABank, D.A);
    Em.cmp(RAX, readVal(D.BBank, D.B, RCX));
    // Inverted branch skips the inline static-exit island.
    size_t Skip = Em.jcc(invert(condFor(D.Cc)));
    freeDeadTemps(InstIdx); // Exits need no temps; free before the island.
    emitStaticExit(static_cast<uint64_t>(D.Imm));
    Em.patchRel32(Skip, Em.size());
    return true;
  }
  case IROp::SetPcImm:
    emitStaticExit(static_cast<uint64_t>(D.Imm));
    return true;
  case IROp::SetPc:
    readInto(RAX, D.ABank, D.A);
    Em.movImm64(RDX, static_cast<uint64_t>(ExitKind::Indirect));
    emitJmpEpilogue();
    return true;
  case IROp::Halt:
    Em.storeByteImm(RBX, OffHalted, 1);
    emitExit(0, ExitKind::Halted);
    return true;

  case IROp::NumOps:
    return false;
  }

  freeDeadTemps(InstIdx);
  return true;
}

bool BlockCompiler::run() {
  // Temp pressure beyond the spill area is a bail, not an error.
  if (IR.NumValues > FirstTempId + VCpu::NumJitSpillSlots)
    return false;
  if (Block.Decoded.empty())
    return false;

  computeLastUse();
  emitPrologue();

  for (unsigned I = 0; I < Block.Decoded.size(); ++I)
    if (!emitInst(Block.Decoded[I], I))
      return false;
  if (UseBeforeDef || NextSlot > VCpu::NumJitSpillSlots)
    return false;
  return true;
}

} // namespace

bool llsc::jit::compileBlock(const CachedBlock &Block, X86Emitter &Em,
                             std::vector<Fixup> &Fixups) {
  thread_local AllocScratch Scratch;
  return BlockCompiler(Block, Em, Fixups, Scratch).run();
}
