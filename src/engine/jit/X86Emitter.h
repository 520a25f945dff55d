//===- engine/jit/X86Emitter.h - Raw x86-64 machine-code writer -*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal x86-64 byte emitter for the tier-1 JIT: no external assembler,
/// just REX/ModRM/SIB encoding into a growable byte buffer (the
/// machine_code_writer idiom of SNIPPETS.md snippets 1-3). The
/// TranslationContext (JitCompiler.cpp) is the only client; it emits a
/// block into a local buffer, then CodeCache::install copies the bytes
/// into the dual-mapped executable region and resolves the recorded
/// external fixups against final addresses.
///
/// Only the subset of the ISA the lowering needs is implemented. All
/// integer ops are 64-bit (REX.W) unless the name says otherwise; memory
/// operands handle the RSP/R12 SIB and RBP/R13 disp8 encoding corners.
///
//===----------------------------------------------------------------------===//

#ifndef LLSC_ENGINE_JIT_X86EMITTER_H
#define LLSC_ENGINE_JIT_X86EMITTER_H

#include "support/Compiler.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace llsc {
namespace jit {

/// Host register numbers (hardware encoding).
enum Reg : uint8_t {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

/// x86 condition-code nibble for Jcc / SETcc.
enum Cond : uint8_t {
  CC_O = 0x0,
  CC_B = 0x2,  ///< unsigned <
  CC_AE = 0x3, ///< unsigned >=
  CC_E = 0x4,
  CC_NE = 0x5,
  CC_BE = 0x6, ///< unsigned <=
  CC_A = 0x7,  ///< unsigned >
  CC_S = 0x8,  ///< sign set
  CC_NS = 0x9,
  CC_L = 0xC,  ///< signed <
  CC_GE = 0xD, ///< signed >=
  CC_LE = 0xE, ///< signed <=
  CC_G = 0xF,  ///< signed >
};

/// Byte-buffer machine-code writer.
class X86Emitter {
public:
  /// Starts with room for a typical block so emission does not regrow
  /// the buffer as it goes.
  X86Emitter() { Buf.reserve(InitialCapacity); }

  const uint8_t *data() const { return Buf.data(); }
  size_t size() const { return Buf.size(); }

  // --- Raw bytes -----------------------------------------------------------

  void emit8(uint8_t B) { Buf.push_back(B); }
  void emit16(uint16_t V) {
    emit8(static_cast<uint8_t>(V));
    emit8(static_cast<uint8_t>(V >> 8));
  }
  // Immediates are little-endian, as is the (x86-64) host, so a plain
  // copy of the value's bytes is the encoding.
  void emit32(uint32_t V) { emitBytes(&V, sizeof(V)); }
  void emit64(uint64_t V) { emitBytes(&V, sizeof(V)); }

  void nop() { emit8(0x90); }

  /// Pads with NOPs until (size() + Bias) is a multiple of \p Align.
  void alignWithBias(unsigned Align, unsigned Bias) {
    while ((Buf.size() + Bias) % Align != 0)
      nop();
  }

  // --- Moves ---------------------------------------------------------------

  /// mov r64, imm64 (movabs). Emits the shorter mov r32, imm32 /
  /// mov r64, simm32 forms when the value allows.
  void movImm64(Reg Dst, uint64_t Imm) {
    if (Imm <= UINT32_MAX) {
      // mov r32, imm32 zero-extends.
      rexOpt(0, Dst);
      emit8(0xB8 | (Dst & 7));
      emit32(static_cast<uint32_t>(Imm));
      return;
    }
    if (static_cast<int64_t>(Imm) < 0 &&
        static_cast<int64_t>(Imm) >= INT32_MIN) {
      // mov r/m64, simm32.
      rexW(0, Dst);
      emit8(0xC7);
      modrmReg(0, Dst);
      emit32(static_cast<uint32_t>(Imm));
      return;
    }
    rexW(0, Dst);
    emit8(0xB8 | (Dst & 7));
    emit64(Imm);
  }

  /// mov r64, imm64 in the fixed 10-byte movabs form (never shortened),
  /// for operands a Fixup will overwrite. \returns the buffer offset of
  /// the imm64.
  size_t movImm64Fixed(Reg Dst, uint64_t Imm) {
    rexW(0, Dst);
    emit8(0xB8 | (Dst & 7));
    size_t At = Buf.size();
    emit64(Imm);
    return At;
  }

  /// mov r64, r64.
  void movReg(Reg Dst, Reg Src) {
    rexW(Src, Dst);
    emit8(0x89);
    modrmReg(Src, Dst);
  }

  /// mov r64, [Base + Disp].
  void loadQ(Reg Dst, Reg Base, int32_t Disp) {
    rexW(Dst, Base);
    emit8(0x8B);
    modrmMem(Dst, Base, Disp);
  }

  /// mov [Base + Disp], r64.
  void storeQ(Reg Base, int32_t Disp, Reg Src) {
    rexW(Src, Base);
    emit8(0x89);
    modrmMem(Src, Base, Disp);
  }

  /// Zero-extending load of Size (1/2/4/8) bytes: movzx / mov r32 / mov r64
  /// from [Base + Index].
  void loadZx(Reg Dst, Reg Base, Reg Index, unsigned Size) {
    switch (Size) {
    case 1:
      rexW(Dst, Base, Index);
      emit8(0x0F);
      emit8(0xB6);
      modrmSib(Dst, Base, Index, 0, 0);
      return;
    case 2:
      rexW(Dst, Base, Index);
      emit8(0x0F);
      emit8(0xB7);
      modrmSib(Dst, Base, Index, 0, 0);
      return;
    case 4:
      // mov r32, m32 zero-extends to 64.
      rexOpt(Dst, Base, Index);
      emit8(0x8B);
      modrmSib(Dst, Base, Index, 0, 0);
      return;
    case 8:
      rexW(Dst, Base, Index);
      emit8(0x8B);
      modrmSib(Dst, Base, Index, 0, 0);
      return;
    }
    llsc_unreachable("bad load size");
  }

  /// Sign-extending load of Size (1/2/4) bytes from [Base + Index];
  /// Size 8 is a plain load.
  void loadSx(Reg Dst, Reg Base, Reg Index, unsigned Size) {
    switch (Size) {
    case 1:
      rexW(Dst, Base, Index);
      emit8(0x0F);
      emit8(0xBE);
      modrmSib(Dst, Base, Index, 0, 0);
      return;
    case 2:
      rexW(Dst, Base, Index);
      emit8(0x0F);
      emit8(0xBF);
      modrmSib(Dst, Base, Index, 0, 0);
      return;
    case 4:
      // movsxd r64, m32.
      rexW(Dst, Base, Index);
      emit8(0x63);
      modrmSib(Dst, Base, Index, 0, 0);
      return;
    case 8:
      loadZx(Dst, Base, Index, 8);
      return;
    }
    llsc_unreachable("bad load size");
  }

  /// Store of the low Size (1/2/4/8) bytes of Src to [Base + Index].
  void storeSized(Reg Base, Reg Index, Reg Src, unsigned Size) {
    switch (Size) {
    case 1:
      // mov m8, r8 needs REX to reach SIL/DIL/r8b+; always emit one.
      rexForce(Src, Base, Index, /*Wide=*/false);
      emit8(0x88);
      modrmSib(Src, Base, Index, 0, 0);
      return;
    case 2:
      emit8(0x66);
      rexOpt(Src, Base, Index);
      emit8(0x89);
      modrmSib(Src, Base, Index, 0, 0);
      return;
    case 4:
      rexOpt(Src, Base, Index);
      emit8(0x89);
      modrmSib(Src, Base, Index, 0, 0);
      return;
    case 8:
      rexW(Src, Base, Index);
      emit8(0x89);
      modrmSib(Src, Base, Index, 0, 0);
      return;
    }
    llsc_unreachable("bad store size");
  }

  /// Zero-extending load of Size (1/2/4/8) bytes from [Base + Disp].
  void loadSizedZx(Reg Dst, Reg Base, int32_t Disp, unsigned Size) {
    switch (Size) {
    case 1:
      rexW(Dst, Base);
      emit8(0x0F);
      emit8(0xB6);
      modrmMem(Dst, Base, Disp);
      return;
    case 2:
      rexW(Dst, Base);
      emit8(0x0F);
      emit8(0xB7);
      modrmMem(Dst, Base, Disp);
      return;
    case 4:
      rexOpt(Dst, Base);
      emit8(0x8B);
      modrmMem(Dst, Base, Disp);
      return;
    case 8:
      loadQ(Dst, Base, Disp);
      return;
    }
    llsc_unreachable("bad load size");
  }

  /// Store of the low Size (1/2/4/8) bytes of Src to [Base + Disp].
  void storeSizedAt(Reg Base, int32_t Disp, Reg Src, unsigned Size) {
    switch (Size) {
    case 1:
      rexForce(Src, Base, 0, /*Wide=*/false);
      emit8(0x88);
      modrmMem(Src, Base, Disp);
      return;
    case 2:
      emit8(0x66);
      rexOpt(Src, Base);
      emit8(0x89);
      modrmMem(Src, Base, Disp);
      return;
    case 4:
      rexOpt(Src, Base);
      emit8(0x89);
      modrmMem(Src, Base, Disp);
      return;
    case 8:
      storeQ(Base, Disp, Src);
      return;
    }
    llsc_unreachable("bad store size");
  }

  /// mov dword [Base + Index*4], r32 (HST tag store).
  void storeDwordScaled4(Reg Base, Reg Index, Reg Src) {
    rexOpt(Src, Base, Index);
    emit8(0x89);
    modrmSib(Src, Base, Index, /*Scale=*/2, /*Disp=*/0);
  }

  /// movzx r64, dword [Base + Disp] — 32-bit field load (Tid).
  void loadDword(Reg Dst, Reg Base, int32_t Disp) {
    rexOpt(Dst, Base);
    emit8(0x8B);
    modrmMem(Dst, Base, Disp);
  }

  /// mov byte [Base + Disp], imm8.
  void storeByteImm(Reg Base, int32_t Disp, uint8_t Imm) {
    rexOpt(0, Base);
    emit8(0xC6);
    modrmMem(0, Base, Disp);
    emit8(Imm);
  }

  /// cmp byte [Base + Disp], imm8.
  void cmpByteImm(Reg Base, int32_t Disp, uint8_t Imm) {
    rexOpt(0, Base);
    emit8(0x80);
    modrmMem(7, Base, Disp);
    emit8(Imm);
  }

  /// lea r64, [Base + Disp].
  void lea(Reg Dst, Reg Base, int32_t Disp) {
    rexW(Dst, Base);
    emit8(0x8D);
    modrmMem(Dst, Base, Disp);
  }

  // --- ALU (64-bit, reg/reg and reg/imm) -----------------------------------

  void add(Reg Dst, Reg Src) { aluRR(0x01, Src, Dst); }
  void sub(Reg Dst, Reg Src) { aluRR(0x29, Src, Dst); }
  void and_(Reg Dst, Reg Src) { aluRR(0x21, Src, Dst); }
  void or_(Reg Dst, Reg Src) { aluRR(0x09, Src, Dst); }
  void xor_(Reg Dst, Reg Src) { aluRR(0x31, Src, Dst); }
  void cmp(Reg A, Reg B) { aluRR(0x39, B, A); }

  void imul(Reg Dst, Reg Src) {
    rexW(Dst, Src);
    emit8(0x0F);
    emit8(0xAF);
    modrmReg(Dst, Src);
  }

  /// 64-bit ALU with sign-extended imm32: /0 add, /4 and, /1 or, /6 xor,
  /// /5 sub, /7 cmp.
  void aluImm(uint8_t OpExt, Reg Dst, int32_t Imm) {
    if (Imm >= INT8_MIN && Imm <= INT8_MAX) {
      rexW(0, Dst);
      emit8(0x83);
      modrmReg(OpExt, Dst);
      emit8(static_cast<uint8_t>(Imm));
      return;
    }
    rexW(0, Dst);
    emit8(0x81);
    modrmReg(OpExt, Dst);
    emit32(static_cast<uint32_t>(Imm));
  }
  void addImm(Reg Dst, int32_t Imm) { aluImm(0, Dst, Imm); }
  void subImm(Reg Dst, int32_t Imm) { aluImm(5, Dst, Imm); }
  void andImm(Reg Dst, int32_t Imm) { aluImm(4, Dst, Imm); }
  void cmpImm(Reg Dst, int32_t Imm) { aluImm(7, Dst, Imm); }

  /// add qword [Base + Disp], imm (sign-extended imm8/imm32) — counters.
  void addMemImm(Reg Base, int32_t Disp, int32_t Imm) {
    rexW(0, Base);
    if (Imm >= INT8_MIN && Imm <= INT8_MAX) {
      emit8(0x83);
      modrmMem(0, Base, Disp);
      emit8(static_cast<uint8_t>(Imm));
      return;
    }
    emit8(0x81);
    modrmMem(0, Base, Disp);
    emit32(static_cast<uint32_t>(Imm));
  }

  /// dec qword [Base + Disp].
  void decMem(Reg Base, int32_t Disp) {
    rexW(0, Base);
    emit8(0xFF);
    modrmMem(1, Base, Disp);
  }

  /// cmp r64, qword [Base + Disp].
  void cmpRegMem(Reg A, Reg Base, int32_t Disp) {
    rexW(A, Base);
    emit8(0x3B);
    modrmMem(A, Base, Disp);
  }

  // --- Shifts --------------------------------------------------------------

  /// shl/shr/sar r64, cl. OpExt: 4 shl, 5 shr, 7 sar.
  void shiftCl(uint8_t OpExt, Reg Dst) {
    rexW(0, Dst);
    emit8(0xD3);
    modrmReg(OpExt, Dst);
  }

  /// shl/shr/sar r64, imm8.
  void shiftImm(uint8_t OpExt, Reg Dst, uint8_t Imm) {
    rexW(0, Dst);
    emit8(0xC1);
    modrmReg(OpExt, Dst);
    emit8(Imm);
  }

  // --- Flags ---------------------------------------------------------------

  /// setcc Dst8 (followed by movzx into the same 64-bit register).
  void setccZx(Cond Cc, Reg Dst) {
    // setcc r/m8.
    rexForce(0, Dst, 0, /*Wide=*/false);
    emit8(0x0F);
    emit8(0x90 | Cc);
    modrmReg(0, Dst);
    // movzx r64, r8.
    rexW(Dst, Dst);
    emit8(0x0F);
    emit8(0xB6);
    modrmReg(Dst, Dst);
  }

  // --- Control flow --------------------------------------------------------

  /// jcc rel32 with a placeholder; \returns the buffer offset of the rel32
  /// operand for patchRel32 once the target offset is known.
  size_t jcc(Cond Cc) {
    emit8(0x0F);
    emit8(0x80 | Cc);
    size_t At = Buf.size();
    emit32(0);
    return At;
  }

  /// jmp rel32 with a placeholder; \returns the rel32 operand offset.
  size_t jmp() {
    emit8(0xE9);
    size_t At = Buf.size();
    emit32(0);
    return At;
  }

  /// Resolves a rel32 recorded by jcc()/jmp() to buffer offset \p Target.
  void patchRel32(size_t OperandAt, size_t Target) {
    int64_t Rel = static_cast<int64_t>(Target) -
                  (static_cast<int64_t>(OperandAt) + 4);
    uint32_t V = static_cast<uint32_t>(static_cast<int32_t>(Rel));
    for (int I = 0; I < 4; ++I)
      Buf[OperandAt + I] = static_cast<uint8_t>(V >> (8 * I));
  }

  /// Backward jcc straight to a known buffer offset.
  void jccTo(Cond Cc, size_t Target) { patchRel32(jcc(Cc), Target); }

  /// call r64 (indirect; targets are movabs'd into a scratch register so
  /// thunks anywhere in the address space are reachable).
  void callReg(Reg R) {
    rexOpt(0, R, 0, /*ForceForOp=*/2);
    emit8(0xFF);
    modrmReg(2, R);
  }

  /// jmp r64.
  void jmpReg(Reg R) {
    rexOpt(0, R, 0, /*ForceForOp=*/4);
    emit8(0xFF);
    modrmReg(4, R);
  }

  void push(Reg R) {
    if (R >= R8)
      emit8(0x41);
    emit8(0x50 | (R & 7));
  }
  void pop(Reg R) {
    if (R >= R8)
      emit8(0x41);
    emit8(0x58 | (R & 7));
  }
  void ret() { emit8(0xC3); }
  void mfence() {
    emit8(0x0F);
    emit8(0xAE);
    emit8(0xF0);
  }

private:
  /// 64-bit reg/reg ALU in the "op r/m64, r64" form (\p Src in the reg
  /// field, \p Dst in r/m).
  void aluRR(uint8_t Opcode, Reg Src, Reg Dst) {
    rexW(Src, Dst);
    emit8(Opcode);
    modrmReg(Src, Dst);
  }

  // REX prefix: W=1 always for the 64-bit helpers; R extends the reg
  // field, X the SIB index, B the base.
  void rexW(uint8_t RegField, uint8_t Base, uint8_t Index = 0) {
    emit8(0x48 | ((RegField & 8) >> 1) | ((Index & 8) >> 2) |
          ((Base & 8) >> 3));
  }

  /// Optional REX (no W): emitted only when a high register needs it.
  void rexOpt(uint8_t RegField, uint8_t Base, uint8_t Index = 0,
              uint8_t ForceForOp = 0xff) {
    (void)ForceForOp;
    uint8_t R = ((RegField & 8) >> 1) | ((Index & 8) >> 2) | ((Base & 8) >> 3);
    if (R)
      emit8(0x40 | R);
  }

  /// REX always emitted (8-bit ops touching SPL/BPL/SIL/DIL need it).
  void rexForce(uint8_t RegField, uint8_t Base, uint8_t Index, bool Wide) {
    emit8((Wide ? 0x48 : 0x40) | ((RegField & 8) >> 1) | ((Index & 8) >> 2) |
          ((Base & 8) >> 3));
  }

  void modrmReg(uint8_t RegField, uint8_t Rm) {
    emit8(0xC0 | ((RegField & 7) << 3) | (Rm & 7));
  }

  /// ModRM (+ SIB where the encoding demands it) for [Base + Disp].
  void modrmMem(uint8_t RegField, uint8_t Base, int32_t Disp) {
    uint8_t BaseLow = Base & 7;
    bool NeedsSib = BaseLow == 4; // RSP/R12.
    bool Disp8 = Disp >= INT8_MIN && Disp <= INT8_MAX;
    // RBP/R13 with mod=00 means rip-relative; force disp8 0.
    uint8_t Mod = (Disp == 0 && BaseLow != 5) ? 0 : (Disp8 ? 1 : 2);
    emit8((Mod << 6) | ((RegField & 7) << 3) | (NeedsSib ? 4 : BaseLow));
    if (NeedsSib)
      emit8(0x24); // scale=0, index=none, base=rsp/r12.
    if (Mod == 1)
      emit8(static_cast<uint8_t>(Disp));
    else if (Mod == 2)
      emit32(static_cast<uint32_t>(Disp));
  }

  /// ModRM + SIB for [Base + Index*2^Scale + Disp]. Index must not be RSP.
  void modrmSib(uint8_t RegField, uint8_t Base, uint8_t Index, uint8_t Scale,
                int32_t Disp) {
    bool Disp8 = Disp >= INT8_MIN && Disp <= INT8_MAX;
    uint8_t Mod = (Disp == 0 && (Base & 7) != 5) ? 0 : (Disp8 ? 1 : 2);
    emit8((Mod << 6) | ((RegField & 7) << 3) | 4);
    emit8((Scale << 6) | ((Index & 7) << 3) | (Base & 7));
    if (Mod == 1)
      emit8(static_cast<uint8_t>(Disp));
    else if (Mod == 2)
      emit32(static_cast<uint32_t>(Disp));
  }

  void emitBytes(const void *Src, size_t Bytes) {
    size_t At = Buf.size();
    Buf.resize(At + Bytes);
    std::memcpy(Buf.data() + At, Src, Bytes);
  }

  static constexpr size_t InitialCapacity = 4096;
  std::vector<uint8_t> Buf;
};

} // namespace jit
} // namespace llsc

#endif // LLSC_ENGINE_JIT_X86EMITTER_H
