//===- perfbench/src/Inputs.cpp - Seeded workload inputs ------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "guest/Assembler.h"
#include "guest/Encoding.h"
#include "support/Error.h"
#include "support/Random.h"
#include "support/StringUtils.h"

using namespace llsc;

namespace perfbench {

namespace {

// Stream salts: one per generator, so the generators never share draws.
constexpr uint64_t KernelSalt = 0x6b65726e656cull;
constexpr uint64_t SnapshotSalt = 0x736e6170ull;
constexpr uint64_t ColdSalt = 0x636f6c64ull;

guest::Program assembleOrDie(const std::string &Asm) {
  auto Prog = guest::assemble(Asm);
  if (!Prog)
    reportFatalError(Prog.error());
  return Prog.take();
}

} // namespace

KernelInput makeKernelInput(uint64_t Seed) {
  Rng R(Seed ^ KernelSalt);
  KernelInput In;
  // freqmine's shape with the barrier removed. The seed moves the compute
  // and private-store counts by up to 4% and 1%. The LL/SC adds and the
  // lock, whose contention dominates an op's cost, stay fixed, so seeds
  // differ in content more than in cost.
  In.Params.Name = "perfbench-freqmine";
  In.Params.OuterIters = 200;
  In.Params.ComputeOps = static_cast<unsigned>(96 + 4 * R.nextBelow(3));
  In.Params.PrivateStores = static_cast<unsigned>(840 + 4 * R.nextBelow(6));
  In.Params.SharedAtomicAdds = 8;
  In.Params.LockedSections = 2;
  In.Params.LockedStores = 4;
  In.Params.NumLocks = 1;
  In.Params.BarrierEvery = 0;
  In.Params.SerialSection = false;

  auto Prog = workloads::buildKernel(In.Params);
  if (!Prog)
    reportFatalError(Prog.error());
  In.Prog = Prog.take();
  In.CounterAddr = In.Prog.requiredSymbol("shared_counters");
  In.ExpectedSum = uint64_t(In.Threads) * In.Params.OuterIters *
                   In.Params.SharedAtomicAdds;
  return In;
}

WireProgram makeSnapshotProgram(uint64_t Seed) {
  Rng R(Seed ^ SnapshotSalt);
  uint64_t Increments = 248 + R.nextBelow(17);
  WireProgram P;
  P.Asm = formatString(R"(_start: li      r9, #%llu
        la      r10, word
loop:   cbz     r9, done
try:    ldxr.d  r1, [r10]
        addi    r1, r1, #1
        stxr.d  r2, r1, [r10]
        cbnz    r2, try
        addi    r9, r9, #-1
        b       loop
done:   halt
        .align  64
word:   .quad   0
)",
                       static_cast<unsigned long long>(Increments));
  P.Prog = assembleOrDie(P.Asm);
  P.ExpectedSc = Increments;
  return P;
}

WireProgram makeColdProgram(uint64_t Seed, uint64_t Index) {
  using guest::Opcode;
  constexpr unsigned Sites = 64;
  constexpr unsigned LlscSites = 16;
  // Tier-1 compiles a block on its 17th dispatch; 20 trips run every
  // block through tier 0, the compiler and a few tier-1 entries.
  constexpr unsigned Iterations = 20;
  constexpr uint64_t Base = 0x1000; // Where GRV loads a raw image.
  constexpr uint64_t DataBytes = 512;

  Rng R((Seed ^ ColdSalt) * 0x100000001b3ull + Index);
  std::vector<bool> IsLlsc(Sites, false);
  for (unsigned Placed = 0; Placed < LlscSites;) {
    uint64_t Site = R.nextBelow(Sites);
    if (!IsLlsc[Site]) {
      IsLlsc[Site] = true;
      ++Placed;
    }
  }

  // Instructions are emitted directly: the text assembler costs ~0.8 ms a
  // program, which would halve the ops a run can time. Branch offsets
  // count instructions from the branch itself.
  std::vector<guest::Inst> Code;
  auto Emit = [&Code](Opcode Op, unsigned Rd, unsigned Rs1, unsigned Rs2,
                      int64_t Imm) {
    guest::Inst I;
    I.Op = Op;
    I.Rd = static_cast<uint8_t>(Rd);
    I.Rs1 = static_cast<uint8_t>(Rs1);
    I.Rs2 = static_cast<uint8_t>(Rs2);
    I.Imm = Imm;
    Code.push_back(I);
    return static_cast<int64_t>(Code.size() - 1);
  };
  auto Reg = [&R] { return static_cast<unsigned>(1 + R.nextBelow(8)); };
  static const Opcode RegOps[] = {Opcode::ADD, Opcode::SUB, Opcode::MUL,
                                  Opcode::EOR, Opcode::ORR, Opcode::AND};
  static const Opcode ImmOps[] = {Opcode::ADDI, Opcode::EORI, Opcode::LSLI,
                                  Opcode::LSRI};

  // r10 = data (private loads and stores), r11 = the LL/SC word, r12 =
  // trip count, r1-r8 = ALU state, r9/r15 = LL/SC value and status.
  int64_t DataMov = Emit(Opcode::MOVZ, 10, 0, 0, 0);
  int64_t WordMov = Emit(Opcode::MOVZ, 11, 0, 0, 0);
  Emit(Opcode::MOVZ, 12, 0, 0, Iterations);
  for (unsigned Rg = 1; Rg <= 8; ++Rg)
    Emit(Opcode::MOVZ, Rg, 0, 0, static_cast<int64_t>(R.nextBelow(65536)));
  int64_t Loop = Emit(Opcode::CBZ, 0, 12, 0, 0);
  for (unsigned Site = 0; Site < Sites; ++Site) {
    unsigned AluOps = static_cast<unsigned>(4 + R.nextBelow(5));
    for (unsigned Op = 0; Op < AluOps; ++Op) {
      if (R.nextBelow(2)) {
        Emit(RegOps[R.nextBelow(6)], Reg(), Reg(), Reg(), 0);
        continue;
      }
      Opcode Mn = ImmOps[R.nextBelow(4)];
      bool Shift = Mn == Opcode::LSLI || Mn == Opcode::LSRI;
      int64_t Imm = Shift ? static_cast<int64_t>(1 + R.nextBelow(63))
                          : static_cast<int64_t>(R.nextBelow(16384)) - 8192;
      Emit(Mn, Reg(), Reg(), 0, Imm);
    }
    Emit(Opcode::LDD, Reg(), 10, 0, static_cast<int64_t>(8 * R.nextBelow(64)));
    Emit(Opcode::STD, Reg(), 10, 0, static_cast<int64_t>(8 * R.nextBelow(64)));
    if (IsLlsc[Site]) {
      int64_t Try = Emit(Opcode::LDXRD, 9, 11, 0, 0);
      Emit(Opcode::ADDI, 9, 9, 0, 1);
      Emit(Opcode::STXRD, 15, 11, 9, 0);
      int64_t Retry = Emit(Opcode::CBNZ, 0, 15, 0, 0);
      Code[Retry].Imm = Try - Retry;
    }
    if (Site + 1 < Sites)
      Emit(Opcode::B, 0, 0, 0, 1); // End the block; the next site follows.
  }
  Emit(Opcode::ADDI, 12, 12, 0, -1);
  int64_t Back = Emit(Opcode::B, 0, 0, 0, 0);
  Code[Back].Imm = Loop - Back;
  int64_t Done = Emit(Opcode::HALT, 0, 0, 0, 0);
  Code[Loop].Imm = Done - Loop;

  uint64_t DataAddr = Base + ((Code.size() * 4 + 7) & ~uint64_t(7));
  uint64_t WordAddr = DataAddr + DataBytes;
  if (WordAddr > 0xffff)
    reportFatalError("cold program outgrew a 16-bit address");
  Code[DataMov].Imm = static_cast<int64_t>(DataAddr);
  Code[WordMov].Imm = static_cast<int64_t>(WordAddr);

  std::vector<uint8_t> Image(WordAddr + 8 - Base, 0);
  for (size_t I = 0; I < Code.size(); ++I) {
    auto Word = guest::encode(Code[I]);
    if (!Word)
      reportFatalError(Word.error());
    for (unsigned B = 0; B < 4; ++B)
      Image[4 * I + B] = static_cast<uint8_t>(*Word >> (8 * B));
  }

  WireProgram P;
  P.Prog = guest::Program(std::move(Image), Base, Base, {});
  P.ExpectedSc = uint64_t(Iterations) * LlscSites;
  return P;
}

guest::Program haltProgram() { return assembleOrDie("_start: halt\n"); }

} // namespace perfbench
