//===- translate/Translator.cpp - Guest to IR translation ---------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "translate/Translator.h"

#include "ir/IRBuilder.h"
#include "ir/IRVerifier.h"
#include "ir/Optimizer.h"
#include "mem/GuestMemory.h"

#include <cassert>

using namespace llsc;
using namespace llsc::ir;

namespace {

/// The block being built, optimized and verified, one per translating
/// thread. Its vectors keep their capacity from block to block; the cache
/// only ever receives an exact-size copy.
IRBlock &scratchBlock() {
  thread_local IRBlock Scratch;
  return Scratch;
}

} // namespace

Translator::Translator(GuestMemory &Mem, const input::InputArch &Arch,
                       ir::TranslationHooks *Hooks,
                       const TranslatorConfig &Config)
    : Mem(Mem), Arch(Arch), Hooks(Hooks), Config(Config) {}

ErrorOr<IRBlock> Translator::translateBlock(uint64_t StartPc) {
  IRBlock &Scratch = scratchBlock();
  IRBuilder Builder(StartPc, std::move(Scratch));
  uint64_t Pc = StartPc;
  bool Terminated = false;

  while (!Terminated) {
    if (Builder.peek().GuestInstCount >= Config.MaxGuestInstsPerBlock) {
      Builder.emitSetPcImm(Pc);
      break;
    }

    input::LowerContext Ctx{Builder, Hooks, Pc, Config.RuleBasedAtomics};
    auto ResultOrErr = Arch.lowerInst(Mem, Ctx);
    if (!ResultOrErr) {
      Scratch = Builder.take();
      return ResultOrErr.error();
    }
    const input::LowerResult Result = *ResultOrErr;
    assert(Result.BytesConsumed >= Arch.instBytes() &&
           "frontend consumed no code");

    for (unsigned N = 0; N < Result.InstsConsumed; ++N)
      Builder.noteGuestInst();
    if (Result.Idiom == input::AtomicIdiom::HostRmw)
      Stats.AtomicIdiomsMatched.fetch_add(1, std::memory_order_relaxed);
    Pc += Result.BytesConsumed;
    Terminated = Result.EndsBlock;
  }

  Scratch = Builder.take();
  Stats.BlocksTranslated.fetch_add(1, std::memory_order_relaxed);
  Stats.GuestInstsTranslated.fetch_add(Scratch.GuestInstCount,
                                       std::memory_order_relaxed);
  Stats.IROpsEmitted.fetch_add(Scratch.Insts.size(),
                               std::memory_order_relaxed);

  if (Config.Optimize)
    ir::optimize(Scratch);
  Stats.IROpsAfterOpt.fetch_add(Scratch.Insts.size(),
                                std::memory_order_relaxed);

  if (Config.Verify) {
    auto VerifyResult = ir::verify(Scratch);
    if (!VerifyResult)
      return VerifyResult.error();
  }

  // The block the cache keeps: a copy at exactly the optimized size.
  return IRBlock(Scratch);
}
