//===- engine/jit/JitCompiler.h - IR block -> x86-64 lowering ---*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-block TranslationContext: lowers one CachedBlock's pre-decoded
/// micro-ops to x86-64 through the raw byte emitter, with linear-scan
/// register allocation over IR temps (guest registers stay memory-resident
/// in the VCpu frame, QEMU-style). See docs/JIT.md for the lowering map
/// and the register contract; JitRuntime.h describes the exit protocol the
/// emitted prologue and exit stubs implement.
///
/// compileBlock is pure with respect to the machine: it writes only into
/// the caller's emitter/fixup buffers and its own per-thread register-
/// allocation scratch, which it refills for every block. Unsupported
/// shapes (temp pressure beyond the spill area, use of an undefined temp)
/// return false — the caller marks the block Bailed and tier-0 keeps
/// executing it.
///
//===----------------------------------------------------------------------===//

#ifndef LLSC_ENGINE_JIT_JITCOMPILER_H
#define LLSC_ENGINE_JIT_JITCOMPILER_H

#include "engine/jit/CodeCache.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace llsc {

struct CachedBlock;

namespace jit {

class X86Emitter;

/// Lowers \p Block into \p Em, recording relocations in \p Fixups.
/// \returns false to bail (block stays tier-0). On success the buffer is
/// a complete block body: entry checks, counter bookkeeping, op bodies,
/// and exit stubs, ready for CodeCache::install.
///
/// Emitted code is machine-neutral: every machine-instance address it
/// needs (exclusive-pending flag, fastmem epoch, HST table/mask, thread
/// count) is loaded through the pinned VCpu's MachineContext at runtime
/// rather than baked as an immediate, so one compiled body is valid for
/// any machine sharing the block — the property snapshot clones rely on
/// to reuse warm code without recompiling.
bool compileBlock(const CachedBlock &Block, X86Emitter &Em,
                  std::vector<Fixup> &Fixups);

} // namespace jit
} // namespace llsc

#endif // LLSC_ENGINE_JIT_JITCOMPILER_H
