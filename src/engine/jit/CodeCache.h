//===- engine/jit/CodeCache.h - W^X executable code region ------*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One executable code region per TbCache generation, W^X by construction:
/// the region is a memfd mapped twice — a PROT_READ|PROT_WRITE view the
/// compiler writes through and a PROT_READ|PROT_EXEC view the vCPUs
/// execute — so no page is ever writable and executable at once (the same
/// dual-mapping trick GuestMemory uses for PST's shadow accesses, applied
/// to code). Chain-site patching goes through the write view with a
/// 4-byte-aligned atomic store while other vCPUs execute the read view.
///
/// The region starts with two shared pieces of emitted code:
///  - the *trampoline* (jit::EnterFn): pushes the callee-saved frame,
///    pins the VCpu* in rbx, 16-aligns rsp, and jumps to a block body;
///  - the *epilogue*: unwinds that frame and returns rax:rdx (the JitExit
///    pair every exit stub loads).
///
/// Blocks are installed append-only at 16-byte-aligned cursors; a full
/// region stops compilation for the rest of the generation (execution
/// continues — new blocks just stay on tier-0). On TbCache flush the
/// whole region is retired with the blocks that reference it and reaped
/// under the same quiescence rules (Jit::onTbFlush / onTbReapRetired);
/// one reaped region is kept and recycle()d for the next generation, so
/// a steady stream of flushes maps no new memory.
///
//===----------------------------------------------------------------------===//

#ifndef LLSC_ENGINE_JIT_CODECACHE_H
#define LLSC_ENGINE_JIT_CODECACHE_H

#include "engine/jit/JitRuntime.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace llsc {
namespace jit {

class X86Emitter;

/// A relocation recorded by the compiler against its local byte buffer,
/// resolved by CodeCache::install once the block's final executable
/// address is known.
struct Fixup {
  enum Kind : uint8_t {
    /// 8-byte placeholder at Offset := executable address of
    /// (block start + Target). Used for the movabs that loads a chain
    /// site's own operand address into VCpu::JitPendingPatch.
    AbsBlockAddr,
    /// 4-byte placeholder at Offset := rel32 to the region's shared
    /// epilogue (Target unused).
    RelEpilogue,
  };
  Kind K = AbsBlockAddr;
  uint32_t Offset = 0; ///< Byte offset of the placeholder in the buffer.
  uint32_t Target = 0; ///< AbsBlockAddr: target byte offset in the buffer.
};

/// One dual-mapped executable region.
class CodeCache {
public:
  /// Creates a region of \p Bytes (rounded up to a page multiple) and
  /// emits the trampoline + epilogue. \returns null on mmap failure
  /// (JIT silently disabled).
  static std::unique_ptr<CodeCache> create(size_t Bytes);

  ~CodeCache();
  CodeCache(const CodeCache &) = delete;
  CodeCache &operator=(const CodeCache &) = delete;

  /// The region's enter trampoline.
  EnterFn enterFn() const { return reinterpret_cast<EnterFn>(ExecBase); }

  /// Copies \p Em's bytes into the region at a 16-byte-aligned cursor and
  /// resolves \p Fixups. \returns the executable entry address, or null
  /// when the region is full. Not thread-safe — Jit serializes installs.
  const void *install(const X86Emitter &Em, const std::vector<Fixup> &Fixups);

  /// Atomically patches the rel32 jump operand at executable address
  /// \p SiteExecAddr to land on \p TargetExecAddr (both inside this
  /// region). Safe while other threads execute the site.
  void patchChain(uintptr_t SiteExecAddr, uintptr_t TargetExecAddr);

  /// Empties the region for reuse by a new generation: the used block
  /// area is filled with int3 (0xCC) so a stale jump into it traps
  /// instead of running old code, and the cursor rewinds to just past the
  /// trampoline and epilogue, which stay. Only for a region no vCPU can
  /// reach any more (reaped — its blocks are freed).
  void recycle();

  /// \returns true when \p ExecAddr points into this region's executable
  /// view.
  bool contains(uintptr_t ExecAddr) const {
    return ExecAddr >= reinterpret_cast<uintptr_t>(ExecBase) &&
           ExecAddr < reinterpret_cast<uintptr_t>(ExecBase) + Size;
  }

  size_t bytesUsed() const { return Cursor; }
  size_t capacity() const { return Size; }

private:
  CodeCache() = default;

  int MemFd = -1;
  uint8_t *WriteBase = nullptr; ///< RW view (compiler + patching).
  uint8_t *ExecBase = nullptr;  ///< RX view (vCPUs).
  size_t Size = 0;
  size_t Cursor = 0;
  size_t CodeStart = 0; ///< First block offset (past trampoline+epilogue).
  size_t EpilogueOffset = 0;
};

} // namespace jit
} // namespace llsc

#endif // LLSC_ENGINE_JIT_CODECACHE_H
