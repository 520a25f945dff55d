//===- engine/jit/CodeCache.cpp - W^X executable code region -------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "engine/jit/CodeCache.h"

#include "engine/jit/X86Emitter.h"
#include "support/Logging.h"

#include <cerrno>
#include <cstring>
#include <sys/mman.h>
#include <unistd.h>

using namespace llsc;
using namespace llsc::jit;

std::unique_ptr<CodeCache> CodeCache::create(size_t Bytes) {
  long Page = sysconf(_SC_PAGESIZE);
  if (Page <= 0)
    Page = 4096;
  Bytes = (Bytes + Page - 1) & ~static_cast<size_t>(Page - 1);

  int Fd = memfd_create("llsc-jit-code", 0);
  if (Fd < 0) {
    LLSC_WARN("jit: memfd_create failed (%s); tier-1 disabled",
              std::strerror(errno));
    return nullptr;
  }
  if (ftruncate(Fd, static_cast<off_t>(Bytes)) != 0) {
    LLSC_WARN("jit: ftruncate failed (%s); tier-1 disabled",
              std::strerror(errno));
    close(Fd);
    return nullptr;
  }

  void *Rw = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE, MAP_SHARED, Fd, 0);
  if (Rw == MAP_FAILED) {
    LLSC_WARN("jit: code mmap (rw) failed (%s); tier-1 disabled",
              std::strerror(errno));
    close(Fd);
    return nullptr;
  }
  void *Rx = mmap(nullptr, Bytes, PROT_READ | PROT_EXEC, MAP_SHARED, Fd, 0);
  if (Rx == MAP_FAILED) {
    LLSC_WARN("jit: code mmap (rx) failed (%s); tier-1 disabled",
              std::strerror(errno));
    munmap(Rw, Bytes);
    close(Fd);
    return nullptr;
  }

  auto Cache = std::unique_ptr<CodeCache>(new CodeCache());
  Cache->MemFd = Fd;
  Cache->WriteBase = static_cast<uint8_t *>(Rw);
  Cache->ExecBase = static_cast<uint8_t *>(Rx);
  Cache->Size = Bytes;

  // Trampoline at offset 0 (= enterFn): rdi = VCpu*, rsi = body.
  // Entry rsp is 8 mod 16 (return address); 6 pushes keep it at 8 mod 16,
  // the sub re-aligns to 0 mod 16 so bodies may `call` thunks directly.
  X86Emitter Em;
  Em.push(RBP);
  Em.push(RBX);
  Em.push(R12);
  Em.push(R13);
  Em.push(R14);
  Em.push(R15);
  Em.subImm(RSP, 8);
  Em.movReg(RBX, RDI);
  Em.jmpReg(RSI);

  // Shared epilogue: exit stubs arrive with rax:rdx = {NextPc, Kind}.
  Em.alignWithBias(16, 0);
  size_t Epilogue = Em.size();
  Em.addImm(RSP, 8);
  Em.pop(R15);
  Em.pop(R14);
  Em.pop(R13);
  Em.pop(R12);
  Em.pop(RBX);
  Em.pop(RBP);
  Em.ret();

  std::memcpy(Cache->WriteBase, Em.data(), Em.size());
  Cache->EpilogueOffset = Epilogue;
  Cache->CodeStart = (Em.size() + 15) & ~static_cast<size_t>(15);
  Cache->Cursor = Cache->CodeStart;
  return Cache;
}

void CodeCache::recycle() {
  std::memset(WriteBase + CodeStart, 0xCC, Cursor - CodeStart);
  Cursor = CodeStart;
}

CodeCache::~CodeCache() {
  if (WriteBase)
    munmap(WriteBase, Size);
  if (ExecBase)
    munmap(ExecBase, Size);
  if (MemFd >= 0)
    close(MemFd);
}

const void *CodeCache::install(const X86Emitter &Em,
                               const std::vector<Fixup> &Fixups) {
  size_t Start = (Cursor + 15) & ~static_cast<size_t>(15);
  if (Start + Em.size() > Size)
    return nullptr;

  uint8_t *Dst = WriteBase + Start;
  std::memcpy(Dst, Em.data(), Em.size());

  uintptr_t ExecStart = reinterpret_cast<uintptr_t>(ExecBase) + Start;
  for (const Fixup &F : Fixups) {
    switch (F.K) {
    case Fixup::AbsBlockAddr: {
      uint64_t Addr = ExecStart + F.Target;
      std::memcpy(Dst + F.Offset, &Addr, sizeof(Addr));
      break;
    }
    case Fixup::RelEpilogue: {
      int64_t Rel = static_cast<int64_t>(EpilogueOffset) -
                    (static_cast<int64_t>(Start + F.Offset) + 4);
      int32_t Rel32 = static_cast<int32_t>(Rel);
      std::memcpy(Dst + F.Offset, &Rel32, sizeof(Rel32));
      break;
    }
    }
  }

  Cursor = Start + Em.size();
  return reinterpret_cast<const void *>(ExecStart);
}

void CodeCache::patchChain(uintptr_t SiteExecAddr, uintptr_t TargetExecAddr) {
  // The compiler NOP-pads every chain site so its rel32 operand is 4-byte
  // aligned: one atomic dword store through the write view updates the
  // jump while other vCPUs may be executing it (the QEMU tb-chaining
  // pattern; on x86 an aligned 4-byte cross-modifying store is the
  // accepted practice for patching a jump-immediate).
  uintptr_t SiteRw = reinterpret_cast<uintptr_t>(WriteBase) +
                     (SiteExecAddr - reinterpret_cast<uintptr_t>(ExecBase));
  int64_t Rel =
      static_cast<int64_t>(TargetExecAddr) - (static_cast<int64_t>(SiteExecAddr) + 4);
  __atomic_store_n(reinterpret_cast<int32_t *>(SiteRw),
                   static_cast<int32_t>(Rel), __ATOMIC_RELEASE);
}
