//===- atomic/Hst.cpp - Hash-table store test (HST family) --------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// HST (Section III-A, Figures 4 and 5): a non-blocking hash table maps
/// guest addresses to the id of the last thread that wrote them. Each LL
/// and each plain store sets its entry to the executing thread's id with a
/// single plain store (no atomics); SC, inside a QEMU-style exclusive
/// section, checks that the entry still carries its own id before
/// performing the store. Hash conflicts only cause spurious SC failures
/// (retry), never missed conflicts, so atomicity is strong.
///
/// The table layout mirrors Figure 4: the index is derived from the guest
/// address by dropping the 2 low bits and masking; the entry is a 4-byte
/// thread id, so instrumentation is expressible as four inline IR ops
/// (shift, mask, scale, host store) — the paper's key cost insight versus
/// PICO-ST's helper calls.
///
/// Variants:
///  - HST-WEAK (Section III-C): no store instrumentation; only LL/SC
///    update the table => weak atomicity, best scalability (Fig. 10).
///  - HST-HELPER (ablation, Section IV-B2): identical semantics to HST but
///    the table update runs in a runtime helper, quantifying the
///    "IR inlining <5% vs helper 20..45%" claim.
///
//===----------------------------------------------------------------------===//

#include "atomic/AtomicScheme.h"
#include "atomic/Schemes.h"

#include "mem/GuestMemory.h"
#include "runtime/Exclusive.h"
#include "runtime/Observe.h"
#include "support/BitUtils.h"
#include "support/Compiler.h"
#include "support/LazyZeroArray.h"
#include "support/Timing.h"

#include <atomic>
#include <cassert>
#include <memory>

using namespace llsc;
using namespace llsc::ir;

namespace {

class Hst : public AtomicScheme {
public:
  Hst(unsigned TableLog2, SchemeKind Variant)
      : Variant(Variant), NumEntries(1ULL << TableLog2), Mask(NumEntries - 1),
        Table(NumEntries) {}

  const SchemeTraits &traits() const override { return schemeTraits(Variant); }

  void onAttach() override {
    if (Variant == SchemeKind::Hst) {
      // Publish the table so the engine can execute the fused
      // HstStoreTag micro-op directly (JIT-inlined instrumentation).
      Ctx->HstTable = Table.data();
      Ctx->HstMask = Mask;
    }
  }

  void onReset() override { zeroTable(); }

  void onDetach() override {
    // Unpublish the fused-op table and drop every armed tag so the next
    // scheme starts from a neutral machine.
    if (Ctx->HstTable == Table.data()) {
      Ctx->HstTable = nullptr;
      Ctx->HstMask = 0;
    }
    zeroTable();
  }

  // Lazy table zeroing: dropping the dirty pages costs O(entries the
  // last run touched), which is what keeps Machine::reset() cheap enough
  // for per-job reuse in the serve layer (and scheme hot-swap detach
  // cheap enough for the adaptive controller's cooldown window).
  void zeroTable() { Table.zero(); }

  /// Figure 4's hash: drop the 2 alignment bits, mask to the table size.
  uint64_t entryIndex(uint64_t Addr) const { return (Addr >> 2) & Mask; }

  /// Entries hold tid+1 so 0 means "never touched".
  static uint32_t tagFor(unsigned Tid) { return Tid + 1; }

  /// Tags every 4-byte granule covered by [Addr, Addr + Size). The table
  /// is granule-indexed, so an access wider than 4 bytes (or one that
  /// straddles a granule boundary) owns several entries; tagging only the
  /// first would let a store to the uncovered granules slip past an armed
  /// monitor. Aligned accesses of <= 4 bytes cover exactly one granule —
  /// the common fast path stays a single plain store.
  void tagGranules(uint64_t Addr, unsigned Size, uint32_t Tag) {
    uint64_t First = Addr >> 2;
    uint64_t Last = (Addr + Size - 1) >> 2;
    Table[First & Mask].store(Tag, std::memory_order_relaxed);
    while (LLSC_UNLIKELY(First != Last)) {
      ++First;
      Table[First & Mask].store(Tag, std::memory_order_relaxed);
    }
  }

  /// \returns true if every granule covered by [Addr, Addr + Size) still
  /// carries \p Tag (the SC-side dual of tagGranules).
  bool granulesCarry(uint64_t Addr, unsigned Size, uint32_t Tag) const {
    uint64_t First = Addr >> 2;
    uint64_t Last = (Addr + Size - 1) >> 2;
    for (; First <= Last; ++First)
      if (Table[First & Mask].load(std::memory_order_relaxed) != Tag)
        return false;
    return true;
  }

  uint64_t emulateLoadLink(VCpu &Cpu, uint64_t Addr, unsigned Size) override {
    // Figure 5 LL: Htable_set(addr, tid) for every covered granule, then
    // the load.
    tagGranules(Addr, Size, tagFor(Cpu.Tid));
    uint64_t Value = Ctx->Mem->shadowLoad(Addr, Size);
    Cpu.Monitor.arm(Addr, Value, Size);
    return Value;
  }

  bool emulateStoreCond(VCpu &Cpu, uint64_t Addr, uint64_t Value,
                        unsigned Size) override {
    ExclusiveMonitor &Mon = Cpu.Monitor;
    if (!Mon.valid() || Mon.Addr != Addr || Mon.Size != Size) {
      Mon.clear();
      Cpu.Events.ScFailMonitorLost++;
      return false;
    }

    bool Ok;
    {
      BucketTimer Timer(Cpu.profileOrNull(), ProfileBucket::Exclusive);
      ExclusiveSection Excl(Cpu, Cpu.InRunLoop);
      // Figure 5 SC: Htable_check — every covered granule must still
      // carry our tag. With instrumented stores the location must also
      // still hold what the LL loaded: a plain store tags, then writes,
      // so an LL landing between the two re-tags the entry, loads the
      // old value and would otherwise overwrite the store's data here.
      // No vCPU runs inside the exclusive section, so nothing can land
      // between this compare and the store.
      Ok = granulesCarry(Addr, Size, tagFor(Cpu.Tid)) &&
           (Variant == SchemeKind::HstWeak ||
            Ctx->Mem->shadowLoad(Addr, Size) == Mon.Value);
      if (Ok) {
        // The SC store leaves our tag in the entry, which is what breaks
        // every other thread's monitor of this location.
        Ctx->Mem->shadowStore(Addr, Value, Size);
      } else if (Ctx->Mem->shadowLoad(Addr, Size) != Mon.Value) {
        // The monitored value changed: a real conflict broke the monitor.
        Cpu.Events.ScFailMonitorLost++;
      } else {
        // Value unchanged: another address stole the hash slot (spurious
        // failure) — or an ABA cycle restored the value, which is
        // indistinguishable here (docs/OBSERVABILITY.md discusses this).
        Cpu.Events.ScFailHashConflict++;
      }
    }
    Mon.clear();
    return Ok;
  }

  // --- Plain-store instrumentation ----------------------------------------

  void emitStorePrologue(IRBuilder &B, ValueId Addr, int64_t Offset,
                         ValueId Value, unsigned Size) override {
    if (Variant == SchemeKind::HstWeak)
      return; // Section III-C: stores are not instrumented.

    B.setInstrumentMode(true);
    ValueId EffAddr =
        Offset ? B.emitBinImm(IROp::AddImm, Addr, Offset) : Addr;
    if (Variant == SchemeKind::HstHelper) {
      // Ablation: same table update through a helper call. The access size
      // is a translation-time constant, so it is baked into the thunk
      // instead of being marshalled as a runtime argument.
      HelperFn Fn;
      Fn.Fn = helperThunkForSize(Size);
      Fn.Ctx = this;
      Fn.Name = "hst_store_helper";
      B.emitHelper(Fn, EffAddr, EffAddr);
    } else {
      // Inline instrumentation (Figure 5's store translation). In QEMU
      // this is ~4 host instructions emitted into the TB; the fused
      // micro-op models that as a single interpreter dispatch so the
      // inline-vs-helper cost ratio survives interpretation.
      B.emitHstStoreTag(EffAddr, 0, Size);
    }
    B.setInstrumentMode(false);
  }

protected:
  template <unsigned Size>
  static uint64_t hstStoreHelperThunk(void *SchemeCtx, void *CpuPtr,
                                      uint64_t Addr, uint64_t /*B*/) {
    auto *Self = static_cast<Hst *>(SchemeCtx);
    auto *Cpu = static_cast<VCpu *>(CpuPtr);
    simulateQemuHelperCall(*Cpu);
    BucketTimer Timer(Cpu->profileOrNull(), ProfileBucket::Instrument);
    Self->tagGranules(Addr, Size, tagFor(Cpu->Tid));
    return 0;
  }

  static HelperFnPtr helperThunkForSize(unsigned Size) {
    switch (Size) {
    case 1:
      return &hstStoreHelperThunk<1>;
    case 2:
      return &hstStoreHelperThunk<2>;
    case 4:
      return &hstStoreHelperThunk<4>;
    case 8:
      return &hstStoreHelperThunk<8>;
    }
    assert(false && "unsupported store size");
    return &hstStoreHelperThunk<4>;
  }

  SchemeKind Variant;
  uint64_t NumEntries;
  uint64_t Mask;
  LazyZeroArray<std::atomic<uint32_t>> Table;
};

} // namespace

std::unique_ptr<AtomicScheme> llsc::createHst(unsigned HstTableLog2,
                                              SchemeKind Variant) {
  assert((Variant == SchemeKind::Hst || Variant == SchemeKind::HstWeak ||
          Variant == SchemeKind::HstHelper) &&
         "not an HST variant");
  return std::make_unique<Hst>(HstTableLog2, Variant);
}
