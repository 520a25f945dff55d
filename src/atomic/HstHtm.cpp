//===- atomic/HstHtm.cpp - HST with HTM-backed SC (HST-HTM) -------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// HST-HTM (Section III-B, Figure 6): identical to HST except the SC
/// critical section — hash-table check plus store — runs as an HTM
/// transaction instead of a QEMU start/end_exclusive stop-the-world
/// section. Crucially, and unlike PICO-HTM, the transaction covers *only*
/// the SC emulation, never the translated code between LL and SC, so its
/// footprint stays tiny and it keeps scaling where PICO-HTM livelocks
/// (Fig. 11).
///
/// After repeated conflict aborts the SC falls back to the exclusive
/// section, guaranteeing forward progress.
///
/// Under RTM the table entries the SC checks are in the transaction's read
/// set and the word it stores is in its write set, so another vCPU's LL
/// tag or plain store aborts it. The software model is a global lock with
/// neither set (src/htm/Htm.h). Two things stand in for them: an LL calls
/// HtmRuntime::orderWrite() after tagging, and the SC's store is a
/// compare-and-store against the value the LL loaded (storeIfUnchanged).
/// The compare also closes a window Figure 6 leaves open even on RTM: an
/// LL landing between a plain store's tag and its data.
///
//===----------------------------------------------------------------------===//

#include "atomic/AtomicScheme.h"
#include "atomic/Schemes.h"

#include "htm/Htm.h"
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

class HstHtm final : public AtomicScheme {
public:
  HstHtm(unsigned TableLog2, unsigned HtmMaxRetries)
      : NumEntries(1ULL << TableLog2), Mask(NumEntries - 1),
        MaxRetries(HtmMaxRetries),
        Table(NumEntries) {}

  const SchemeTraits &traits() const override {
    return schemeTraits(SchemeKind::HstHtm);
  }

  void onAttach() override {
    Ctx->HstTable = Table.data();
    Ctx->HstMask = Mask;
  }

  void onReset() override { zeroTable(); }

  void onDetach() override {
    if (Ctx->HstTable == Table.data()) {
      Ctx->HstTable = nullptr;
      Ctx->HstMask = 0;
    }
    zeroTable();
  }

  // Lazy zeroing via page drop, same rationale as Hst::zeroTable.
  void zeroTable() { Table.zero(); }

  uint64_t entryIndex(uint64_t Addr) const { return (Addr >> 2) & Mask; }
  static uint32_t tagFor(unsigned Tid) { return Tid + 1; }

  /// Multi-granule tag/check, same rationale as Hst::tagGranules: the
  /// table is 4-byte-granule indexed, so a wide or straddling access owns
  /// every covered entry, not just the first.
  void tagGranules(uint64_t Addr, unsigned Size, uint32_t Tag) {
    uint64_t First = Addr >> 2;
    uint64_t Last = (Addr + Size - 1) >> 2;
    Table[First & Mask].store(Tag, std::memory_order_relaxed);
    while (LLSC_UNLIKELY(First != Last)) {
      ++First;
      Table[First & Mask].store(Tag, std::memory_order_relaxed);
    }
  }

  /// The loads are seq_cst: under the software HTM they are the
  /// transaction's side of the Dekker pairing with orderWrite() (plain
  /// movs on x86).
  bool granulesCarry(uint64_t Addr, unsigned Size, uint32_t Tag) const {
    uint64_t First = Addr >> 2;
    uint64_t Last = (Addr + Size - 1) >> 2;
    for (; First <= Last; ++First)
      if (Table[First & Mask].load(std::memory_order_seq_cst) != Tag)
        return false;
    return true;
  }

  /// The SC's store, made conditional on memory still holding the value
  /// the LL loaded. A plain store tags, then writes: an LL landing
  /// between the two re-tags the entry and loads the old value, so the
  /// table check alone would let that LL's SC overwrite the store. A
  /// failed compare means some write followed the LL, so failing the SC
  /// is always allowed. A misaligned access is not single-copy atomic
  /// (GuestMemory::loadRelaxed), so it compares, then stores.
  bool storeIfUnchanged(const ExclusiveMonitor &Mon, uint64_t Value) {
    uint64_t Expected = Mon.Value;
    if (isAligned(Mon.Addr, Mon.Size))
      return Ctx->Mem->compareExchange(Mon.Addr, Expected, Value, Mon.Size);
    if (Ctx->Mem->shadowLoad(Mon.Addr, Mon.Size) != Expected)
      return false;
    Ctx->Mem->shadowStore(Mon.Addr, Value, Mon.Size);
    return true;
  }

  uint64_t emulateLoadLink(VCpu &Cpu, uint64_t Addr, unsigned Size) override {
    tagGranules(Addr, Size, tagFor(Cpu.Tid));
    // As RTM would abort a transaction whose read set this tag hits: one
    // that checked the old tag publishes its store before this load, so
    // the LL does not return a value its SC's compare is bound to fail.
    Ctx->Htm->orderWrite();
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
    assert(Ctx->Htm && "HST-HTM requires an HTM runtime");

    bool Ok = false;
    bool Done = false;
    for (unsigned Attempt = 0; Attempt < MaxRetries && !Done; ++Attempt) {
      Cpu.Events.HtmBegins++;
      TxStatus Status = Ctx->Htm->begin(Cpu.Tid, Addr);
      if (Status != TxStatus::Started) {
        if (Status == TxStatus::AbortCapacity)
          Cpu.Events.HtmAbortsCapacity++;
        else
          Cpu.Events.HtmAbortsConflict++;
        if (TraceRecorder *Trace = TraceRecorder::active())
          Trace->instant(Cpu.Tid, "htm-abort", "htm");
        continue; // Conflict: retry the tiny transaction.
      }
      // Figure 6: HTM_xbegin; Htable_check; store; HTM_xend. The check
      // covers every granule the SC touches; the store compares first.
      bool CheckOk = granulesCarry(Addr, Size, tagFor(Cpu.Tid)) &&
                     storeIfUnchanged(Mon, Value);
      if (Ctx->Htm->commit(Cpu.Tid)) {
        Cpu.Events.HtmCommits++;
        Ok = CheckOk;
        Done = true;
      }
      // Neither backend dooms this transaction: nothing calls
      // notifyStore() or noteFootprint() for HST-HTM, and an RTM abort
      // resumes at begin(). A doomed commit would be a model bug, and the
      // store may already be visible; count it and fail the SC.
      else {
        Cpu.Events.HtmAbortsConflict++;
        Ok = false;
        Done = true;
      }
    }

    if (!Done) {
      // Forward-progress fallback: the HST exclusive-section path.
      Cpu.Counters.HtmLivelockFallbacks++;
      Cpu.Events.HtmFallbacks++;
      BucketTimer Timer(Cpu.profileOrNull(), ProfileBucket::Exclusive);
      ExclusiveSection Excl(Cpu, Cpu.InRunLoop);
      Ok = granulesCarry(Addr, Size, tagFor(Cpu.Tid)) &&
           storeIfUnchanged(Mon, Value);
    }

    if (!Ok) {
      // Same classification as HST: an unchanged value means the failure
      // was a hash-slot conflict or a doomed commit, not a lost monitor
      // (ABA cases are indistinguishable — see docs/OBSERVABILITY.md).
      if (Ctx->Mem->shadowLoad(Addr, Size) != Mon.Value)
        Cpu.Events.ScFailMonitorLost++;
      else
        Cpu.Events.ScFailHashConflict++;
    }

    Mon.clear();
    return Ok;
  }

  void emitStorePrologue(IRBuilder &B, ValueId Addr, int64_t Offset,
                         ValueId Value, unsigned Size) override {
    // Same inline instrumentation as HST (Figure 6 keeps the table);
    // fused into one micro-op like HST's (see Hst.cpp).
    B.setInstrumentMode(true);
    ValueId EffAddr =
        Offset ? B.emitBinImm(IROp::AddImm, Addr, Offset) : Addr;
    B.emitHstStoreTag(EffAddr, 0, Size);
    B.setInstrumentMode(false);
  }

private:
  uint64_t NumEntries;
  uint64_t Mask;
  unsigned MaxRetries;
  LazyZeroArray<std::atomic<uint32_t>> Table;
};

} // namespace

std::unique_ptr<AtomicScheme> llsc::createHstHtm(unsigned HstTableLog2,
                                                 unsigned HtmMaxRetries) {
  return std::make_unique<HstHtm>(HstTableLog2, HtmMaxRetries);
}
