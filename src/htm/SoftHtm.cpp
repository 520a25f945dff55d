//===- htm/SoftHtm.cpp - Single-global-lock HTM emulation --------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "htm/Htm.h"

#include "support/Compiler.h"

#include <cassert>
#include <vector>

using namespace llsc;

namespace {

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Cache-line padded per-thread transaction slot.
struct alignas(64) TxSlot {
  std::atomic<bool> Active{false};
  std::atomic<bool> Doomed{false};
  std::atomic<uint64_t> WatchGranuleAddr{0};
  uint64_t Footprint = 0;
};

class SoftHtm final : public HtmRuntime {
public:
  explicit SoftHtm(const SoftHtmConfig &Config)
      : Config(Config), Slots(Config.MaxThreads) {}

  const char *name() const override { return "soft-htm"; }

  TxStatus begin(unsigned Tid, uint64_t WatchAddr) override {
    assert(Tid < Slots.size() && "tid out of range");
    TxSlot &Slot = Slots[Tid];
    assert(!Slot.Active.load(std::memory_order_relaxed) &&
           "nested transactions are not supported");

    const HtmRegistryCounters &Reg = HtmRegistryCounters::get();
    Begins.fetch_add(1, std::memory_order_relaxed);
    Reg.Begins->fetch_add(1, std::memory_order_relaxed);

    // Bounded spin on the global commit lock; giving up is a conflict
    // abort, so the abort rate grows with contention like real HTM. The
    // acquisition is seq_cst: it is one side of the Dekker pairing with
    // orderWrite() (see Htm.h).
    unsigned Spins = 0;
    bool Expected = false;
    while (!GlobalLock.compare_exchange_weak(Expected, true,
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed)) {
      Expected = false;
      if (++Spins >= Config.BeginSpinLimit) {
        ConflictAborts.fetch_add(1, std::memory_order_relaxed);
        Reg.ConflictAborts->fetch_add(1, std::memory_order_relaxed);
        return TxStatus::AbortConflict;
      }
      cpuRelax();
    }

    Slot.Doomed.store(false, std::memory_order_relaxed);
    Slot.WatchGranuleAddr.store(WatchAddr / Config.WatchGranule,
                                std::memory_order_relaxed);
    Slot.Footprint = 0;
    Slot.Active.store(true, std::memory_order_release);
    ActiveCount.fetch_add(1, std::memory_order_release);
    return TxStatus::Started;
  }

  bool commit(unsigned Tid) override {
    TxSlot &Slot = Slots[Tid];
    assert(Slot.Active.load(std::memory_order_relaxed) &&
           "commit without transaction");
    bool Doomed = Slot.Doomed.load(std::memory_order_acquire);
    release(Slot);
    if (Doomed)
      return false;
    Commits.fetch_add(1, std::memory_order_relaxed);
    HtmRegistryCounters::get().Commits->fetch_add(1,
                                                  std::memory_order_relaxed);
    return true;
  }

  void abort(unsigned Tid) override {
    TxSlot &Slot = Slots[Tid];
    if (!Slot.Active.load(std::memory_order_relaxed))
      return;
    release(Slot);
  }

  bool inTransaction(unsigned Tid) const override {
    return Slots[Tid].Active.load(std::memory_order_relaxed);
  }

  void noteFootprint(unsigned Tid, uint64_t Units) override {
    TxSlot &Slot = Slots[Tid];
    if (!Slot.Active.load(std::memory_order_relaxed))
      return;
    Slot.Footprint += Units;
    if (Slot.Footprint > Config.CapacityLimit) {
      Slot.Doomed.store(true, std::memory_order_release);
      CapacityAborts.fetch_add(1, std::memory_order_relaxed);
      HtmRegistryCounters::get().CapacityAborts->fetch_add(
          1, std::memory_order_relaxed);
    }
  }

  void orderWrite() override {
    // The caller's write, this fence, then the lock load — against
    // begin()'s lock RMW, then the transaction's reads. Either the
    // transaction reads the write, or this load sees the lock held and
    // waits; the acquire load that finally sees it free makes the
    // transaction's stores visible to the caller.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    while (GlobalLock.load(std::memory_order_acquire))
      cpuRelax();
  }

  void notifyStore(uint64_t Addr) override {
    // Fast path: no transaction anywhere.
    if (ActiveCount.load(std::memory_order_acquire) == 0)
      return;
    uint64_t Granule = Addr / Config.WatchGranule;
    for (TxSlot &Slot : Slots) {
      if (!Slot.Active.load(std::memory_order_acquire))
        continue;
      if (Slot.WatchGranuleAddr.load(std::memory_order_relaxed) == Granule) {
        Slot.Doomed.store(true, std::memory_order_release);
        StoreDooms.fetch_add(1, std::memory_order_relaxed);
        HtmRegistryCounters::get().StoreDooms->fetch_add(
            1, std::memory_order_relaxed);
      }
    }
  }

  bool needsStoreNotification() const override { return true; }

  HtmStats stats() const override {
    HtmStats Stats;
    Stats.Begins = Begins.load(std::memory_order_relaxed);
    Stats.Commits = Commits.load(std::memory_order_relaxed);
    Stats.ConflictAborts = ConflictAborts.load(std::memory_order_relaxed);
    Stats.CapacityAborts = CapacityAborts.load(std::memory_order_relaxed);
    Stats.StoreDooms = StoreDooms.load(std::memory_order_relaxed);
    return Stats;
  }

  void resetStats() override {
    Begins = 0;
    Commits = 0;
    ConflictAborts = 0;
    CapacityAborts = 0;
    StoreDooms = 0;
  }

private:
  void release(TxSlot &Slot) {
    Slot.Active.store(false, std::memory_order_release);
    ActiveCount.fetch_sub(1, std::memory_order_release);
    GlobalLock.store(false, std::memory_order_release);
  }

  SoftHtmConfig Config;
  std::vector<TxSlot> Slots;
  std::atomic<bool> GlobalLock{false};
  std::atomic<int> ActiveCount{0};

  std::atomic<uint64_t> Begins{0};
  std::atomic<uint64_t> Commits{0};
  std::atomic<uint64_t> ConflictAborts{0};
  std::atomic<uint64_t> CapacityAborts{0};
  std::atomic<uint64_t> StoreDooms{0};
};

} // namespace

std::unique_ptr<HtmRuntime> llsc::createSoftHtm(const SoftHtmConfig &Config) {
  return std::make_unique<SoftHtm>(Config);
}
