//===- tests/SchemeTest.cpp - per-scheme behavioral unit tests ------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Scheme-specific behaviors beyond the shared litmus matrix: HST hash
/// conflicts, PST page protection lifecycle and false sharing, PST-REMAP
/// concurrency, PICO-HTM footprint livelock, helper-vs-inline routing.
///
//===----------------------------------------------------------------------===//

#include "core/Machine.h"
#include "mem/FaultGuard.h"
#include "workloads/Litmus.h"

#include <gtest/gtest.h>

using namespace llsc;
using namespace llsc::workloads;

namespace {

std::unique_ptr<Machine> makeMachine(SchemeKind Scheme, unsigned Threads = 2,
                                     unsigned HstTableLog2 = 20,
                                     unsigned HtmMaxRetries = 64) {
  MachineConfig Config;
  Config.Scheme = Scheme;
  Config.NumThreads = Threads;
  Config.MemBytes = 8ULL << 20;
  Config.ForceSoftHtm = true;
  Config.HstTableLog2 = HstTableLog2;
  Config.HtmMaxRetries = HtmMaxRetries;
  auto MachineOrErr = Machine::create(Config);
  EXPECT_TRUE(bool(MachineOrErr)) << MachineOrErr.error().render();
  return MachineOrErr.take();
}

} // namespace

TEST(SchemeRegistry, NamesParseBothSpellings) {
  EXPECT_EQ(parseSchemeName("hst"), SchemeKind::Hst);
  EXPECT_EQ(parseSchemeName("HST-WEAK"), SchemeKind::HstWeak);
  EXPECT_EQ(parseSchemeName("pico_cas"), SchemeKind::PicoCas);
  EXPECT_EQ(parseSchemeName("pst-remap"), SchemeKind::PstRemap);
  EXPECT_EQ(parseSchemeName("bw-llsc"), SchemeKind::BwLlsc);
  EXPECT_FALSE(parseSchemeName("nonesuch").has_value());
}

/// Every kind's canonical name parses back to the kind — keeps the name
/// table, the parser, and the enum in lockstep as schemes are added.
TEST(SchemeRegistry, NameParseRoundTripsAllKinds) {
  for (SchemeKind Kind : allSchemeKinds()) {
    const SchemeTraits &Traits = schemeTraits(Kind);
    auto Parsed = parseSchemeName(Traits.Name);
    ASSERT_TRUE(Parsed.has_value()) << Traits.Name;
    EXPECT_EQ(*Parsed, Kind) << Traits.Name;
  }
}

TEST(SchemeRegistry, TraitsMatchTableII) {
  EXPECT_EQ(schemeTraits(SchemeKind::PicoCas).Atomicity,
            AtomicityClass::Incorrect);
  EXPECT_EQ(schemeTraits(SchemeKind::HstWeak).Atomicity,
            AtomicityClass::Weak);
  EXPECT_EQ(schemeTraits(SchemeKind::Hst).Atomicity, AtomicityClass::Strong);
  EXPECT_TRUE(schemeTraits(SchemeKind::HstHtm).RequiresHtm);
  EXPECT_TRUE(schemeTraits(SchemeKind::PicoHtm).RequiresHtm);
  EXPECT_FALSE(schemeTraits(SchemeKind::Pst).RequiresHtm);
  EXPECT_EQ(schemeTraits(SchemeKind::BwLlsc).Atomicity,
            AtomicityClass::Strong);
  EXPECT_FALSE(schemeTraits(SchemeKind::BwLlsc).RequiresHtm);
  EXPECT_FALSE(schemeTraits(SchemeKind::BwLlsc).UsesPageProtection);
  EXPECT_EQ(allSchemeKinds().size(), 11u);
}

/// The ABA capability query the fuzz oracle keys on: only the two schemes
/// with documented value-compare unsoundness declare it.
TEST(SchemeRegistry, AdmitsAbaOnlyForValueCompareSchemes) {
  for (SchemeKind Kind : allSchemeKinds()) {
    bool Expected =
        Kind == SchemeKind::PicoCas || Kind == SchemeKind::PicoHtm;
    EXPECT_EQ(createScheme(Kind)->admitsAba(), Expected)
        << schemeTraits(Kind).Name;
  }
}

/// HST: a store by another thread whose address *collides in the hash
/// table* (different address, same entry) causes a spurious SC failure —
/// safe, per Section III-A ("conflicts don't affect correctness").
TEST(Hst, HashConflictCausesSpuriousScFailure) {
  auto M = makeMachine(SchemeKind::Hst, 2,
                       /*HstTableLog2=*/4); // 16 entries: easy to collide.
  auto DriverOrErr = LitmusDriver::create(*M);
  ASSERT_TRUE(bool(DriverOrErr)) << DriverOrErr.error().render();
  LitmusDriver &Driver = *DriverOrErr;

  // The shared var's entry index is ((addr >> 2) & 15). A store to
  // addr + 16*4 hits the same entry.
  Driver.resetVar(5);
  Driver.loadLink(0);
  // Plain store by thread 1 to a *different* address with a colliding
  // hash entry: the driver's plainStore only targets the shared var, so
  // emulate the collision through the scheme's own storeHook-equivalent:
  // write via a second LL at the colliding address.
  uint64_t VarAddr = M->program().requiredSymbol("shared_var");
  uint64_t Colliding = VarAddr + 16 * 4;
  M->scheme().emulateLoadLink(M->cpu(1), Colliding, 4); // Sets entry to b.
  EXPECT_FALSE(Driver.storeCond(0, 6))
      << "colliding entry now carries thread 1's tag";
  EXPECT_EQ(Driver.varValue(), 5u);
}

/// HST vs HST-WEAK vs HST-HELPER: instrumentation routing differs.
TEST(Hst, InstrumentationRouting) {
  // HST inlines IR (no helper stores); PICO-ST and PST route stores.
  EXPECT_FALSE(createScheme(SchemeKind::Hst)->storesViaHelper());
  EXPECT_FALSE(createScheme(SchemeKind::HstWeak)->storesViaHelper());
  EXPECT_TRUE(createScheme(SchemeKind::PicoSt)->storesViaHelper());
  EXPECT_TRUE(createScheme(SchemeKind::Pst)->storesViaHelper());
  EXPECT_TRUE(createScheme(SchemeKind::BwLlsc)->storesViaHelper());
  EXPECT_TRUE(createScheme(SchemeKind::PstRemap)->loadsViaHelper());
  EXPECT_FALSE(createScheme(SchemeKind::Pst)->loadsViaHelper());
}

/// HST inline instrumentation emits marked IR ops for stores; HST-WEAK
/// emits none.
TEST(Hst, InlineInstrumentationPresence) {
  for (auto [Kind, ExpectOps] :
       {std::pair{SchemeKind::Hst, true}, {SchemeKind::HstWeak, false}}) {
    auto M = makeMachine(Kind);
    ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: stw r1, [r2]
        halt
)")));
    M->prepareRun();
    auto Block = M->cache().lookup(0x1000, M->translator());
    ASSERT_TRUE(bool(Block));
    if (ExpectOps)
      EXPECT_GT((*Block)->IR.InstrumentOpCount, 0u);
    else
      EXPECT_EQ((*Block)->IR.InstrumentOpCount, 0u);
  }
}

/// HST-HTM: a plain store tags, then writes. An LL by another vCPU landing
/// between the two re-tags the entry and loads the old value, and then the
/// store's data lands. The table check still passes, so the SC must fail
/// on the compare before its store. Both store paths: the aligned
/// compare-and-swap and the misaligned compare-then-store.
TEST(HstHtm, StoreDataLandingAfterAnLlFailsTheSc) {
  auto M = makeMachine(SchemeKind::HstHtm);
  auto DriverOrErr = LitmusDriver::create(*M);
  ASSERT_TRUE(bool(DriverOrErr)) << DriverOrErr.error().render();
  LitmusDriver &Driver = *DriverOrErr;
  uint64_t VarAddr = M->program().requiredSymbol("shared_var");

  Driver.resetVar(5);
  Driver.loadLink(0);
  M->mem().shadowStore(VarAddr, 9, 4); // vCPU 1's data, tag already lost.
  EXPECT_FALSE(Driver.storeCond(0, 6));
  EXPECT_EQ(Driver.varValue(), 9u);

  Driver.resetVar(0);
  Driver.loadLinkAt(0, 4, 8);
  M->mem().shadowStore(VarAddr + 8, 9, 4);
  EXPECT_FALSE(Driver.storeCondAt(0, 0x1122334455667788ULL, 4, 8));
  EXPECT_EQ(Driver.varValueAt(4, 8), 9ULL << 32);
}

/// HST-HTM under free-running threads: vCPU 0 plain-stores a new high word
/// into `var` while the others LL/SC-increment its low word. An increment
/// carries the high word forward, so after vCPU 0's store the high word
/// must stay what it stored until its next store. An SC that put the
/// previous high word back overwrote the store; vCPU 0 reads back after a
/// short delay and counts each such lost store.
TEST(HstHtm, PlainStoresSurviveConcurrentScs) {
  auto M = makeMachine(SchemeKind::HstHtm, 4);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: la      r1, var
        cbz     r0, writer
        li      r4, #3000
inc:    cbz     r4, done
retry:  ldxr.d  r2, [r1]
        addi    r2, r2, #1
        stxr.d  r3, r2, [r1]
        cbnz    r3, retry
        addi    r4, r4, #-1
        b       inc
writer: la      r10, lost
        li      r4, #3000
        movz    r5, #0
wloop:  cbz     r4, done
        addi    r5, r5, #1
        lsli    r6, r5, #32
        std     r6, [r1]
        li      r7, #20
delay:  addi    r7, r7, #-1
        cbnz    r7, delay
        ldd     r2, [r1]
        lsri    r2, r2, #32
        beq     r2, r5, kept
        ldd     r8, [r10]
        addi    r8, r8, #1
        std     r8, [r10]
kept:   addi    r4, r4, #-1
        b       wloop
done:   halt
        .align 4096
var:    .quad 0
        .align 4096
lost:   .quad 0
)")));
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_TRUE(Result->AllHalted);
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("lost"), 8), 0u)
      << "plain stores overwritten by a stale SC";
}

/// PST: LL protects the page; conflicting stores fault and are recovered;
/// matching stores break the monitor; non-matching are false sharing.
TEST(Pst, FalseSharingVsConflict) {
  auto M = makeMachine(SchemeKind::Pst);
  ASSERT_TRUE(bool(M->loadAssembly("_start: halt\n")));
  M->prepareRun();
  AtomicScheme &Scheme = M->scheme();
  VCpu &A = M->cpu(0);
  VCpu &B = M->cpu(1);
  uint64_t FaultsBefore = FaultGuard::recoveredFaultCount();

  // A monitors 0x2000; B stores to 0x2100 (same page): false sharing.
  Scheme.emulateLoadLink(A, 0x2000, 4);
  Scheme.storeHook(B, 0x2100, 7, 4);
  EXPECT_EQ(B.Counters.PageFaultsRecovered, 1u);
  EXPECT_EQ(B.Counters.FalseSharingFaults, 1u);
  EXPECT_GT(FaultGuard::recoveredFaultCount(), FaultsBefore);
  // Monitor intact: SC succeeds.
  EXPECT_TRUE(Scheme.emulateStoreCond(A, 0x2000, 1, 4));

  // Again, but B stores to the monitored address: conflict.
  Scheme.emulateLoadLink(A, 0x2000, 4);
  Scheme.storeHook(B, 0x2000, 9, 4);
  EXPECT_EQ(B.Counters.FalseSharingFaults, 1u) << "a conflict, not false "
                                                  "sharing";
  EXPECT_FALSE(Scheme.emulateStoreCond(A, 0x2000, 2, 4));
  EXPECT_EQ(M->mem().shadowLoad(0x2000, 4), 9u);
}

/// PST: page protection is dropped once the last monitor leaves, so later
/// stores are fault-free.
TEST(Pst, ProtectionLifecycle) {
  auto M = makeMachine(SchemeKind::Pst);
  ASSERT_TRUE(bool(M->loadAssembly("_start: halt\n")));
  M->prepareRun();
  AtomicScheme &Scheme = M->scheme();
  VCpu &A = M->cpu(0);
  VCpu &B = M->cpu(1);

  Scheme.emulateLoadLink(A, 0x3000, 4);
  EXPECT_TRUE(Scheme.emulateStoreCond(A, 0x3000, 1, 4));
  // Monitor gone: stores to the page must not fault.
  uint64_t Before = B.Counters.PageFaultsRecovered;
  Scheme.storeHook(B, 0x3004, 2, 4);
  EXPECT_EQ(B.Counters.PageFaultsRecovered, Before);
  EXPECT_EQ(M->mem().shadowLoad(0x3004, 4), 2u);
}

/// PST: two monitors on one page; breaking one keeps the page protected
/// for the other.
TEST(Pst, TwoMonitorsOnePage) {
  auto M = makeMachine(SchemeKind::Pst, 3);
  ASSERT_TRUE(bool(M->loadAssembly("_start: halt\n")));
  M->prepareRun();
  AtomicScheme &Scheme = M->scheme();
  VCpu &A = M->cpu(0);
  VCpu &B = M->cpu(1);
  VCpu &C = M->cpu(2);

  Scheme.emulateLoadLink(A, 0x4000, 4);
  Scheme.emulateLoadLink(B, 0x4040, 4);
  // C stores over A's variable: A broken, B intact.
  Scheme.storeHook(C, 0x4000, 1, 4);
  EXPECT_FALSE(Scheme.emulateStoreCond(A, 0x4000, 2, 4));
  // B's monitor must still be armed: a conflicting store still faults.
  uint64_t Before = C.Counters.PageFaultsRecovered;
  Scheme.storeHook(C, 0x4080, 3, 4); // Same page, false sharing for B.
  EXPECT_GT(C.Counters.PageFaultsRecovered, Before);
  EXPECT_TRUE(Scheme.emulateStoreCond(B, 0x4040, 4, 4));
}

/// PST-REMAP: loads from another thread during SC wait (here: after SC,
/// value visible); guarded loads recover from remapped pages.
TEST(PstRemap, GuardedLoadSeesConsistentData) {
  auto M = makeMachine(SchemeKind::PstRemap);
  ASSERT_TRUE(bool(M->loadAssembly("_start: halt\n")));
  M->prepareRun();
  AtomicScheme &Scheme = M->scheme();
  VCpu &A = M->cpu(0);
  VCpu &B = M->cpu(1);

  M->mem().shadowStore(0x5000, 11, 4);
  EXPECT_EQ(Scheme.emulateLoadLink(A, 0x5000, 4), 11u);
  EXPECT_TRUE(Scheme.emulateStoreCond(A, 0x5000, 12, 4));
  EXPECT_EQ(Scheme.loadHook(B, 0x5000, 4), 12u);
  // Page is unprotected again: plain store works without a fault.
  uint64_t Before = B.Counters.PageFaultsRecovered;
  Scheme.storeHook(B, 0x5000, 13, 4);
  EXPECT_EQ(B.Counters.PageFaultsRecovered, Before);
}

/// PST-REMAP: a store to the monitored address breaks the monitor via the
/// fault path, like PST, but without any stop-the-world section.
TEST(PstRemap, ConflictBreaksMonitorWithoutExclusive) {
  auto M = makeMachine(SchemeKind::PstRemap);
  ASSERT_TRUE(bool(M->loadAssembly("_start: halt\n")));
  M->prepareRun();
  AtomicScheme &Scheme = M->scheme();
  uint64_t ExclBefore = M->exclusive().exclusiveCount();

  Scheme.emulateLoadLink(M->cpu(0), 0x6000, 4);
  Scheme.storeHook(M->cpu(1), 0x6000, 1, 4);
  EXPECT_FALSE(Scheme.emulateStoreCond(M->cpu(0), 0x6000, 2, 4));
  EXPECT_EQ(M->exclusive().exclusiveCount(), ExclBefore)
      << "PST-REMAP must not use stop-the-world sections";
}

/// PICO-HTM: engine-charged footprint inside the LL..SC window dooms the
/// transaction (capacity abort), modeling the paper's emulator-inflated
/// transactions.
TEST(PicoHtm, FootprintCapacityDoomsLongTransaction) {
  auto M = makeMachine(SchemeKind::PicoHtm, 2, /*HstTableLog2=*/20,
                       /*HtmMaxRetries=*/4);
  ASSERT_TRUE(bool(M->loadAssembly("_start: halt\n")));
  M->prepareRun();
  AtomicScheme &Scheme = M->scheme();
  VCpu &A = M->cpu(0);

  Scheme.emulateLoadLink(A, 0x7000, 4);
  ASSERT_TRUE(A.InLongTx);
  // Simulate executing lots of emulator work between LL and SC.
  M->htm()->noteFootprint(A.Tid, 1 << 20);
  EXPECT_FALSE(Scheme.emulateStoreCond(A, 0x7000, 1, 4));
  EXPECT_FALSE(A.InLongTx);
  EXPECT_GE(M->htm()->stats().CapacityAborts, 1u);
}

/// PICO-HTM: when another thread holds the commit lock, the LL retry
/// budget exhausts and the livelock fallback fires (counted).
TEST(PicoHtm, LivelockFallbackCounted) {
  auto M = makeMachine(SchemeKind::PicoHtm, 2, /*HstTableLog2=*/20,
                       /*HtmMaxRetries=*/2);
  ASSERT_TRUE(bool(M->loadAssembly("_start: halt\n")));
  M->prepareRun();
  AtomicScheme &Scheme = M->scheme();

  Scheme.emulateLoadLink(M->cpu(0), 0x7000, 4); // Holds the soft-HTM lock.
  Scheme.emulateLoadLink(M->cpu(1), 0x7100, 4); // Must fall back.
  EXPECT_EQ(M->cpu(1).Counters.HtmLivelockFallbacks, 1u);
  // Both SCs complete (the fallback one under exclusivity).
  EXPECT_TRUE(Scheme.emulateStoreCond(M->cpu(1), 0x7100, 1, 4));
  EXPECT_TRUE(Scheme.emulateStoreCond(M->cpu(0), 0x7000, 1, 4));
}

/// PICO-ST: a plain store by the same thread does not break its own
/// monitor, but an SC by anyone breaks all overlapping monitors.
TEST(PicoSt, MonitorSemantics) {
  auto M = makeMachine(SchemeKind::PicoSt, 3);
  ASSERT_TRUE(bool(M->loadAssembly("_start: halt\n")));
  M->prepareRun();
  AtomicScheme &Scheme = M->scheme();

  Scheme.emulateLoadLink(M->cpu(0), 0x8000, 4);
  Scheme.emulateLoadLink(M->cpu(1), 0x8000, 4);
  Scheme.storeHook(M->cpu(0), 0x8000, 5, 4); // Own store: 0 keeps monitor.
  // ...but it breaks thread 1's monitor.
  EXPECT_FALSE(Scheme.emulateStoreCond(M->cpu(1), 0x8000, 6, 4));
  EXPECT_TRUE(Scheme.emulateStoreCond(M->cpu(0), 0x8000, 7, 4));
  EXPECT_EQ(M->mem().shadowLoad(0x8000, 4), 7u);
}

/// Overlap detection is byte-granular: an 8-byte store overlapping a
/// 4-byte monitored variable breaks it.
TEST(PicoSt, OverlappingSizes) {
  auto M = makeMachine(SchemeKind::PicoSt);
  ASSERT_TRUE(bool(M->loadAssembly("_start: halt\n")));
  M->prepareRun();
  AtomicScheme &Scheme = M->scheme();

  Scheme.emulateLoadLink(M->cpu(0), 0x9004, 4);
  Scheme.storeHook(M->cpu(1), 0x9000, 0, 8); // Covers 0x9000..0x9008.
  EXPECT_FALSE(Scheme.emulateStoreCond(M->cpu(0), 0x9004, 1, 4));
}

/// CLREX clears the monitor under every scheme.
TEST(SchemeCommon, ClrexClearsMonitor) {
  for (SchemeKind Kind : allSchemeKinds()) {
    auto M = makeMachine(Kind);
    ASSERT_TRUE(bool(M->loadAssembly("_start: halt\n")));
    M->prepareRun();
    AtomicScheme &Scheme = M->scheme();
    Scheme.emulateLoadLink(M->cpu(0), 0xa000, 4);
    Scheme.clearExclusive(M->cpu(0));
    EXPECT_FALSE(Scheme.emulateStoreCond(M->cpu(0), 0xa000, 1, 4))
        << schemeTraits(Kind).Name;
  }
}

/// A second LL replaces the first monitor (LL/SC cannot be nested,
/// Section II-A): SC to the first address must fail.
TEST(SchemeCommon, SecondLlReplacesMonitor) {
  for (SchemeKind Kind : allSchemeKinds()) {
    auto M = makeMachine(Kind);
    ASSERT_TRUE(bool(M->loadAssembly("_start: halt\n")));
    M->prepareRun();
    AtomicScheme &Scheme = M->scheme();
    Scheme.emulateLoadLink(M->cpu(0), 0xb000, 4);
    Scheme.emulateLoadLink(M->cpu(0), 0xc000, 4);
    // Only the last LL's location is monitored; an SC to the first
    // address fails (and, like any SC, consumes the monitor).
    EXPECT_FALSE(Scheme.emulateStoreCond(M->cpu(0), 0xb000, 1, 4))
        << schemeTraits(Kind).Name;
    Scheme.emulateLoadLink(M->cpu(0), 0xc000, 4);
    EXPECT_TRUE(Scheme.emulateStoreCond(M->cpu(0), 0xc000, 2, 4))
        << schemeTraits(Kind).Name;
  }
}

/// 64-bit LL/SC works under every scheme.
TEST(SchemeCommon, SixtyFourBitExclusives) {
  for (SchemeKind Kind : allSchemeKinds()) {
    auto M = makeMachine(Kind);
    ASSERT_TRUE(bool(M->loadAssembly("_start: halt\n")));
    M->prepareRun();
    AtomicScheme &Scheme = M->scheme();
    M->mem().shadowStore(0xd000, 0x1122334455667788ULL, 8);
    EXPECT_EQ(Scheme.emulateLoadLink(M->cpu(0), 0xd000, 8),
              0x1122334455667788ULL)
        << schemeTraits(Kind).Name;
    EXPECT_TRUE(
        Scheme.emulateStoreCond(M->cpu(0), 0xd000, 0xaabbccddULL, 8))
        << schemeTraits(Kind).Name;
    EXPECT_EQ(M->mem().shadowLoad(0xd000, 8), 0xaabbccddULL);
  }
}

/// PST-MPK: a store to an unrelated page that shares the protection key
/// takes the slow path (key false sharing — the paper's 16-key concern)
/// but does not break the monitor; a store to a key with no monitors is
/// fast-path.
TEST(PstMpk, KeyFalseSharing) {
  auto M = makeMachine(SchemeKind::PstMpk);
  ASSERT_TRUE(bool(M->loadAssembly("_start: halt\n")));
  M->prepareRun();
  AtomicScheme &Scheme = M->scheme();
  VCpu &A = M->cpu(0);
  VCpu &B = M->cpu(1);
  uint64_t PageSize = M->mem().pageSize();

  // A monitors page 1 (key 2). Page 16 maps to the same key (15 usable
  // keys): stores there take the slow path without breaking the monitor.
  uint64_t Monitored = 1 * PageSize + 64;
  uint64_t SameKey = 16 * PageSize + 64;
  uint64_t OtherKey = 2 * PageSize + 64;

  Scheme.emulateLoadLink(A, Monitored, 4);
  Scheme.storeHook(B, SameKey, 7, 4);
  EXPECT_EQ(B.Counters.PageFaultsRecovered, 1u) << "key collision slow path";
  EXPECT_EQ(B.Counters.FalseSharingFaults, 1u);
  Scheme.storeHook(B, OtherKey, 8, 4);
  EXPECT_EQ(B.Counters.PageFaultsRecovered, 1u) << "different key: fast path";
  EXPECT_TRUE(Scheme.emulateStoreCond(A, Monitored, 1, 4))
      << "false sharing must not break the monitor";

  // A conflicting store does break it.
  Scheme.emulateLoadLink(A, Monitored, 4);
  Scheme.storeHook(B, Monitored, 9, 4);
  EXPECT_FALSE(Scheme.emulateStoreCond(A, Monitored, 2, 4));
}

/// PST-MPK uses neither page protection syscalls nor stop-the-world.
TEST(PstMpk, NoExclusivesNoFaults) {
  auto M = makeMachine(SchemeKind::PstMpk, 4);
  ASSERT_TRUE(bool(M->loadAssembly(R"(
_start: la      r1, counter
        li      r4, #300
loop:   cbz     r4, done
retry:  ldxr.w  r2, [r1]
        addi    r2, r2, #1
        stxr.w  r3, r2, [r1]
        cbnz    r3, retry
        addi    r4, r4, #-1
        b       loop
done:   halt
        .align 4096
counter: .word 0
)")));
  uint64_t FaultsBefore = FaultGuard::recoveredFaultCount();
  auto Result = M->run({});
  ASSERT_TRUE(bool(Result)) << Result.error().render();
  EXPECT_EQ(M->mem().shadowLoad(M->program().requiredSymbol("counter"), 4),
            4u * 300u);
  EXPECT_EQ(Result->ExclusiveSections, 0u);
  EXPECT_EQ(FaultGuard::recoveredFaultCount(), FaultsBefore);
}
