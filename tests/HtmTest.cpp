//===- tests/HtmTest.cpp - HTM runtime tests ------------------------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "htm/Htm.h"

#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

using namespace llsc;

namespace {

SoftHtmConfig smallConfig() {
  SoftHtmConfig Config;
  Config.MaxThreads = 8;
  Config.BeginSpinLimit = 64;
  Config.CapacityLimit = 100;
  return Config;
}

} // namespace

TEST(SoftHtm, BeginCommit) {
  auto Htm = createSoftHtm(smallConfig());
  EXPECT_EQ(Htm->begin(0, 0x1000), TxStatus::Started);
  EXPECT_TRUE(Htm->inTransaction(0));
  EXPECT_TRUE(Htm->commit(0));
  EXPECT_FALSE(Htm->inTransaction(0));
  HtmStats Stats = Htm->stats();
  EXPECT_EQ(Stats.Begins, 1u);
  EXPECT_EQ(Stats.Commits, 1u);
}

TEST(SoftHtm, Abort) {
  auto Htm = createSoftHtm(smallConfig());
  ASSERT_EQ(Htm->begin(0, 0x1000), TxStatus::Started);
  Htm->abort(0);
  EXPECT_FALSE(Htm->inTransaction(0));
  // The global lock must be free again.
  EXPECT_EQ(Htm->begin(1, 0x2000), TxStatus::Started);
  EXPECT_TRUE(Htm->commit(1));
}

TEST(SoftHtm, ConflictWhileHeld) {
  auto Htm = createSoftHtm(smallConfig());
  ASSERT_EQ(Htm->begin(0, 0x1000), TxStatus::Started);
  // Another thread's transaction cannot start: conflict abort.
  EXPECT_EQ(Htm->begin(1, 0x2000), TxStatus::AbortConflict);
  EXPECT_TRUE(Htm->commit(0));
  EXPECT_EQ(Htm->stats().ConflictAborts, 1u);
}

TEST(SoftHtm, StoreDoomsWatchingTransaction) {
  auto Htm = createSoftHtm(smallConfig());
  ASSERT_EQ(Htm->begin(0, 0x1000), TxStatus::Started);
  Htm->notifyStore(0x1004); // Same 8-byte granule as 0x1000.
  EXPECT_FALSE(Htm->commit(0)) << "doomed transaction must not commit";
  EXPECT_EQ(Htm->stats().StoreDooms, 1u);
}

TEST(SoftHtm, UnrelatedStoreDoesNotDoom) {
  auto Htm = createSoftHtm(smallConfig());
  ASSERT_EQ(Htm->begin(0, 0x1000), TxStatus::Started);
  Htm->notifyStore(0x5000);
  EXPECT_TRUE(Htm->commit(0));
}

TEST(SoftHtm, FootprintCapacityAbort) {
  auto Htm = createSoftHtm(smallConfig()); // CapacityLimit = 100.
  ASSERT_EQ(Htm->begin(0, 0x1000), TxStatus::Started);
  Htm->noteFootprint(0, 50);
  Htm->noteFootprint(0, 49);
  EXPECT_TRUE(Htm->inTransaction(0));
  Htm->noteFootprint(0, 10); // Crosses the limit.
  EXPECT_FALSE(Htm->commit(0));
  EXPECT_EQ(Htm->stats().CapacityAborts, 1u);
}

TEST(SoftHtm, FootprintIgnoredOutsideTransaction) {
  auto Htm = createSoftHtm(smallConfig());
  Htm->noteFootprint(0, 1000000); // Must not crash or count.
  EXPECT_EQ(Htm->stats().CapacityAborts, 0u);
}

TEST(SoftHtm, ResetStats) {
  auto Htm = createSoftHtm(smallConfig());
  ASSERT_EQ(Htm->begin(0, 0), TxStatus::Started);
  EXPECT_TRUE(Htm->commit(0));
  Htm->resetStats();
  HtmStats Stats = Htm->stats();
  EXPECT_EQ(Stats.Begins, 0u);
  EXPECT_EQ(Stats.Commits, 0u);
}

/// Contention: concurrent small transactions must all eventually commit
/// and maintain a consistent shared counter.
TEST(SoftHtm, ConcurrentTransactionsSerialize) {
  auto Htm = createSoftHtm(smallConfig());
  std::atomic<uint64_t> Aborts{0};
  uint64_t Counter = 0; // Deliberately non-atomic: protected by the HTM.

  constexpr int ThreadCount = 4;
  constexpr int PerThread = 2000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I) {
        while (Htm->begin(static_cast<unsigned>(T), 0x1000) !=
               TxStatus::Started) {
          Aborts.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
        ++Counter;
        ASSERT_TRUE(Htm->commit(static_cast<unsigned>(T)));
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  EXPECT_EQ(Counter, static_cast<uint64_t>(ThreadCount) * PerThread);
}

/// orderWrite() is how HST-HTM's LL tags stand in for RTM's read-set
/// aborts on the software HTM: a writer must wait out any open transaction.
/// The timing check is one-sided — a slow host can only delay the writer,
/// never make it return early.
TEST(SoftHtm, OrderWriteWaitsForOpenTransaction) {
  auto Htm = createSoftHtm(smallConfig());
  Htm->orderWrite(); // No transaction: returns at once.

  for (bool Commit : {true, false}) {
    ASSERT_EQ(Htm->begin(0, 0x1000), TxStatus::Started);
    std::atomic<bool> Returned{false};
    std::thread Writer([&] {
      Htm->orderWrite();
      Returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(Returned.load())
        << "orderWrite returned while a transaction was open";
    if (Commit)
      EXPECT_TRUE(Htm->commit(0));
    else
      Htm->abort(0);
    Writer.join();
    EXPECT_TRUE(Returned.load());
  }

  Htm->orderWrite(); // Lock released again: returns at once.
}

TEST(HardwareHtm, ProbeIsStable) {
  // Whatever the answer, it must be consistent and non-crashing.
  bool First = hardwareHtmUsable();
  EXPECT_EQ(hardwareHtmUsable(), First);
  auto Hw = createHardwareHtm(4);
  EXPECT_EQ(Hw != nullptr, First);
  if (Hw) {
    // One full transaction cycle must work on usable hardware.
    bool Committed = false;
    for (int Attempt = 0; Attempt < 100 && !Committed; ++Attempt)
      if (Hw->begin(0, 0) == TxStatus::Started)
        Committed = Hw->commit(0);
    EXPECT_TRUE(Committed);
  }
}

TEST(HtmFactory, BestFallsBackToSoft) {
  auto Htm = createBestHtm(smallConfig());
  ASSERT_NE(Htm, nullptr);
  // Must be operational either way.
  ASSERT_EQ(Htm->begin(0, 0), TxStatus::Started);
  EXPECT_TRUE(Htm->commit(0));
}
