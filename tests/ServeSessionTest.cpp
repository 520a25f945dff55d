//===- tests/ServeSessionTest.cpp - session serving API conformance -------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Holds the session-oriented serving API (serve/Session.h) to its
/// contract: the JobSource variant, non-blocking admission with
/// retry-after hints, the deadline clock starting at queue *accept*,
/// cancel/poll/stream semantics, per-session quotas, close semantics,
/// service-wide drain, the AutoscaleController policy (hysteresis +
/// cooldown, doubling up / halving down), live fleet resizing, and the
/// MachinePool::trim rule that autoscaling must never destroy parked
/// snapshot clones whose donor an open session still references.
///
//===----------------------------------------------------------------------===//

#include "core/Snapshot.h"
#include "serve/Session.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace llsc;
using namespace llsc::serve;

namespace {

/// Finishes in microseconds.
constexpr const char *QuickProgram = R"(
_start: movz    r1, #7
        la      r2, out
        std     r1, [r2]
        halt
        .align 8
out:    .quad 0
)";

/// Never halts — its runtime is exactly its DeadlineSeconds, which is
/// how these tests make "a job that runs for N ms" deterministic.
constexpr const char *SpinProgram = "_start: b _start\n";

JobSpec quickSpec(const std::string &Name = "quick") {
  JobSpec Spec;
  Spec.Name = Name;
  Spec.Source = JobSource::assembly(QuickProgram);
  Spec.Machine.Scheme = SchemeKind::Hst;
  Spec.Machine.NumThreads = 1;
  Spec.Machine.MemBytes = 8ULL << 20;
  Spec.Run.ExecMode = RunOptions::Mode::Cooperative;
  Spec.Run.BlocksPerSlice = 16;
  return Spec;
}

JobSpec spinSpec(double DeadlineSeconds, const std::string &Name = "spin") {
  JobSpec Spec = quickSpec(Name);
  Spec.Source = JobSource::assembly(SpinProgram);
  Spec.DeadlineSeconds = DeadlineSeconds;
  return Spec;
}

BatchConfig smallFleet(unsigned Workers, size_t QueueCapacity) {
  BatchConfig Config;
  Config.Workers = Workers;
  Config.QueueCapacity = QueueCapacity;
  return Config;
}

/// Spins until \p Handle reports Running (a worker picked the job up).
void waitRunning(const JobHandle &Handle) {
  while (Handle.state() == JobState::Queued)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

TEST(JobSourceTest, FactoriesSetTheVariant) {
  JobSource Asm = JobSource::assembly("_start: halt\n", 0x2000);
  EXPECT_EQ(Asm.SourceKind, JobSource::Kind::Image);
  EXPECT_FALSE(Asm.Program.has_value());
  EXPECT_EQ(Asm.BaseAddr, 0x2000u);
  EXPECT_FALSE(Asm.AssemblySource.empty());

  JobSource Img = JobSource::image(guest::Program());
  EXPECT_EQ(Img.SourceKind, JobSource::Kind::Image);
  EXPECT_TRUE(Img.Program.has_value());

  JobSource Ref = JobSource::snapshotRef(nullptr);
  EXPECT_EQ(Ref.SourceKind, JobSource::Kind::SnapshotRef);
}

TEST(JobSourceTest, AdmitStatusNamesAreStable) {
  EXPECT_STREQ(admitStatusName(AdmitStatus::Accepted), "accepted");
  EXPECT_STREQ(admitStatusName(AdmitStatus::QueueFull), "queue-full");
  EXPECT_STREQ(admitStatusName(AdmitStatus::QuotaExceeded), "quota-exceeded");
  EXPECT_STREQ(admitStatusName(AdmitStatus::Draining), "draining");
  EXPECT_STREQ(admitStatusName(AdmitStatus::Closed), "closed");
}

/// trySubmit must answer QueueFull immediately — the daemon's event
/// loop calls it inline and a blocked loop is a dead daemon.
TEST(BatchAdmissionTest, TrySubmitNeverBlocksOnFullQueue) {
  BatchService Service(smallFleet(1, 1));
  Admission Running = Service.trySubmit(spinSpec(0.5));
  ASSERT_EQ(Running.Status, AdmitStatus::Accepted);
  waitRunning(Running.Handle);
  Admission Queued = Service.trySubmit(quickSpec());
  ASSERT_EQ(Queued.Status, AdmitStatus::Accepted);

  auto Start = std::chrono::steady_clock::now();
  Admission Rejected = Service.trySubmit(quickSpec());
  EXPECT_LT(secondsSince(Start), 0.2);
  EXPECT_EQ(Rejected.Status, AdmitStatus::QueueFull);
  EXPECT_FALSE(Rejected.Handle.valid());
  EXPECT_GT(Rejected.RetryAfterSeconds, 0.0);
  EXPECT_EQ(Service.fleetStats().RejectedQueueFull, 1u);

  Service.drain();
}

/// The deadline clock starts at queue accept, not at the submit call:
/// a blocking submit that waits out a full queue must not eat the job's
/// deadline budget.
TEST(BatchAdmissionTest, DeadlineClockStartsAtAccept) {
  BatchService Service(smallFleet(1, 1));
  // Occupy the worker for ~0.5s and the single queue slot.
  Admission Running = Service.trySubmit(spinSpec(0.5));
  ASSERT_EQ(Running.Status, AdmitStatus::Accepted);
  waitRunning(Running.Handle);
  Admission Filler = Service.trySubmit(quickSpec("filler"));
  ASSERT_EQ(Filler.Status, AdmitStatus::Accepted);

  // This submit parks until the spin job's deadline frees a slot —
  // longer than the submitted job's own 0.3s deadline.
  JobSpec Late = quickSpec("late");
  Late.DeadlineSeconds = 0.3;
  auto Start = std::chrono::steady_clock::now();
  auto Handle = Service.submit(std::move(Late));
  ASSERT_TRUE(bool(Handle)) << Handle.error().render();
  EXPECT_GT(secondsSince(Start), 0.3);

  const JobResult &Result = Handle->wait();
  EXPECT_EQ(Result.State, JobState::Done);
  EXPECT_FALSE(Result.DeadlineExceeded);
  Service.drain();
}

TEST(SessionTest, CancelQueuedJobCompletesAsCancelled) {
  SessionService Service({smallFleet(1, 4)});
  auto Sess = Service.createSession();
  ASSERT_TRUE(bool(Sess));

  Admission Running = (*Sess)->submit(spinSpec(0.4));
  ASSERT_EQ(Running.Status, AdmitStatus::Accepted);
  waitRunning(Running.Handle);
  Admission Queued = (*Sess)->submit(quickSpec("victim"));
  ASSERT_EQ(Queued.Status, AdmitStatus::Accepted);

  EXPECT_TRUE((*Sess)->cancel(Queued.Handle.id()));
  EXPECT_FALSE((*Sess)->cancel(99999)); // Unknown id.

  const JobResult &Result = Queued.Handle.wait();
  EXPECT_EQ(Result.State, JobState::Cancelled);
  Service.drain();
  EXPECT_EQ((*Sess)->poll(Queued.Handle.id()), JobState::Cancelled);
  EXPECT_EQ(Service.fleet().fleetStats().Cancelled, 1u);
}

TEST(SessionTest, QuotaRejectsBeyondMaxInFlight) {
  SessionService Service({smallFleet(1, 8)});
  SessionConfig Cfg;
  Cfg.MaxInFlight = 2;
  auto Sess = Service.createSession(Cfg);
  ASSERT_TRUE(bool(Sess));

  ASSERT_EQ((*Sess)->submit(spinSpec(0.3)).Status, AdmitStatus::Accepted);
  ASSERT_EQ((*Sess)->submit(quickSpec()).Status, AdmitStatus::Accepted);
  // Two in flight (one running, one queued): the quota is hit.
  EXPECT_EQ((*Sess)->submit(quickSpec()).Status, AdmitStatus::QuotaExceeded);

  Service.drain();
  // In-flight drained; the quota frees up.
  EXPECT_EQ((*Sess)->submit(quickSpec()).Status, AdmitStatus::Accepted);
  Service.drain();
}

TEST(SessionTest, StreamDeliversCompletionOrderAndPollTracksStates) {
  SessionService Service({smallFleet(1, 8)});
  auto Sess = Service.createSession();
  ASSERT_TRUE(bool(Sess));

  std::vector<uint64_t> Ids;
  for (int J = 0; J < 4; ++J) {
    Admission A =
        (*Sess)->submit(quickSpec("job-" + std::to_string(J)));
    ASSERT_EQ(A.Status, AdmitStatus::Accepted);
    Ids.push_back(A.Handle.id());
  }
  EXPECT_EQ((*Sess)->submitted(), 4u);

  std::vector<JobResult> Got;
  while (Got.size() < 4) {
    std::vector<JobResult> Batch = (*Sess)->stream(2, 1.0);
    ASSERT_FALSE(Batch.empty()) << "stream timed out";
    for (JobResult &R : Batch)
      Got.push_back(std::move(R));
  }
  // One worker: completion order is submit order.
  for (size_t J = 0; J < Got.size(); ++J) {
    EXPECT_EQ(Got[J].Name, "job-" + std::to_string(J));
    EXPECT_EQ(Got[J].State, JobState::Done);
  }
  EXPECT_EQ((*Sess)->buffered(), 0u);
  for (uint64_t Id : Ids)
    EXPECT_EQ((*Sess)->poll(Id), JobState::Done);
  EXPECT_EQ((*Sess)->poll(424242), std::nullopt);
}

TEST(SessionTest, BoundedBufferDropsOldest) {
  SessionService Service({smallFleet(2, 8)});
  SessionConfig Cfg;
  Cfg.MaxBufferedResults = 2;
  auto Sess = Service.createSession(Cfg);
  ASSERT_TRUE(bool(Sess));
  for (int J = 0; J < 4; ++J)
    ASSERT_EQ((*Sess)->submit(quickSpec()).Status, AdmitStatus::Accepted);
  Service.drain();
  EXPECT_EQ((*Sess)->buffered(), 2u);
  EXPECT_EQ((*Sess)->droppedResults(), 2u);
}

TEST(SessionTest, TerminalStatesKeepOnlyTheNewest) {
  // One worker: jobs finish in submit order, so the evicted ones are
  // exactly the first submitted.
  SessionService Service({smallFleet(1, 8)});
  SessionConfig Cfg;
  Cfg.MaxBufferedResults = 2;
  auto Sess = Service.createSession(Cfg);
  ASSERT_TRUE(bool(Sess));
  std::vector<uint64_t> Ids;
  for (int J = 0; J < 5; ++J) {
    Admission A = (*Sess)->submit(quickSpec());
    ASSERT_EQ(A.Status, AdmitStatus::Accepted);
    Ids.push_back(A.Handle.id());
  }
  Service.drain();
  for (size_t J = 0; J < 3; ++J)
    EXPECT_EQ((*Sess)->poll(Ids[J]), std::nullopt) << "job " << J;
  for (size_t J = 3; J < 5; ++J)
    EXPECT_EQ((*Sess)->poll(Ids[J]), JobState::Done) << "job " << J;
}

TEST(SessionTest, CloseSemantics) {
  SessionService Service({smallFleet(1, 4)});
  SessionConfig Cfg;
  Cfg.Name = "tenant";
  auto Sess = Service.createSession(Cfg);
  ASSERT_TRUE(bool(Sess));
  EXPECT_EQ((*Sess)->name(), "tenant");
  // Duplicate names are rejected while the session is open.
  EXPECT_FALSE(bool(Service.createSession(Cfg)));
  EXPECT_EQ(Service.find("tenant"), *Sess);

  Admission A = (*Sess)->submit(spinSpec(0.3));
  ASSERT_EQ(A.Status, AdmitStatus::Accepted);
  // Non-blocking close with a job in flight: admissions stop now, the
  // close completes when the job does.
  EXPECT_FALSE((*Sess)->tryClose());
  EXPECT_TRUE((*Sess)->closed());
  EXPECT_EQ((*Sess)->submit(quickSpec()).Status, AdmitStatus::Closed);

  (*Sess)->close(); // Blocking flavor waits out the in-flight job.
  EXPECT_TRUE((*Sess)->idle());
  // Buffered results stay streamable after close.
  std::vector<JobResult> Results = (*Sess)->stream(8, 1.0);
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Results[0].State, JobState::Done); // Deadline-stopped spin.
  EXPECT_TRUE(Results[0].DeadlineExceeded);

  Service.closeSession("tenant");
  EXPECT_EQ(Service.find("tenant"), nullptr);
  // The name is free again.
  EXPECT_TRUE(bool(Service.createSession(Cfg)));
}

TEST(SessionTest, ServiceDrainStopsAdmissionsEverywhere) {
  SessionService Service({smallFleet(1, 4)});
  auto Sess = Service.createSession();
  ASSERT_TRUE(bool(Sess));
  Service.beginDrain();
  EXPECT_TRUE(Service.draining());
  EXPECT_EQ((*Sess)->submit(quickSpec()).Status, AdmitStatus::Draining);
  EXPECT_FALSE(bool(Service.createSession()));
}

//===----------------------------------------------------------------------===//
// AutoscaleController policy units
//===----------------------------------------------------------------------===//

namespace {

AutoscaleConfig fastTuning() {
  AutoscaleConfig Config;
  Config.CooldownMs = 100;
  Config.HysteresisSamples = 3;
  Config.QueuePerWorkerHigh = 2.0;
  Config.BusyFracLow = 0.5;
  return Config;
}

AutoscaleSample pressure(unsigned Workers) {
  return {/*QueueDepth=*/Workers * 8, Workers, /*BusyWorkers=*/Workers};
}

AutoscaleSample idle(unsigned Workers) {
  return {/*QueueDepth=*/0, Workers, /*BusyWorkers=*/0};
}

constexpr uint64_t Ms = 1'000'000;

} // namespace

TEST(AutoscaleControllerTest, ScaleUpNeedsHysteresisAndDoubles) {
  AutoscaleController C(1, 8, fastTuning());
  EXPECT_EQ(C.current(), 1u);
  uint64_t Now = 1'000 * Ms;
  EXPECT_EQ(C.onSample(pressure(1), Now), std::nullopt);
  EXPECT_EQ(C.onSample(pressure(1), Now += 20 * Ms), std::nullopt);
  auto Target = C.onSample(pressure(1), Now += 20 * Ms);
  ASSERT_TRUE(Target.has_value()); // Third consecutive sample fires.
  EXPECT_EQ(*Target, 2u);          // Up doubles.
  C.onScaleComplete(2, Now);
  EXPECT_EQ(C.scaleUps(), 1u);
}

TEST(AutoscaleControllerTest, NeutralSampleResetsTheStreak) {
  AutoscaleController C(1, 8, fastTuning());
  uint64_t Now = 1'000 * Ms;
  EXPECT_EQ(C.onSample(pressure(1), Now), std::nullopt);
  EXPECT_EQ(C.onSample(pressure(1), Now += 20 * Ms), std::nullopt);
  // A no-signal sample (busy fleet, empty queue) breaks the streak...
  AutoscaleSample Busy = {0, 1, 1};
  EXPECT_EQ(C.onSample(Busy, Now += 20 * Ms), std::nullopt);
  // ...so two more pressure samples still aren't enough.
  EXPECT_EQ(C.onSample(pressure(1), Now += 20 * Ms), std::nullopt);
  EXPECT_EQ(C.onSample(pressure(1), Now += 20 * Ms), std::nullopt);
  EXPECT_TRUE(C.onSample(pressure(1), Now += 20 * Ms).has_value());
}

TEST(AutoscaleControllerTest, CooldownBlocksBackToBackScales) {
  AutoscaleController C(1, 8, fastTuning());
  uint64_t Now = 1'000 * Ms;
  for (int S = 0; S < 2; ++S)
    EXPECT_EQ(C.onSample(pressure(1), Now += 20 * Ms), std::nullopt);
  ASSERT_TRUE(C.onSample(pressure(1), Now += 20 * Ms).has_value());
  C.onScaleComplete(2, Now);

  // Pressure continues, but the 100ms cooldown has not elapsed.
  for (int S = 0; S < 4; ++S)
    EXPECT_EQ(C.onSample(pressure(2), Now += 20 * Ms), std::nullopt);
  EXPECT_GT(C.cooldownBlocked(), 0u);

  // Past the cooldown the streak can fire again.
  Now += 100 * Ms;
  std::optional<unsigned> Target;
  for (int S = 0; S < 3 && !Target; ++S)
    Target = C.onSample(pressure(2), Now += 20 * Ms);
  ASSERT_TRUE(Target.has_value());
  EXPECT_EQ(*Target, 4u);
}

TEST(AutoscaleControllerTest, ScaleDownHalvesOnIdleAndClampsAtMin) {
  AutoscaleController C(2, 8, fastTuning());
  uint64_t Now = 1'000 * Ms;
  C.onScaleComplete(8, Now); // Pretend the fleet is at max.
  Now += 200 * Ms;           // Clear the cooldown.
  std::optional<unsigned> Target;
  for (int S = 0; S < 3 && !Target; ++S)
    Target = C.onSample(idle(8), Now += 20 * Ms);
  ASSERT_TRUE(Target.has_value());
  EXPECT_EQ(*Target, 4u); // Down halves.
  C.onScaleComplete(4, Now);
  EXPECT_EQ(C.scaleDowns(), 1u);

  // Halving runs out at the floor.
  C.onScaleComplete(2, Now += 200 * Ms);
  Now += 200 * Ms;
  for (int S = 0; S < 6; ++S)
    EXPECT_EQ(C.onSample(idle(2), Now += 20 * Ms), std::nullopt)
        << "scaled below MinWorkers";
}

TEST(AutoscaleControllerTest, ScaleUpClampsAtMax) {
  AutoscaleController C(1, 3, fastTuning());
  uint64_t Now = 1'000 * Ms;
  C.onScaleComplete(2, Now);
  Now += 200 * Ms;
  std::optional<unsigned> Target;
  for (int S = 0; S < 3 && !Target; ++S)
    Target = C.onSample(pressure(2), Now += 20 * Ms);
  ASSERT_TRUE(Target.has_value());
  EXPECT_EQ(*Target, 3u); // Doubling 2 clamps to Max = 3.
  C.onScaleComplete(3, Now);
  Now += 200 * Ms;
  for (int S = 0; S < 6; ++S)
    EXPECT_EQ(C.onSample(pressure(3), Now += 20 * Ms), std::nullopt)
        << "scaled above MaxWorkers";
}

/// End to end: a loaded autoscaling fleet grows from its floor, then
/// shrinks back once the load drains.
TEST(AutoscaleIntegrationTest, FleetGrowsUnderLoadAndShrinksWhenIdle) {
  BatchConfig Config = smallFleet(4, 64);
  Config.Autoscale = true;
  Config.MinWorkers = 1;
  Config.MaxWorkers = 4;
  Config.AutoTuning.SampleIntervalMs = 5;
  Config.AutoTuning.CooldownMs = 20;
  Config.AutoTuning.HysteresisSamples = 2;
  BatchService Service(Config);
  EXPECT_EQ(Service.workerTarget(), 1u); // Starts at the floor.

  for (int J = 0; J < 12; ++J)
    ASSERT_EQ(Service.trySubmit(spinSpec(0.15)).Status,
              AdmitStatus::Accepted);

  auto Start = std::chrono::steady_clock::now();
  while (Service.workerTarget() <= 1 && secondsSince(Start) < 5.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(Service.workerTarget(), 1u) << "never scaled up under load";

  Service.drain();
  Start = std::chrono::steady_clock::now();
  while (Service.workerTarget() > 1 && secondsSince(Start) < 5.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(Service.workerTarget(), 1u) << "never scaled back down idle";
}

/// Regression for the autoscale/snapshot interaction: trim() (the
/// scale-down path) must spare parked clones whose donor snapshot an
/// open session still references — they are the warm fan-out capacity
/// the session is about to use — and reap them once the reference is
/// gone.
TEST(MachinePoolTest, TrimSparesSessionReferencedCloneBuckets) {
  SessionService Service({smallFleet(2, 16)});
  auto Sess = Service.createSession();
  ASSERT_TRUE(bool(Sess));
  auto SnapOrErr = (*Sess)->captureSnapshot("img", quickSpec("donor"));
  ASSERT_TRUE(bool(SnapOrErr)) << SnapOrErr.error().render();
  // Move, don't copy: the ErrorOr wrapper must not keep a hidden
  // reference alive for the release-everything phase below.
  std::shared_ptr<const MachineSnapshot> Snap = std::move(*SnapOrErr);

  JobSpec CloneSpec = quickSpec("clone");
  CloneSpec.Source = JobSource::snapshotRef(Snap);
  CloneSpec.Machine = Snap->Config;
  for (int J = 0; J < 4; ++J)
    ASSERT_EQ((*Sess)->submit(CloneSpec).Status, AdmitStatus::Accepted);
  Service.drain();

  MachinePool &Pool = Service.fleet().pool();
  MachinePool::Stats Before = Pool.stats();
  ASSERT_GT(Before.Idle, 0u);

  // The session (and this test) still hold the snapshot: trim to zero
  // must leave its clone bucket alone.
  Pool.trim(0);
  MachinePool::Stats After = Pool.stats();
  EXPECT_GE(After.TrimSkippedBuckets, 1u);
  EXPECT_GT(After.Idle, 0u) << "trim destroyed referenced clones";

  // The spared clones are warm: the next fan-out pops them instead of
  // cold-restoring.
  for (int J = 0; J < 2; ++J)
    ASSERT_EQ((*Sess)->submit(CloneSpec).Status, AdmitStatus::Accepted);
  Service.drain();
  EXPECT_GT(Pool.stats().SnapshotReused, Before.SnapshotReused);

  // Drop every reference (the session's copy goes with close()); now
  // the clones are reclaimable.
  CloneSpec.Source = JobSource();
  Snap.reset();
  (*Sess)->close();
  uint64_t SkippedBefore = Pool.stats().TrimSkippedBuckets;
  Pool.trim(0);
  MachinePool::Stats Final = Pool.stats();
  EXPECT_EQ(Final.Idle, 0u);
  EXPECT_EQ(Final.TrimSkippedBuckets, SkippedBefore);
  EXPECT_GT(Final.Trimmed, After.Trimmed);
}
