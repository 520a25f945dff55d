//===- perfbench/src/GuestExec.cpp - The guest-exec workload --------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// One Machine (hst, 2 vCPUs, tier-1 JIT on) runs the seed's kernel over
/// and over: each op loads the same image (so the code cache stays warm),
/// runs it, checks the shared counters in guest memory, and resets. Warm
/// translated code running LL/SC, HST-instrumented stores and
/// stop-the-world SC sections is the whole op; translation, serving and
/// the wire do no work here. Host threads: the main thread plus 2 vCPUs.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Common.h"
#include "Inputs.h"
#include "Probe.h"
#include "Recorder.h"

#include "core/StatsReport.h"

#include <cstdio>

using namespace llsc;

namespace perfbench {

namespace {

/// Six set-ups on each CPU window of a 4-vCPU host (see CpuRotation).
constexpr unsigned SetupRepeats = 24;
/// Warm-up stops at the first run that compiles nothing new; this caps it
/// should a run keep compiling.
constexpr unsigned MaxWarmupRuns = 64;
/// About 0.2 s of ops per CPU window.
constexpr uint64_t RotateEveryOps = 25;

struct KernelOp {
  bool Ok = false;
  std::string Why;
  std::optional<RunResult> Result;
};

/// One op: load, run, check, reset. Spans go to \p Rec when tracing.
KernelOp runOp(Machine &M, const KernelInput &In, input::GuestImage Image,
               Recorder *Rec, uint64_t Op) {
  KernelOp K;
  ScopedSpan OpSpan(Rec, "op", Op);
  ErrorOr<void> Loaded = [&] {
    ScopedSpan S(Rec, "core.load", Op, OpSpan.id());
    return M.load(std::move(Image));
  }();
  if (!Loaded) {
    K.Why = Loaded.error().message();
    return K;
  }
  ErrorOr<RunResult> Run = [&] {
    ScopedSpan S(Rec, "core.run", Op, OpSpan.id());
    return M.run({});
  }();
  if (Run) {
    ScopedSpan S(Rec, "check", Op, OpSpan.id());
    uint64_t Sum = 0;
    for (unsigned W = 0; W < KernelInput::CounterWords; ++W)
      Sum += M.mem().load(In.CounterAddr + 4 * W, 4);
    K.Ok = checkKernel(In.ExpectedSum, Sum, Run->AllHalted, &K.Why);
    K.Result = Run.take();
  } else {
    K.Why = Run.error().message();
  }
  ScopedSpan S(Rec, "core.reset", Op, OpSpan.id());
  M.reset();
  return K;
}

void reportFailure(const char *Phase, uint64_t Op, const std::string &Why) {
  std::fprintf(stderr, "guest-exec: %s op %llu failed: %s\n", Phase,
               static_cast<unsigned long long>(Op), Why.c_str());
}

/// Builds a machine and warms it until a run compiles no new block.
/// \returns the machine; \p CreateMs gets Machine::create's duration.
std::unique_ptr<Machine> setUp(const MachineConfig &Config,
                               const KernelInput &In, WorkloadOutcome &Out,
                               double &CreateMs) {
  uint64_t T0 = wallNs();
  auto Created = Machine::create(Config);
  if (!Created)
    reportFatalError(Created.error());
  CreateMs = static_cast<double>(wallNs() - T0) * 1e-6;
  std::unique_ptr<Machine> M = Created.take();
  for (unsigned Run = 0; Run < MaxWarmupRuns; ++Run) {
    KernelOp K = runOp(*M, In, input::GuestImage(input::GuestArch::Grv,
                                                 In.Prog),
                       nullptr, Run);
    if (!K.Ok) {
      reportFailure("warm-up", Run, K.Why);
      ++Out.SetupFailures;
    }
    if (K.Result &&
        StatsReport(*K.Result).metric("engine.jit.compiled") == 0)
      break;
  }
  return M;
}

void loop(Machine &M, const KernelInput &In, double Seconds, Recorder *Rec,
          CpuRotation &Rotation, LoopSamples &S) {
  uint64_t Deadline = wallNs() + static_cast<uint64_t>(Seconds * 1e9);
  for (uint64_t Op = 0; wallNs() < Deadline; ++Op) {
    if (Op % RotateEveryOps == 0)
      Rotation.step();
    input::GuestImage Image(input::GuestArch::Grv, In.Prog);
    uint64_t W0 = wallNs(), C0 = processCpuNs();
    KernelOp K = runOp(M, In, std::move(Image), Rec, Op);
    uint64_t W1 = wallNs(), C1 = processCpuNs();
    S.add(W0, W1, C0, C1, K.Ok);
    if (!K.Ok)
      reportFailure("timed", Op, K.Why);
    if (Rec && K.Result) {
      StatsReport Report(*K.Result);
      for (const StatMetric &Metric : Report.metrics())
        Rec->add(Metric.Name, static_cast<double>(Metric.Value));
      Rec->add("run.wall_s", K.Result->WallSeconds);
    }
  }
}

} // namespace

void runGuestExec(const Options &Opts, CpuRotation &Rotation,
                  WorkloadOutcome &Out) {
  KernelInput In = makeKernelInput(Opts.Seed);

  MachineConfig Config;
  Config.Scheme = SchemeKind::Hst;
  Config.NumThreads = In.Threads;

  std::vector<double> CreateMs;
  std::unique_ptr<Machine> M;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    M.reset();
    Rotation.step();
    uint64_t T0 = wallNs();
    double Create = 0;
    M = setUp(Config, In, Out, Create);
    Out.SetupSeconds.push_back(static_cast<double>(wallNs() - T0) * 1e-9);
    CreateMs.push_back(Create);
  }

  Out.Untraced.RssCheckpointOps = 1000;
  if (!Opts.Trace) {
    loop(*M, In, Opts.Seconds, nullptr, Rotation, Out.Untraced);
    return;
  }

  loop(*M, In, Opts.Seconds / 2, nullptr, Rotation, Out.Untraced);

  const TranslatorStats &TS = M->translator().stats();
  uint64_t Blocks0 = TS.BlocksTranslated.load();
  Recorder Rec;
  loop(*M, In, Opts.Seconds / 2, &Rec, Rotation, Out.Traced);
  double Ops = static_cast<double>(Out.Traced.Attempted);

  LayerMetrics &L = Out.Layers;
  deriveCounterLayers(Rec, Ops, Rec.counter("run.wall_s"), L);
  L["core.create_ms"] = median(CreateMs);
  L["core.load_us"] = median(Rec.durationsUs("core.load"));
  L["core.run_ms"] = median(Rec.durationsUs("core.run")) * 1e-3;
  L["core.reset_us"] = median(Rec.durationsUs("core.reset"));
  L["translate.blocks_per_op"] =
      static_cast<double>(TS.BlocksTranslated.load() - Blocks0) / Ops;
  L["ir.ops_kept_ratio"] = static_cast<double>(TS.IROpsAfterOpt.load()) /
                           static_cast<double>(TS.IROpsEmitted.load());
  M.reset();

  // The Fig. 12 time buckets come from a machine with profiling on, in a
  // loop of its own: profiling times every instrumented op and would
  // otherwise inflate the traced loop's spans several-fold.
  MachineConfig Profiled = Config;
  Profiled.Profile = true;
  double Unused = 0;
  std::unique_ptr<Machine> PM = setUp(Profiled, In, Out, Unused);
  Recorder ProfRec;
  LoopSamples ProfOps;
  loop(*PM, In, Opts.Seconds / 4, &ProfRec, Rotation, ProfOps);
  PM.reset();
  double ProfN = static_cast<double>(ProfOps.Attempted);
  L["runtime.exclusive_ms_per_op"] =
      ProfRec.counter("prof.exclusive_ns") * 1e-6 / ProfN;
  L["atomic.instrument_ms_per_op"] =
      ProfRec.counter("prof.instrument_ns") * 1e-6 / ProfN;
  L["mem.mprotect_ms_per_op"] =
      ProfRec.counter("prof.mprotect_ns") * 1e-6 / ProfN;
  Out.Traced.Attempted += ProfOps.Attempted;
  Out.Traced.Ok += ProfOps.Ok;

  ProbeCosts P =
      probeMachine(Config, std::vector<guest::Program>(5, In.Prog), nullptr);
  L["core.snapshot_ms"] = P.SnapshotMs;
  L["core.restore_us"] = P.RestoreUs;
  L["core.run_floor_us"] = P.RunFloorUs;
  L["translate.us_per_block"] = P.TranslateUsPerBlock;
  L["jit.compile_us_per_block"] = P.CompileUsPerBlock;
  L["jit.code_bytes_per_block"] = P.CodeBytesPerBlock;

  if (!Opts.OutDir.empty())
    Rec.writeChromeTrace(Opts.OutDir + "/guest-exec-seed" +
                             std::to_string(Opts.Seed) + ".trace.json",
                         "guest-exec");
}

} // namespace perfbench
