//===- perfbench/src/Probe.cpp - Side measurements ------------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Probe.h"

#include "Common.h"
#include "Inputs.h"

#include "core/Snapshot.h"
#include "core/StatsReport.h"
#include "engine/jit/Jit.h"

using namespace llsc;

namespace perfbench {

namespace {

template <typename T> T must(ErrorOr<T> V) {
  if (!V)
    reportFatalError(V.error());
  return V.take();
}

void must(ErrorOr<void> V) {
  if (!V)
    reportFatalError(V.error());
}

input::GuestImage grv(const guest::Program &Prog) {
  return input::GuestImage(input::GuestArch::Grv, Prog);
}

double usSince(uint64_t T0) {
  return static_cast<double>(wallNs() - T0) * 1e-3;
}

RunResult runToHalt(Machine &M) {
  RunResult R = must(M.run({}));
  if (!R.AllHalted)
    reportFatalError("probe run did not halt");
  return R;
}

/// Block budget of the cold and warm runs. The two runs execute exactly
/// this many blocks (or halt first, as the serve programs do), so their
/// difference is translation and compile alone, not a long kernel's
/// run-to-run swing. It covers 17 trips through guest-exec's outer loop,
/// so every kernel block has been translated and every hot one compiled.
constexpr uint64_t ColdWarmBlocks = 20000;

RunResult runBudgeted(Machine &M) {
  RunOptions Opts;
  Opts.MaxBlocksPerCpu = ColdWarmBlocks;
  return must(M.run(Opts));
}

/// One image measured cold (right after a cache flush) and warm (byte-
/// identical reload) on \p M. \p Halt is loaded first so the image's load
/// always sees a new content hash. Run times are the machine's own
/// RunResult::WallSeconds, which leave out vCPU thread start and join:
/// on a shared host those swing by milliseconds and would swamp the
/// translate and compile difference.
struct ColdWarm {
  double LoadUs, ResetUs, ColdUs, WarmUs;
  double Blocks, IrEmitted, IrKept, Compiled, CodeBytes;
};

ColdWarm coldWarm(Machine &M, const guest::Program &Prog,
                  const guest::Program &Halt) {
  ColdWarm CW{};
  must(M.load(grv(Halt)));
  runToHalt(M);
  M.reset();

  const TranslatorStats &TS = M.translator().stats();
  uint64_t T0 = wallNs();
  must(M.load(grv(Prog)));
  CW.LoadUs = usSince(T0);
  uint64_t Blocks0 = TS.BlocksTranslated.load();
  uint64_t Emitted0 = TS.IROpsEmitted.load();
  uint64_t Kept0 = TS.IROpsAfterOpt.load();
  size_t Bytes0 = M.jitBackend() ? M.jitBackend()->codeBytesUsed() : 0;
  RunResult Cold = runBudgeted(M);
  CW.ColdUs = Cold.WallSeconds * 1e6;
  CW.Blocks = static_cast<double>(TS.BlocksTranslated.load() - Blocks0);
  CW.IrEmitted = static_cast<double>(TS.IROpsEmitted.load() - Emitted0);
  CW.IrKept = static_cast<double>(TS.IROpsAfterOpt.load() - Kept0);
  CW.Compiled =
      static_cast<double>(StatsReport(Cold).metric("engine.jit.compiled"));
  size_t Bytes1 = M.jitBackend() ? M.jitBackend()->codeBytesUsed() : 0;
  CW.CodeBytes = Bytes1 > Bytes0 ? static_cast<double>(Bytes1 - Bytes0) : 0;
  T0 = wallNs();
  M.reset();
  CW.ResetUs = usSince(T0);

  must(M.load(grv(Prog)));
  CW.WarmUs = runBudgeted(M).WallSeconds * 1e6;
  M.reset();
  return CW;
}

} // namespace

ProbeCosts probeMachine(const MachineConfig &Config,
                        const std::vector<guest::Program> &Images,
                        std::shared_ptr<const MachineSnapshot> Snap) {
  ProbeCosts P;
  guest::Program Halt = haltProgram();

  std::vector<double> Create;
  std::unique_ptr<Machine> M;
  for (int I = 0; I < 5; ++I) {
    M.reset();
    uint64_t T0 = wallNs();
    M = must(Machine::create(Config));
    Create.push_back(usSince(T0) * 1e-3);
  }
  P.CreateMs = median(Create);

  std::vector<double> Floor;
  for (int I = 0; I < 40; ++I) {
    must(M->load(grv(Halt)));
    uint64_t T0 = wallNs();
    runToHalt(*M);
    Floor.push_back(usSince(T0));
    M->reset();
  }
  P.RunFloorUs = median(Floor);

  // Translate and compile cost per block do not depend on the vCPU
  // count, but a multi-vCPU run's time swings with LL/SC contention by
  // more than the difference being measured; one vCPU keeps it clean.
  MachineConfig OneCpu = Config;
  OneCpu.NumThreads = 1;
  MachineConfig Tier0Config = OneCpu;
  Tier0Config.Jit = false;
  std::unique_ptr<Machine> M1 = must(Machine::create(OneCpu));
  std::unique_ptr<Machine> M0 = must(Machine::create(Tier0Config));
  std::vector<double> Load, Reset, Blocks, Translate, Compile, CodeBytes,
      Kept;
  for (const guest::Program &Prog : Images) {
    ColdWarm T0 = coldWarm(*M0, Prog, Halt);
    ColdWarm T1 = coldWarm(*M1, Prog, Halt);
    Load.push_back(T1.LoadUs);
    Reset.push_back(T1.ResetUs);
    Blocks.push_back(T0.Blocks);
    double Translated = T0.ColdUs - T0.WarmUs;
    if (T0.Blocks > 0)
      Translate.push_back(Translated / T0.Blocks);
    if (T1.Compiled > 0) {
      Compile.push_back((T1.ColdUs - T1.WarmUs - Translated) / T1.Compiled);
      CodeBytes.push_back(T1.CodeBytes / T1.Compiled);
    }
    if (T0.IrEmitted > 0)
      Kept.push_back(T0.IrKept / T0.IrEmitted);
  }
  M0.reset();
  M1.reset();
  P.ColdLoadUs = median(Load);
  P.ResetUs = median(Reset);
  P.BlocksPerImage = median(Blocks);
  P.TranslateUsPerBlock = median(Translate);
  P.CompileUsPerBlock = median(Compile);
  P.CodeBytesPerBlock = median(CodeBytes);
  P.IrKeptRatio = median(Kept);

  std::vector<double> Snapshot;
  std::shared_ptr<const MachineSnapshot> Own;
  for (int I = 0; I < 3; ++I) {
    must(M->load(grv(Images.front())));
    uint64_t T0 = wallNs();
    Own = must(M->snapshot());
    Snapshot.push_back(usSince(T0) * 1e-3);
    M->reset();
  }
  P.SnapshotMs = median(Snapshot);
  if (!Snap)
    Snap = std::move(Own);

  // Restore as the pool does it: the first restore of a machine is cold,
  // later ones (restore-on-release after a job) take the dirty-page path.
  std::unique_ptr<Machine> Clone = must(Machine::create(Snap->Config));
  std::vector<double> Restore;
  for (int I = 0; I < 20; ++I) {
    uint64_t T0 = wallNs();
    must(Clone->restoreFrom(Snap));
    if (I > 0)
      Restore.push_back(usSince(T0));
    uint64_t Blocks0 = Clone->translator().stats().BlocksTranslated.load();
    runToHalt(*Clone);
    if (I == 1)
      P.CloneBlocks = static_cast<double>(
          Clone->translator().stats().BlocksTranslated.load() - Blocks0);
  }
  P.RestoreUs = median(Restore);
  return P;
}

} // namespace perfbench
