//===- core/Machine.h - Public emulator facade ------------------*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's main entry point. A Machine bundles guest memory, the
/// translation cache, the execution engine, and one atomic-emulation
/// scheme, and runs a guest program on N emulated hardware threads —
/// QEMU user-mode in miniature, with the scheme swappable so the paper's
/// design space can be measured side by side.
///
/// A Machine is a reusable *session*: create → load → run → reset →
/// load → run → ... The serve layer (src/serve/) pools Machines per
/// MachineConfig and streams jobs through them, amortizing construction
/// cost (guest-memory mmap, scheme attach, translator/engine setup)
/// across jobs. Typical one-shot use:
/// \code
///   MachineConfig Config;
///   Config.Scheme = SchemeKind::Hst;
///   Config.NumThreads = 16;
///   auto MachineOrErr = Machine::create(Config);
///   auto &M = **MachineOrErr;
///   M.loadAssembly(Source);           // or loadProgram(Program)
///   auto Result = M.run({});          // one host thread per guest thread;
///                                     // vCPU 0 is the calling thread
///   printf("%f s, %llu SC failures\n", Result->WallSeconds,
///          Result->Total.StoreCondFailures);
///   M.reset();                        // ready for the next job
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef LLSC_CORE_MACHINE_H
#define LLSC_CORE_MACHINE_H

#include "atomic/AtomicScheme.h"
#include "engine/Engine.h"
#include "guest/Program.h"
#include "htm/Htm.h"
#include "input/GuestImage.h"
#include "mem/GuestMemory.h"
#include "runtime/AdaptiveController.h"
#include "runtime/Exclusive.h"
#include "runtime/Schedule.h"
#include "translate/Translator.h"

#include <atomic>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

namespace llsc {

struct MachineSnapshot;

/// Everything configurable about a Machine.
struct MachineConfig {
  /// Guest ISA this machine translates. Fixed at create() — the frontend
  /// determines decode, entry conventions and the binary format load()
  /// accepts; snapshots and pool keys carry it (docs/FRONTENDS.md).
  input::GuestArch Arch = input::GuestArch::Grv;
  SchemeKind Scheme = SchemeKind::Hst;
  unsigned NumThreads = 1;
  uint64_t MemBytes = 64ULL << 20;
  uint64_t StackBytes = 256 * 1024; ///< Per-thread stack at top of memory.
  bool Profile = false;             ///< Fig. 12 bucket attribution.
  /// Use the software HTM model even when hardware RTM is usable
  /// (deterministic tests force this).
  bool ForceSoftHtm = false;
  /// Stop each vCPU after this many blocks; 0 = unlimited.
  uint64_t MaxBlocksPerCpu = 0;
  /// Stop each vCPU after this much wall time; 0 = unlimited. Catches
  /// livelocks spent inside scheme spin loops (PICO-HTM).
  double MaxSecondsPerCpu = 0;

  // --- Tier-1 JIT -----------------------------------------------------------
  /// Enable the tier-1 x86-64 JIT backend (docs/JIT.md). Effective only on
  /// supported hosts (x86-64 Linux, non-TSAN builds) — elsewhere the
  /// machine silently runs tier-0 only. The LLSC_NO_JIT environment
  /// variable force-disables; LLSC_FORCE_JIT forces JitHotThreshold to 0.
  bool Jit = true;
  /// Tier-0 dispatches of a block before it compiles; 0 = compile on
  /// first dispatch.
  uint32_t JitHotThreshold = 16;

  // --- Scheme tuning (forwarded to createScheme) ----------------------------
  /// HST-family hash-table size, log2 of the entry count (Figure 4).
  unsigned HstTableLog2 = 20;
  /// HTM kinds: transaction retries before the livelock fallback.
  unsigned HtmMaxRetries = 64;

  // --- Adaptive scheme controller -------------------------------------------
  /// Runs the adaptive controller thread during run(): it samples the
  /// event counters every AdaptiveTuning.SampleIntervalMs under the
  /// quiescence floor and hot-swaps the scheme (setScheme protocol) when
  /// the workload is hostile to the current one. Scheme above is the
  /// starting scheme. See runtime/AdaptiveController.h and docs/API.md.
  bool Adaptive = false;
  AdaptiveConfig AdaptiveTuning;

  TranslatorConfig Translation;
  SoftHtmConfig SoftHtm;
};

/// How run(const RunOptions &) drives the vCPUs, and the per-run knobs
/// that used to be spread across three run* entry points. A
/// default-constructed RunOptions reproduces the classic run(): one host
/// thread per vCPU (vCPU 0 on the calling thread), budgets from
/// MachineConfig.
struct RunOptions {
  enum class Mode {
    Threaded,    ///< One host thread per vCPU (production mode); vCPU 0
                 ///< runs on the caller, vCPUs 1..N-1 on spawned threads.
    Cooperative, ///< Single host thread, round-robin in tid order.
    Scheduled,   ///< Single host thread under an external controller.
  };
  Mode ExecMode = Mode::Threaded;

  /// Cooperative/Scheduled: blocks one vCPU executes per slice.
  uint64_t BlocksPerSlice = 1;
  /// Scheduled only: picks the next vCPU each slice (required).
  ScheduleController *Sched = nullptr;
  /// Scheduled only: observes machine state after every slice (optional).
  SliceObserver *Observer = nullptr;

  // --- Per-run budget overrides (the serve layer's per-job deadlines) ------
  // Unset = inherit the MachineConfig value; an explicit 0 = unlimited.

  /// Stop each vCPU after this many blocks.
  std::optional<uint64_t> MaxBlocksPerCpu;
  /// Stop each vCPU after this much wall time (seconds).
  std::optional<double> MaxSecondsPerCpu;
};

/// The reusable statistics payload of one run — one *job* in the serve
/// layer (src/serve/), which aggregates JobReports across pooled
/// Machines. Everything here is harvested by Machine::collectResult when
/// a run ends and is self-contained: safe to keep after the Machine has
/// been reset() and handed to the next job.
struct JobReport {
  double WallSeconds = 0;
  bool AllHalted = true; ///< False if any vCPU hit a block/time budget.
  CpuCounters Total;
  CpuProfile Profile;
  std::vector<CpuCounters> PerCpu;
  /// Atomic-emulation event counters summed over all vCPUs (also flushed
  /// into the process-wide CounterRegistry; see runtime/EventCounters.h).
  EventCounters Events;
  std::vector<EventCounters> PerCpuEvents;
  HtmStats Htm;
  uint64_t ExclusiveSections = 0; ///< Machine-wide delta during the run.
  uint64_t RecoveredFaults = 0;   ///< Process-wide delta during the run.
  /// TbCache shard-mutex contention events during the run (delta of
  /// TbCache::lockWaits(), reported as engine.shard.lock_waits).
  uint64_t TbLockWaits = 0;
  /// Kind the active scheme claimed (traits().Kind) when the run ended;
  /// differs from MachineConfig::Scheme after an adaptive hot-swap.
  SchemeKind FinalSchemeKind = SchemeKind::Hst;
  /// Guest ISA the job ran under (stats schema v5 "guest_arch").
  input::GuestArch GuestArch = input::GuestArch::Grv;
};

/// Aggregate outcome of one run(). The statistics live in the JobReport
/// base so the serve layer can slice them off a result and file them per
/// job; RunResult remains the name run() returns.
struct RunResult : JobReport {};

/// The emulator facade.
class Machine {
public:
  /// Builds a machine: memory, scheme, HTM runtime (if the scheme needs
  /// one), translator and engine.
  static ErrorOr<std::unique_ptr<Machine>> create(const MachineConfig &Config);

  ~Machine();
  Machine(const Machine &) = delete;
  Machine &operator=(const Machine &) = delete;

  /// Loads an arch-tagged program image — the one load entry point. The
  /// image's arch must match MachineConfig::Arch (the frontend is fixed at
  /// create()). The code cache is flushed only when the image differs (by
  /// content hash) from the one the cached translations were built from:
  /// reloading a byte-identical image — what a pooled machine does between
  /// jobs — keeps the cache warm.
  ErrorOr<void> load(input::GuestImage Image);

  /// Deprecated GRV-only wrapper: load({GuestArch::Grv, Prog}). Errors on
  /// a non-GRV machine. See the docs/API.md deprecation table.
  ErrorOr<void> loadProgram(guest::Program Prog);

  /// Deprecated GRV-only wrapper: assembles \p Source at \p BaseAddr with
  /// the GRV assembler and loads it. See the docs/API.md deprecation
  /// table.
  ErrorOr<void> loadAssembly(std::string_view Source,
                             uint64_t BaseAddr = 0x1000);

  /// Runs the loaded program to completion under \p Opts — the one run
  /// entry point (docs/API.md "Session lifecycle & pooling"). Register
  /// conventions at entry: r0 = tid, sp = top-of-stack. In Scheduled mode
  /// either side can end the run early (Opts.Sched by returning a
  /// negative tid, Opts.Observer by returning false); RunResult.AllHalted
  /// then reflects the actual vCPU states.
  ///
  /// Every mode executes guest code on the calling thread: Threaded runs
  /// vCPU 0 there and spawns one host thread for each further vCPU, so a
  /// 1-vCPU run starts no thread. Any thread may call run(); one run at a
  /// time per Machine.
  ErrorOr<RunResult> run(const RunOptions &Opts);

  /// Restores machine-neutral state so the same Machine can serve another
  /// job without paying construction cost again (guest-memory mmap,
  /// scheme attach, translator/engine setup are all kept). Must not be
  /// called while a run is in flight. In order:
  ///
  ///  1. scheme reset() — monitors released, PST page protections
  ///     restored, HST tables zeroed (the PR 4 lifecycle contract);
  ///  2. counter rollover — per-vCPU counters/profiles (already merged
  ///     into the previous run's JobReport by collectResult) are zeroed,
  ///     HTM stats reset, so the next job starts from a clean slate;
  ///  3. code-cache housekeeping — live translations are *retained*
  ///     (loadProgram flushes if the next image differs, so they are only
  ///     reused for a byte-identical reload); blocks retired by earlier
  ///     hot-swap flushes are reaped, along with the retired schemes
  ///     their helpers reference;
  ///  4. guest memory re-zeroed via fallocate hole-punch (pages return
  ///     to the kernel; faulted back as zero pages on next touch), and
  ///     the loaded program dropped — load*() must be called again.
  void reset();

  /// Number of times reset() completed on this machine — jobs served
  /// equals resets + 1 while the machine is in a pool.
  uint64_t resetCount() const { return Resets; }

  // --- Component access (benchmarks, tests, litmus drivers) ----------------

  GuestMemory &mem() { return *Mem; }
  AtomicScheme &scheme() { return *Scheme; }
  ExclusiveContext &exclusive() { return Excl; }
  HtmRuntime *htm() { return Htm.get(); }
  Translator &translator() { return *Trans; }
  TbCache &cache() { return *Cache; }
  Engine &engine() { return *Exec; }
  /// The tier-1 JIT, or null when disabled/unsupported (tests, bench).
  jit::Jit *jitBackend() { return TheJit.get(); }
  MachineContext &context() { return Ctx; }
  const MachineConfig &config() const { return Config; }
  const guest::Program &program() const { return Prog; }

  unsigned numThreads() const { return Config.NumThreads; }
  VCpu &cpu(unsigned Tid) { return Cpus[Tid]; }

  /// Re-initializes vCPUs (pc/regs/stacks), scheme state and counters as
  /// run() does, without executing. Exposed for drivers that call scheme
  /// hooks directly (atomicity litmus tests).
  void prepareRun();

  /// Replaces the machine's atomic scheme at runtime, taking ownership of
  /// \p NewScheme (which must be Detached). Safe between runs and — the
  /// point of the design — while run() is in flight, from any thread that
  /// is not itself a vCPU:
  ///
  ///  1. quiesce: enter a stop-the-world exclusive section and drain it
  ///     until no scheme-owned SC section is queued behind it (a queued SC
  ///     captured the *old* scheme's monitor state and must complete under
  ///     old-scheme semantics first);
  ///  2. break state: onCpuStopped + clearExclusive per vCPU, then detach
  ///     the old scheme — armed LL windows are broken (their SC fails,
  ///     which the architecture permits at any time) and machine-visible
  ///     state (page protections, published tables) is released;
  ///  3. attach the new scheme, repoint the translator hooks, and flush
  ///     the code cache — blocks carry scheme instrumentation, so a stale
  ///     block would be a correctness bug, not just a perf one.
  ///
  /// The previous scheme is retained until the *next* swap (retired code
  /// blocks hold helper pointers into it), then freed. Protocol details
  /// and the lifecycle state machine are documented in docs/API.md.
  void setScheme(std::unique_ptr<AtomicScheme> NewScheme);

  // --- Copy-on-write snapshots (docs/SERVING.md "Snapshot lifecycle") ------

  /// Captures a restorable image of this machine: guest memory as a
  /// sealed, immutable memfd; the full architectural state of every vCPU;
  /// and — when the active scheme's translations are machine-neutral
  /// (SchemeTraits::NeutralTranslations) — shared co-ownership of the
  /// warm TbCache and JIT code regions, so restored machines start with
  /// warm tier-0 and tier-1 code without recompiling.
  ///
  /// Legal post-load or quiesced mid-run: the call takes the PR 4
  /// stop-the-world floor itself (from any non-vCPU thread), breaks armed
  /// LL windows (exclusive-monitor-neutral by construction) and resets
  /// the scheme so page protections and published tables are neutral
  /// before memory is captured. Requires a loaded program.
  ErrorOr<std::shared_ptr<const MachineSnapshot>> snapshot();

  /// Restores this machine to \p Snap's captured state. Guest memory
  /// attaches to the snapshot memfd via MAP_PRIVATE CoW (dirty pages
  /// after restore are private; the snapshot stays immutable) — except
  /// under page-protection schemes (PST/PST-REMAP), which get a deep copy
  /// into the machine's own memfd. Adopts the snapshot's shared code
  /// caches when it carries them. The machine's config must match the
  /// snapshot's shape (MemBytes, NumThreads); the scheme is hot-swapped
  /// to the snapshot's kind when it differs. Repeated restores from the
  /// same snapshot take the O(dirtied pages) fast path (madvise).
  ErrorOr<void> restoreFrom(std::shared_ptr<const MachineSnapshot> Snap);

  /// The snapshot this machine's guest memory is currently CoW-attached
  /// to, or null. MachinePool keys its snapshot buckets on this.
  const std::shared_ptr<const MachineSnapshot> &attachedSnapshot() const {
    return AttachedSnapshot;
  }

  /// How many shared_ptr copies of \p Snap this machine itself holds
  /// (AttachedSnapshot and the one-shot RestorePoint may both point at
  /// it). MachinePool::trim needs the exact count to tell bucket-owned
  /// references apart from an open session's.
  unsigned snapshotRefs(const MachineSnapshot &Snap) const {
    return (AttachedSnapshot.get() == &Snap ? 1u : 0u) +
           (RestorePoint.get() == &Snap ? 1u : 0u);
  }

  /// True while the TB cache + JIT are co-owned by a snapshot (sharing
  /// both directions: donor after snapshot(), clone after restoreFrom()).
  bool codeShared() const { return CodeShared; }

private:
  explicit Machine(const MachineConfig &Config);

  /// Swap body; requires the caller to hold the quiescence floor with no
  /// other exclusive section queued (ExclusiveContext::soleExclusive()).
  void setSchemeLocked(std::unique_ptr<AtomicScheme> NewScheme);

  /// Acquires the quiescence floor, draining queued scheme SC sections
  /// (the setScheme protocol); pair with Excl.endExclusive.
  void acquireFloor();

  /// Replaces a *shared* TB cache + JIT with fresh private ones and
  /// rewires the engine/listener plumbing. The shared objects live on in
  /// the snapshot (and its other clones); this machine simply stops
  /// executing out of them. Requires quiescence (no vCPU running).
  void privatizeCode();

  /// Body of the adaptive controller thread (Config.Adaptive).
  void adaptiveLoop(const std::atomic<bool> &Stop);

  /// run(RunOptions) bodies per mode.
  ErrorOr<RunResult> runThreaded();
  ErrorOr<RunResult> runSliced(const RunOptions &Opts);

  /// Totals sampled at run start so collectResult can report deltas
  /// (process-wide fault count, cache-wide lock waits, machine-wide
  /// exclusive sections — all monotonic across Machine reuse).
  struct RunBaseline {
    uint64_t Faults = 0;
    uint64_t LockWaits = 0;
    uint64_t ExclSections = 0;
  };
  RunBaseline sampleBaseline() const;

  /// Collects counters/profiles into a RunResult (wall time filled by the
  /// caller); \p Base turns the monotonic totals into per-run deltas.
  RunResult collectResult(bool AllHalted, const RunBaseline &Base) const;

  MachineConfig Config;
  std::unique_ptr<GuestMemory> Mem;
  ExclusiveContext Excl;
  std::unique_ptr<HtmRuntime> Htm;
  std::unique_ptr<AtomicScheme> Scheme;
  /// Schemes replaced by setScheme, kept one swap deep: retired code
  /// blocks (TbCache) embed helper pointers into the scheme that
  /// translated them, so a scheme may be freed only after those blocks
  /// are — which happens at the next swap (reapRetired, then clear).
  std::vector<std::unique_ptr<AtomicScheme>> RetiredSchemes;
  /// adaptive.* counters, charged by the controller thread and merged
  /// into RunResult::Events alongside the per-vCPU blocks.
  EventCounters AdaptiveEvents;
  std::unique_ptr<Translator> Trans;
  /// TB cache and tier-1 JIT are shared_ptrs because a MachineSnapshot
  /// co-owns them: a snapshot taken from this machine keeps the warm
  /// translations (and compiled code) alive for its clones, which adopt
  /// the same two objects on restore. CodeShared marks that state — any
  /// path that would flush or reap a shared cache must privatize instead
  /// (privatizeCode), since siblings still execute out of it.
  std::shared_ptr<TbCache> Cache;
  std::unique_ptr<Engine> Exec;
  /// Tier-1 JIT; null when disabled or unsupported. Declared after Cache
  /// so it is destroyed first, while the blocks referencing its code
  /// regions still exist (nothing executes during destruction).
  std::shared_ptr<jit::Jit> TheJit;
  /// True while Cache/TheJit are co-owned by a snapshot (either because
  /// snapshot() was taken from this machine or restoreFrom adopted them).
  bool CodeShared = false;
  MachineContext Ctx;
  std::vector<VCpu> Cpus;
  guest::Program Prog;
  /// Content hash of the image the current cache contents were translated
  /// from; loadProgram compares against it to decide whether to flush.
  uint64_t LoadedImageHash = 0;
  uint64_t Resets = 0;
  /// Snapshot whose memfd guest memory is CoW-attached to (null when the
  /// machine owns its pages, including after a PST deep-copy restore).
  std::shared_ptr<const MachineSnapshot> AttachedSnapshot;
  /// Snapshot whose captured vCPU state the next prepareRun applies (set
  /// by restoreFrom for mid-run snapshots; consumed by prepareRun).
  std::shared_ptr<const MachineSnapshot> RestorePoint;
  bool PendingCpuRestore = false;
};

} // namespace llsc

#endif // LLSC_CORE_MACHINE_H
