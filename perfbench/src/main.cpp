//===- perfbench/src/main.cpp - End-to-end benchmark entry point ----------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
///
/// Runs one closed-loop workload (one op in flight) for S seconds and
/// prints, as its last stdout line, {"correct", "attempted", "failed",
/// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
/// --trace 1 the run spends half its time untraced and half traced, and
/// the metrics are the per-layer ones plus the tracing overhead. The line
/// before it carries the latency tail and host-noise diagnostics.
/// perfbench/README.md documents every metric.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Common.h"
#include "Host.h"

#include "net/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace llsc::net;

namespace perfbench {

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

} // namespace perfbench

using namespace perfbench;

namespace {

/// Every per-layer metric, in BENCHMARK.json order. A workload that does
/// no work in a layer reports 0 for it (guest-exec has no queue, wire or
/// pool).
const char *const PerLayerNames[] = {
    "core.create_ms",
    "core.snapshot_ms",
    "core.load_us",
    "core.run_ms",
    "core.reset_us",
    "core.run_floor_us",
    "core.restore_us",
    "runtime.excl_entries_per_op",
    "runtime.excl_wait_ms_per_op",
    "runtime.safepoint_parks_per_op",
    "runtime.exclusive_ms_per_op",
    "atomic.ll_per_op",
    "atomic.sc_per_op",
    "atomic.sc_fail_ratio",
    "atomic.instrument_ms_per_op",
    "atomic.inline_ops_per_op",
    "atomic.helper_calls_per_op",
    "engine.guest_mips",
    "engine.jmpcache_hit_ratio",
    "mem.fastmem_hit_ratio",
    "mem.faults_per_op",
    "mem.mprotect_ms_per_op",
    "jit.compiled_per_op",
    "jit.compile_us_per_block",
    "jit.code_bytes_per_block",
    "jit.enters_per_op",
    "jit.deopts_per_op",
    "translate.blocks_per_op",
    "translate.us_per_block",
    "ir.ops_kept_ratio",
    "serve.queue_us_p50",
    "serve.run_us_p50",
    "serve.dispatch_us_p50",
    "serve.pool_hit_ratio",
    "serve.clone_reuse_ratio",
    "net.submit_rtt_us_p50",
    "net.delivery_us_p50",
    "net.request_bytes",
    "net.result_bytes",
    "trace.overhead_pct",
    "host.steal_pct",
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "guest-exec|serve-snapshot-wire|serve-cold-wire --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               Why);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options Opts;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    if (I + 1 >= Argc)
      usage("missing value");
    std::string Flag = Argv[I];
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      Opts.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      Opts.Seed = std::strtoull(Value, &End, 10);
    } else if (Flag == "--seconds") {
      Opts.Seconds = std::strtod(Value, &End);
      if (!(Opts.Seconds > 0 && Opts.Seconds <= 600))
        usage("--seconds must be in (0, 600]");
    } else if (Flag == "--trace") {
      Opts.Trace = std::strcmp(Value, "1") == 0;
      if (!Opts.Trace && std::strcmp(Value, "0") != 0)
        usage("--trace takes 0 or 1");
    } else if (Flag == "--out-dir") {
      Opts.OutDir = Value;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
    if (End && *End)
      usage(("bad number for " + Flag).c_str());
  }
  if (!HaveWorkload)
    usage("--workload is required");
  return Opts;
}

JsonValue metric(double Value, const char *Unit) {
  JsonValue M = JsonValue::object();
  M.membersMut()["value"] =
      JsonValue::number(std::isfinite(Value) ? Value : 0);
  M.membersMut()["unit"] = JsonValue::string(Unit);
  return M;
}

/// Unit of a per-layer metric, from its name's suffix.
const char *layerUnit(const std::string &Name) {
  auto Ends = [&Name](const char *Suffix) {
    size_t N = std::strlen(Suffix);
    return Name.size() >= N && Name.compare(Name.size() - N, N, Suffix) == 0;
  };
  if (Ends("_ms") || Ends("_ms_per_op"))
    return "ms";
  if (Ends("_us") || Ends("_us_p50") || Ends("_us_per_block"))
    return "us";
  if (Ends("_pct"))
    return "%";
  if (Ends("_ratio"))
    return "ratio";
  if (Ends("_bytes") || Ends("_bytes_per_block"))
    return "bytes";
  if (Ends("_mips"))
    return "MIPS";
  return "count";
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts = parseArgs(Argc, Argv);
  bool Cold = Opts.Workload == "serve-cold-wire";
  bool Guest = Opts.Workload == "guest-exec";
  if (!Guest && !Cold && Opts.Workload != "serve-snapshot-wire")
    usage(("unknown workload " + Opts.Workload).c_str());

  std::string SelfTestWhy;
  bool SelfTestOk = selfTest(&SelfTestWhy);
  if (!SelfTestOk)
    std::fprintf(stderr, "perfbench: self-test failed: %s\n",
                 SelfTestWhy.c_str());

  // A serve op hands off across four threads, one at a time; guest-exec
  // runs two vCPUs at once.
  CpuRotation Rotation(Guest ? 2 : 1);
  Rotation.step();
  double RefLoop0 = referenceLoopMs();
  CpuTicks Ticks0 = readCpuTicks();
  WorkloadOutcome Out;
  if (Guest)
    runGuestExec(Opts, Rotation, Out);
  else
    runServeWire(Opts, Cold, Rotation, Out);
  CpuTicks Ticks1 = readCpuTicks();
  double StealPct = stealPercent(Ticks0, Ticks1);
  double RefLoop1 = referenceLoopMs();

  const LoopSamples &E2E = Out.Untraced;
  // The tail is a diagnostic, not an end-to-end metric: host steal and
  // vCPU speed episodes move it by more than any bound the benchmark may
  // set (see perfbench/README.md, "Why the tail is a diagnostic"). Its
  // percentile is fixed per workload and taken in windows of consecutive
  // ops sized so that ten samples lie beyond it; the reported tail is the
  // median window's. A whole-run percentile reports the worst stall burst,
  // the median window reports the run.
  double TailQ = Opts.Workload == "serve-snapshot-wire" ? 0.99 : 0.90;
  size_t Window = TailQ == 0.99 ? 1000 : 100;
  std::vector<double> WindowTails;
  for (size_t I = 0; I + Window <= E2E.WallMs.size(); I += Window)
    WindowTails.push_back(quantile(
        std::vector<double>(E2E.WallMs.begin() + I,
                            E2E.WallMs.begin() + I + Window),
        TailQ));
  double TailMs =
      WindowTails.empty() ? quantile(E2E.WallMs, TailQ) : median(WindowTails);

  uint64_t Attempted = E2E.Attempted + Out.Traced.Attempted;
  uint64_t Failed = Attempted - E2E.Ok - Out.Traced.Ok;
  bool Correct = SelfTestOk && Out.SetupFailures == 0 && Failed == 0 &&
                 Attempted > 0;

  JsonValue Metrics = JsonValue::object();
  auto &M = Metrics.membersMut();
  if (!Opts.Trace) {
    M["setup_s"] = metric(median(Out.SetupSeconds), "s");
    double OkRatio = E2E.Attempted ? static_cast<double>(E2E.Ok) /
                                         static_cast<double>(E2E.Attempted)
                                   : 0;
    M["ok_ratio"] = metric(OkRatio, "ratio");
    M["peak_rss_mb"] =
        metric(E2E.RssMiB > 0 ? E2E.RssMiB : peakRssMiB(), "MiB");
    M["op_p50_ms"] = metric(median(E2E.WallMs), "ms");
    M["op_cpu_p50_ms"] = metric(median(E2E.CpuMs), "ms");
  } else {
    LayerMetrics &L = Out.Layers;
    double Untraced = median(E2E.WallMs);
    L["trace.overhead_pct"] =
        Untraced > 0 ? 100.0 * (median(Out.Traced.WallMs) / Untraced - 1) : 0;
    L["host.steal_pct"] = StealPct;
    for (const char *Name : PerLayerNames)
      M[Name] = metric(L.count(Name) ? L[Name] : 0, layerUnit(Name));
    for (const auto &[Name, Value] : L)
      if (!M.count(Name))
        std::fprintf(stderr, "perfbench: unlisted layer metric %s\n",
                     Name.c_str());
  }

  JsonValue Diag = JsonValue::object();
  auto &D = Diag.membersMut();
  D["workload"] = JsonValue::string(Opts.Workload);
  D["seed"] = JsonValue::integer(static_cast<int64_t>(Opts.Seed));
  D["host_steal_pct"] = JsonValue::number(StealPct);
  D["host_nproc"] = JsonValue::integer(onlineCpus());
  D["host_loadavg_1m"] = JsonValue::number(loadAverage1m());
  JsonValue RefLoop = JsonValue::array();
  RefLoop.itemsMut().push_back(JsonValue::number(RefLoop0));
  RefLoop.itemsMut().push_back(JsonValue::number(RefLoop1));
  D["host_ref_loop_ms"] = std::move(RefLoop);
  D["op_tail_ms"] = JsonValue::number(TailMs);
  D["tail_percentile"] = JsonValue::number(TailQ * 100);
  D["tail_window_ops"] = JsonValue::integer(static_cast<int64_t>(Window));
  D["tail_windows"] =
      JsonValue::integer(static_cast<int64_t>(WindowTails.size()));
  D["tail_whole_run_ms"] = JsonValue::number(quantile(E2E.WallMs, TailQ));
  D["ops_untraced"] = JsonValue::integer(static_cast<int64_t>(E2E.Attempted));
  D["ops_traced"] =
      JsonValue::integer(static_cast<int64_t>(Out.Traced.Attempted));
  JsonValue Setups = JsonValue::array();
  for (double S : Out.SetupSeconds)
    Setups.itemsMut().push_back(JsonValue::number(S));
  D["setup_runs_s"] = std::move(Setups);
  D["setup_failures"] =
      JsonValue::integer(static_cast<int64_t>(Out.SetupFailures));
  D["self_test"] = JsonValue::string(SelfTestOk ? "pass" : SelfTestWhy);
  JsonValue DiagLine = JsonValue::object();
  DiagLine.membersMut()["diagnostics"] = std::move(Diag);
  std::printf("%s\n", DiagLine.render().c_str());

  JsonValue Result = JsonValue::object();
  auto &R = Result.membersMut();
  R["correct"] = JsonValue::boolean(Correct);
  R["attempted"] = JsonValue::integer(static_cast<int64_t>(Attempted));
  R["failed"] = JsonValue::integer(static_cast<int64_t>(Failed));
  R["metrics"] = std::move(Metrics);
  std::printf("%s\n", Result.render().c_str());
  std::fflush(stdout);
  return 0;
}
