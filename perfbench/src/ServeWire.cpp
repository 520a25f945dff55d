//===- perfbench/src/ServeWire.cpp - The two serve workloads --------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// An in-process net::Server in front of a SessionService with one
/// worker, one TCP connection over localhost and one job in flight. Each
/// op is two round trips: submit (answered with a job id), then stream
/// one result (answered with the result event and stream-end). Host
/// threads: this client, the event loop, 1 worker and 1 vCPU.
///
///  - serve-snapshot-wire: set-up captures a warm snapshot of a short
///    1-vCPU LL/SC loop through the snapshot verb; every op submits
///    `from` it. No translation at all: the op is the per-job floor
///    (admission, clone acquire and restore, vCPU thread start and join,
///    the result JSON and the two round trips).
///  - serve-cold-wire: every op ships a raw binary the fleet has never
///    seen (elf_hex), so the pooled machine's load flushes its cache and
///    every block is decoded, lowered, optimised, verified and compiled
///    again: the compile side of the compile-vs-run trade-off.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Common.h"
#include "Inputs.h"
#include "Probe.h"
#include "Recorder.h"

#include "core/Snapshot.h"
#include "net/Client.h"
#include "net/Protocol.h"
#include "net/Server.h"

#include <cstdio>
#include <thread>

using namespace llsc;
using namespace llsc::net;
using namespace llsc::serve;

namespace perfbench {

namespace {

/// Six set-ups on each CPU window of a 4-vCPU host (see CpuRotation).
constexpr unsigned SetupRepeats = 24;
constexpr unsigned WarmupOps = 8;
/// Cold warm-up programs come from a range of indices the timed ops never
/// reach, so a timed op never meets an image the fleet has run.
constexpr uint64_t WarmupIndexBase = 1ull << 40;
/// Cold images the traced run's probe measures cold and warm.
constexpr size_t ProbeImages = 8;
const char *const SnapshotName = "img";
/// Each set-up starts a new daemon, so one fixed session name lets every
/// request line be built before the clock starts.
const char *const SessionName = "perfbench";

/// The daemon: service, server and its event-loop thread.
struct Daemon {
  SessionService Service;
  Server Srv;
  std::thread Loop;

  Daemon()
      : Service([] {
          ServiceConfig C;
          C.Fleet.Workers = 1;
          C.Fleet.QueueCapacity = 4;
          return C;
        }()),
        Srv([this] {
          ServerConfig C;
          C.Service = &Service;
          return C;
        }()) {
    if (auto Started = Srv.start(); !Started)
      reportFatalError(Started.error());
    Loop = std::thread([this] { Srv.run(); });
  }
  ~Daemon() {
    Srv.requestStop();
    Loop.join();
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
};

JsonValue callOk(Client &C, const JsonValue &Request) {
  auto Resp = C.call(Request);
  if (!Resp)
    reportFatalError(Resp.error());
  if (!Resp->get("ok").asBool(false))
    reportFatalError("daemon refused " +
                     Request.get("verb").asString(std::string()) + ": " +
                     Resp->get("error").asString(std::string()));
  return Resp.take();
}

/// One op's request, built before the op's clock starts.
struct WireRequest {
  std::string SubmitLine;
  uint64_t ExpectedSc = 0;
};

struct WireOp {
  bool Ok = false;
  std::string Why;
  JsonValue Job;
  size_t ResultBytes = 0;
  double SubmitUs = 0; ///< The submit round trip.
};

/// submit, then stream one result, then check it.
WireOp runOp(Client &C, const WireRequest &Req, const std::string &StreamLine,
             Recorder *Rec, uint64_t Op) {
  WireOp W;
  ScopedSpan OpSpan(Rec, "op", Op);
  {
    ScopedSpan S(Rec, "net.submit", Op, OpSpan.id());
    uint64_t T0 = wallNs();
    if (auto Sent = C.sendLine(Req.SubmitLine); !Sent)
      reportFatalError(Sent.error());
    auto Line = C.readLine();
    if (!Line)
      reportFatalError(Line.error());
    W.SubmitUs = static_cast<double>(wallNs() - T0) * 1e-3;
    auto Resp = JsonValue::parse(*Line);
    if (!Resp || !Resp->get("ok").asBool(false)) {
      W.Why = "submit refused: " + *Line;
      return W;
    }
  }
  {
    ScopedSpan S(Rec, "net.stream", Op, OpSpan.id());
    if (auto Sent = C.sendLine(StreamLine); !Sent)
      reportFatalError(Sent.error());
    unsigned Results = 0;
    while (true) {
      auto Line = C.readLine();
      if (!Line)
        reportFatalError(Line.error());
      auto Event = JsonValue::parse(*Line);
      if (!Event)
        reportFatalError(Event.error());
      std::string Kind = Event->get("event").asString(std::string());
      if (Kind == "stream-end")
        break;
      if (Kind != "result")
        reportFatalError("unexpected stream line: " + *Line);
      ++Results;
      W.ResultBytes = Line->size();
      W.Job = Event->get("job");
    }
    if (Results != 1) {
      W.Why = "stream delivered " + std::to_string(Results) + " results";
      return W;
    }
  }
  ScopedSpan S(Rec, "check", Op, OpSpan.id());
  W.Ok = checkJobLine(W.Job, Req.ExpectedSc, &W.Why);
  return W;
}

/// Makes op requests: snapshot clones, or a new cold program per op.
class RequestSource {
public:
  RequestSource(const Options &Opts, bool Cold, const WireProgram &SnapProg)
      : Seed(Opts.Seed), Cold(Cold), SnapshotSc(SnapProg.ExpectedSc) {}

  WireRequest next(uint64_t Index, guest::Program *ProgOut = nullptr) const {
    JsonValue R = JsonValue::object();
    auto &M = R.membersMut();
    M["verb"] = JsonValue::string("submit");
    M["session"] = JsonValue::string(SessionName);
    WireRequest Req;
    if (!Cold) {
      M["name"] = JsonValue::string("snap");
      M["from"] = JsonValue::string(SnapshotName);
      Req.ExpectedSc = SnapshotSc;
    } else {
      WireProgram P = makeColdProgram(Seed, Index);
      M["name"] = JsonValue::string("cold");
      M["scheme"] = JsonValue::string("hst");
      M["threads"] = JsonValue::integer(1);
      M["elf_hex"] = JsonValue::string(hexEncode(P.Prog.image()));
      Req.ExpectedSc = P.ExpectedSc;
      if (ProgOut)
        *ProgOut = std::move(P.Prog);
    }
    Req.SubmitLine = R.render();
    return Req;
  }

private:
  uint64_t Seed;
  bool Cold;
  uint64_t SnapshotSc;
};

/// The values a traced loop reads from each result line and span.
struct WireTrace {
  std::vector<double> QueueUs, RunUs, DispatchUs, DeliveryUs, RunWallMs;
  double RequestBytes = 0, ResultBytes = 0, RunSeconds = 0;
  std::vector<guest::Program> Images;
};

void loop(Client &C, const RequestSource &Source, uint64_t &NextIndex,
          double Seconds, const std::string &StreamLine, Recorder *Rec,
          CpuRotation &Rotation, uint64_t RotateEveryOps, LoopSamples &S,
          WireTrace *T) {
  uint64_t Deadline = wallNs() + static_cast<uint64_t>(Seconds * 1e9);
  while (wallNs() < Deadline) {
    uint64_t Op = NextIndex++;
    if (Op % RotateEveryOps == 0)
      Rotation.step();
    guest::Program Prog;
    bool KeepImage = T && T->Images.size() < ProbeImages;
    WireRequest Req = Source.next(Op, KeepImage ? &Prog : nullptr);
    uint64_t W0 = wallNs(), C0 = processCpuNs();
    WireOp W = runOp(C, Req, StreamLine, Rec, Op);
    uint64_t W1 = wallNs(), C1 = processCpuNs();
    S.add(W0, W1, C0, C1, W.Ok);
    if (!W.Ok)
      std::fprintf(stderr, "serve: op %llu failed: %s\n",
                   static_cast<unsigned long long>(Op), W.Why.c_str());
    if (!T || !W.Job.isObject())
      continue;
    if (KeepImage && !Prog.image().empty())
      T->Images.push_back(std::move(Prog));
    const JsonValue &Metrics = W.Job.get("metrics");
    for (const auto &[Name, Value] : Metrics.members())
      Rec->add(Name, Value.asDouble());
    double QueueUs = Metrics.get("serve.queue_ns").asDouble() * 1e-3;
    double RunUs = Metrics.get("serve.run_ns").asDouble() * 1e-3;
    double WallS = W.Job.get("wall_seconds").asDouble();
    double OpUs = static_cast<double>(W1 - W0) * 1e-3;
    T->QueueUs.push_back(QueueUs);
    T->RunUs.push_back(RunUs);
    T->DispatchUs.push_back(RunUs - WallS * 1e6);
    T->RunWallMs.push_back(WallS * 1e3);
    T->RunSeconds += WallS;
    T->RequestBytes += static_cast<double>(Req.SubmitLine.size() + 1);
    T->ResultBytes += static_cast<double>(W.ResultBytes + 1);
    // Delivery: what the op took beyond the submit round trip and the
    // job's own queue and run time (the result's trip back, stream
    // framing and the client's decode).
    T->DeliveryUs.push_back(OpUs - W.SubmitUs - QueueUs - RunUs);
  }
}

} // namespace

void runServeWire(const Options &Opts, bool Cold, CpuRotation &Rotation,
                  WorkloadOutcome &Out) {
  const char *Label = Cold ? "serve-cold-wire" : "serve-snapshot-wire";
  WireProgram SnapProg = makeSnapshotProgram(Opts.Seed);
  RequestSource Source(Opts, Cold, SnapProg);

  // Every request a set-up sends is built before its clock starts.
  JsonValue Create = JsonValue::object();
  Create.membersMut()["verb"] = JsonValue::string("create-session");
  Create.membersMut()["session"] = JsonValue::string(SessionName);
  JsonValue Stream = JsonValue::object();
  Stream.membersMut()["verb"] = JsonValue::string("stream");
  Stream.membersMut()["session"] = JsonValue::string(SessionName);
  Stream.membersMut()["count"] = JsonValue::integer(1);
  const std::string StreamLine = Stream.render();
  JsonValue Capture = JsonValue::object();
  auto &SnapArgs = Capture.membersMut();
  SnapArgs["verb"] = JsonValue::string("snapshot");
  SnapArgs["session"] = JsonValue::string(SessionName);
  SnapArgs["name"] = JsonValue::string(SnapshotName);
  SnapArgs["scheme"] = JsonValue::string("hst");
  SnapArgs["threads"] = JsonValue::integer(1);
  SnapArgs["asm"] = JsonValue::string(SnapProg.Asm);
  std::vector<double> SnapshotMs;
  std::unique_ptr<Daemon> D;
  Client C;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    C.close();
    D.reset();
    Rotation.step();
    // Built per set-up so that one set-up's programs at a time count
    // towards the peak RSS.
    std::vector<WireRequest> Warmups;
    for (unsigned I = 0; I < WarmupOps; ++I)
      Warmups.push_back(Source.next(WarmupIndexBase + Rep * WarmupOps + I));
    uint64_t T0 = wallNs();
    D = std::make_unique<Daemon>();
    if (auto Connected = C.connect("127.0.0.1", D->Srv.port()); !Connected)
      reportFatalError(Connected.error());
    callOk(C, Create);
    if (!Cold) {
      uint64_t S0 = wallNs();
      callOk(C, Capture);
      SnapshotMs.push_back(static_cast<double>(wallNs() - S0) * 1e-6);
    }
    for (unsigned I = 0; I < WarmupOps; ++I) {
      WireOp W = runOp(C, Warmups[I], StreamLine, nullptr, I);
      if (!W.Ok) {
        std::fprintf(stderr, "%s: warm-up op failed: %s\n", Label,
                     W.Why.c_str());
        ++Out.SetupFailures;
      }
    }
    Out.SetupSeconds.push_back(static_cast<double>(wallNs() - T0) * 1e-9);
  }

  uint64_t NextIndex = 0;
  // About 0.2 s of ops per CPU window.
  uint64_t RotateEvery = Cold ? 100 : 500;
  Out.Untraced.RssCheckpointOps = Cold ? 2000 : 10000;
  if (!Opts.Trace) {
    loop(C, Source, NextIndex, Opts.Seconds, StreamLine, nullptr,
         Rotation, RotateEvery, Out.Untraced, nullptr);
    return;
  }

  loop(C, Source, NextIndex, Opts.Seconds / 2, StreamLine, nullptr,
       Rotation, RotateEvery, Out.Untraced, nullptr);

  Recorder Rec;
  WireTrace T;
  MachinePool::Stats Pool0 = D->Service.fleet().pool().stats();
  loop(C, Source, NextIndex, Opts.Seconds / 2, StreamLine, &Rec,
       Rotation, RotateEvery, Out.Traced, &T);
  MachinePool::Stats Pool1 = D->Service.fleet().pool().stats();
  double Ops = static_cast<double>(Out.Traced.Attempted);

  LayerMetrics &L = Out.Layers;
  deriveCounterLayers(Rec, Ops, T.RunSeconds, L);
  auto Ratio = [](uint64_t Num, uint64_t Den) {
    return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
  };
  uint64_t Created = Pool1.Created - Pool0.Created;
  uint64_t Reused = Pool1.Reused - Pool0.Reused;
  uint64_t Clones = Pool1.SnapshotClones - Pool0.SnapshotClones;
  uint64_t CloneReused = Pool1.SnapshotReused - Pool0.SnapshotReused;
  L["serve.pool_hit_ratio"] = Ratio(Reused, Created + Reused);
  L["serve.clone_reuse_ratio"] = Ratio(CloneReused, Clones + CloneReused);
  L["serve.queue_us_p50"] = median(T.QueueUs);
  L["serve.run_us_p50"] = median(T.RunUs);
  L["serve.dispatch_us_p50"] = median(T.DispatchUs);
  L["net.submit_rtt_us_p50"] = median(Rec.durationsUs("net.submit"));
  L["net.delivery_us_p50"] = median(T.DeliveryUs);
  L["net.request_bytes"] = Ops > 0 ? T.RequestBytes / Ops : 0;
  L["net.result_bytes"] = Ops > 0 ? T.ResultBytes / Ops : 0;
  L["core.run_ms"] = median(T.RunWallMs);

  std::shared_ptr<const MachineSnapshot> Snap;
  std::vector<guest::Program> Images = std::move(T.Images);
  if (!Cold) {
    Snap = D->Service.sessions().front()->findSnapshot(SnapshotName);
    Images.assign(3, SnapProg.Prog);
  }
  C.close();
  D.reset();

  MachineConfig Config;
  Config.Scheme = SchemeKind::Hst;
  Config.NumThreads = 1;
  ProbeCosts P = probeMachine(Config, Images, Snap);
  L["core.create_ms"] = P.CreateMs;
  L["core.snapshot_ms"] = Cold ? P.SnapshotMs : median(SnapshotMs);
  L["core.load_us"] = P.ColdLoadUs;
  L["core.reset_us"] = P.ResetUs;
  L["core.restore_us"] = P.RestoreUs;
  L["core.run_floor_us"] = P.RunFloorUs;
  L["translate.blocks_per_op"] = Cold ? P.BlocksPerImage : P.CloneBlocks;
  L["translate.us_per_block"] = P.TranslateUsPerBlock;
  L["jit.compile_us_per_block"] = P.CompileUsPerBlock;
  L["jit.code_bytes_per_block"] = P.CodeBytesPerBlock;
  L["ir.ops_kept_ratio"] = P.IrKeptRatio;

  if (!Opts.OutDir.empty())
    Rec.writeChromeTrace(Opts.OutDir + "/" + Label + "-seed" +
                             std::to_string(Opts.Seed) + ".trace.json",
                         Label);
}

} // namespace perfbench
