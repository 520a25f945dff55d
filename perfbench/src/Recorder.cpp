//===- perfbench/src/Recorder.cpp - Traced-run spans and counters ---------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Recorder.h"

#include "net/Json.h"

#include <cstdio>

using namespace llsc;

namespace perfbench {

Recorder::Recorder() { Spans.reserve(1u << 18); }

uint32_t Recorder::begin(const char *Name, uint64_t Op, uint32_t Parent) {
  Spans.push_back({Name, Op, static_cast<uint32_t>(Spans.size() + 1), Parent,
                   wallNs(), 0});
  return Spans.back().Id;
}

void Recorder::end(uint32_t Id) { Spans[Id - 1].EndNs = wallNs(); }

double Recorder::counter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

std::vector<double> Recorder::durationsUs(std::string_view Name) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (Name == S.Name)
      Out.push_back(static_cast<double>(S.EndNs - S.StartNs) * 1e-3);
  return Out;
}

bool Recorder::writeChromeTrace(const std::string &Path,
                                const std::string &Label) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fprintf(F, "{\"traceEvents\":[\n");
  std::fprintf(F,
               "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":%s}}",
               net::JsonValue::string(Label).render().c_str());
  for (const Span &S : Spans)
    std::fprintf(F,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"id\":%u,\"parent\":%u}}",
                 S.Name, static_cast<double>(S.StartNs - Origin) * 1e-3,
                 static_cast<double>(S.EndNs - S.StartNs) * 1e-3,
                 static_cast<unsigned long long>(S.Op), S.Id, S.Parent);
  std::fprintf(F, "\n],\"counters\":{");
  const char *Sep = "";
  for (const auto &[Name, Value] : Counters) {
    std::fprintf(F, "%s\n%s:%.17g", Sep,
                 net::JsonValue::string(Name).render().c_str(), Value);
    Sep = ",";
  }
  std::fprintf(F, "\n}}\n");
  return std::fclose(F) == 0;
}

void deriveCounterLayers(const Recorder &Rec, double Ops, double RunSeconds,
                         LayerMetrics &L) {
  auto C = [&Rec](const char *Name) { return Rec.counter(Name); };
  auto PerOp = [Ops](double V) { return Ops > 0 ? V / Ops : 0; };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };

  L["runtime.excl_entries_per_op"] = PerOp(C("excl.entries"));
  L["runtime.excl_wait_ms_per_op"] = PerOp(C("excl.wait_ns") * 1e-6);
  L["runtime.safepoint_parks_per_op"] = PerOp(C("excl.safepoint_parks"));
  L["runtime.exclusive_ms_per_op"] = PerOp(C("prof.exclusive_ns") * 1e-6);
  L["atomic.ll_per_op"] = PerOp(C("ll.issued"));
  L["atomic.sc_per_op"] = PerOp(C("sc.attempted"));
  L["atomic.sc_fail_ratio"] = Ratio(C("sc.failed"), C("sc.attempted"));
  L["atomic.instrument_ms_per_op"] = PerOp(C("prof.instrument_ns") * 1e-6);
  L["atomic.inline_ops_per_op"] = PerOp(C("instr.inline_ops"));
  L["atomic.helper_calls_per_op"] =
      PerOp(C("helper.store_calls") + C("helper.load_calls") +
            C("helper.scheme_calls"));
  L["mem.mprotect_ms_per_op"] = PerOp(C("prof.mprotect_ns") * 1e-6);
  L["mem.fastmem_hit_ratio"] =
      Ratio(C("engine.fastmem.hit"),
            C("engine.fastmem.hit") + C("engine.fastmem.slow"));
  L["mem.faults_per_op"] = PerOp(C("fault.recovered"));
  L["engine.guest_mips"] = Ratio(C("exec.insts") * 1e-6, RunSeconds);
  L["engine.jmpcache_hit_ratio"] =
      Ratio(C("engine.jmpcache.hit"),
            C("engine.jmpcache.hit") + C("engine.jmpcache.miss"));
  L["jit.compiled_per_op"] = PerOp(C("engine.jit.compiled"));
  L["jit.enters_per_op"] = PerOp(C("engine.jit.enters"));
  L["jit.deopts_per_op"] = PerOp(C("engine.jit.deopts"));
}

} // namespace perfbench
