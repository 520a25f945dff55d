//===- perfbench/src/Checks.cpp - Per-op output checks --------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "support/StringUtils.h"

using namespace llsc;
using namespace llsc::net;

namespace perfbench {

namespace {

bool fail(std::string *Why, std::string Message) {
  if (Why)
    *Why = std::move(Message);
  return false;
}

} // namespace

bool checkKernel(uint64_t ExpectedSum, uint64_t CounterSum, bool AllHalted,
                 std::string *Why) {
  if (!AllHalted)
    return fail(Why, "a vCPU did not halt");
  if (CounterSum != ExpectedSum)
    return fail(Why,
                formatString("shared counters sum to %llu, expected %llu",
                             static_cast<unsigned long long>(CounterSum),
                             static_cast<unsigned long long>(ExpectedSum)));
  return true;
}

bool checkJobLine(const JsonValue &Job, uint64_t ExpectedSc,
                  std::string *Why) {
  if (!Job.isObject())
    return fail(Why, "result carries no job object");
  if (Job.has("state") && Job.get("state").asString(std::string()) != "done")
    return fail(Why, "job state " + Job.get("state").asString(std::string()) +
                         ": " + Job.get("error").asString(std::string()));
  if (!Job.get("all_halted").asBool(false))
    return fail(Why, "job did not halt");
  const JsonValue &Sc = Job.get("metrics").get("sc.succeeded");
  if (!Sc.isNumber())
    return fail(Why, "result has no sc.succeeded");
  uint64_t Got = Sc.asUint(0);
  if (Got != ExpectedSc)
    return fail(Why, formatString("sc.succeeded %llu, expected %llu",
                                  static_cast<unsigned long long>(Got),
                                  static_cast<unsigned long long>(ExpectedSc)));
  return true;
}

bool selfTest(std::string *Why) {
  constexpr uint64_t Expected = 3200;
  if (!checkKernel(Expected, Expected, true, Why))
    return fail(Why, "kernel check rejects a correct result: " + *Why);
  for (uint64_t Off : {Expected + 1, Expected - 1})
    if (checkKernel(Expected, Off, true, nullptr))
      return fail(Why, "kernel check accepts an off-by-one counter sum");
  if (checkKernel(Expected, Expected, false, nullptr))
    return fail(Why, "kernel check accepts a vCPU that did not halt");

  auto Line = [](const char *State, bool Halted, uint64_t Sc) {
    auto J = JsonValue::parse(formatString(
        R"({"job_id": 1,%s"all_halted": %s,"metrics": {"sc.succeeded": %llu}})",
        State, Halted ? "true" : "false",
        static_cast<unsigned long long>(Sc)));
    return J ? J.take() : JsonValue();
  };
  if (!checkJobLine(Line("", true, Expected), Expected, Why))
    return fail(Why, "job check rejects a correct result: " + *Why);
  for (uint64_t Off : {Expected + 1, Expected - 1})
    if (checkJobLine(Line("", true, Off), Expected, nullptr))
      return fail(Why, "job check accepts an off-by-one sc.succeeded");
  if (checkJobLine(Line("", false, Expected), Expected, nullptr))
    return fail(Why, "job check accepts a job that did not halt");
  if (checkJobLine(Line(R"("state": "failed",)", true, Expected), Expected,
                   nullptr))
    return fail(Why, "job check accepts a failed job");
  return true;
}

} // namespace perfbench
