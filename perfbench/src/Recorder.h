//===- perfbench/src/Recorder.h - Traced-run spans and counters -*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's recorder. Spans wrap each public call the benchmark
/// makes into a layer (name, start, end, parent, op id); counters are the
/// program's own exported counts, summed at the same boundaries. Both
/// stay in memory until the run ends, then go to one Chrome trace_event
/// file. Untraced phases pass a null Recorder, so they pay nothing.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_RECORDER_H
#define PERFBENCH_RECORDER_H

#include "Common.h"

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Recorder {
public:
  struct Span {
    const char *Name;
    uint64_t Op;
    uint32_t Id;
    uint32_t Parent; ///< 0 = root.
    uint64_t StartNs;
    uint64_t EndNs;
  };

  Recorder();

  /// Opens a span; \returns its id for end() and for children's Parent.
  uint32_t begin(const char *Name, uint64_t Op, uint32_t Parent = 0);
  void end(uint32_t Id);

  /// Sums \p Value into the counter \p Name.
  void add(const std::string &Name, double Value) { Counters[Name] += Value; }
  double counter(const std::string &Name) const;

  /// Durations in microseconds of every span named \p Name.
  std::vector<double> durationsUs(std::string_view Name) const;

  /// Writes spans (as complete "X" events) and counter sums to \p Path.
  bool writeChromeTrace(const std::string &Path,
                        const std::string &Label) const;

private:
  std::vector<Span> Spans;
  std::map<std::string, double> Counters;
};

/// RAII span that tolerates a null recorder (untraced phases).
class ScopedSpan {
public:
  ScopedSpan(Recorder *R, const char *Name, uint64_t Op, uint32_t Parent = 0)
      : R(R), Id(R ? R->begin(Name, Op, Parent) : 0) {}
  ~ScopedSpan() {
    if (R)
      R->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  uint32_t id() const { return Id; }

private:
  Recorder *R;
  uint32_t Id;
};

/// Adds the per-op and ratio metrics that come straight from summed
/// program counters (runtime.*, atomic.*, engine.*, mem.*, jit enters,
/// deopts and compiles). \p RunSeconds is the summed Machine::run wall
/// time the executed instructions took.
void deriveCounterLayers(const Recorder &Rec, double Ops, double RunSeconds,
                         LayerMetrics &L);

} // namespace perfbench

#endif // PERFBENCH_RECORDER_H
