//===- perfbench/src/Workloads.h - The benchmark's workload runners -*- C++ -*-===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"
#include "Schedule.h"

#include <map>
#include <string>

namespace perfbench {

struct RunArgs {
  const WorkloadSpec *Workload = nullptr;
  uint64_t Seed = 1;
  double Seconds = 10;
  /// false: the end-to-end run (tracing off). true: an untraced phase for
  /// exact counters, then a separate traced phase for the per-layer times.
  bool Trace = false;
};

struct WorkloadResult {
  RunOutcome Outcome;                 ///< correctness, counts and notes
  std::map<std::string, double> Values; ///< metric name -> value
};

/// Set-up repetitions whose median is reported as setup_s.
constexpr int SetupRepetitions = 7;

/// The traced phase of a --trace 1 run replays at most this many seconds
/// of schedule: every span (or scheduler event) of it is held in memory
/// until it is analysed.
constexpr double TracedSecondsCap = 3;

/// A run whose generator falls further behind its schedule than this (p99
/// of send time minus scheduled time) is invalid: it measured the client,
/// not the system. Preemption of the spinning generator on a busy
/// virtualized host costs a few milliseconds; a generator that cannot keep
/// up falls behind without limit.
constexpr double GenLateBoundUs = 20000;

WorkloadResult runProxyWorkload(const RunArgs &Args);
WorkloadResult runJobsWorkload(const RunArgs &Args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
