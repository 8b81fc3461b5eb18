//===- perfbench/src/Common.h - Benchmark-side helpers ----------*- C++ -*-===//
//
// Clock, seeded randomness, percentiles and process counters used by every
// workload. The randomness is the benchmark's own (not the library's Rng), so
// a change to the library can never change the inputs the benchmark feeds it.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds on the clock the library stamps spans with, so
/// client-side times and exported span times share one time base.
uint64_t nowNs();

/// Absolute nanoseconds of the library's span-export epoch (span JSON times
/// are microseconds relative to it).
uint64_t spanEpochNs();

/// Busy-waits until the absolute nowNs() time \p DeadlineNs. The generators
/// spin rather than sleep: on a virtualized host a sleeping thread can wake
/// milliseconds late, which would be charged to the system under test.
void spinUntilNs(uint64_t DeadlineNs);

/// splitmix64: the benchmark's only source of randomness.
class SeededRng {
public:
  explicit SeededRng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, Bound).
  uint64_t below(uint64_t Bound);
  /// Exponential with mean \p Mean.
  double exponential(double Mean);

private:
  uint64_t State;
};

/// Stateless 64-bit mix of two words (request ids, bodies, trace ids).
uint64_t mix64(uint64_t A, uint64_t B);

/// Nearest-rank percentile \p P (0 < P <= 100) of \p Values; 0 when empty.
double percentile(std::vector<double> Values, double P);

/// The highest of the usual reporting percentiles (99.99, 99.9, 99, 95, 90,
/// 75, 50) that still has at least ten samples above its nearest rank among
/// \p N samples; 0 when even the median lacks them.
double highestSupportedPercentile(std::size_t N);

/// Median of a small set (setup repetitions, run medians).
double median(std::vector<double> Values);

/// The median over \p Windows of each window's percentile \p P.
double windowedPercentile(const std::vector<std::vector<double>> &Windows,
                          double P);

/// \p Num / \p Den, or 0 when nothing was counted.
inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Process-wide counters sampled around a measured window.
struct ProcCounters {
  double CpuSeconds = 0;          ///< user + sys, all threads
  uint64_t ContextSwitches = 0;   ///< voluntary + involuntary
  uint64_t Allocations = 0;       ///< global operator new calls
  double PeakRssMb = 0;
};
ProcCounters sampleProc();

/// CPU seconds consumed by the calling thread.
double threadCpuSeconds();

/// Global operator new calls so far, counted by the replacement allocation
/// functions in AllocCounter.cpp.
uint64_t allocationCount();

/// A named metric value with its unit, in output order.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// The result line the benchmark prints last.
struct RunOutcome {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Human-readable context printed before the result line.
  std::vector<std::string> Notes;

  void fail(const std::string &Why);
  void note(const std::string &Line) { Notes.push_back(Line); }
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string resultJson() const;
};

/// Notes the tail percentiles of an end-to-end run. They carry no bound:
/// on a shared virtualized host a minute-long stretch of CPU steal doubles
/// them for every run it overlaps, while medians move by about a tenth.
/// The traced run reports them as tail.* metrics.
void noteTails(RunOutcome &Out, const std::map<std::string, double> &Tails);

/// Notes the set-up repetitions and returns their median (setup_s).
double setupSeconds(RunOutcome &Out, const std::vector<double> &Repetitions);

/// Checks the generator's validity: every scheduled operation sent, and the
/// p99 of its lateness (send time minus scheduled time, \p LateUs) within
/// \p BoundUs. Returns that p99.
double checkGenerator(const std::vector<double> &LateUs, std::size_t Sent,
                      std::size_t Scheduled, double BoundUs, RunOutcome &Out);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
