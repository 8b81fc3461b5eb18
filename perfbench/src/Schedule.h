//===- perfbench/src/Schedule.h - Workloads and seeded schedules -*- C++ -*-===//
//
// The fixed workload table (rates, mixes, connection counts) and the seeded
// open-loop schedules built from it during set-up. Rates are constants,
// picked once from a recorded sweep, never recalibrated per run: the same
// seed gives every commit the same arrival times, URLs and job types.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SCHEDULE_H
#define PERFBENCH_SCHEDULE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class WorkloadKind { ProxyHit, ProxyMiss, JobsMixed };

struct WorkloadSpec {
  const char *Name;
  WorkloadKind Kind;
  double RatePerSec;           ///< Poisson arrival rate, all operations
  unsigned Connections;        ///< proxy: client connections (at most open)
  unsigned HotKeys;            ///< proxy: URLs cached during set-up
  double MissShare;            ///< proxy-miss: share of never-seen URLs
  std::array<double, 4> Mix;   ///< jobs: matmul, fib, sort, sw weights
};

/// The workload named \p Name, or null.
const WorkloadSpec *findWorkload(const std::string &Name);

/// One scheduled operation.
struct Arrival {
  uint64_t AtNs = 0;     ///< offset from the schedule start
  uint32_t Conn = 0;     ///< proxy-hit: keep-alive connection index
  uint32_t Key = 0;      ///< hot-set index, or the miss ordinal
  bool Miss = false;     ///< proxy-miss: a URL never requested before
  uint8_t JobType = 0;   ///< jobs: 0 matmul, 1 fib, 2 sort, 3 sw
  uint64_t RequestId = 0;
};

/// Poisson arrivals over [0, Seconds) drawn from \p Seed.
std::vector<Arrival> makeSchedule(const WorkloadSpec &W, uint64_t Seed,
                                  double Seconds);

/// Latency percentiles are computed per window of about this many seconds
/// of schedule and reported as the median over the windows, so a few
/// seconds of host disturbance move one window, not the result.
constexpr double WindowSeconds = 6;

/// Number of windows a schedule of \p Seconds is split into (at least 1).
std::size_t windowCount(double Seconds);
/// The window of an arrival at \p AtNs in a schedule of \p Seconds.
std::size_t windowIndex(uint64_t AtNs, double Seconds);

/// The URL query key of hot-set entry \p Index ("h<index>").
std::string hotKey(uint32_t Index);
/// The URL query key of miss \p Ordinal, unique per seed.
std::string missKey(uint64_t Seed, uint32_t Ordinal);
/// The request target for \p Key.
std::string objectTarget(const std::string &Key);
/// The origin's body for \p Key: 200..1999 bytes determined by the seed.
std::string objectBody(uint64_t Seed, const std::string &Key);
/// 16 lowercase hex digits.
std::string hex16(uint64_t V);

} // namespace perfbench

#endif // PERFBENCH_SCHEDULE_H
