//===- support/Stats.h - Latency sample statistics --------------*- C++ -*-===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// The paper's evaluation reports per-priority-level average and
// 95th-percentile response and compute times (Figs. 13 and 14). This
// header holds the summary those figures print and the exact quantile of
// a sample vector; support/Histogram.h is where latencies are recorded,
// and its tests check it against quantile() here.
//
//===----------------------------------------------------------------------===//

#ifndef REPRO_SUPPORT_STATS_H
#define REPRO_SUPPORT_STATS_H

#include <cstddef>
#include <string>
#include <vector>

namespace repro {

/// Summary of a latency sample set.
struct LatencySummary {
  std::size_t Count = 0;
  double Mean = 0.0;
  double Min = 0.0;
  double Max = 0.0;
  double P50 = 0.0;
  double P95 = 0.0;
  double P99 = 0.0;
  double P999 = 0.0;
  double StdDev = 0.0;
};

/// Computes the \p Q quantile (0..1) of \p Samples by linear interpolation
/// between order statistics. \p Samples need not be sorted; it is copied.
double quantile(std::vector<double> Samples, double Q);

/// Computes the quantile of pre-sorted samples without copying.
double quantileSorted(const std::vector<double> &Sorted, double Q);

/// Summarizes a raw sample vector.
LatencySummary summarize(std::vector<double> Samples);

/// Renders a summary as a short human-readable string.
std::string toString(const LatencySummary &S);

} // namespace repro

#endif // REPRO_SUPPORT_STATS_H
