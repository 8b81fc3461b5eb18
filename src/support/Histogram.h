//===- support/Histogram.h - Log-linear latency histogram -------*- C++ -*-===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// The one latency store of the repository. LatencyHistogram is an
// HDR-style log-linear histogram over microseconds: a fixed array of 4352
// buckets (34 KiB) whose width is at most 1/128 (0.78%) of their lower
// edge from 1 µs to over two hours, plus exact count, sum, min and max.
// Recording is a few plain stores, memory is fixed at construction however
// many samples arrive, and histograms merge bucket by bucket, so the
// runtime keeps one per worker and readers add them up.
//
// LatencyWindows turns a cumulative histogram into sliding time windows
// without keeping a second copy of anything: at each epoch boundary it
// snapshots the cumulative counts, and a window is the counts now minus
// the snapshot taken when the window opened. Telemetry, the admission
// controller and the health plane all read their windows this way, so
// two readers of the same interval see identical counts.
//
//===----------------------------------------------------------------------===//

#ifndef REPRO_SUPPORT_HISTOGRAM_H
#define REPRO_SUPPORT_HISTOGRAM_H

#include "support/Stats.h"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace repro {

/// Log-linear histogram of latencies in microseconds. Values below 2 µs
/// fall in linear buckets 1/128 µs wide; above, each power of two is split
/// into 128 equal buckets. Values past maxTrackedMicros() (~2.4 h) share
/// the last bucket; max() stays exact.
///
/// Thread contract: at most one thread modifies a histogram at a time
/// (record, merge into it, subtract, assignment); any number of
/// threads may read it meanwhile (count, quantile, copy, merge from it).
/// A reader racing the writer sees a count that may lag the buckets by the
/// samples in flight, never one ahead of them. The runtime relies on this
/// to keep one lock-free shard per worker.
class LatencyHistogram {
public:
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram &Other) { merge(Other); }
  LatencyHistogram &operator=(const LatencyHistogram &Other);

  /// Adds one observation; negative and NaN values count as 0.
  void record(double Micros);

  /// Adds \p Other's observations.
  void merge(const LatencyHistogram &Other);

  /// Removes \p Earlier's observations, where \p Earlier is an earlier
  /// snapshot of this same cumulative histogram, leaving what was recorded
  /// since. Buckets never go below zero. Min and max narrow to the edges
  /// of the lowest and highest buckets still holding samples.
  void subtract(const LatencyHistogram &Earlier);

  uint64_t count() const { return Count.load(std::memory_order_acquire); }
  double sum() const { return Sum.load(std::memory_order_relaxed); }
  double min() const { return Min.load(std::memory_order_relaxed); }
  double max() const { return Max.load(std::memory_order_relaxed); }
  double mean() const;

  /// The \p Q quantile (0..1): the upper edge of the bucket holding the
  /// sample of rank ceil(Q·(count−1)), clamped to [min, max]. Never below
  /// that sample and at most 0.78% above it (from 1 µs up). 0 when empty.
  double quantile(double Q) const;

  /// Fraction of observations strictly above \p Micros (0..1), counting
  /// the part of \p Micros's own bucket past it as if its samples were
  /// spread evenly. The SLO burn-rate input. 0 when empty.
  double fractionAbove(double Micros) const;

  /// Count, mean, min, max, p50/p95/p99/p999, and a standard deviation
  /// taken from bucket midpoints.
  LatencySummary summary() const;

  static double maxTrackedMicros();

private:
  static constexpr unsigned SubBucketBits = 8;
  static constexpr uint64_t SubBuckets = uint64_t(1) << SubBucketBits;
  static constexpr uint64_t HalfBuckets = SubBuckets / 2;
  /// Bucket units per microsecond: one linear bucket is 1/128 µs, so at
  /// 1 µs a bucket is 1/128 of its value wide, as in every octave above.
  static constexpr double UnitsPerMicro = static_cast<double>(HalfBuckets);
  /// Octaves above the linear region; 2^(SubBucketBits+Octaves) units is
  /// 2^33 µs, about 2.4 hours.
  static constexpr unsigned Octaves = 32;
  static constexpr std::size_t NumBuckets = SubBuckets + Octaves * HalfBuckets;

  /// Drops every observation.
  void reset();

  static std::size_t bucketOf(double Micros);
  static double lowerEdge(std::size_t Index);
  static double upperEdge(std::size_t Index);

  std::atomic<uint64_t> Count{0};
  std::atomic<double> Sum{0}, Min{0}, Max{0};
  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};
};

/// Sliding windows over one cumulative LatencyHistogram. The owner calls
/// rotate() at epoch boundaries with the cumulative histogram at that
/// moment; window() then returns the observations of the last K epochs
/// (the current, partial one counts as one) as the counts now minus the
/// snapshot taken K boundaries ago — or the one taken when the windows
/// opened, while fewer boundaries have passed. Keeps \p Epochs snapshots.
/// Thread-safe.
class LatencyWindows {
public:
  /// \p Opened is the cumulative histogram when the windows open.
  LatencyWindows(unsigned Epochs, const LatencyHistogram &Opened);

  /// Closes \p Boundaries epochs at once (a late tick); \p Now is the
  /// cumulative histogram. The first closed epoch holds everything since
  /// the previous rotation; the others read as empty.
  void rotate(const LatencyHistogram &Now, uint64_t Boundaries = 1);

  /// Observations of the last \p LastEpochs epochs, clamped to
  /// [1, epochs()]; 0 means all of them. \p Now is the cumulative
  /// histogram.
  LatencyHistogram window(const LatencyHistogram &Now,
                          unsigned LastEpochs = 0) const;

  unsigned epochs() const { return static_cast<unsigned>(Marks.size()); }

private:
  mutable std::mutex Mutex;
  std::vector<LatencyHistogram> Marks; ///< ring of epoch-start snapshots
  std::size_t Newest = 0;              ///< the current epoch's start
  std::size_t Filled = 1;              ///< snapshots taken so far (≤ size)
};

} // namespace repro

#endif // REPRO_SUPPORT_HISTOGRAM_H
