//===- support/Metrics.h - Named counters and latency histograms *- C++ -*-===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// The metrics half of the observability layer (the event ring in
// icilk/EventRing.h is the other half): a registry of named monotonic
// counters, point-in-time gauges, and latency histograms (backed by
// support/Histogram) that Runtime, IoService, and the case-study apps dump
// into at the end of a run — one shared vocabulary instead of each bench
// hand-rolling its own reporting struct.
//
// Counter increments are lock-free (a relaxed atomic add on a handle the
// caller looked up once); registration and storing a histogram take a
// mutex and belong on sampling paths, not per-task hot paths. The
// registry serializes to JSON (bench::Reporter embeds it in
// BENCH_<name>.json) and to a human-readable listing.
//
//===----------------------------------------------------------------------===//

#ifndef REPRO_SUPPORT_METRICS_H
#define REPRO_SUPPORT_METRICS_H

#include "support/Histogram.h"
#include "support/Json.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace repro {

/// Registry of named counters / gauges / histograms. Handles returned by
/// counter() stay valid for the registry's lifetime.
class MetricsRegistry {
public:
  /// Monotonic counter; add() is lock-free and thread-safe.
  class Counter {
  public:
    void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
    /// For sampling an externally-maintained total into the registry.
    void set(uint64_t N) { V.store(N, std::memory_order_relaxed); }
    uint64_t value() const { return V.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> V{0};
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Returns the counter named \p Name, creating it on first use.
  Counter &counter(const std::string &Name);

  /// Sets the point-in-time gauge \p Name to \p Value.
  void setGauge(const std::string &Name, double Value);

  /// Stores a copy of \p H as the histogram \p Name, replacing any
  /// earlier one (a sampled copy of a latency store such as
  /// Runtime::latency()).
  void setHistogram(const std::string &Name, const LatencyHistogram &H);

  /// Snapshot views (copies; safe while writers keep writing to counters).
  std::map<std::string, uint64_t> counters() const;
  std::map<std::string, double> gauges() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// min, max, mean, p50, p95, p99, p999}}}
  json::Value toJson() const;

  /// Human-readable multi-line listing, sorted by name.
  std::string toString() const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, double> Gauges;
  std::map<std::string, LatencyHistogram> Histograms;
};

} // namespace repro

#endif // REPRO_SUPPORT_METRICS_H
