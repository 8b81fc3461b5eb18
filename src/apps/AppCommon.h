//===- apps/AppCommon.h - Shared case-study scaffolding ---------*- C++ -*-===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// Report structure and workload helpers shared by the three case studies
// (proxy, email, jserver). Each app runs its server on an I-Cilk runtime —
// priority-aware or the Cilk-F-like oblivious baseline — while a driver
// thread plays the clients, and returns per-priority-level response and
// compute time summaries (the raw material of Figs. 13 and 14).
//
//===----------------------------------------------------------------------===//

#ifndef REPRO_APPS_APPCOMMON_H
#define REPRO_APPS_APPCOMMON_H

#include "icilk/Context.h"
#include "icilk/Telemetry.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/Stats.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace repro::apps {

/// Per-level measurement summary of one app run.
struct AppReport {
  std::vector<std::string> LevelNames;              ///< index = level
  std::vector<repro::LatencySummary> Response;      ///< create → finish (µs)
  std::vector<repro::LatencySummary> Compute;       ///< start → finish (µs)
  std::vector<repro::LatencySummary> QueueWait;     ///< create → start (µs)
  repro::LatencySummary EndToEnd;  ///< request arrival → final reply (µs)
  uint64_t Requests = 0;
  double WallMillis = 0;
  /// Σ compute / (wall × effective cores), where effective cores =
  /// min(workers, hardware threads) — on this 1-core box, 8 oversubscribed
  /// workers still provide only one core of computation.
  double UtilizationApprox = 0;
};

/// Harvests per-level summaries out of a drained runtime.
inline AppReport collectReport(icilk::Runtime &Rt,
                               std::vector<std::string> LevelNames,
                               double WallMillis) {
  AppReport Report;
  Report.LevelNames = std::move(LevelNames);
  Report.WallMillis = WallMillis;
  for (unsigned L = 0; L < Rt.config().NumLevels; ++L) {
    using icilk::LatencyKind;
    Report.Response.push_back(Rt.latency(L, LatencyKind::Response).summary());
    Report.Compute.push_back(Rt.latency(L, LatencyKind::Compute).summary());
    Report.QueueWait.push_back(
        Rt.latency(L, LatencyKind::QueueWait).summary());
  }
  double BusyMicros =
      static_cast<double>(Rt.snapshot().TotalWorkNanos) / 1000.0;
  // Worker-pool occupancy: slices are wall time on (possibly
  // oversubscribed) workers, so normalize by the pool size.
  double WallMicros = WallMillis * 1000.0;
  if (WallMicros > 0)
    Report.UtilizationApprox =
        BusyMicros / (WallMicros * Rt.config().NumWorkers);
  return Report;
}

/// Dumps a finished run's observable state into \p M (no-op when null):
/// the runtime's and I/O backend's standard metrics plus the app-level
/// aggregates every case study shares. Apps layer their own counters on
/// top under the same prefix. The backend dumps under its own
/// construction-time prefix (apps construct theirs as "<prefix>.io").
inline void sampleAppMetrics(repro::MetricsRegistry *M, icilk::Runtime &Rt,
                             const icilk::Io *Io, const AppReport &Report,
                             const std::string &Prefix) {
  if (!M)
    return;
  Rt.sampleMetrics(*M, Prefix + ".runtime");
  if (Io)
    Io->sampleMetrics(*M);
  M->counter(Prefix + ".requests").set(Report.Requests);
  M->setGauge(Prefix + ".wall_millis", Report.WallMillis);
  M->setGauge(Prefix + ".utilization", Report.UtilizationApprox);
}

/// Parses a --slo flag value ("LEVEL:P99_US[:OBJECTIVE],...") into SLO
/// configs for the health plane's burn-rate engine. Malformed entries are
/// skipped with a warning rather than killing the run.
inline std::vector<icilk::SloConfig> parseSloList(const std::string &Spec) {
  std::vector<icilk::SloConfig> Out;
  std::size_t Pos = 0;
  while (Pos < Spec.size()) {
    std::size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Entry = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Entry.empty())
      continue;
    icilk::SloConfig S;
    int Level = -1;
    double Target = 0, Objective = 0.99;
    int Fields = std::sscanf(Entry.c_str(), "%d:%lf:%lf", &Level, &Target,
                             &Objective);
    if (Fields < 2 || Level < 0 || Target <= 0 || Objective <= 0 ||
        Objective >= 1) {
      repro::log(LogLevel::Warn)
          << "ignoring malformed --slo entry '" << Entry
          << "' (want LEVEL:P99_US[:OBJECTIVE])";
      continue;
    }
    S.Level = Level;
    S.P99TargetMicros = Target;
    S.Objective = Objective;
    Out.push_back(S);
  }
  return Out;
}

/// RAII wiring of the live-telemetry surface (icilk/Telemetry.h) into an
/// app run: started when the config asks for it (\p Port >= 0; 0 requests
/// an ephemeral port), stopped when the run returns. The actually-bound
/// port is published through \p PortOut so drivers using Port=0 can find
/// where to poll. A failed bind logs a warning and degrades to running
/// without telemetry — the workload must not die because a port was taken.
class TelemetryScope {
public:
  /// \p TrackIo (optional): an I/O backend whose live counters /metrics
  /// should expose with a backend="<prefix>" label. \p Slos (optional):
  /// latency objectives for the health plane's SLO burn-rate engine.
  TelemetryScope(icilk::Runtime &Rt, int Port, std::atomic<int> *PortOut,
                 repro::MetricsRegistry *Registry,
                 const icilk::Io *TrackIo = nullptr,
                 std::vector<icilk::SloConfig> Slos = {}) {
    if (Port < 0)
      return;
    icilk::TelemetryConfig TC;
    TC.Port = static_cast<uint16_t>(Port);
    TC.Health.Slos = std::move(Slos);
    T = std::make_unique<icilk::Telemetry>(Rt, TC, Registry);
    if (TrackIo)
      T->trackIo(TrackIo);
    std::string Error;
    if (!T->start(&Error)) {
      repro::log(LogLevel::Warn) << "telemetry disabled: " << Error;
      T.reset();
      if (PortOut)
        PortOut->store(-1, std::memory_order_release);
      return;
    }
    repro::log(LogLevel::Info)
        << "telemetry serving on http://localhost:" << T->port()
        << "/metrics";
    if (PortOut)
      PortOut->store(static_cast<int>(T->port()), std::memory_order_release);
  }

  icilk::Telemetry *get() const { return T.get(); }

private:
  std::unique_ptr<icilk::Telemetry> T;
};

/// A merged Poisson arrival stream over \p Sources independent sources,
/// each with mean inter-arrival \p MeanMicros. next() returns the absolute
/// microsecond timestamp (from 0) and the source index of the next event.
class PoissonArrivals {
public:
  PoissonArrivals(std::size_t Sources, double MeanMicros, repro::Rng &R)
      : R(R) {
    NextAt.reserve(Sources);
    for (std::size_t I = 0; I < Sources; ++I)
      NextAt.push_back(draw(MeanMicros));
    Mean = MeanMicros;
  }

  struct Event {
    uint64_t AtMicros;
    std::size_t Source;
  };

  Event next() {
    std::size_t Best = 0;
    for (std::size_t I = 1; I < NextAt.size(); ++I)
      if (NextAt[I] < NextAt[Best])
        Best = I;
    Event E{NextAt[Best], Best};
    NextAt[Best] += draw(Mean);
    return E;
  }

private:
  uint64_t draw(double MeanMicros) {
    return static_cast<uint64_t>(R.nextExponential(1.0 / MeanMicros)) + 1;
  }

  repro::Rng &R;
  std::vector<uint64_t> NextAt;
  double Mean = 0;
};

/// Sleeps the driver thread until \p TargetMicros after \p EpochMicros
/// (absolute, from nowMicros()).
void sleepUntilMicros(uint64_t EpochMicros, uint64_t TargetMicros);

/// Generates pseudo-English text of roughly \p Bytes bytes (compressible,
/// like email bodies).
std::string randomText(std::size_t Bytes, repro::Rng &R);

} // namespace repro::apps

#endif // REPRO_APPS_APPCOMMON_H
