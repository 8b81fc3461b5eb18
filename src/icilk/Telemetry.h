//===- icilk/Telemetry.h - Live telemetry over a running Runtime *- C++ -*-===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// The live half of the observability layer. The event ring (EventRing.h),
// metrics registry (support/Metrics.h), and profiler (Profiler.h) are all
// post-mortem: they produce files after the run. Telemetry turns the same
// state into something you can point `curl` (or a Prometheus scraper) at
// *while the scheduler serves traffic*:
//
//   GET /metrics        Prometheus text exposition: scheduler counters
//                       (tasks executed, stalls, inversions, deadline
//                       misses, events dropped), per-level gauges (ready
//                       depth, assigned workers, desire), windowed latency
//                       quantiles, and everything in the attached
//                       MetricsRegistry.
//   GET /snapshot.json  Runtime::snapshot() as JSON, plus per-ring event
//                       counts and drop totals.
//   GET /latency.json   Windowed per-priority-level response-latency
//                       histograms: p50/p99/p999 over the last
//                       WindowEpochs × EpochMillis, not cumulatively.
//   GET /trace?ms=500   The last `ms` milliseconds of the live event rings
//                       as a Chrome-trace JSON slice — without stopping
//                       the run (tracing must be enabled for events to be
//                       on the rings at all).
//
// Mechanics: an HttpServer (support/HttpServer.h) answers on its own
// thread against thread-safe surfaces only. Latency windows read the
// runtime's own histograms (Runtime::latency) minus a snapshot taken when
// the window opened (support/Histogram.h, LatencyWindows); a background
// sampler thread takes those snapshots every EpochMillis and, every
// SampleIntervalMillis, feeds the span store's slow threshold and the
// exemplars. Nothing copies samples; the hot scheduler paths are
// untouched.
//
//===----------------------------------------------------------------------===//

#ifndef REPRO_ICILK_TELEMETRY_H
#define REPRO_ICILK_TELEMETRY_H

#include "icilk/Health.h"
#include "icilk/Runtime.h"
#include "icilk/SpanStore.h"
#include "support/Histogram.h"
#include "support/HttpServer.h"
#include "support/Json.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace repro::icilk {

class Io;

struct TelemetryConfig {
  /// TCP port to serve on; 0 asks the kernel for an ephemeral port (read
  /// it back with Telemetry::port()).
  uint16_t Port = 0;
  /// Sampler cadence: how often the window clock, the span store's slow
  /// threshold and the exemplars are refreshed.
  uint64_t SampleIntervalMillis = 100;
  /// Window granularity: the epoch ring rotates at this period...
  uint64_t EpochMillis = 1000;
  /// ...and keeps this many epochs, so quantiles cover the last
  /// WindowEpochs × EpochMillis milliseconds.
  unsigned WindowEpochs = 10;
  /// Prometheus metric namespace ("icilk" → icilk_tasks_executed_total).
  std::string Prefix = "icilk";
  /// Health-plane knobs (profiler cadence, doctor thresholds, SLOs). The
  /// owned Health instance is constructed from this and started with the
  /// sampler; see icilk/Health.h.
  HealthConfig Health;
  /// Exemplar slots per level, one per decade of latency (under 10 µs,
  /// 10–100 µs, ...; the last is open-ended); 0 disables metric→trace
  /// exemplars.
  std::size_t ExemplarSlots = 8;
};

/// Serves a running Runtime's observable state over HTTP. The Runtime
/// (and the registry, when given) must outlive this object. It is also
/// the health plane's LatencyWindowSource over its per-level windows.
class Telemetry : public LatencyWindowSource {
public:
  explicit Telemetry(Runtime &Rt, TelemetryConfig Config = {},
                     repro::MetricsRegistry *Registry = nullptr);
  ~Telemetry();

  Telemetry(const Telemetry &) = delete;
  Telemetry &operator=(const Telemetry &) = delete;

  /// Binds the port and starts the HTTP + sampler threads. False (with
  /// \p Error filled) if the port cannot be bound.
  bool start(std::string *Error = nullptr);

  /// Stops both threads; idempotent, and called by the destructor.
  void stop();

  /// Registers an I/O backend whose live counters /metrics should expose
  /// (submitted/completed/faulted/in-flight, labeled
  /// backend="<metricsPrefix>"). Several backends may be tracked — their
  /// construction-time prefixes keep the series apart. \p Backend must
  /// outlive this object (or be removed with trackIo(nullptr) removing
  /// all). Thread-safe.
  void trackIo(const Io *Backend);

  /// Registers a request-tracing span store: /spans.json starts serving
  /// its retained traces, /trace overlays them on the scheduler slice,
  /// and the sampler feeds the store's slow-trace threshold from the
  /// windowed per-level p99. \p Store must outlive this object (nullptr
  /// detaches). Thread-safe.
  void trackSpans(SpanStore *Store);

  /// The actually-bound port (resolves Port=0); 0 before start().
  uint16_t port() const { return Server.port(); }

  /// The owned health plane (profiler + doctor + SLO engine), for direct
  /// report()/profile access; never null after construction.
  class Health &health() { return *HealthPlane; }
  const class Health &health() const { return *HealthPlane; }

  /// Level \p Level's response latencies over the last \p LastEpochs
  /// window epochs (0 = the whole window): what /latency.json, /metrics
  /// and the health plane's SLO engine read.
  repro::LatencyHistogram windowTail(unsigned Level,
                                     unsigned LastEpochs) const override;
  unsigned levels() const override {
    return static_cast<unsigned>(Windows.size());
  }
  unsigned epochs() const override { return Windows[0]->epochs(); }
  uint64_t epochMillis() const override { return Config.EpochMillis; }

  /// Endpoint renderers, public so tests can call them without sockets.
  std::string renderPrometheus() const;
  json::Value snapshotJson() const;
  json::Value latencyJson() const;
  json::Value spansJson() const;
  std::string traceSlice(uint64_t Millis) const;

  /// Prometheus text-format helpers (exposed for tests).
  static std::string sanitizeMetricName(const std::string &Name);
  static std::string escapeLabelValue(const std::string &Value);
  static std::string escapeHelpText(const std::string &Value);

  /// One retained trace linked to a latency value range — the OpenMetrics
  /// "exemplar" shape: a recent concrete observation the metrics plane can
  /// link back to the span plane. Valid=false marks an empty slot.
  struct Exemplar {
    double Value = 0;       ///< the trace's duration (µs)
    uint64_t TraceHi = 0;   ///< wire-visible trace id, high half
    uint64_t TraceLo = 0;   ///< wire-visible trace id, low half
    uint64_t PinKey = 0;    ///< store-local retention key (local TraceLo)
    uint64_t TimeNanos = 0; ///< when the trace ended (staleness filter)
    bool Valid = false;
  };

  /// The sampler's exemplar step over freshly retained traces, oldest
  /// first: each lands in its level's slot for its latency decade (most
  /// recent wins), then slots whose trace ended before \p CutoffNanos are
  /// emptied. Returns the pin keys of the slots still filled. Public so
  /// tests can drive the slots with synthetic traces.
  std::vector<uint64_t>
  fileExemplars(const std::vector<SpanStore::RetainedSummary> &Fresh,
                uint64_t CutoffNanos);
  /// Level \p Level's valid exemplars, ascending value range.
  std::vector<Exemplar> exemplars(unsigned Level) const;

private:
  void samplerLoop();
  /// Files the span store's freshly retained traces as exemplars, expires
  /// those older than the latency window, and re-pins the span store so
  /// every exported exemplar keeps resolving.
  void harvestExemplars(uint64_t NowNanos);
  /// Pre-rendered Chrome-trace events for retained request spans ending
  /// at or after \p CutoffNanos (the /trace overlay).
  std::string spanOverlay(uint64_t CutoffNanos) const;

  Runtime &Rt;
  TelemetryConfig Config;
  repro::MetricsRegistry *Registry;
  http::HttpServer Server;

  /// One response-latency window ring per priority level, rotated by the
  /// sampler.
  std::vector<std::unique_ptr<repro::LatencyWindows>> Windows;
  mutable std::mutex ExemplarMutex;
  std::vector<std::vector<Exemplar>> Exemplars; ///< [level][slot]
  uint64_t ExemplarScanNanos = 0; ///< sampler's retained-trace cursor

  /// The health plane (see health()); it reads Windows through this.
  std::unique_ptr<class Health> HealthPlane;

  /// I/O backends surfaced in /metrics (see trackIo). Guarded by IoMutex
  /// — registration and the render path may race.
  mutable std::mutex IoMutex;
  std::vector<const Io *> IoBackends;

  /// Request-tracing store surfaced at /spans.json (see trackSpans).
  std::atomic<SpanStore *> Spans{nullptr};

  std::thread Sampler;
  std::mutex SamplerMutex;
  std::condition_variable SamplerCv;
  bool StopSampler = false;
  bool Started = false;
};

} // namespace repro::icilk

#endif // REPRO_ICILK_TELEMETRY_H
