//===- apps/Proxy.cpp - The proxy-server case study --------------------------===//

#include "apps/Proxy.h"

#include "conc/Backoff.h"
#include "conc/ConcurrentHashMap.h"
#include "icilk/SimIo.h"
#include "support/Timer.h"

#include <atomic>
#include <mutex>

namespace repro::apps {

namespace {

using icilk::Context;

/// Everything the server tasks share.
struct ProxyServer {
  explicit ProxyServer(const ProxyConfig &Config)
      : Config(Config), Rt(Config.Rt), Cache(32, 64) {
    if (Config.Faults.enabled()) {
      Faults = std::make_shared<icilk::FaultPlan>(Config.FaultSeed,
                                                  Config.Faults);
      Io.setFaultPlan(Faults);
    }
    Rt.setTrace(Config.Trace); // before the first spawn, so ids line up
    if (Config.Admission.Enabled)
      // Sweeps ride the app's own timer heap (plain timers are never
      // fault-injected, so a fault plan cannot break admission).
      Admission = std::make_unique<icilk::AdmissionController>(
          Rt, Config.Admission.Config, &Io);
  }

  /// Records one request's arrival → final reply time.
  void noteEndToEnd(uint64_t ArrivalMicros) {
    double Micros = static_cast<double>(repro::nowMicros() - ArrivalMicros);
    std::lock_guard<std::mutex> Lock(EndToEndMutex);
    EndToEnd.record(Micros);
  }

  const ProxyConfig &Config;
  icilk::Runtime Rt;
  icilk::SimIo Io{"proxy.io"};
  std::shared_ptr<icilk::FaultPlan> Faults;
  conc::ConcurrentHashMap<std::size_t, std::string> Cache;
  std::mutex EndToEndMutex; ///< guards EndToEnd
  repro::LatencyHistogram EndToEnd;
  std::atomic<uint64_t> Hits{0}, Misses{0}, Requests{0};
  std::atomic<uint64_t> Retries{0}, Failed{0};
  std::atomic<uint64_t> DeadlineAbandoned{0};
  std::atomic<bool> StopStats{false};
  /// Declared last: destroyed before Rt and Io, while both still live.
  std::unique_ptr<icilk::AdmissionController> Admission;
};

/// Issues one simulated I/O op (a read for fetches, a write for client
/// replies) and touches it, retrying erroneous completions with capped
/// exponential backoff + jitter. Returns nullopt when the op still fails
/// after MaxIoRetries retries. Backoff sleeps ride the timer heap
/// (Io::sleepFor), so the worker keeps scheduling.
///
/// \p DeadlineAbsMicros (0 = none) is the request's *overall* deadline:
/// an op is never submitted once it has passed, an in-flight wait is
/// bounded by the remaining budget (ftouchFor), and a backoff sleep that
/// would end past it abandons the request instead — retries must not
/// outlive the deadline and waste admitted slots under overload.
template <typename Prio>
std::optional<long> ioWithRetry(ProxyServer &S, Context<Prio> &Ctx,
                                uint64_t LatencyMicros, long Bytes,
                                uint64_t JitterSeed,
                                uint64_t DeadlineAbsMicros = 0,
                                bool IsWrite = false) {
  conc::RetryBackoff Backoff(S.Config.RetryBaseDelayMicros,
                             S.Config.RetryCapDelayMicros, JitterSeed);
  for (unsigned Attempt = 0;; ++Attempt) {
    uint64_t Remaining = 0;
    if (DeadlineAbsMicros) {
      uint64_t Now = repro::nowMicros();
      if (Now >= DeadlineAbsMicros) {
        S.DeadlineAbandoned.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt; // expired: do not (re-)submit
      }
      Remaining = DeadlineAbsMicros - Now;
    }
    auto Op = IsWrite ? S.Io.simWrite<Prio>(LatencyMicros, Bytes)
                      : S.Io.simRead<Prio>(LatencyMicros, Bytes);
    try {
      if (!DeadlineAbsMicros)
        return Ctx.ftouch(Op);
      auto V = Ctx.ftouchFor(Op, S.Io, Remaining);
      if (!V) {
        // Deadline beat the value; the op keeps running but this request
        // is done waiting for it.
        S.DeadlineAbandoned.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      return *V;
    } catch (const icilk::IoError &) {
      if (Attempt >= S.Config.MaxIoRetries)
        return std::nullopt;
      uint64_t Delay = Backoff.nextDelayMicros();
      if (DeadlineAbsMicros &&
          repro::nowMicros() + Delay >= DeadlineAbsMicros) {
        S.DeadlineAbandoned.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt; // the retry could only finish too late
      }
      S.Retries.fetch_add(1, std::memory_order_relaxed);
      Ctx.ftouch(S.Io.sleepFor<Prio>(Delay));
    }
  }
}

/// Fetch component (ProxyFetch): origin fetch, render, cache fill, reply.
/// Upstream failures are retried; a request abandoned after max retries is
/// counted in Failed but still gets an end-to-end sample (the client heard
/// *something* — an error page — and the latency of hearing it matters).
void fetchAndReply(ProxyServer &S, Context<ProxyFetch> &Ctx, std::size_t Url,
                   uint64_t FetchLatency, uint64_t ArrivalMicros,
                   uint64_t DeadlineMicros) {
  auto Bytes = ioWithRetry(S, Ctx, FetchLatency,
                           static_cast<long>(Url % 1500 + 200),
                           /*JitterSeed=*/ArrivalMicros ^ Url,
                           DeadlineMicros);
  if (!Bytes) {
    S.Failed.fetch_add(1, std::memory_order_relaxed);
    S.noteEndToEnd(ArrivalMicros);
    return;
  }
  repro::spinFor(S.Config.RenderComputeMicros); // parse/render the page
  std::string Body(static_cast<std::size_t>(*Bytes), 'x');
  Body[0] = static_cast<char>('a' + Url % 26);
  S.Cache.put(Url, std::move(Body));
  if (!ioWithRetry(S, Ctx, S.Config.ReplyLatencyMicros, *Bytes,
                   ArrivalMicros ^ (Url + 1), DeadlineMicros,
                   /*IsWrite=*/true))
    S.Failed.fetch_add(1, std::memory_order_relaxed);
  S.noteEndToEnd(ArrivalMicros);
}

/// Event loop component: one task per incoming request. Normally runs at
/// ProxyClient; an admission-degraded arrival runs the same body at
/// ProxyFetch (the delegate below is then a same-level fcreate, which the
/// Touch rule allows — only waiting *upward* is an inversion).
template <typename Prio>
void handleRequest(ProxyServer &S, Context<Prio> &Ctx, std::size_t Url,
                   uint64_t FetchLatency, uint64_t ArrivalMicros,
                   uint64_t DeadlineMicros) {
  S.Requests.fetch_add(1, std::memory_order_relaxed);
  repro::spinFor(S.Config.HandleComputeMicros); // parse request, route
  if (auto Cached = S.Cache.get(Url)) {
    S.Hits.fetch_add(1, std::memory_order_relaxed);
    if (!ioWithRetry(S, Ctx, S.Config.ReplyLatencyMicros,
                     static_cast<long>(Cached->size()),
                     ArrivalMicros ^ (Url + 2), DeadlineMicros,
                     /*IsWrite=*/true))
      S.Failed.fetch_add(1, std::memory_order_relaxed);
    S.noteEndToEnd(ArrivalMicros);
    return;
  }
  S.Misses.fetch_add(1, std::memory_order_relaxed);
  // Delegate downward — never wait on lower-priority work (Touch rule).
  Ctx.template fcreate<ProxyFetch>(
      [&S, Url, FetchLatency, ArrivalMicros,
       DeadlineMicros](Context<ProxyFetch> &C) {
        fetchAndReply(S, C, Url, FetchLatency, ArrivalMicros, DeadlineMicros);
      });
}

/// Statistics logger (ProxyStats): periodic self-rearming task.
void statsLoop(ProxyServer &S, Context<ProxyStats> &Ctx) {
  if (S.StopStats.load(std::memory_order_acquire))
    return;
  // A pure timer: never fault-injected, so the logger survives any plan.
  Ctx.ftouch(S.Io.sleepFor<ProxyStats>(S.Config.StatsPeriodMicros));
  // "Log": walk part of the cache and tally sizes.
  std::size_t Total = 0;
  S.Cache.forEach([&Total](std::size_t, const std::string &V) {
    Total += V.size();
  });
  repro::spinFor(100);
  (void)Total;
  if (!S.StopStats.load(std::memory_order_acquire))
    Ctx.fcreate<ProxyStats>([&S](Context<ProxyStats> &C) { statsLoop(S, C); });
}

} // namespace

ProxyReport runProxy(const ProxyConfig &Config) {
  ProxyServer S(Config);
  TelemetryScope Telemetry(S.Rt, Config.TelemetryPort, Config.TelemetryPortOut,
                           Config.Metrics, &S.Io, Config.Slos);
  repro::Rng DriverRng(Config.Seed);
  repro::ZipfSampler Urls(Config.NumSites, Config.ZipfSkew);

  // ProxyMain: startup — warm a few popular entries.
  auto Startup = icilk::fcreate<ProxyMain>(S.Rt, [&S](Context<ProxyMain> &) {
    for (std::size_t U = 0; U < 8; ++U)
      S.Cache.put(U, std::string(512, 'w'));
    repro::spinFor(200);
    return 0;
  });
  icilk::touchFromOutside(S.Rt, Startup);

  // Kick off the stats logger.
  icilk::fcreate<ProxyStats>(S.Rt,
                             [&S](Context<ProxyStats> &C) { statsLoop(S, C); });

  // Drive the clients: a merged Poisson stream over the connections.
  uint64_t Epoch = repro::nowMicros();
  uint64_t Horizon = Config.DurationMillis * 1000;
  PoissonArrivals Arrivals(Config.Connections, Config.RequestIntervalMicros,
                           DriverRng);
  repro::Rng LatencyRng = DriverRng.split();
  while (true) {
    auto E = Arrivals.next();
    if (E.AtMicros >= Horizon)
      break;
    sleepUntilMicros(Epoch, E.AtMicros);
    std::size_t Url = Urls.sample(LatencyRng);
    auto FetchLatency = static_cast<uint64_t>(
        LatencyRng.nextExponential(1.0 / static_cast<double>(
                                             Config.FetchLatencyMeanMicros)));
    uint64_t Arrival = repro::nowMicros();
    uint64_t Deadline = Config.RequestDeadlineMicros
                            ? Arrival + Config.RequestDeadlineMicros
                            : 0;
    auto SubmitClient = [&S, Url, FetchLatency, Arrival,
                         Deadline](unsigned Level) {
      // Levels 3 (requested) and 2.. (degraded) map onto the two static
      // priorities a request can run at.
      if (Level >= 3)
        icilk::fcreate<ProxyClient>(
            S.Rt, [&S, Url, FetchLatency, Arrival,
                   Deadline](Context<ProxyClient> &C) {
              handleRequest(S, C, Url, FetchLatency, Arrival, Deadline);
            });
      else
        icilk::fcreate<ProxyFetch>(
            S.Rt, [&S, Url, FetchLatency, Arrival,
                   Deadline](Context<ProxyFetch> &C) {
              handleRequest(S, C, Url, FetchLatency, Arrival, Deadline);
            });
    };
    if (S.Admission)
      S.Admission->offer(3, SubmitClient);
    else
      SubmitClient(3);
  }

  // ProxyMain: shutdown — stop the logger, drain, aggregate.
  S.StopStats.store(true, std::memory_order_release);
  if (S.Admission)
    S.Admission->quiesce();
  S.Rt.drain();
  auto Shutdown = icilk::fcreate<ProxyMain>(S.Rt, [&S](Context<ProxyMain> &) {
    repro::spinFor(200);
    return static_cast<int>(S.Cache.size());
  });
  icilk::touchFromOutside(S.Rt, Shutdown);
  S.Rt.drain();

  double WallMillis =
      static_cast<double>(repro::nowMicros() - Epoch) / 1000.0;
  ProxyReport Report;
  Report.App = collectReport(S.Rt, {"main", "stats", "fetch", "client"},
                             WallMillis);
  {
    std::lock_guard<std::mutex> Lock(S.EndToEndMutex);
    Report.App.EndToEnd = S.EndToEnd.summary();
  }
  Report.App.Requests = S.Requests.load();
  Report.CacheHits = S.Hits.load();
  Report.CacheMisses = S.Misses.load();
  Report.CacheEntries = S.Cache.size();
  Report.Retries = S.Retries.load();
  Report.FailedRequests = S.Failed.load();
  Report.InjectedFaults = S.Faults ? S.Faults->injected() : 0;
  Report.DeadlineAbandoned = S.DeadlineAbandoned.load();
  if (S.Admission)
    Report.Admission = S.Admission->sampleAdmission();
  if (repro::MetricsRegistry *M = Config.Metrics) {
    sampleAppMetrics(M, S.Rt, &S.Io, Report.App, "proxy");
    M->counter("proxy.cache_hits").set(Report.CacheHits);
    M->counter("proxy.cache_misses").set(Report.CacheMisses);
    M->counter("proxy.retries").set(Report.Retries);
    M->counter("proxy.failed_requests").set(Report.FailedRequests);
    M->counter("proxy.injected_faults").set(Report.InjectedFaults);
    M->counter("proxy.deadline_abandoned").set(Report.DeadlineAbandoned);
    M->counter("proxy.admission.shed").set(Report.Admission.Shed);
  }
  return Report;
}

} // namespace repro::apps
