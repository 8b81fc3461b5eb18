//===- icilk/Telemetry.cpp - Live telemetry over a running Runtime ----------===//

#include "icilk/Telemetry.h"

#include "icilk/EventRing.h"
#include "icilk/Io.h"
#include "icilk/SpanStore.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace repro::icilk {

namespace {

constexpr const char *PrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

/// Prometheus sample values: shortest round-trip formatting, so a scrape
/// reads the same double /latency.json and snapshot() report.
std::string num(double V) {
  char Buf[32];
  auto R = std::to_chars(Buf, Buf + sizeof Buf, V);
  return std::string(Buf, R.ptr);
}

std::string num(uint64_t V) { return std::to_string(V); }

/// One exposition family: HELP + TYPE, then the samples the caller adds.
void family(std::string &Out, const std::string &Name, const char *Type,
            const std::string &Help) {
  Out += "# HELP " + Name + " " + Telemetry::escapeHelpText(Help) + "\n";
  Out += "# TYPE " + Name + " " + Type + "\n";
}

void sample(std::string &Out, const std::string &Name,
            const std::string &Labels, const std::string &Value) {
  Out += Name;
  if (!Labels.empty())
    Out += "{" + Labels + "}";
  Out += " " + Value + "\n";
}

std::string levelLabel(unsigned L) {
  return "level=\"" + std::to_string(L) + "\"";
}

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", static_cast<unsigned long long>(V));
  return std::string(Buf, 16);
}

std::string hex32(uint64_t Hi, uint64_t Lo) { return hex16(Hi) + hex16(Lo); }

/// Microseconds after the process trace epoch, clamped at 0 (timestamps
/// taken before the epoch latched).
double epochMicros(uint64_t TimeNanos, uint64_t EpochNanos) {
  return TimeNanos > EpochNanos
             ? static_cast<double>(TimeNanos - EpochNanos) / 1000.0
             : 0.0;
}

json::Value traceFlagNames(uint32_t Flags) {
  static constexpr struct {
    uint32_t Bit;
    const char *Name;
  } Names[] = {
      {TfShed, "shed"},
      {TfDegraded, "degraded"},
      {TfDeadlineExpired, "deadline-expired"},
      {TfError, "error"},
      {TfSlow, "slow"},
      {TfHeadSampled, "head-sampled"},
      {TfRemoteSampled, "remote-sampled"},
  };
  json::Value Out = json::Value::array();
  for (const auto &N : Names)
    if (Flags & N.Bit)
      Out.push(json::Value(N.Name));
  return Out;
}

} // namespace

void Telemetry::trackIo(const Io *Backend) {
  std::lock_guard<std::mutex> Lock(IoMutex);
  if (!Backend) {
    IoBackends.clear();
    return;
  }
  IoBackends.push_back(Backend);
}

void Telemetry::trackSpans(SpanStore *Store) {
  Spans.store(Store, std::memory_order_release);
  HealthPlane->trackSpans(Store);
}

std::string Telemetry::sanitizeMetricName(const std::string &Name) {
  std::string Out;
  Out.reserve(Name.size());
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_' || C == ':';
    Out.push_back(Ok ? C : '_');
  }
  if (Out.empty() || (Out[0] >= '0' && Out[0] <= '9'))
    Out.insert(Out.begin(), '_');
  return Out;
}

std::string Telemetry::escapeLabelValue(const std::string &Value) {
  std::string Out;
  Out.reserve(Value.size());
  for (char C : Value) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '"')
      Out += "\\\"";
    else if (C == '\n')
      Out += "\\n";
    else
      Out.push_back(C);
  }
  return Out;
}

std::string Telemetry::escapeHelpText(const std::string &Value) {
  std::string Out;
  Out.reserve(Value.size());
  for (char C : Value) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else
      Out.push_back(C);
  }
  return Out;
}

Telemetry::Telemetry(Runtime &Rt, TelemetryConfig Cfg,
                     repro::MetricsRegistry *Registry)
    : Rt(Rt), Config(std::move(Cfg)), Registry(Registry) {
  const unsigned Levels = Rt.config().NumLevels;
  for (unsigned L = 0; L < Levels; ++L)
    Windows.push_back(std::make_unique<repro::LatencyWindows>(
        Config.WindowEpochs, Rt.latency(L, LatencyKind::Response)));
  Exemplars.assign(Levels, std::vector<Exemplar>(Config.ExemplarSlots));
  HealthPlane = std::make_unique<Health>(Rt, Config.Health);
  HealthPlane->trackWindows(this);

  Server.route("/", [this](const http::Request &) {
    http::Response R;
    R.Body = "icilk live telemetry\n\n"
             "  /metrics         Prometheus text exposition (with exemplars)\n"
             "  /snapshot.json   Runtime::snapshot() + event-ring stats\n"
             "  /latency.json    windowed per-level latency quantiles\n"
             "  /spans.json      retained request traces (tail-sampled)\n"
             "  /trace?ms=500    Chrome-trace slice of the last N ms\n"
             "  /health.json     doctor verdicts + SLO burn rates\n"
             "  /profile.json    sampled per-level x per-state time + folded\n"
             "  /profile.folded  collapsed stacks (flamegraph.pl input)\n"
             "  /healthz         liveness probe (200 ok)\n";
    return R;
  });
  Server.route("/health.json", [this](const http::Request &) {
    return http::Response{200, "application/json",
                          HealthPlane->healthJson().dump(2) + "\n"};
  });
  Server.route("/profile.json", [this](const http::Request &) {
    return http::Response{200, "application/json",
                          HealthPlane->profileJson().dump(2) + "\n"};
  });
  Server.route("/profile.folded", [this](const http::Request &) {
    return http::Response{200, "text/plain; charset=utf-8",
                          HealthPlane->profileFolded()};
  });
  Server.route("/healthz", [](const http::Request &) {
    return http::Response{200, "text/plain; charset=utf-8", "ok\n"};
  });
  Server.route("/metrics", [this](const http::Request &) {
    return http::Response{200, PrometheusContentType, renderPrometheus()};
  });
  Server.route("/snapshot.json", [this](const http::Request &) {
    return http::Response{200, "application/json",
                          snapshotJson().dump(2) + "\n"};
  });
  Server.route("/latency.json", [this](const http::Request &) {
    return http::Response{200, "application/json",
                          latencyJson().dump(2) + "\n"};
  });
  Server.route("/spans.json", [this](const http::Request &) {
    return http::Response{200, "application/json",
                          spansJson().dump(2) + "\n"};
  });
  Server.route("/trace", [this](const http::Request &Req) {
    int64_t Ms = Req.queryInt("ms", 500);
    Ms = std::clamp<int64_t>(Ms, 1, 60000);
    return http::Response{200, "application/json",
                          traceSlice(static_cast<uint64_t>(Ms))};
  });
}

Telemetry::~Telemetry() { stop(); }

bool Telemetry::start(std::string *Error) {
  if (Started) {
    if (Error)
      *Error = "telemetry already started";
    return false;
  }
  if (!Server.start(Config.Port, Error))
    return false;
  {
    std::lock_guard<std::mutex> Lock(SamplerMutex);
    StopSampler = false;
  }
  Sampler = std::thread([this] { samplerLoop(); });
  HealthPlane->start();
  Started = true;
  return true;
}

void Telemetry::stop() {
  if (!Started)
    return;
  HealthPlane->stop();
  Server.stop();
  {
    std::lock_guard<std::mutex> Lock(SamplerMutex);
    StopSampler = true;
  }
  SamplerCv.notify_all();
  if (Sampler.joinable())
    Sampler.join();
  Started = false;
}

repro::LatencyHistogram Telemetry::windowTail(unsigned Level,
                                             unsigned LastEpochs) const {
  return Windows[Level]->window(Rt.latency(Level, LatencyKind::Response),
                                LastEpochs);
}

void Telemetry::samplerLoop() {
  trace::setThreadName("telemetry");
  uint64_t LastRotateNanos = repro::nowNanos();
  const uint64_t EpochNanos = Config.EpochMillis * 1000000;
  std::unique_lock<std::mutex> Lock(SamplerMutex);
  while (!StopSampler) {
    SamplerCv.wait_for(Lock,
                       std::chrono::milliseconds(Config.SampleIntervalMillis),
                       [this] { return StopSampler; });
    if (StopSampler)
      return;
    Lock.unlock();
    uint64_t Now = repro::nowNanos();
    if (uint64_t Passed = (Now - LastRotateNanos) / EpochNanos) {
      for (unsigned L = 0; L < Windows.size(); ++L)
        Windows[L]->rotate(Rt.latency(L, LatencyKind::Response), Passed);
      LastRotateNanos += Passed * EpochNanos;
    }
    // Feed the tail sampler's slow threshold from the live windows: a
    // trace slower than the worst per-level p99 is always retained.
    if (SpanStore *SS = Spans.load(std::memory_order_acquire)) {
      double MaxP99 = 0;
      for (unsigned L = 0; L < Windows.size(); ++L) {
        repro::LatencyHistogram H = windowTail(L, 0);
        if (H.count())
          MaxP99 = std::max(MaxP99, H.quantile(0.99));
      }
      if (MaxP99 > 0)
        SS->setSlowThresholdMicros(MaxP99);
      if (Config.ExemplarSlots > 0)
        harvestExemplars(Now);
    }
    Lock.lock();
  }
}

void Telemetry::harvestExemplars(uint64_t NowNanos) {
  SpanStore *SS = Spans.load(std::memory_order_acquire);
  if (!SS)
    return;
  std::vector<SpanStore::RetainedSummary> Fresh =
      SS->retainedSince(ExemplarScanNanos);
  for (const SpanStore::RetainedSummary &T : Fresh)
    ExemplarScanNanos = std::max(ExemplarScanNanos, T.EndNanos + 1);
  // Exemplars older than the latency window are expired, then the span
  // store is re-pinned: it keeps exactly the traces the exported
  // exemplars point at alive, even past retained-ring eviction.
  const uint64_t WindowNanos =
      static_cast<uint64_t>(std::max(1u, Config.WindowEpochs)) *
      Config.EpochMillis * 1000000;
  SS->pinRetained(fileExemplars(
      Fresh, NowNanos > WindowNanos ? NowNanos - WindowNanos : 0));
}

std::vector<uint64_t>
Telemetry::fileExemplars(const std::vector<SpanStore::RetainedSummary> &Fresh,
                         uint64_t CutoffNanos) {
  std::vector<uint64_t> Pins;
  if (Config.ExemplarSlots == 0)
    return Pins;
  std::lock_guard<std::mutex> Lock(ExemplarMutex);
  for (const SpanStore::RetainedSummary &T : Fresh) {
    std::vector<Exemplar> &Slots = Exemplars[std::min<std::size_t>(
        T.RootLevel, Exemplars.size() - 1)];
    // One slot per decade of latency; the last is open-ended.
    auto Decade = static_cast<std::size_t>(
        std::log10(std::max(1.0, T.DurationMicros)));
    Slots[std::min(Decade, Slots.size() - 1)] = {
        T.DurationMicros, T.DisplayHi, T.DisplayLo, T.LocalLo, T.EndNanos,
        true};
  }
  for (std::vector<Exemplar> &Slots : Exemplars)
    for (Exemplar &E : Slots) {
      if (E.Valid && E.TimeNanos < CutoffNanos)
        E = Exemplar{};
      if (E.Valid)
        Pins.push_back(E.PinKey);
    }
  return Pins;
}

std::vector<Telemetry::Exemplar> Telemetry::exemplars(unsigned Level) const {
  std::lock_guard<std::mutex> Lock(ExemplarMutex);
  std::vector<Exemplar> Out;
  for (const Exemplar &E : Exemplars[Level])
    if (E.Valid)
      Out.push_back(E);
  return Out;
}

std::string Telemetry::renderPrometheus() const {
  const std::string &P = Config.Prefix;
  RuntimeSnapshot S = Rt.snapshot();
  std::string Out;
  Out.reserve(4096);

  family(Out, P + "_tasks_executed_total", "counter",
         "Tasks run to completion since runtime start.");
  sample(Out, P + "_tasks_executed_total", "", num(S.TasksExecuted));

  family(Out, P + "_work_nanos_total", "counter",
         "Total executed-slice wall time in nanoseconds (suspended time "
         "excluded).");
  sample(Out, P + "_work_nanos_total", "", num(S.TotalWorkNanos));

  family(Out, P + "_stalls_total", "counter",
         "Watchdog stall episodes (outstanding work, no progress).");
  sample(Out, P + "_stalls_total", "", num(S.StallsDetected));

  family(Out, P + "_events_dropped_total", "counter",
         "Trace events lost to event-ring wrap, summed over all rings.");
  sample(Out, P + "_events_dropped_total", "", num(S.EventsDropped));

  family(Out, P + "_ftouch_inversions_total", "counter",
         "Blocking ftouches of a strictly lower-priority future (live "
         "priority-inversion count).");
  sample(Out, P + "_ftouch_inversions_total", "", num(S.FtouchInversions));

  family(Out, P + "_deadline_misses_total", "counter",
         "Deadline touches (ftouchFor) whose timeout beat the value.");
  sample(Out, P + "_deadline_misses_total", "", num(S.DeadlineMisses));

  family(Out, P + "_outstanding_tasks", "gauge",
         "Tasks submitted but not yet completed.");
  sample(Out, P + "_outstanding_tasks", "",
         num(static_cast<double>(S.Outstanding)));

  family(Out, P + "_workers_parked", "gauge",
         "Workers asleep on the idle event count (zero on a busy system; "
         "NumWorkers on a quiescent one).");
  sample(Out, P + "_workers_parked", "",
         num(static_cast<double>(S.WorkersParked)));

  family(Out, P + "_injection_full_spins_total", "counter",
         "Failed external-submission attempts on a full injection ring "
         "(bursts end in the overflow list; sustained growth means "
         "InjectionCapacity is undersized).");
  sample(Out, P + "_injection_full_spins_total", "",
         num(S.InjectionFullSpins));

  family(Out, P + "_pool_stacks_created_total", "counter",
         "Fiber stacks allocated fresh by the stack pool.");
  sample(Out, P + "_pool_stacks_created_total", "", num(S.PoolStacksCreated));

  family(Out, P + "_pool_stacks_reused_total", "counter",
         "Fiber stacks served from the pool's free lists.");
  sample(Out, P + "_pool_stacks_reused_total", "", num(S.PoolStacksReused));

  family(Out, P + "_tasks_recycled_total", "counter",
         "Completed Task objects returned to the slab for reuse.");
  sample(Out, P + "_tasks_recycled_total", "", num(S.TasksRecycled));

  family(Out, P + "_ready_depth", "gauge",
         "Queued (not running or suspended) tasks per priority level.");
  for (unsigned L = 0; L < S.Pending.size(); ++L)
    sample(Out, P + "_ready_depth", levelLabel(L),
           num(static_cast<double>(S.Pending[L])));

  family(Out, P + "_assigned_workers", "gauge",
         "Workers currently assigned to each priority level.");
  for (unsigned L = 0; L < S.Assigned.size(); ++L)
    sample(Out, P + "_assigned_workers", levelLabel(L),
           num(static_cast<uint64_t>(S.Assigned[L])));

  family(Out, P + "_level_desire", "gauge",
         "The master's current A-STEAL desire per priority level.");
  for (unsigned L = 0; L < S.Desires.size(); ++L)
    sample(Out, P + "_level_desire", levelLabel(L), num(S.Desires[L]));

  family(Out, P + "_level_completed_total", "counter",
         "Tasks completed per priority level.");
  for (unsigned L = 0; L < Rt.config().NumLevels; ++L)
    sample(Out, P + "_level_completed_total", levelLabel(L),
           num(Rt.completed(L)));

  family(Out, P + "_response_latency_micros", "gauge",
         "Windowed response-time quantiles per priority level "
         "(creation to completion, microseconds, over the last window).");
  const double Quantiles[] = {0.5, 0.99, 0.999};
  const char *QuantileNames[] = {"0.5", "0.99", "0.999"};
  std::vector<uint64_t> WindowCounts;
  for (unsigned L = 0; L < Windows.size(); ++L) {
    repro::LatencyHistogram H = windowTail(L, 0);
    WindowCounts.push_back(H.count());
    for (std::size_t Q = 0; Q < 3; ++Q)
      sample(Out, P + "_response_latency_micros",
             levelLabel(L) + ",quantile=\"" + QuantileNames[Q] + "\"",
             num(H.quantile(Quantiles[Q])));
  }

  family(Out, P + "_response_window_count", "gauge",
         "Response samples inside the current latency window, per level.");
  for (unsigned L = 0; L < WindowCounts.size(); ++L)
    sample(Out, P + "_response_window_count", levelLabel(L),
           num(WindowCounts[L]));

  if (Config.ExemplarSlots > 0) {
    family(Out, P + "_response_latency_exemplar_micros", "gauge",
           "Recent tail observations per level, each linked (OpenMetrics "
           "exemplar syntax) to a trace retained in /spans.json.");
    for (unsigned L = 0; L < Windows.size(); ++L) {
      std::vector<Exemplar> Exs = exemplars(L);
      for (unsigned I = 0; I < Exs.size(); ++I) {
        // OpenMetrics exemplar: `name{labels} value # {trace_id="…"} value`.
        Out += P + "_response_latency_exemplar_micros{" + levelLabel(L) +
               ",slot=\"" + std::to_string(I) + "\"} " + num(Exs[I].Value) +
               " # {trace_id=\"" + hex32(Exs[I].TraceHi, Exs[I].TraceLo) +
               "\"} " + num(Exs[I].Value) + "\n";
      }
    }
  }

  family(Out, P + "_steals_total", "counter",
         "Successful deque steals by thief/victim cpu locality "
         "(unknown cpus count as same_socket).");
  sample(Out, P + "_steals_total", "locality=\"same_socket\"",
         num(S.StealsSameSocket));
  sample(Out, P + "_steals_total", "locality=\"cross_socket\"",
         num(S.StealsCrossSocket));

  family(Out, P + "_steal_same_socket_ratio", "gauge",
         "Same-socket share of all successful steals (1 = every steal "
         "stayed on-die; also 1 before any steal happened).");
  {
    uint64_t Steals = S.StealsSameSocket + S.StealsCrossSocket;
    sample(Out, P + "_steal_same_socket_ratio", "",
           num(Steals == 0 ? 1.0
                           : static_cast<double>(S.StealsSameSocket) /
                                 static_cast<double>(Steals)));
  }

  family(Out, P + "_next_slot_hits_total", "counter",
         "Tasks run straight from their worker's next-task slot (spawned "
         "and executed on one cache, no shared queue touched).");
  sample(Out, P + "_next_slot_hits_total", "", num(S.NextSlotHits));

  family(Out, P + "_batch_steals_total", "counter",
         "Steal operations that transferred two or more tasks at once "
         "(stealHalf).");
  sample(Out, P + "_batch_steals_total", "", num(S.BatchSteals));

  family(Out, P + "_batch_steal_tasks_total", "counter",
         "Tasks moved by multi-task steal operations (kept + requeued on "
         "the thief).");
  sample(Out, P + "_batch_steal_tasks_total", "", num(S.BatchStealTasks));

  family(Out, P + "_affinity_hits_total", "counter",
         "Hinted tasks placed where their affinity hint asked (next-slot "
         "or mailbox; pressured fallbacks not counted).");
  sample(Out, P + "_affinity_hits_total", "", num(S.AffinityHits));

  {
    HealthReport HR = HealthPlane->report();
    family(Out, P + "_health_status", "gauge",
           "Doctor rollup: 0 = ok, 1 = degraded, 2 = critical.");
    double Status = HR.Status == "critical" ? 2 : HR.Status == "ok" ? 0 : 1;
    sample(Out, P + "_health_status", "", num(Status));

    family(Out, P + "_health_verdicts", "gauge",
           "Active doctor verdicts (see /health.json for details).");
    sample(Out, P + "_health_verdicts", "",
           num(static_cast<uint64_t>(HR.Verdicts.size())));

    if (!HR.Slo.empty()) {
      family(Out, P + "_slo_burn_rate", "gauge",
             "Error-budget burn-rate multiple per SLO level and window "
             "(1.0 = burning exactly the budget).");
      for (const SloBurnSample &B : HR.Slo) {
        sample(Out, P + "_slo_burn_rate",
               levelLabel(static_cast<unsigned>(B.Level)) +
                   ",window=\"fast\"",
               num(B.FastBurn));
        sample(Out, P + "_slo_burn_rate",
               levelLabel(static_cast<unsigned>(B.Level)) +
                   ",window=\"slow\"",
               num(B.SlowBurn));
      }
    }
  }

  if (S.Admission.Attached) {
    const AdmissionSample &A = S.Admission;
    family(Out, P + "_admission_shed_total", "counter",
           "Arrivals shed by the admission controller (rejected + "
           "timed out in queue), summed over levels.");
    sample(Out, P + "_admission_shed_total", "", num(A.Shed));

    family(Out, P + "_admission_clamped_levels", "gauge",
           "Priority levels currently under a token-bucket clamp.");
    sample(Out, P + "_admission_clamped_levels", "",
           num(static_cast<uint64_t>(A.ClampedLevels)));

    family(Out, P + "_admission_queue_delay_p99_micros", "gauge",
           "p99 of admission-queue delay (enqueue to dispatch).");
    sample(Out, P + "_admission_queue_delay_p99_micros", "",
           num(A.QueueDelayP99Micros));

    family(Out, P + "_admission_offered_total", "counter",
           "Arrivals offered to the admission controller, per level.");
    for (unsigned L = 0; L < A.Levels.size(); ++L)
      sample(Out, P + "_admission_offered_total", levelLabel(L),
             num(A.Levels[L].Offered));

    family(Out, P + "_admission_admitted_total", "counter",
           "Arrivals admitted into the runtime, per level.");
    for (unsigned L = 0; L < A.Levels.size(); ++L)
      sample(Out, P + "_admission_admitted_total", levelLabel(L),
             num(A.Levels[L].Admitted));

    family(Out, P + "_admission_degraded_total", "counter",
           "Arrivals re-admitted at a lower priority level, per "
           "originally requested level.");
    for (unsigned L = 0; L < A.Levels.size(); ++L)
      sample(Out, P + "_admission_degraded_total", levelLabel(L),
             num(A.Levels[L].Degraded));

    family(Out, P + "_admission_rejected_total", "counter",
           "Arrivals rejected outright, per level.");
    for (unsigned L = 0; L < A.Levels.size(); ++L)
      sample(Out, P + "_admission_rejected_total", levelLabel(L),
             num(A.Levels[L].Rejected));

    family(Out, P + "_admission_timed_out_total", "counter",
           "Arrivals that expired in the admission queue, per level.");
    for (unsigned L = 0; L < A.Levels.size(); ++L)
      sample(Out, P + "_admission_timed_out_total", levelLabel(L),
             num(A.Levels[L].TimedOut));

    family(Out, P + "_admission_queued", "gauge",
           "Entries waiting in the admission queue, per level.");
    for (unsigned L = 0; L < A.Levels.size(); ++L)
      sample(Out, P + "_admission_queued", levelLabel(L),
             num(static_cast<double>(A.Levels[L].Queued)));

    family(Out, P + "_admission_rate_per_sec", "gauge",
           "Live token-bucket rate per level (0 = unlimited).");
    for (unsigned L = 0; L < A.Levels.size(); ++L)
      sample(Out, P + "_admission_rate_per_sec", levelLabel(L),
             num(A.Levels[L].RatePerSec));

    family(Out, P + "_admission_offer_rate_per_sec", "gauge",
           "Observed arrival rate per level (EMA of offers/sec) — the "
           "clamp's counterpart for the admission-clamped verdict.");
    for (unsigned L = 0; L < A.Levels.size(); ++L)
      sample(Out, P + "_admission_offer_rate_per_sec", levelLabel(L),
             num(A.Levels[L].ObservedOfferRatePerSec));

    family(Out, P + "_admission_clamped_for_micros", "gauge",
           "How long the controller has held each level's current clamp "
           "(0 = not clamped).");
    for (unsigned L = 0; L < A.Levels.size(); ++L)
      sample(Out, P + "_admission_clamped_for_micros", levelLabel(L),
             num(A.Levels[L].ClampedForMicros));
  }

  {
    std::lock_guard<std::mutex> Lock(IoMutex);
    if (!IoBackends.empty()) {
      family(Out, P + "_io_submitted_total", "counter",
             "I/O operations ever submitted, per tracked backend.");
      for (const Io *B : IoBackends)
        sample(Out, P + "_io_submitted_total",
               "backend=\"" + escapeLabelValue(B->metricsPrefix()) + "\"",
               num(B->submitted()));

      family(Out, P + "_io_completed_total", "counter",
             "I/O operations completed (successfully or erroneously), per "
             "tracked backend.");
      for (const Io *B : IoBackends)
        sample(Out, P + "_io_completed_total",
               "backend=\"" + escapeLabelValue(B->metricsPrefix()) + "\"",
               num(B->completed()));

      family(Out, P + "_io_faulted_total", "counter",
             "I/O operations completed erroneously (injected faults, "
             "failed syscalls, shutdown), per tracked backend.");
      for (const Io *B : IoBackends)
        sample(Out, P + "_io_faulted_total",
               "backend=\"" + escapeLabelValue(B->metricsPrefix()) + "\"",
               num(B->faulted()));

      family(Out, P + "_io_in_flight", "gauge",
             "I/O operations submitted but not yet completed, per tracked "
             "backend.");
      for (const Io *B : IoBackends)
        sample(Out, P + "_io_in_flight",
               "backend=\"" + escapeLabelValue(B->metricsPrefix()) + "\"",
               num(static_cast<double>(B->inFlight())));
    }
  }

  family(Out, P + "_ring_events_total", "counter",
         "Events ever pushed to each per-thread trace ring.");
  std::vector<trace::EventLog::RingStats> Rings =
      trace::EventLog::instance().ringStats();
  for (const auto &R : Rings)
    sample(Out, P + "_ring_events_total",
           "ring=\"" + escapeLabelValue(R.Name) + "\"", num(R.Pushed));

  family(Out, P + "_ring_events_dropped_total", "counter",
         "Events lost to ring wrap, per per-thread trace ring.");
  for (const auto &R : Rings)
    sample(Out, P + "_ring_events_dropped_total",
           "ring=\"" + escapeLabelValue(R.Name) + "\"", num(R.Overwritten));

  if (Registry) {
    for (const auto &[Name, V] : Registry->counters()) {
      std::string MN = sanitizeMetricName(Name);
      family(Out, MN, "counter", "MetricsRegistry counter " + Name + ".");
      sample(Out, MN, "", num(V));
    }
    for (const auto &[Name, V] : Registry->gauges()) {
      std::string MN = sanitizeMetricName(Name);
      family(Out, MN, "gauge", "MetricsRegistry gauge " + Name + ".");
      sample(Out, MN, "", num(V));
    }
  }
  return Out;
}

json::Value Telemetry::snapshotJson() const {
  RuntimeSnapshot S = Rt.snapshot();
  json::Value Out = json::Value::object();
  Out.set("schema", json::Value("icilk-telemetry-snapshot-v1"));
  Out.set("time_micros", json::Value(repro::nowMicros()));
  Out.set("tasks_executed", json::Value(S.TasksExecuted));
  Out.set("total_work_nanos", json::Value(S.TotalWorkNanos));
  Out.set("outstanding", json::Value(S.Outstanding));
  Out.set("stalls_detected", json::Value(S.StallsDetected));
  Out.set("events_dropped", json::Value(S.EventsDropped));
  Out.set("ftouch_inversions", json::Value(S.FtouchInversions));
  Out.set("deadline_misses", json::Value(S.DeadlineMisses));
  Out.set("workers_parked", json::Value(static_cast<uint64_t>(S.WorkersParked)));
  Out.set("injection_full_spins", json::Value(S.InjectionFullSpins));
  Out.set("pool_stacks_created", json::Value(S.PoolStacksCreated));
  Out.set("pool_stacks_reused", json::Value(S.PoolStacksReused));
  Out.set("tasks_recycled", json::Value(S.TasksRecycled));
  Out.set("steals_same_socket", json::Value(S.StealsSameSocket));
  Out.set("steals_cross_socket", json::Value(S.StealsCrossSocket));
  Out.set("next_slot_hits", json::Value(S.NextSlotHits));
  Out.set("batch_steals", json::Value(S.BatchSteals));
  Out.set("batch_steal_tasks", json::Value(S.BatchStealTasks));
  Out.set("affinity_hits", json::Value(S.AffinityHits));
  {
    uint64_t Steals = S.StealsSameSocket + S.StealsCrossSocket;
    Out.set("steal_same_socket_ratio",
            json::Value(Steals == 0
                            ? 1.0
                            : static_cast<double>(S.StealsSameSocket) /
                                  static_cast<double>(Steals)));
  }

  json::Value Levels = json::Value::array();
  for (unsigned L = 0; L < S.Pending.size(); ++L) {
    json::Value LV = json::Value::object();
    LV.set("level", json::Value(static_cast<uint64_t>(L)));
    LV.set("pending", json::Value(S.Pending[L]));
    if (L < S.InjectionOverflow.size())
      LV.set("injection_overflow", json::Value(S.InjectionOverflow[L]));
    LV.set("assigned", json::Value(static_cast<uint64_t>(S.Assigned[L])));
    LV.set("desire", json::Value(S.Desires[L]));
    LV.set("completed", json::Value(Rt.completed(L)));
    Levels.push(std::move(LV));
  }
  Out.set("levels", std::move(Levels));

  if (S.Admission.Attached) {
    const AdmissionSample &A = S.Admission;
    json::Value AV = json::Value::object();
    AV.set("shed", json::Value(A.Shed));
    AV.set("clamped_levels",
           json::Value(static_cast<uint64_t>(A.ClampedLevels)));
    AV.set("queue_delay_count", json::Value(A.QueueDelayCount));
    AV.set("queue_delay_p99_micros", json::Value(A.QueueDelayP99Micros));
    json::Value ALs = json::Value::array();
    for (unsigned L = 0; L < A.Levels.size(); ++L) {
      const AdmissionLevelSample &LS = A.Levels[L];
      json::Value LV = json::Value::object();
      LV.set("level", json::Value(static_cast<uint64_t>(L)));
      LV.set("offered", json::Value(LS.Offered));
      LV.set("admitted", json::Value(LS.Admitted));
      LV.set("degraded", json::Value(LS.Degraded));
      LV.set("rejected", json::Value(LS.Rejected));
      LV.set("timed_out", json::Value(LS.TimedOut));
      LV.set("queued", json::Value(static_cast<uint64_t>(
                           LS.Queued < 0 ? 0 : LS.Queued)));
      LV.set("rate_per_sec", json::Value(LS.RatePerSec));
      LV.set("window_p99_micros", json::Value(LS.WindowP99Micros));
      LV.set("observed_offer_rate_per_sec",
             json::Value(LS.ObservedOfferRatePerSec));
      LV.set("clamped_for_micros", json::Value(LS.ClampedForMicros));
      ALs.push(std::move(LV));
    }
    AV.set("levels", std::move(ALs));
    Out.set("admission", std::move(AV));
  }

  json::Value Rings = json::Value::array();
  for (const auto &R : trace::EventLog::instance().ringStats()) {
    json::Value RV = json::Value::object();
    RV.set("name", json::Value(R.Name));
    RV.set("pushed", json::Value(R.Pushed));
    RV.set("events_dropped", json::Value(R.Overwritten));
    RV.set("capacity", json::Value(static_cast<uint64_t>(R.Capacity)));
    Rings.push(std::move(RV));
  }
  Out.set("rings", std::move(Rings));
  return Out;
}

json::Value Telemetry::latencyJson() const {
  json::Value Out = json::Value::object();
  Out.set("schema", json::Value("icilk-telemetry-latency-v1"));
  Out.set("window_millis",
          json::Value(static_cast<uint64_t>(Config.WindowEpochs) *
                      Config.EpochMillis));
  Out.set("epoch_millis", json::Value(Config.EpochMillis));
  json::Value Levels = json::Value::array();
  for (unsigned L = 0; L < Windows.size(); ++L) {
    repro::LatencyHistogram H = windowTail(L, 0);
    json::Value LV = json::Value::object();
    LV.set("level", json::Value(static_cast<uint64_t>(L)));
    LV.set("window_count", json::Value(H.count()));
    LV.set("p50", json::Value(H.quantile(0.5)));
    LV.set("p99", json::Value(H.quantile(0.99)));
    LV.set("p999", json::Value(H.quantile(0.999)));
    json::Value Exs = json::Value::array();
    for (const Exemplar &E : exemplars(L)) {
      json::Value EV = json::Value::object();
      EV.set("value_micros", json::Value(E.Value));
      EV.set("trace_id", json::Value(hex32(E.TraceHi, E.TraceLo)));
      EV.set("time_nanos", json::Value(E.TimeNanos));
      Exs.push(std::move(EV));
    }
    LV.set("exemplars", std::move(Exs));
    Levels.push(std::move(LV));
  }
  Out.set("levels", std::move(Levels));
  return Out;
}

json::Value Telemetry::spansJson() const {
  json::Value Out = json::Value::object();
  Out.set("schema", json::Value("icilk-telemetry-spans-v1"));
  SpanStore *SS = Spans.load(std::memory_order_acquire);
  Out.set("enabled", json::Value(SS != nullptr));
  Out.set("traces", json::Value::array());
  if (!SS)
    return Out;

  const uint64_t Epoch = repro::traceEpochNanos();
  SpanStore::Stats St = SS->stats();
  json::Value SV = json::Value::object();
  SV.set("started", json::Value(St.Started));
  SV.set("finished", json::Value(St.Finished));
  SV.set("retained", json::Value(St.Retained));
  SV.set("retained_dropped", json::Value(St.RetainedDropped));
  SV.set("active_overflow", json::Value(St.ActiveOverflow));
  SV.set("head_sampled", json::Value(St.HeadSampled));
  SV.set("tail_kept", json::Value(St.TailKept));
  Out.set("stats", std::move(SV));
  Out.set("head_sample_rate", json::Value(SS->config().HeadSampleRate));
  Out.set("slow_threshold_micros", json::Value(SS->slowThresholdMicros()));

  json::Value Traces = json::Value::array();
  for (const TraceRecord &T : SS->retained()) {
    json::Value TV = json::Value::object();
    // Exporters join on the wire-visible id: the client's trace id when a
    // traceparent was adopted, the locally allocated one otherwise.
    TV.set("trace_id", json::Value(T.HasRemote
                                       ? hex32(T.RemoteTraceHi, T.RemoteTraceLo)
                                       : hex32(T.TraceHi, T.TraceLo)));
    TV.set("local_trace_id", json::Value(hex32(T.TraceHi, T.TraceLo)));
    if (T.HasRemote)
      TV.set("remote_parent_span_id",
             json::Value(hex16(T.RemoteParentSpanId)));
    TV.set("root_span_id", json::Value(hex16(T.RootSpanId)));
    TV.set("flags", json::Value(static_cast<uint64_t>(T.Flags)));
    TV.set("flag_names", traceFlagNames(T.Flags));
    TV.set("start_micros", json::Value(epochMicros(T.StartNanos, Epoch)));
    TV.set("duration_micros",
           json::Value(T.EndNanos > T.StartNanos
                           ? static_cast<double>(T.EndNanos - T.StartNanos) /
                                 1000.0
                           : 0.0));
    TV.set("spans_dropped", json::Value(T.SpansDropped));
    json::Value Spans = json::Value::array();
    for (const SpanRecord &S : T.Spans) {
      json::Value SpanV = json::Value::object();
      SpanV.set("span_id", json::Value(hex16(S.SpanId)));
      SpanV.set("parent_span_id",
                json::Value(S.ParentSpanId ? hex16(S.ParentSpanId)
                                           : std::string()));
      SpanV.set("name", json::Value(S.Name));
      SpanV.set("level", json::Value(static_cast<uint64_t>(S.Level)));
      SpanV.set("start_micros", json::Value(epochMicros(S.StartNanos, Epoch)));
      SpanV.set("duration_micros",
                json::Value(S.EndNanos > S.StartNanos
                                ? static_cast<double>(S.EndNanos -
                                                      S.StartNanos) /
                                      1000.0
                                : 0.0));
      if (S.TaskRingId)
        SpanV.set("ring_id", json::Value(static_cast<uint64_t>(S.TaskRingId)));
      if (!S.Events.empty()) {
        json::Value Events = json::Value::array();
        for (const SpanEvent &E : S.Events) {
          json::Value EV = json::Value::object();
          EV.set("kind", json::Value(spanEventKindName(E.Kind)));
          EV.set("time_micros", json::Value(epochMicros(E.TimeNanos, Epoch)));
          EV.set("arg0", json::Value(static_cast<uint64_t>(E.Arg0)));
          EV.set("arg1", json::Value(static_cast<uint64_t>(E.Arg1)));
          Events.push(std::move(EV));
        }
        SpanV.set("events", std::move(Events));
      }
      Spans.push(std::move(SpanV));
    }
    TV.set("spans", std::move(Spans));
    Traces.push(std::move(TV));
  }
  Out.set("traces", std::move(Traces));
  return Out;
}

std::string Telemetry::spanOverlay(uint64_t CutoffNanos) const {
  SpanStore *SS = Spans.load(std::memory_order_acquire);
  if (!SS)
    return std::string();
  const uint64_t Epoch = repro::traceEpochNanos();
  std::string Out;
  uint64_t Row = 0;
  for (const TraceRecord &T : SS->retained()) {
    ++Row;
    if (T.EndNanos < CutoffNanos)
      continue;
    // Each retained trace gets its own display row (tid) far above any
    // real thread id, named after the wire-visible trace id.
    uint64_t Tid = 1000000 + Row;
    std::string Id = T.HasRemote ? hex32(T.RemoteTraceHi, T.RemoteTraceLo)
                                 : hex32(T.TraceHi, T.TraceLo);
    if (!Out.empty())
      Out += ",\n";
    Out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":" +
           std::to_string(Tid) + ",\"args\":{\"name\":\"trace " + Id + "\"}}";
    for (const SpanRecord &S : T.Spans) {
      double Ts = epochMicros(S.StartNanos, Epoch);
      double Dur = S.EndNanos > S.StartNanos
                       ? static_cast<double>(S.EndNanos - S.StartNanos) /
                             1000.0
                       : 0.0;
      std::ostringstream E;
      E << ",\n{\"name\":\"" << S.Name << "\",\"ph\":\"X\",\"ts\":" << Ts
        << ",\"dur\":" << Dur << ",\"pid\":1,\"tid\":" << Tid
        << ",\"args\":{\"trace\":\"" << Id << "\",\"span\":\""
        << hex16(S.SpanId) << "\",\"parent\":\"" << hex16(S.ParentSpanId)
        << "\",\"level\":" << static_cast<unsigned>(S.Level) << "}}";
      Out += E.str();
    }
  }
  return Out;
}

std::string Telemetry::traceSlice(uint64_t Millis) const {
  uint64_t Now = repro::nowNanos();
  uint64_t Cutoff = Millis * 1000000 <= Now ? Now - Millis * 1000000 : 0;
  std::vector<trace::ThreadTrace> Threads =
      trace::EventLog::instance().snapshot();
  for (trace::ThreadTrace &T : Threads) {
    // Events within a ring are pushed in time order, so the slice is the
    // tail past the cutoff; anything sliced away was *reported*, not lost,
    // so it does not count as dropped.
    auto It = std::find_if(
        T.Events.begin(), T.Events.end(),
        [Cutoff](const trace::Event &E) { return E.TimeNanos >= Cutoff; });
    T.Events.erase(T.Events.begin(), It);
  }
  std::ostringstream OS;
  // Retained request spans ride the same export (and the same epoch), so
  // one Chrome-trace load shows scheduler slices and request spans on a
  // shared clock.
  trace::writeChromeTrace(OS, Threads, spanOverlay(Cutoff));
  return OS.str();
}

} // namespace repro::icilk
