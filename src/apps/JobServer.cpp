//===- apps/JobServer.cpp - The smallest-work-first job server ---------------===//

#include "apps/JobServer.h"

#include "apps/Kernels.h"
#include "icilk/Trace.h"
#include "support/Timer.h"

#include <atomic>
#include <mutex>

namespace repro::apps {

using icilk::Context;

namespace {

/// Per-job trace handle, shared between the offer path and the submit
/// callback. finishTrace runs exactly once: explicitly when the job body
/// completes, or from the destructor of the last reference when the
/// callback is dropped without running (admission queue timeout, stop) —
/// so every started trace is finished and the tail sampler can judge it.
struct JobTrace {
  icilk::SpanStore &Spans;
  icilk::SpanContext Root;
  std::atomic<bool> Finished{false};

  JobTrace(icilk::SpanStore &S, icilk::SpanContext R) : Spans(S), Root(R) {}
  JobTrace(const JobTrace &) = delete;
  JobTrace &operator=(const JobTrace &) = delete;
  ~JobTrace() {
    if (!Finished.load(std::memory_order_relaxed))
      Spans.finishTrace(Root);
  }

  void done() {
    Finished.store(true, std::memory_order_relaxed);
    Spans.finishTrace(Root);
  }
};

} // namespace

/// The engine internals. Level↔type mapping: type index 0..3 (matmul, fib,
/// sort, sw) runs at level 3-Type, matmul highest — smallest work first.
struct JobServerEngine::Impl {
  explicit Impl(const JobServerConfig &ConfigIn)
      : Config(ConfigIn),
        Spans(Config.Tracing.Enabled
                  ? std::make_unique<icilk::SpanStore>(Config.Tracing.Config)
                  : nullptr),
        Rt(Config.Rt) {
    Rt.setTrace(Config.Trace); // before the first spawn, so ids line up
    if (Spans)
      Rt.setSpans(Spans.get());
    if (Config.Metrics)
      LiveShed = &Config.Metrics->counter("jobserver.shed.live");
    if (Config.Admission.Enabled)
      Admission = std::make_unique<icilk::AdmissionController>(
          Rt, Config.Admission.Config);
  }

  JobServerConfig Config;
  /// Declared before Rt: destroyed after the runtime, so tasks may touch
  /// the store right up to drain.
  std::unique_ptr<icilk::SpanStore> Spans;
  icilk::Runtime Rt;
  /// Destroyed before Rt (declared after it): the controller detaches and
  /// joins its thread while the runtime is still alive.
  std::unique_ptr<icilk::AdmissionController> Admission;
  std::array<std::atomic<uint64_t>, 4> Counts{};
  std::array<std::atomic<uint64_t>, 4> Shed{};
  std::array<std::atomic<uint64_t>, 4> Degraded{};
  std::mutex JobLatencyMutex; ///< guards JobResponse and JobCompute
  std::array<repro::LatencyHistogram, 4> JobResponse;
  std::array<repro::LatencyHistogram, 4> JobCompute;
  /// Seeds for per-job RNGs: drawn on the offering thread so a submit
  /// callback deferred to the controller thread needs no shared Rng.
  std::atomic<uint64_t> SeedTick{0};
  /// Live shed count, bumped as arrivals are rejected (the per-type
  /// "jobserver.shed.*" counters are only set() at the end of the run, too
  /// late for a live /metrics scrape). Handle cached once: counter lookup
  /// takes the registry mutex and this is on the driver's arrival path.
  repro::MetricsRegistry::Counter *LiveShed = nullptr;

  uint64_t nextSeed() {
    // splitmix64 over a private counter: deterministic per (Seed, arrival
    // index), race-free from any offering thread.
    uint64_t Z = Config.Seed + 0x9e3779b97f4a7c15ULL *
                                   (SeedTick.fetch_add(1) + 1);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// Records whole-job latencies for type \p Type.
  void recordJob(std::size_t Type, uint64_t ArrivalMicros,
                 uint64_t StartMicros) {
    uint64_t Now = repro::nowMicros();
    Counts[Type].fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(JobLatencyMutex);
    JobResponse[Type].record(static_cast<double>(Now - ArrivalMicros));
    JobCompute[Type].record(static_cast<double>(Now - StartMicros));
  }

  /// Submits the type-\p Type job body at priority \p Prio. The kernels
  /// are templates over the priority level, which is what makes
  /// degrade-to-lower-level possible at all: the same job simply
  /// re-instantiates lower.
  template <typename Prio>
  void submitTyped(std::size_t Type, uint64_t Seed, uint64_t Arrival,
                   const std::shared_ptr<JobTrace> &Trace) {
    switch (Type) {
    case 0:
      icilk::fcreate<Prio>(Rt, [this, Seed, Arrival,
                                Trace](Context<Prio> &Ctx) {
        uint64_t Start = repro::nowMicros();
        repro::Rng Local(Seed);
        Matrix A = randomMatrix(Config.MatmulN, Local);
        Matrix B = randomMatrix(Config.MatmulN, Local);
        Matrix C(Config.MatmulN);
        matmulPar(Ctx, A, B, C, /*Cutoff=*/16);
        recordJob(0, Arrival, Start);
        if (Trace)
          Trace->done();
        return C.at(0, 0);
      });
      break;
    case 1:
      icilk::fcreate<Prio>(Rt, [this, Arrival, Trace](Context<Prio> &Ctx) {
        uint64_t Start = repro::nowMicros();
        uint64_t V = fibPar(Ctx, Config.FibN, /*Cutoff=*/16);
        recordJob(1, Arrival, Start);
        if (Trace)
          Trace->done();
        return V;
      });
      break;
    case 2:
      icilk::fcreate<Prio>(Rt, [this, Seed, Arrival,
                                Trace](Context<Prio> &Ctx) {
        uint64_t Start = repro::nowMicros();
        repro::Rng Local(Seed);
        std::vector<int64_t> Data(Config.SortN);
        for (auto &V : Data)
          V = static_cast<int64_t>(Local.next());
        msortPar(Ctx, Data, /*Cutoff=*/8192);
        recordJob(2, Arrival, Start);
        if (Trace)
          Trace->done();
        return Data.front();
      });
      break;
    default:
      icilk::fcreate<Prio>(Rt, [this, Seed, Arrival,
                                Trace](Context<Prio> &Ctx) {
        uint64_t Start = repro::nowMicros();
        repro::Rng Local(Seed);
        std::string A = randomSequence(Config.SwN, Local);
        std::string B = randomSequence(Config.SwN, Local);
        int Best = smithWatermanPar(Ctx, A, B, /*Tile=*/64);
        recordJob(3, Arrival, Start);
        if (Trace)
          Trace->done();
        return Best;
      });
      break;
    }
  }

  /// Runtime-level dispatch over the static priority types.
  void submitAt(std::size_t Type, unsigned Level, uint64_t Seed,
                uint64_t Arrival, const std::shared_ptr<JobTrace> &Trace) {
    switch (Level) {
    case 3:
      submitTyped<JobMatmul>(Type, Seed, Arrival, Trace);
      break;
    case 2:
      submitTyped<JobFib>(Type, Seed, Arrival, Trace);
      break;
    case 1:
      submitTyped<JobSort>(Type, Seed, Arrival, Trace);
      break;
    default:
      submitTyped<JobSw>(Type, Seed, Arrival, Trace);
      break;
    }
  }

  /// Admission control: true = reject this arrival. Only low-priority
  /// types are ever shed, and only while the aggregate queue depth is
  /// over the limit.
  bool shouldShed(std::size_t Type) {
    if (!Config.Shedding)
      return false;
    unsigned Level = 3 - static_cast<unsigned>(Type);
    if (Level > Config.ShedMaxLevel)
      return false;
    if (Rt.snapshot().totalPending() <= Config.ShedQueueDepth)
      return false;
    Shed[Type].fetch_add(1, std::memory_order_relaxed);
    if (LiveShed)
      LiveShed->add();
    return true;
  }

  bool offer(std::size_t Type) {
    uint64_t Arrival = repro::nowMicros();
    uint64_t Seed = nextSeed();
    unsigned Level = 3 - static_cast<unsigned>(Type);
    std::shared_ptr<JobTrace> Trace;
    if (Spans) {
      static const char *TraceNames[] = {"job.matmul", "job.fib", "job.sort",
                                         "job.sw"};
      Trace = std::make_shared<JobTrace>(
          *Spans, Spans->startTrace(TraceNames[Type], Level));
    }
    // Scope the root span over the offer so the admission controller's
    // decision events land on this job's trace.
    icilk::span::Scope TraceScope(Trace ? Trace->Root : icilk::span::current());
    if (Admission) {
      icilk::AdmitResult R = Admission->offer(
          Level, [this, Type, Seed, Arrival, Trace](unsigned AdmittedLevel) {
            // Queued entries dispatch on the controller thread; re-enter
            // the trace so the spawned task inherits the root span.
            icilk::span::Scope Sc(Trace ? Trace->Root
                                        : icilk::span::current());
            submitAt(Type, AdmittedLevel, Seed, Arrival, Trace);
          });
      if (R == icilk::AdmitResult::Degraded)
        Degraded[Type].fetch_add(1, std::memory_order_relaxed);
      if (R == icilk::AdmitResult::Rejected) {
        Shed[Type].fetch_add(1, std::memory_order_relaxed);
        if (LiveShed)
          LiveShed->add();
        return false;
      }
      return true;
    }
    if (shouldShed(Type)) {
      // The static predicate bypasses the admission controller, so record
      // the shed on the trace ourselves.
      if (Trace) {
        Spans->addEvent(Trace->Root, icilk::SpanEventKind::Reject, Level,
                        Level);
        Spans->noteFlags(Trace->Root, icilk::TfShed);
      }
      return false;
    }
    submitAt(Type, Level, Seed, Arrival, Trace);
    return true;
  }
};

JobServerEngine::JobServerEngine(const JobServerConfig &Config)
    : P(std::make_unique<Impl>(Config)) {}

JobServerEngine::~JobServerEngine() = default;

bool JobServerEngine::offer(std::size_t Type) { return P->offer(Type); }

bool JobServerEngine::shouldShed(std::size_t Type) {
  return P->shouldShed(Type);
}

icilk::Runtime &JobServerEngine::runtime() { return P->Rt; }

icilk::SpanStore *JobServerEngine::spans() { return P->Spans.get(); }

void JobServerEngine::drain() {
  if (P->Admission)
    P->Admission->quiesce();
  P->Rt.drain();
}

/// Injects one deliberate priority inversion: a matmul-level (highest)
/// task joins an sw-level (lowest) busy producer. Context::ftouch rejects
/// this at compile time — that is the Sec. 4.2 point — so the join goes
/// through touchFromOutside, the unchecked escape hatch, which still
/// suspends properly when called from a task fiber. The producer spins
/// long enough that the toucher reliably blocks, giving the profiler a
/// named FtouchOnLower instance to find.
void JobServerEngine::submitInversionPair() {
  icilk::Runtime &Rt = P->Rt;
  auto Producer = icilk::fcreate<JobSw>(Rt, [](Context<JobSw> &) {
    repro::spinFor(400);
    return 1;
  });
  icilk::fcreate<JobMatmul>(Rt, [&Rt, Producer](Context<JobMatmul> &) {
    return icilk::touchFromOutside(Rt, Producer);
  });
}

JobServerReport JobServerEngine::report(double WallMillis) {
  JobServerReport Report;
  Report.App =
      collectReport(P->Rt, {"sw", "sort", "fib", "matmul"}, WallMillis);
  uint64_t Total = 0;
  for (std::size_t I = 0; I < 4; ++I) {
    Report.JobsByType[I] = P->Counts[I].load();
    Report.JobsShed[I] = P->Shed[I].load();
    Report.JobsDegraded[I] = P->Degraded[I].load();
    {
      std::lock_guard<std::mutex> Lock(P->JobLatencyMutex);
      Report.JobResponse[I] = P->JobResponse[I].summary();
      Report.JobCompute[I] = P->JobCompute[I].summary();
    }
    Total += Report.JobsByType[I];
  }
  Report.App.Requests = Total;
  if (P->Admission) {
    Report.Admission = P->Admission->sampleAdmission();
    // Queue timeouts shed after offer() returned; fold them into the
    // report's per-type shed view (admission levels map back to types).
    for (unsigned L = 0; L < Report.Admission.Levels.size() && L < 4; ++L)
      Report.JobsShed[3 - L] += Report.Admission.Levels[L].TimedOut;
  }
  if (repro::MetricsRegistry *M = P->Config.Metrics) {
    sampleAppMetrics(M, P->Rt, /*Io=*/nullptr, Report.App, "jobserver");
    static const char *TypeNames[] = {"matmul", "fib", "sort", "sw"};
    for (std::size_t I = 0; I < 4; ++I) {
      M->counter(std::string("jobserver.jobs.") + TypeNames[I])
          .set(Report.JobsByType[I]);
      M->counter(std::string("jobserver.shed.") + TypeNames[I])
          .set(Report.JobsShed[I]);
      M->counter(std::string("jobserver.degraded.") + TypeNames[I])
          .set(Report.JobsDegraded[I]);
    }
    if (P->Spans) {
      icilk::SpanStore::Stats S = P->Spans->stats();
      M->counter("jobserver.traces_started").set(S.Started);
      M->counter("jobserver.traces_finished").set(S.Finished);
      M->counter("jobserver.traces_retained").set(S.Retained);
      M->counter("jobserver.traces_tail_kept").set(S.TailKept);
    }
  }
  return Report;
}

JobServerReport runJobServer(const JobServerConfig &Config) {
  JobServerEngine Engine(Config);
  TelemetryScope Telemetry(Engine.runtime(), Config.TelemetryPort,
                           Config.TelemetryPortOut, Config.Metrics,
                           /*TrackIo=*/nullptr, Config.Slos);
  if (Telemetry.get() && Engine.spans())
    Telemetry.get()->trackSpans(Engine.spans());
  repro::Rng DriverRng(Config.Seed);

  double MixTotal = 0;
  for (double W : Config.Mix)
    MixTotal += W;

  uint64_t Epoch = repro::nowMicros();
  uint64_t Horizon = Config.DurationMillis * 1000;
  uint64_t NextAt = 0;
  unsigned Injected = 0;
  while (true) {
    // Spread the requested inversion injections evenly over the horizon.
    while (Injected < Config.InjectInversions &&
           NextAt * (Config.InjectInversions + 1) >= Horizon * (Injected + 1)) {
      Engine.submitInversionPair();
      ++Injected;
    }
    NextAt += static_cast<uint64_t>(
                  DriverRng.nextExponential(1.0 / Config.ArrivalIntervalMicros)) +
              1;
    if (NextAt >= Horizon)
      break;
    sleepUntilMicros(Epoch, NextAt);
    double Roll = DriverRng.nextDouble() * MixTotal;
    std::size_t Type = 3;
    if ((Roll -= Config.Mix[0]) < 0)
      Type = 0;
    else if ((Roll -= Config.Mix[1]) < 0)
      Type = 1;
    else if ((Roll -= Config.Mix[2]) < 0)
      Type = 2;
    Engine.offer(Type);
  }
  // A coarse arrival step can overshoot the remaining injection marks;
  // make good on the requested count before draining.
  for (; Injected < Config.InjectInversions; ++Injected)
    Engine.submitInversionPair();
  Engine.drain();

  double WallMillis = static_cast<double>(repro::nowMicros() - Epoch) / 1000.0;
  return Engine.report(WallMillis);
}

} // namespace repro::apps
