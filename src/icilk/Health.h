//===- icilk/Health.h - Always-on runtime health plane ----------*- C++ -*-===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// The question the rest of the observability stack cannot answer is the
// operator's first one: *is the scheduler healthy right now, and if not,
// why?* Metrics show symptoms, traces show individual requests, but
// neither volunteers "level 2 has been starved for 300 ms" or "worker 5
// has been running the same task for two seconds". This header is that
// layer — an always-on watcher cheap enough to never turn off:
//
//  1. A wall-clock sampling profiler. Every worker publishes a seqlock-
//     guarded status line (state / level / task / span, see
//     Runtime::WorkerStatus); a watcher thread samples all of them at
//     ~97 Hz (prime, so it does not beat against the 500 µs master
//     quantum or 1 s telemetry epochs) and aggregates per-level ×
//     per-state time plus a folded-stack profile at task-kind
//     granularity — flamegraph-ready via profileFolded().
//
//  2. A starvation/stall doctor. Each tick it cross-examines the sampled
//     statuses against Runtime::snapshot() and emits *verdicts* — typed,
//     human-readable diagnoses ("level 1 starved", "worker 3 stalled",
//     "injection ring at watermark", "admission clamped below offer
//     rate") with severities that roll up into ok|degraded|critical.
//
//  3. An SLO burn-rate engine. Declarative SloConfig targets are
//     evaluated against the telemetry plane's windowed latency
//     histograms using the two-window burn-rate rule (fraction of
//     requests over target, divided by the error budget, over a fast and
//     a slow window): both windows burning means the budget is being
//     spent faster than it accrues — a page, not a glance.
//
// The profiler's overhead budget is strict: workers pay only a handful of
// relaxed stores at state *transitions* (never per steal-scan iteration),
// and the watcher is one thread doing ~97 × NumWorkers seqlock reads per
// second. BM_HealthOverhead in bench/micro_runtime.cpp holds the
// regression under 3%.
//
// Telemetry (Telemetry.h) owns a Health instance and serves it at
// GET /health.json, /profile.json and /profile.folded; this class is
// independently constructible for tests and embedders.
//
//===----------------------------------------------------------------------===//

#ifndef REPRO_ICILK_HEALTH_H
#define REPRO_ICILK_HEALTH_H

#include "icilk/Runtime.h"
#include "support/Histogram.h"
#include "support/Json.h"

#include <array>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace repro::icilk {

class SpanStore;

/// One latency objective: "p99 of level \p Level stays under
/// \p P99TargetMicros for \p Objective of requests". The target names the
/// p99 because that is the paper's headline metric, but the burn rate is
/// computed from the full tail (fraction of requests over target), so the
/// objective composes: Objective=0.99 means 1% of requests may exceed the
/// target before the budget burns at rate 1.0.
struct SloConfig {
  int Level = 0;
  double P99TargetMicros = 0;
  double Objective = 0.99; ///< fraction of requests that must meet target
};

/// Health plane knobs. The defaults are deliberately opinionated — the
/// point of an always-on doctor is that nobody tunes it before the
/// incident.
struct HealthConfig {
  /// Watcher sampling frequency. Prime by default so the sampler never
  /// phase-locks with the master quantum (500 µs) or epoch rotation (1 s).
  double SampleHz = 97.0;
  /// A level with pending work and zero completions for this long is
  /// starved (critical).
  uint64_t StarvedAfterMillis = 100;
  /// A worker running the same task slice for this long is stalled
  /// (critical) — a runaway or blocked-in-native-code task.
  uint64_t StalledTaskMillis = 500;
  /// A worker stealing for this long while work is pending somewhere is
  /// stalled (warn) — points at deque/ring starvation, not idleness.
  uint64_t StalledStealMillis = 500;
  /// Admission clamp held below the observed offer rate for longer than
  /// this raises the admission-clamped verdict (warn).
  uint64_t ClampAlarmMillis = 1000;
  /// Shed and ring-watermark verdicts are held visible this long after
  /// the last observed occurrence, so a 97 Hz-sampled burst is not missed
  /// between two /health.json polls.
  uint64_t ShedHoldMillis = 3000;
  /// SLO burn windows, in telemetry epochs: the fast window is the last
  /// \p SloFastEpochs epochs, the slow window is \p SloSlowEpochs
  /// (0 = the whole retained window).
  unsigned SloFastEpochs = 2;
  unsigned SloSlowEpochs = 0;
  /// Burn-rate thresholds for the slo-burn verdict: both windows must
  /// exceed theirs (the SRE two-window rule — fast confirms it is
  /// happening *now*, slow confirms it is not a blip).
  double FastBurnThreshold = 2.0;
  double SlowBurnThreshold = 1.0;
  /// Folded-profile cardinality cap; overflow collapses into "all;other".
  std::size_t MaxFoldedEntries = 256;
  /// Latency objectives to evaluate (empty = engine idle).
  std::vector<SloConfig> Slos;
};

/// One diagnosis from the doctor. Kind is a stable machine-matchable
/// token ("starved", "worker-stalled", "ring-watermark",
/// "admission-clamped", "shed", "slo-burn"); Detail is the human
/// sentence.
struct HealthVerdict {
  std::string Kind;
  std::string Severity; ///< "warn" | "critical"
  std::string Detail;
  int Level = -1;  ///< priority level concerned, -1 if none
  int Worker = -1; ///< worker concerned, -1 if none
  uint64_t ForMillis = 0; ///< how long the condition has held
};

/// One SLO's current burn state (exported even when not alerting, so
/// dashboards can graph the approach to the threshold).
struct SloBurnSample {
  int Level = 0;
  double TargetMicros = 0;
  double Objective = 0.99;
  double FastBurn = 0; ///< budget-burn multiple over the fast window
  double SlowBurn = 0; ///< ... over the slow window
  uint64_t FastCount = 0; ///< samples in the fast window
  uint64_t SlowCount = 0;
};

/// The doctor's full answer, as returned by Health::report().
struct HealthReport {
  std::string Status = "ok"; ///< "ok" | "degraded" | "critical"
  std::vector<HealthVerdict> Verdicts;
  std::vector<SloBurnSample> Slo;
  std::vector<WorkerStatus> Workers; ///< last sampled status per worker
  uint64_t Samples = 0;              ///< watcher ticks taken so far
  double SampleHz = 0;
};

/// Where the SLO engine reads windowed latency tails from. Implemented by
/// Telemetry over its per-level latency windows (Telemetry::windowTail);
/// tests implement it directly to seed arbitrary tails. Must be
/// thread-safe: the watcher calls it from its own thread.
class LatencyWindowSource {
public:
  virtual ~LatencyWindowSource() = default;
  virtual unsigned levels() const = 0;
  /// Observations of the last \p LastEpochs epochs for \p Level
  /// (0 = all retained epochs).
  virtual LatencyHistogram windowTail(unsigned Level,
                                      unsigned LastEpochs) const = 0;
  virtual unsigned epochs() const = 0;
  virtual uint64_t epochMillis() const = 0;
};

/// The health plane: wall-clock sampling profiler + starvation doctor +
/// SLO burn-rate engine over one Runtime. The Runtime must outlive this
/// object, and stop() (or destruction) must happen before the Runtime
/// shuts down.
class Health {
public:
  explicit Health(Runtime &Rt, HealthConfig Config = {});
  ~Health();

  Health(const Health &) = delete;
  Health &operator=(const Health &) = delete;

  /// Starts the watcher thread; idempotent.
  void start();
  /// Stops it; idempotent, called by the destructor.
  void stop();

  /// Attaches a span store so the profiler can label Running/InIo samples
  /// with the active trace's root-span name (task kind), and the doctor's
  /// detail strings can cite trace ids. nullptr detaches. Thread-safe.
  void trackSpans(SpanStore *Store);

  /// Attaches the windowed-latency source the SLO engine evaluates
  /// against. nullptr detaches (slo-burn goes quiet). \p Source must
  /// outlive this object or be detached first. Thread-safe.
  void trackWindows(const LatencyWindowSource *Source);

  /// Current diagnosis (thread-safe; returns the last completed tick's
  /// verdicts plus live SLO burn numbers).
  HealthReport report() const;

  /// /health.json body: schema "icilk-health-v1".
  json::Value healthJson() const;

  /// /profile.json body: schema "icilk-health-profile-v1" — per-level ×
  /// per-state sampled time and the folded profile with counts.
  json::Value profileJson() const;

  /// Collapsed-stack text (one "frame;frame count" line per entry),
  /// feedable straight into flamegraph.pl / speedscope.
  std::string profileFolded() const;

  /// Watcher ticks taken so far (tests use this to wait for coverage).
  uint64_t samples() const;

  /// Runs one sampling+diagnosis tick synchronously (tests drive the
  /// doctor deterministically without the thread; safe alongside start()
  /// though real users pick one or the other).
  void tickForTest();

  const HealthConfig &config() const { return Config; }

private:
  struct StarveEpisode {
    bool Open = false;
    uint64_t StartNanos = 0;
    uint64_t CompletedAtStart = 0;
  };

  void watcherLoop();
  void tick(uint64_t NowNanos);
  /// Task-kind label for a running span, via the attached SpanStore with
  /// a bounded memo (caller holds StateMutex).
  std::string taskKind(uint64_t SpanTraceLo);
  void noteFolded(const std::string &Key, uint64_t Count);
  std::vector<SloBurnSample> evaluateSlos() const;

  Runtime &Rt;
  HealthConfig Config;
  std::atomic<SpanStore *> Spans{nullptr};
  std::atomic<const LatencyWindowSource *> Windows{nullptr};

  /// Everything the watcher writes and readers render, one lock: the
  /// watcher holds it ~97×/s for microseconds, readers only on HTTP
  /// polls.
  mutable std::mutex StateMutex;
  uint64_t SampleCount = 0;
  uint64_t LastTickNanos = 0;
  /// [level][state] → sampled nanos (level index NumLevels = untracked).
  std::vector<std::array<uint64_t, 4>> StateNanos;
  std::map<std::string, uint64_t> Folded; ///< folded stack → sample count
  std::unordered_map<uint64_t, std::string> KindMemo;
  std::vector<WorkerStatus> LastStatus;
  std::vector<HealthVerdict> Verdicts;
  std::vector<StarveEpisode> Starve;
  uint64_t LastShed = 0;
  uint64_t LastShedSeenNanos = 0;
  uint64_t LastShedDelta = 0;
  uint64_t LastInjectionFullSpins = 0;
  uint64_t LastRingSeenNanos = 0;
  int LastRingLevel = -1;

  std::thread Watcher;
  std::mutex WatcherMutex;
  std::condition_variable WatcherCv;
  bool StopWatcher = false;
  bool Started = false;
};

} // namespace repro::icilk

#endif // REPRO_ICILK_HEALTH_H
