//===- icilk/Admission.h - Closed-loop overload admission control *- C++ -*-===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// The paper's Theorem 2.3 bounds high-priority response times *given* a
// well-formed computation; it says nothing about arrival rates past
// saturation, where no schedule can help and the runtime must shed load
// instead (the cooperative/competitive split of "Competitive Parallelism:
// Getting Your Priorities Right"). This layer closes the loop between the
// static shedding of the first robustness pass (a fixed ShedMaxLevel
// against a fixed queue-depth constant) and the live telemetry sampler:
//
//   * per-priority-level *admission queues* sit in front of the runtime's
//     injection rings, each with a queue cap and a token-bucket rate
//     limiter;
//   * shed decisions are reject (queue full, no way down), degrade
//     (re-admit at a lower priority level, so the request is still served
//     at background urgency), or timeout-in-queue (an entry that waited
//     past its deadline is expired by the Io backend's deadline heap without
//     ever touching the scheduler);
//   * a feedback controller drives the per-level token rates from the
//     runtime's own symptoms: windowed response-time p99 per level (the
//     runtime's latency histograms read through LatencyWindows, the same
//     mechanism the telemetry windows use),
//     injection-ring pressure (injection_full_spins deltas), and aggregate
//     ready-queue depth. Under overload it clamps the lowest levels first
//     and walks upward; after enough healthy ticks the clamps decay away.
//
// The controller publishes its counters through Runtime::setAdmission, so
// snapshot(), /metrics, and /snapshot.json expose offered/admitted/shed
// per level, queue delays, and the live rates while a run is melting down.
//
// Threading: offer() may be called from any thread (it is the arrival
// path); dispatch and adaptation run on one controller thread every
// ControlIntervalMillis; queue timeouts fire from the Io backend's timer
// thread. One mutex guards the queues and buckets — this is the per-
// *request* admission path (thousands per second), not the per-*task*
// spawn path (millions), so a mutex is the right tool.
//
//===----------------------------------------------------------------------===//

#ifndef REPRO_ICILK_ADMISSION_H
#define REPRO_ICILK_ADMISSION_H

#include "icilk/Io.h"
#include "icilk/Runtime.h"
#include "support/Histogram.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace repro::icilk {

class SimIo;

/// Knobs of the overload controller. Defaults suit the app case studies
/// (requests measured in milliseconds); benchmarks override freely.
struct AdmissionConfig {
  /// Controller cadence: token refill, queue dispatch, and threshold
  /// adaptation all happen on this tick.
  uint64_t ControlIntervalMillis = 20;
  /// Per-level admission-queue capacity; an arrival finding its level's
  /// queue full is degraded or rejected. Bounds queue growth by
  /// construction (NumLevels × QueueCap entries at worst).
  std::size_t QueueCap = 512;
  /// An entry still queued after this long is shed (TimedOut) by a sweep
  /// scheduled on the Io backend's deadline heap. 0 disables timeouts.
  uint64_t QueueTimeoutMicros = 100000;
  /// Full queues try the next lower level before rejecting (the request is
  /// served late rather than never). The top level never degrades *into*
  /// — degraded work only moves down.
  bool AllowDegrade = true;
  /// Token buckets: initial per-level rate (0 = unlimited until the
  /// controller clamps), bucket depth, and the adaptation floor — a
  /// clamped level never drops below MinRatePerSec, so no level starves
  /// entirely.
  double InitialRatePerSec = 0;
  double BurstTokens = 32;
  double MinRatePerSec = 20;
  /// Feedback inputs. Overload is declared when the busiest high level's
  /// windowed p99 exceeds TargetP99Micros, when injection_full_spins grew
  /// since the last tick, or when the runtime's aggregate ready depth
  /// exceeds PendingHighWatermark.
  double TargetP99Micros = 20000;
  int64_t PendingHighWatermark = 256;
  /// Multiplicative clamp/recovery factors and the number of consecutive
  /// healthy ticks before clamps start decaying.
  double Decrease = 0.5;
  double Increase = 1.25;
  unsigned HealthyTicks = 5;
  /// Rate a level is first clamped to, as a multiple of its recently
  /// *observed* admit rate (so the first clamp bites immediately instead
  /// of starting from an arbitrary constant).
  double FirstClampFactor = 0.7;
  /// Length of the controller's own latency windows (independent of any
  /// telemetry attached to the same runtime).
  uint64_t EpochMillis = 500;
  unsigned WindowEpochs = 4;
};

/// The admission knobs every server app embeds (proxy, email, job server):
/// one switch plus the controller config, so app configs stop growing
/// parallel `bool AdmissionControl` / `AdmissionConfig Admission` pairs
/// that drift apart.
struct AdmissionSettings {
  /// Attach an AdmissionController in front of the app's arrival path.
  bool Enabled = false;
  /// Controller knobs, used only when Enabled.
  AdmissionConfig Config{};
};

/// Outcome of one offer() call, from the *caller's* point of view.
enum class AdmitResult {
  Admitted, ///< submitted inline (token available, queue empty)
  Enqueued, ///< waiting in the admission queue; will be submitted or shed
  Degraded, ///< accepted, but at a lower priority level than requested
  Rejected, ///< shed outright — the submit callback will never run
};

/// Closed-loop admission controller in front of \p Rt's injection rings.
/// Construct it around a running Runtime; it attaches itself as the
/// runtime's AdmissionView and detaches on destruction.
class AdmissionController : public AdmissionView {
public:
  /// \p Io backs queue timeouts (its deadline heap — any Io backend
  /// works, only submitTimer is used); when null the controller owns a
  /// private SimIo. \p Rt and \p Io (when given) must outlive the
  /// controller.
  AdmissionController(Runtime &Rt, AdmissionConfig Config = {},
                      Io *Io = nullptr);
  ~AdmissionController() override;

  AdmissionController(const AdmissionController &) = delete;
  AdmissionController &operator=(const AdmissionController &) = delete;

  /// The submit callback: invoked at most once, with the level the request
  /// was actually admitted at (== requested, or lower when degraded). It
  /// runs inline on the offering thread (fast path), on the controller
  /// thread (queued dispatch), or never (shed).
  using SubmitFn = std::function<void(unsigned Level)>;

  /// Offers one arrival at \p Level. Decides admit/queue/degrade/reject
  /// under the current rates and queue depths; Enqueued entries are later
  /// submitted by the dispatcher or shed by the queue-timeout sweep.
  AdmitResult offer(unsigned Level, SubmitFn Submit);

  /// Blocks until every queue is empty (entries submitted or shed). For
  /// drivers that want to drain the runtime afterwards without racing
  /// queued submissions. Returns false on a 10 s safety timeout.
  bool quiesce();

  /// Stops the controller thread and sheds (rejects) everything still
  /// queued; called by the destructor. Idempotent.
  void stop();

  /// The runtime-facing stats view (also reachable via
  /// Runtime::snapshot().Admission while attached).
  AdmissionSample sampleAdmission() const override;

  const AdmissionConfig &config() const { return Config; }

private:
  struct Entry {
    SubmitFn Submit;
    unsigned Level;            ///< level it will be submitted at
    unsigned OriginalLevel;    ///< level the caller asked for
    uint64_t EnqueuedMicros;
    uint64_t DeadlineMicros;   ///< 0 = no queue timeout
    SpanContext Span;          ///< offering thread's span (invalid = none)
  };

  /// Per-level queue + token bucket + counters. Counters are plain
  /// uint64_t under the controller mutex (the admission path already
  /// holds it).
  struct Level {
    std::deque<Entry> Queue;
    double Tokens = 0;
    double RatePerSec = 0;        ///< 0 = unlimited
    double ObservedOfferRate = 0; ///< EMA of offers/sec; anchors the first
                                  ///< clamp and the unclamp condition
    uint64_t ClampedSinceMicros = 0; ///< when the controller first clamped
                                     ///< this level (0 = unclamped) — the
                                     ///< doctor's clamp-duration input
    uint64_t OfferedThisTick = 0;
    uint64_t Offered = 0, Admitted = 0, Degraded = 0, Rejected = 0,
             TimedOut = 0;
  };

  void controllerLoop();
  /// One controller tick: read latency windows, adapt rates, refill
  /// buckets, dispatch queues.
  void tick();
  /// Rotates the windows on schedule and reads each level's windowed p99
  /// and count. Never called with Mutex held.
  void readWindows();
  /// Clamp/recover the per-level rates from the current symptoms.
  /// Caller holds Mutex; \p InjectionDelta and \p TotalPending were read
  /// outside the lock. \p NowMicros stamps clamp-start times.
  void adaptLocked(uint64_t InjectionDelta, int64_t TotalPending,
                   uint64_t NowMicros);
  /// Admits queued entries (highest level first) while tokens last;
  /// returns the submissions to run outside the lock.
  std::vector<Entry> drainLocked(uint64_t NowMicros);
  /// Expires queued entries past their deadline; returns how many.
  std::size_t sweepTimeoutsLocked(uint64_t NowMicros);
  /// Arms (or re-arms) the deadline-heap sweep for the earliest queued
  /// deadline. Caller holds Mutex.
  void armTimeoutSweepLocked(uint64_t NowMicros);
  /// True when a token is available at \p L (and consumes it).
  bool takeTokenLocked(Level &L);

  Runtime &Rt;
  AdmissionConfig Config;
  icilk::Io *Io;                        ///< timeout backing (never null
                                        ///< after construction)
  std::unique_ptr<SimIo> OwnedIo;       ///< set when no Io was supplied

  /// Timer callbacks (queue-timeout sweeps) outlive any single object's
  /// lifetime guarantees — a sweep may still sit on the deadline heap when
  /// the controller dies. They go through this gate: the destructor nulls
  /// Owner under the gate's mutex, after which late sweeps are no-ops.
  struct SweepGate {
    std::mutex M;
    AdmissionController *Owner = nullptr;
  };
  std::shared_ptr<SweepGate> Gate;
  void onSweepTimer();

  mutable std::mutex Mutex;
  std::vector<Level> Levels;
  uint64_t LastRefillMicros;
  uint64_t ArmedSweepMicros = 0;        ///< deadline of the armed sweep
                                        ///< (0 = none armed)
  unsigned HealthyStreak = 0;
  unsigned ClampDepth = 0;              ///< levels 0..ClampDepth-1 clamped
  uint64_t LastInjectionSpins = 0;

  /// Controller inputs: windowed response latency per level, over the
  /// runtime's own histograms.
  std::vector<std::unique_ptr<repro::LatencyWindows>> Windows;
  std::vector<double> WindowP99;        ///< last read's p99 per level
                                        ///< (guarded by Mutex)
  std::vector<uint64_t> WindowCount;    ///< last read's sample count per
                                        ///< level (guarded by Mutex)
  uint64_t LastRotateMicros;

  /// Queue delays (enqueue → dispatch) for shed-story telemetry. Guarded
  /// by Mutex.
  repro::LatencyHistogram QueueDelay;

  std::thread Controller;
  std::mutex ControllerMutex;
  std::condition_variable ControllerCv;
  std::condition_variable QuiesceCv;
  bool StopFlag = false;
};

} // namespace repro::icilk

#endif // REPRO_ICILK_ADMISSION_H
