//===- icilk/Runtime.h - Two-level adaptive work-stealing runtime *- C++ -*-===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// The I-Cilk runtime scheduler (Sec. 4.3): a fixed pool of worker threads
// scheduled in two levels.
//
//  * Second level: one work-stealing scheduler per priority level — each
//    worker owns a Chase–Lev deque per level, plus a per-level injection
//    queue for cross-level and external spawns. Like Cilk-F's *proactive*
//    work stealing, a task blocked on an ftouch *suspends* (its ucontext
//    fiber parks on the future's waiter list) and the worker goes back to
//    scheduling; completing the future requeues the waiters. Suspension —
//    not helping — is essential: futures wait on non-descendants (the
//    email app's print/compress chains), which deadlocks any
//    run-on-the-blocked-stack scheme.
//
//  * Top level: a master thread re-evaluates the cores-to-level assignment
//    every scheduling quantum (default 500 µs) from each level's reported
//    *desire*, granted strictly in priority order. A level's desire adapts
//    multiplicatively (growth parameter γ, default 2) against a utilization
//    threshold (default 90%), following A-STEAL: high utilization and a
//    satisfied desire → grow; high utilization, unsatisfied → hold; low
//    utilization → shrink.
//
// With PriorityAware=false the same runtime degrades to the paper's
// baseline, Cilk-F: a single work-stealing pool that ignores priorities
// (levels are still recorded for measurement).
//
// Hot-path design (see DESIGN.md, "Hot-path costs"): Task objects and
// fiber stacks are slab-recycled (per-worker caches over mutex-guarded
// global free lists) instead of new/deleted per spawn; each completion
// records its latencies into the finishing worker's own histogram shards,
// which readers merge;
// a worker whose full scan finds nothing *parks* on a futex event count
// at once (no spin phase), woken by enqueue/resume;
// shared per-level counters each own a cache line and thieves start their
// victim scan at a per-worker random offset.
//
//===----------------------------------------------------------------------===//

#ifndef REPRO_ICILK_RUNTIME_H
#define REPRO_ICILK_RUNTIME_H

#include "conc/CacheLine.h"
#include "conc/ChaseLevDeque.h"
#include "conc/EventCount.h"
#include "conc/MpmcQueue.h"
#include "conc/StackPool.h"
#include "icilk/Future.h"
#include "icilk/QueuePlane.h"
#include "icilk/Task.h"
#include "support/Histogram.h"
#include "support/Random.h"

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace repro {
class MetricsRegistry;
} // namespace repro

namespace repro::icilk {

/// Scheduler knobs (paper defaults from Sec. 5.2).
struct RuntimeConfig {
  unsigned NumWorkers = 8;
  unsigned NumLevels = 4;
  /// false = Cilk-F baseline: one pool, priorities ignored for scheduling.
  bool PriorityAware = true;
  uint64_t QuantumMicros = 500;       ///< master scheduling quantum
  double UtilizationThreshold = 0.9;  ///< 90%
  double Growth = 2.0;                ///< γ
  /// Stall watchdog: if Outstanding > 0 with no completions for this
  /// many consecutive quanta, the master logs a diagnostic dump of the
  /// per-level queue depths (once per stall episode). 0 disables. Runs on
  /// the master thread, so it is active only in priority-aware multi-level
  /// runtimes. Default: 2000 quanta ≈ 1 s at the default quantum.
  unsigned WatchdogQuanta = 2000;
  /// Capacity of each per-level external-injection ring. Overruns spill to
  /// an unbounded mutex-guarded overflow list (counted in snapshot()).
  /// Small values are for tests; the default never overflows in practice.
  std::size_t InjectionCapacity = 1 << 16;
  /// Worker-local LIFO next-task slot: a worker-side fcreate parks the
  /// child in the parent's slot (unstealable, no shared-queue traffic) so
  /// it runs next on the still-hot cache. The consumption-side promptness
  /// guard flushes the slot whenever a strictly higher level has pending
  /// work, so the slot can delay but never starve a higher priority.
  bool NextSlotEnabled = true;
  /// Upper bound on tasks a thief transfers per steal operation
  /// (ChaseLevDeque::stealHalf takes up to half the victim's queue, capped
  /// here). 1 degrades to classic single-task stealing. Hard cap 64.
  unsigned StealBatchMax = 16;
  /// Tiered victim scans: exhaust same-socket victims before crossing a
  /// socket boundary. Automatically flat (one tier) on single-socket
  /// machines or when the topology is unknown.
  bool LocalityTiers = true;
};

/// The per-task latencies the runtime records at every completion, per
/// priority level (Figs. 13–14 report summaries of these). Microseconds.
enum class LatencyKind : unsigned {
  Response,  ///< creation → completion
  Compute,   ///< first dispatch → completion
  QueueWait, ///< creation → first dispatch
};

/// What a worker is doing right now, as published in its seqlock-guarded
/// status line and sampled by the health plane (icilk/Health.h).
enum class WorkerState : uint8_t {
  Stealing = 0, ///< scanning deques/rings for work (nothing running)
  Running = 1,  ///< executing a task's fiber slice
  Parked = 2,   ///< asleep on the idle event count
  InIo = 3,     ///< last slice suspended on a future (typically I/O) and
                ///< no new work has been found since — the worker is
                ///< technically scanning, but its level is blocked
};

const char *workerStateName(WorkerState S);

/// One sampled copy of a worker's published status line (see
/// Runtime::sampleWorkerStatus). Task fields are meaningful for Running
/// and InIo; Level is the task's level then, the assigned level otherwise.
struct WorkerStatus {
  WorkerState State = WorkerState::Stealing;
  uint8_t Level = 0;
  uint32_t TaskRingId = 0;  ///< event-ring id of the task (0 = none)
  uint64_t SpanTraceLo = 0; ///< local trace id of the task's span (0 = none)
  uint64_t SinceNanos = 0;  ///< when this state was entered (repro::nowNanos)
};

/// Per-priority-level admission counters, as sampled from an attached
/// overload controller (icilk/Admission.h). All counters are cumulative
/// since the controller started.
struct AdmissionLevelSample {
  uint64_t Offered = 0;   ///< arrivals presented to the controller
  uint64_t Admitted = 0;  ///< submitted to the runtime at this level
  uint64_t Degraded = 0;  ///< arrivals at this level re-admitted lower
  uint64_t Rejected = 0;  ///< shed outright (queue full, no degrade path)
  uint64_t TimedOut = 0;  ///< shed by queue-timeout (deadline heap)
  int64_t Queued = 0;     ///< entries waiting in the admission queue now
  double RatePerSec = 0;  ///< live token-bucket rate (0 = unlimited)
  double WindowP99Micros = 0; ///< controller's windowed response p99 input
  double ObservedOfferRatePerSec = 0; ///< EMA of offers/sec at this level
  uint64_t ClampedForMicros = 0; ///< how long the controller has held this
                                 ///< level's clamp (0 = not clamped by the
                                 ///< controller) — the doctor's
                                 ///< "clamped below offer rate" input
};

/// One sample of an attached admission controller's observable state;
/// rides inside RuntimeSnapshot so /metrics and /snapshot.json tell the
/// shed/admit/queue-delay story during overload.
struct AdmissionSample {
  bool Attached = false;
  uint64_t Shed = 0;             ///< rejected + timed out, all levels
  uint64_t QueueDelayCount = 0;  ///< dispatched-after-queuing admissions
  double QueueDelayP99Micros = 0; ///< enqueue → dispatch delay p99
  unsigned ClampedLevels = 0;    ///< levels currently rate-limited
  std::vector<AdmissionLevelSample> Levels;
};

/// Implemented by the admission controller so the runtime's stats surface
/// can embed its counters without a dependency cycle (Runtime.h must not
/// include Admission.h).
class AdmissionView {
public:
  virtual ~AdmissionView() = default;
  virtual AdmissionSample sampleAdmission() const = 0;
};

/// One coherent sample of the runtime's observable state — the single
/// stats surface (Runtime::snapshot()) that replaced seven ad-hoc getters.
/// Fields are read individually with relaxed ordering, so across fields
/// the snapshot is approximate while tasks are in flight and exact once
/// the runtime is drained.
struct RuntimeSnapshot {
  uint64_t TasksExecuted = 0;  ///< tasks run to completion
  uint64_t TotalWorkNanos = 0; ///< Σ executed-slice wall time (suspended
                               ///< time excluded) — utilization numerator
  int64_t Outstanding = 0;     ///< submitted, not yet completed
  uint64_t StallsDetected = 0; ///< watchdog episodes (see WatchdogQuanta)
  uint64_t EventsDropped = 0;  ///< trace events lost to ring wrap, summed
                               ///< over every per-thread event ring
  uint64_t FtouchInversions = 0; ///< blocking ftouches of a lower-priority
                                 ///< future (live count; the profiler's
                                 ///< FtouchOnLower, seen as it happens)
  uint64_t DeadlineMisses = 0; ///< ftouchFor deadlines that beat the value
  uint32_t WorkersParked = 0;  ///< workers asleep on the idle event count
  uint64_t InjectionFullSpins = 0; ///< failed external tryPush attempts on
                                   ///< a full injection ring (each burst
                                   ///< ends in the overflow list, so the
                                   ///< submission still lands)
  uint64_t PoolStacksCreated = 0;  ///< fiber stacks allocated fresh
  uint64_t PoolStacksReused = 0;   ///< fiber stacks served from free lists
  uint64_t TasksRecycled = 0;      ///< Task objects returned to the slab
  uint64_t StealsSameSocket = 0;   ///< successful steals whose thief and
                                   ///< victim last ran on the same socket
                                   ///< (cpu→socket via /sys; unknown cpus
                                   ///< count here, the honest fallback)
  uint64_t StealsCrossSocket = 0;  ///< steals that crossed a socket
  uint64_t NextSlotHits = 0;       ///< tasks a worker ran straight from its
                                   ///< next-task slot (no shared queue
                                   ///< touched between fcreate and run)
  uint64_t BatchSteals = 0;        ///< steal operations that transferred
                                   ///< two or more tasks (stealHalf)
  uint64_t BatchStealTasks = 0;    ///< tasks moved by those batch steals
                                   ///< (kept + requeued on the thief)
  uint64_t AffinityHits = 0;       ///< hinted tasks placed where the hint
                                   ///< asked (next-slot or mailbox); a
                                   ///< hinted task that fell back to the
                                   ///< shared queues is not counted
  std::vector<int64_t> InjectionOverflow; ///< spill-list depth, per queue
                                          ///< level (nonzero = a ring is
                                          ///< past its watermark)
  std::vector<int64_t> Pending;    ///< queued (not running/suspended), per level
  std::vector<unsigned> Assigned;  ///< workers currently assigned, per level
  std::vector<double> Desires;     ///< master's current desire, per level
  AdmissionSample Admission;       ///< attached-controller counters (see
                                   ///< Attached; empty when none attached)

  /// Total queue depth — the admission-control signal (see apps/JobServer).
  int64_t totalPending() const {
    int64_t Sum = 0;
    for (int64_t P : Pending)
      Sum += P;
    return Sum;
  }
};

class Runtime {
public:
  explicit Runtime(RuntimeConfig Config = {});
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  const RuntimeConfig &config() const { return Config; }

  /// Makes a ready-to-submit Task for \p Body at \p Level, recycled from
  /// the slab when possible (worker-local cache, then global free list),
  /// freshly allocated otherwise. Internal: use fcreate (Context.h).
  Task *allocTask(std::function<void()> Body, unsigned Level);

  /// Schedules \p T (takes ownership; \p T must come from allocTask).
  /// Internal: use fcreate (Context.h).
  void submitTask(Task *T);

  /// Requeues a task that suspended on a future and is ready to continue.
  /// Called by whoever completes the future (workers, the I/O timer).
  void resumeTask(Task *T);

  /// Blocks the calling thread until every submitted task completed.
  /// Callable from non-worker threads only: a worker draining would spin
  /// on work only it can run, so the call fails fast (logged error +
  /// abort) instead of deadlocking silently.
  void drain();

  /// Stops workers and the master after the current tasks finish; called by
  /// the destructor. Outstanding queued tasks are still executed first.
  void shutdown();

  /// Every \p Kind latency of the tasks completed at \p Level so far:
  /// the workers' shards, merged. Memory is fixed at construction.
  repro::LatencyHistogram latency(unsigned Level, LatencyKind Kind) const;

  /// Tasks completed at \p Level so far (the shards' counts; cheap).
  uint64_t completed(unsigned Level) const;

  /// One coherent sample of every observable scheduler quantity — the
  /// stats API. Replaces the deprecated per-field getters below.
  RuntimeSnapshot snapshot() const;

  /// Dumps the current snapshot plus the per-level latency histograms
  /// into \p M as "<Prefix>.*" counters/gauges/histograms (see
  /// support/Metrics.h); each call replaces the previous values. Intended
  /// at run boundaries, not per task.
  void sampleMetrics(repro::MetricsRegistry &M,
                     const std::string &Prefix = "runtime") const;

  /// True when the calling thread is one of this runtime's workers.
  bool onWorkerThread() const;

  /// Index of the calling worker thread within this runtime, or -1 when
  /// called from any other thread. Tests use this to assert affinity
  /// hints landed where they pointed.
  int currentWorkerIndex() const;

  /// Reads worker \p Index's published status line (seqlock-consistent:
  /// the snapshot is retried while the worker is mid-publish). Returns
  /// false only when \p Index is out of range. Safe from any thread; this
  /// is the health watcher's 97 Hz sampling surface.
  bool sampleWorkerStatus(unsigned Index, WorkerStatus &Out) const;

  /// Live-counter hooks, fed by the touch paths (Context.h): a blocking
  /// ftouch on a lower-priority future (a priority inversion at the moment
  /// it bites) and a deadline touch that timed out. Lock-free; snapshot()
  /// reports both.
  void noteInversionBlock() {
    FtouchInversions.fetch_add(1, std::memory_order_relaxed);
  }
  void noteDeadlineMiss() {
    DeadlineMisses.fetch_add(1, std::memory_order_relaxed);
  }

  /// Attaches (or detaches, with nullptr) an admission controller's stats
  /// view; snapshot() embeds its counters while attached (which is how
  /// telemetry's /metrics and /snapshot.json surface the shed story). The
  /// view must outlive the attachment — the controller detaches itself in
  /// its destructor.
  void setAdmission(const AdmissionView *A) {
    AdmissionStats.store(A, std::memory_order_release);
  }
  const AdmissionView *admission() const {
    return AdmissionStats.load(std::memory_order_acquire);
  }

  /// Attaches (or detaches, with nullptr) an execution-trace recorder;
  /// fcreate/ftouch record spawn/touch events — and every suspension/
  /// resumption at a blocking ftouch — while one is attached. The recorder
  /// must outlive the attachment. Structural tracing here is independent
  /// of the scheduler event ring (trace::enable, EventRing.h); see Trace.h
  /// for how the two relate.
  void setTrace(class TraceRecorder *T) {
    Trace.store(T, std::memory_order_release);
  }
  class TraceRecorder *trace() const {
    return Trace.load(std::memory_order_acquire);
  }

  /// Attaches (or detaches, with nullptr) a request-tracing span store
  /// (SpanStore.h). While attached, fcreate propagates the creator's
  /// active span onto new tasks/states, deadline expiries mark the
  /// toucher's trace, and the admission controller records its decisions
  /// as span events. The store must outlive the attachment.
  void setSpans(class SpanStore *S) {
    Spans.store(S, std::memory_order_release);
  }
  class SpanStore *spans() const {
    return Spans.load(std::memory_order_acquire);
  }

private:
  struct Worker {
    Worker(unsigned Index, unsigned Levels)
        : Index(Index), StealRng(0x51ab5000 + Index), Latency(Levels) {}
    const unsigned Index; ///< position in Workers
    /// The two cross-thread-hot atomics each own a cache line:
    /// AssignedLevel is master-written and polled by the worker every
    /// scan; WorkNanos is worker-written per task and harvested by the
    /// master every quantum. Packed together (or with the cold fields)
    /// they false-share.
    alignas(conc::CacheLineBytes) std::atomic<unsigned> AssignedLevel{0};
    alignas(conc::CacheLineBytes) std::atomic<uint64_t> WorkNanos{0};
    /// Seqlock-guarded status line, written only by the owning worker at
    /// state transitions (task start/end, park/unpark) and sampled by the
    /// health watcher. Seq goes odd before the payload writes and even
    /// after; payload fields are relaxed atomics so a torn read is
    /// impossible and the cross-thread access is race-free. Owns its
    /// cache line: the watcher's reads must not bounce the scheduler's
    /// hot atomics.
    struct alignas(conc::CacheLineBytes) StatusLine {
      std::atomic<uint32_t> Seq{0};
      std::atomic<uint8_t> State{0}; ///< WorkerState
      std::atomic<uint8_t> Level{0};
      std::atomic<uint32_t> TaskRingId{0};
      std::atomic<uint64_t> SpanTraceLo{0};
      std::atomic<uint64_t> SinceNanos{0};
    };
    StatusLine Status;
    /// CPU this worker last observed itself on (sched_getcpu in runTask;
    /// -1 before the first task) — the steal-locality counters' victim
    /// side and the tiered victim scan's socket oracle.
    std::atomic<int> LastCpu{-1};
    /// Affinity mailbox: a one-deep cross-worker delivery box for tasks
    /// hinted at this worker. Producers CAS nullptr→task (an occupied box
    /// is "pressure" — the hint is dropped and the task takes the shared
    /// path; a parked owner is not, it went idle microseconds ago and is
    /// woken); only the owning worker clears it. ParkedFlag is the Dekker
    /// flag for delivery-vs-park: the owner raises it (seq_cst) *before*
    /// registering on the idle event count and re-checks the mailbox; a
    /// producer that sees it raised after a successful CAS rings
    /// notifyAll. Either the owner's re-check sees the task or the
    /// producer's re-read sees the flag — under SC one of the two loads
    /// is last, so no delivery is ever parked past. Shares a line: the
    /// two are always touched together, by both sides.
    alignas(conc::CacheLineBytes) std::atomic<Task *> Mailbox{nullptr};
    std::atomic<bool> ParkedFlag{false};
    /// The LIFO next-task slot (worker-private; no synchronization):
    /// holds at most one task, run before any queue is consulted unless
    /// the promptness guard flushes it. NextSlotLevel mirrors the
    /// occupant's level so the guard and displacement policy need not
    /// dereference the task.
    Task *NextSlot = nullptr;
    unsigned NextSlotLevel = 0;
    /// Scheduler-loop-private state, no synchronization: where this
    /// worker's victim scans start, and its stack-/task-slab caches.
    alignas(conc::CacheLineBytes) repro::Rng StealRng;
    conc::StackPool::LocalCache StackCache;
    std::vector<Task *> TaskCache;
    /// This worker's latency shards, [level][LatencyKind]: written only
    /// by this worker at task completion, merged by readers.
    std::vector<std::array<repro::LatencyHistogram, 3>> Latency;
    std::thread Thread;
  };

  /// Unbounded spill list behind an injection ring that filled up. Cold by
  /// construction — it only exists so a burst past InjectionCapacity
  /// degrades to a mutex instead of an unbounded producer spin.
  struct LevelOverflow {
    std::mutex M;
    std::deque<Task *> Q;
  };

  unsigned queueIndex(unsigned Level) const {
    return Config.PriorityAware ? Level : 0;
  }

  void workerLoop(unsigned Index);
  void masterLoop();
  /// Publishes \p W's status line (seqlock write; owning worker only).
  static void publishStatus(Worker &W, WorkerState State, uint8_t Level,
                            uint32_t RingId, uint64_t SpanLo,
                            uint64_t NowNanos);
  /// Classifies a successful steal as same- vs cross-socket.
  void noteSteal(Worker &Thief, const Worker &Victim);
  void enqueue(Task *T);
  /// Resolves an affinity hint to a target worker index, or -1 when the
  /// hint cannot be honored (bad index, socket with no resident worker).
  int resolveAffinityWorker(const AffinityHint &H, const Worker *Self) const;
  /// Producer half of the mailbox protocol; false = pressure (the box is
  /// occupied), take the shared path instead.
  bool tryMailboxDeliver(unsigned WorkerIdx, Task *T);
  /// Places \p T in \p W's next-task slot, displacing the lower-level of
  /// the two occupants onto the shared queues (owning worker only).
  void placeInNextSlot(Worker &W, Task *T);
  /// Moves \p W's slot occupant onto the worker's own deque (making it
  /// stealable and Pending-visible) — the promptness guard's flush path.
  void flushNextSlot(Worker &W);
  /// True when any level strictly above \p Level has pending work — the
  /// next-slot promptness guard's condition.
  bool higherLevelPending(unsigned Level) const;
  Task *findTaskAtLevel(unsigned QueueIdx, Worker *Self, bool PopSelf);
  Task *popOverflow(unsigned QueueIdx);
  /// \p CountedPending is false for tasks consumed from a next-slot or
  /// mailbox, which were never added to the Pending counters (they are
  /// unstealable, so advertising them would make idle workers spin).
  void runTask(Task *T, Worker &Self, bool CountedPending = true);
  void recycleTask(Task *T, Worker &Self);
  bool anyPendingSeqCst() const;
  /// Tasks completed at every level so far.
  uint64_t completedTotal() const;
  std::vector<unsigned> countAssignments() const;
  std::vector<double> currentDesires() const;

  RuntimeConfig Config;
  conc::StackPool FiberStacks{Task::StackBytes};
  /// Slab overflow behind the per-worker caches, any thread. Cold: taken
  /// when a cache is full or empty (external submitters have none).
  std::mutex FreeTasksMutex;
  std::vector<Task *> FreeTasks; ///< guarded by FreeTasksMutex
  std::vector<std::unique_ptr<Worker>> Workers;
  /// The 2-D queue-levels × workers deque plane (QueuePlane.h); cell
  /// (L, W) is worker W's deque for level L. Replaces per-Worker deque
  /// vectors so a level's victim scan walks one contiguous row.
  QueuePlane Plane;
  std::vector<std::unique_ptr<conc::MpmcQueue<Task *>>> Injection;
  std::vector<std::unique_ptr<LevelOverflow>> Overflow;
  conc::PaddedAtomicArray<int64_t> Pending;      ///< queued, per level
  conc::PaddedAtomicArray<int64_t> OverflowSize; ///< spill depth, per level
  /// Master-published mirror of each level's desire, for snapshot()
  /// (the desire itself lives in the master loop's locals).
  conc::PaddedAtomicArray<double> DesireMirror;

  /// Where idle workers sleep. The Dekker pairing: enqueue bumps Pending
  /// seq_cst then notifies; a parking worker registers seq_cst then
  /// re-checks Pending — see EventCount.h for why no wakeup can be lost.
  conc::EventCount IdleEc;

  std::atomic<int64_t> Outstanding{0};
  std::atomic<uint64_t> Stalls{0};
  std::atomic<uint64_t> FtouchInversions{0};
  std::atomic<uint64_t> DeadlineMisses{0};
  std::atomic<uint64_t> TotalWorkNanos{0};
  std::atomic<uint32_t> ParkedCount{0};
  std::atomic<uint64_t> InjectionFullSpins{0};
  std::atomic<uint64_t> TasksRecycledCount{0};
  std::atomic<uint64_t> StealsSameSocketCount{0};
  std::atomic<uint64_t> StealsCrossSocketCount{0};
  std::atomic<uint64_t> NextSlotHitsCount{0};
  std::atomic<uint64_t> BatchStealsCount{0};
  std::atomic<uint64_t> BatchStealTasksCount{0};
  std::atomic<uint64_t> AffinityHitsCount{0};
  std::atomic<bool> InjectionFullLogged{false};
  std::atomic<uint32_t> NextTraceTaskId{1}; ///< event-ring task ids
  std::atomic<class TraceRecorder *> Trace{nullptr};
  std::atomic<class SpanStore *> Spans{nullptr};
  std::atomic<const AdmissionView *> AdmissionStats{nullptr};
  std::atomic<bool> Stop{false};

  std::thread Master;
  std::mutex MasterMutex;
  std::condition_variable MasterCv;
};

} // namespace repro::icilk

#endif // REPRO_ICILK_RUNTIME_H
