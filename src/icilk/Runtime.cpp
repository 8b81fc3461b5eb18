//===- icilk/Runtime.cpp - Two-level adaptive work-stealing runtime --------===//

#include "icilk/Runtime.h"

#include "conc/Backoff.h"
#include "icilk/EventRing.h"
#include "icilk/Task.h"
#include "support/CpuTopology.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cstdlib>
#include <sstream>

namespace repro::icilk {

namespace {

/// Which runtime's worker (if any) the current thread is.
thread_local Runtime *CurrentRuntime = nullptr;
thread_local unsigned CurrentWorkerIndex = 0;

/// Recycled-Task objects cached per worker before spilling to the global
/// free list (same shape as StackPool's LocalCapacity; a Task is ~1 KiB
/// with its ucontext, so 32 caps the per-worker slab at ~32 KiB).
constexpr std::size_t TaskCacheCap = 32;

/// External-submission attempts on a full injection ring before giving up
/// and taking the overflow mutex. A full ring means consumers are behind
/// by InjectionCapacity tasks; a short bounded wait catches the transient
/// case, and anything longer must not stall the producer (the old code
/// spun here unboundedly).
constexpr unsigned MaxInjectionSpins = 64;

/// Hard cap on StealBatchMax: bounds the thief-side stack buffer a batch
/// steal fills before requeueing the extras on its own deque.
constexpr std::size_t StealBatchCap = 64;

} // namespace

const char *workerStateName(WorkerState S) {
  switch (S) {
  case WorkerState::Stealing:
    return "stealing";
  case WorkerState::Running:
    return "running";
  case WorkerState::Parked:
    return "parked";
  case WorkerState::InIo:
    return "in-io";
  }
  return "unknown";
}

void Runtime::publishStatus(Worker &W, WorkerState State, uint8_t Level,
                            uint32_t RingId, uint64_t SpanLo,
                            uint64_t NowNanos) {
  Worker::StatusLine &L = W.Status;
  // Single writer (the owning worker): odd Seq marks the write in
  // progress, even publishes it. The release fences order the payload
  // against both Seq transitions for the sampling reader.
  uint32_t Seq = L.Seq.load(std::memory_order_relaxed);
  L.Seq.store(Seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  L.State.store(static_cast<uint8_t>(State), std::memory_order_relaxed);
  L.Level.store(Level, std::memory_order_relaxed);
  L.TaskRingId.store(RingId, std::memory_order_relaxed);
  L.SpanTraceLo.store(SpanLo, std::memory_order_relaxed);
  L.SinceNanos.store(NowNanos, std::memory_order_relaxed);
  L.Seq.store(Seq + 2, std::memory_order_release);
}

bool Runtime::sampleWorkerStatus(unsigned Index, WorkerStatus &Out) const {
  if (Index >= Workers.size())
    return false;
  const Worker::StatusLine &L = Workers[Index]->Status;
  for (;;) {
    uint32_t S1 = L.Seq.load(std::memory_order_acquire);
    if (S1 & 1)
      continue; // mid-publish; the writer's critical section is tiny
    Out.State = static_cast<WorkerState>(L.State.load(std::memory_order_relaxed));
    Out.Level = L.Level.load(std::memory_order_relaxed);
    Out.TaskRingId = L.TaskRingId.load(std::memory_order_relaxed);
    Out.SpanTraceLo = L.SpanTraceLo.load(std::memory_order_relaxed);
    Out.SinceNanos = L.SinceNanos.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (L.Seq.load(std::memory_order_relaxed) == S1)
      return true;
  }
}

void Runtime::noteSteal(Worker &Thief, const Worker &Victim) {
  // The thief's position is read fresh (it is about to run the stolen
  // task here anyway); the victim's is its last published one. Unknown
  // cpus — pre-first-task victims, platforms without sched_getcpu —
  // count as same-socket, so the cross-socket counter never overstates.
  int ThiefCpu = repro::currentCpu();
  Thief.LastCpu.store(ThiefCpu, std::memory_order_relaxed);
  int VictimCpu = Victim.LastCpu.load(std::memory_order_relaxed);
  if (ThiefCpu >= 0 && VictimCpu >= 0 &&
      repro::cpuSocketOf(ThiefCpu) != repro::cpuSocketOf(VictimCpu))
    StealsCrossSocketCount.fetch_add(1, std::memory_order_relaxed);
  else
    StealsSameSocketCount.fetch_add(1, std::memory_order_relaxed);
}

Runtime::Runtime(RuntimeConfig Cfg) : Config(Cfg) {
  assert(Config.NumWorkers >= 1 && Config.NumLevels >= 1);
  unsigned QueueLevels = Config.PriorityAware ? Config.NumLevels : 1;
  for (unsigned L = 0; L < QueueLevels; ++L) {
    Injection.push_back(
        std::make_unique<conc::MpmcQueue<Task *>>(Config.InjectionCapacity));
    Overflow.push_back(std::make_unique<LevelOverflow>());
  }
  Pending = conc::PaddedAtomicArray<int64_t>(Config.NumLevels, 0);
  OverflowSize = conc::PaddedAtomicArray<int64_t>(QueueLevels, 0);
  DesireMirror = conc::PaddedAtomicArray<double>(Config.NumLevels, 1.0);
  Plane = QueuePlane(QueueLevels, Config.NumWorkers);
  for (unsigned W = 0; W < Config.NumWorkers; ++W)
    Workers.push_back(std::make_unique<Worker>(W, Config.NumLevels));

  // Initial assignment: spread workers across levels, highest first, so the
  // first quantum is not blind.
  if (Config.PriorityAware)
    for (unsigned W = 0; W < Config.NumWorkers; ++W)
      Workers[W]->AssignedLevel.store(Config.NumLevels - 1 -
                                      (W % Config.NumLevels));

  for (unsigned W = 0; W < Config.NumWorkers; ++W)
    Workers[W]->Thread = std::thread([this, W] { workerLoop(W); });
  if (Config.PriorityAware && Config.NumLevels > 1)
    Master = std::thread([this] { masterLoop(); });
}

Runtime::~Runtime() { shutdown(); }

void Runtime::shutdown() {
  bool Expected = false;
  if (!Stop.compare_exchange_strong(Expected, true))
    return; // already shut down
  {
    std::lock_guard<std::mutex> Lock(MasterMutex);
  }
  MasterCv.notify_all();
  IdleEc.notifyAll(); // parked workers re-check Stop and exit
  for (auto &W : Workers)
    if (W->Thread.joinable())
      W->Thread.join();
  if (Master.joinable())
    Master.join();
  // Drain anything left unexecuted (shutdown during pending work). Tasks
  // die here rather than through the slab; a still-attached fiber stack is
  // freed by ~Task directly.
  for (auto &Q : Injection)
    while (auto T = Q->tryPop())
      delete *T;
  for (auto &O : Overflow) {
    for (Task *T : O->Q)
      delete T;
    O->Q.clear();
  }
  for (unsigned L = 0; L < Plane.levels(); ++L)
    for (unsigned W = 0; W < Plane.workers(); ++W)
      while (auto T = Plane.at(L, W).pop())
        delete *T;
  for (auto &W : Workers) {
    // Next-slot and mailbox occupants are invisible to the queues above;
    // drain them here or they leak (workers are joined, so both are cold).
    if (W->NextSlot) {
      delete W->NextSlot;
      W->NextSlot = nullptr;
    }
    if (Task *M = W->Mailbox.exchange(nullptr, std::memory_order_relaxed))
      delete M;
  }
  // Tear down the slab: recycled Task objects and every worker's caches.
  // (Worker threads are joined, so their caches are safe to touch.)
  for (Task *T : FreeTasks)
    delete T;
  FreeTasks.clear();
  for (auto &W : Workers) {
    for (Task *Cached : W->TaskCache)
      delete Cached;
    W->TaskCache.clear();
    FiberStacks.drainLocal(W->StackCache); // ~StackPool frees the rest
  }
}

bool Runtime::onWorkerThread() const { return CurrentRuntime == this; }

int Runtime::currentWorkerIndex() const {
  return CurrentRuntime == this ? static_cast<int>(CurrentWorkerIndex) : -1;
}

Task *Runtime::allocTask(std::function<void()> Body, unsigned Level) {
  assert(Level < Config.NumLevels && "task level out of range");
  Task *T = nullptr;
  if (CurrentRuntime == this) {
    auto &Cache = Workers[CurrentWorkerIndex]->TaskCache;
    if (!Cache.empty()) {
      T = Cache.back();
      Cache.pop_back();
    }
  }
  if (!T) {
    std::lock_guard<std::mutex> Lock(FreeTasksMutex);
    if (!FreeTasks.empty()) {
      T = FreeTasks.back();
      FreeTasks.pop_back();
    }
  }
  if (!T)
    return new Task(std::move(Body), Level);
  T->reset(std::move(Body), Level);
  return T;
}

void Runtime::submitTask(Task *T) {
  assert(T->level() < Config.NumLevels && "task level out of range");
  Outstanding.fetch_add(1, std::memory_order_relaxed);
  if (trace::enabled()) {
    // When a TraceRecorder is attached the task already has a structural
    // trace id — reuse it as the ring id, so the profiler can join the
    // timestamped scheduler timeline with the lifted DAG on one key. The
    // private counter serves ring-only runs (ids may collide with recorder
    // ids if a recorder attaches mid-run; profiling attaches both up
    // front).
    T->setRingId(T->traceId() != 0
                     ? T->traceId()
                     : NextTraceTaskId.fetch_add(1, std::memory_order_relaxed));
    trace::emit(trace::EventKind::Spawn, static_cast<uint8_t>(T->level()),
                T->ringId());
  }
  enqueue(T);
}

void Runtime::resumeTask(Task *T) {
  // Still counted in Outstanding (it never completed); just requeue.
  trace::emit(trace::EventKind::Resume, static_cast<uint8_t>(T->level()),
              T->ringId());
  enqueue(T);
}

int Runtime::resolveAffinityWorker(const AffinityHint &H,
                                   const Worker *Self) const {
  if (H.Worker >= 0)
    return static_cast<unsigned>(H.Worker) < Workers.size() ? H.Worker : -1;
  if (H.Socket < 0)
    return -1;
  // Socket hint: workers are unpinned, so "a worker on that socket" means
  // one whose last observed cpu maps there. Prefer the submitter itself
  // (next-slot beats any mailbox), then the first resident worker with an
  // empty mailbox; no resident or all boxes full = pressure, hint dropped.
  auto OnSocket = [&](const Worker &W) {
    int Cpu = W.LastCpu.load(std::memory_order_relaxed);
    return Cpu >= 0 && repro::cpuSocketOf(Cpu) == H.Socket;
  };
  if (Self && OnSocket(*Self))
    return static_cast<int>(Self->Index);
  for (const auto &W : Workers)
    if (OnSocket(*W) && W->Mailbox.load(std::memory_order_relaxed) == nullptr)
      return static_cast<int>(W->Index);
  return -1;
}

bool Runtime::tryMailboxDeliver(unsigned WorkerIdx, Task *T) {
  Worker &W = *Workers[WorkerIdx];
  // An occupied box is pressure: fall back to the shared path. A parked
  // target is not — workers park on their first empty scan, so it went
  // idle microseconds ago and its cache is still warm.
  Task *Expected = nullptr;
  if (!W.Mailbox.compare_exchange_strong(Expected, T,
                                         std::memory_order_seq_cst,
                                         std::memory_order_relaxed))
    return false;
  // Re-read the flag (seq_cst): if the owner's park-time mailbox re-check
  // did not see this CAS, then under SC its earlier flag store is visible
  // here, and the notify wakes it. See Worker::Mailbox's comment.
  if (W.ParkedFlag.load(std::memory_order_seq_cst))
    IdleEc.notifyAll();
  return true;
}

void Runtime::placeInNextSlot(Worker &W, Task *T) {
  if (!W.NextSlot) {
    W.NextSlot = T;
    W.NextSlotLevel = T->level();
    return;
  }
  // Occupied: keep the higher-priority task in the slot (ties go to the
  // newcomer — the freshest spawn has the hottest cache footprint) and
  // spill the other onto the shared queues.
  Task *Displaced = T;
  if (T->level() >= W.NextSlotLevel) {
    Displaced = W.NextSlot;
    W.NextSlot = T;
    W.NextSlotLevel = T->level();
  }
  Pending[Displaced->level()].fetch_add(1, std::memory_order_seq_cst);
  Plane.at(queueIndex(Displaced->level()), W.Index).push(Displaced);
  IdleEc.notifyOne();
}

void Runtime::flushNextSlot(Worker &W) {
  Task *T = W.NextSlot;
  W.NextSlot = nullptr;
  Pending[T->level()].fetch_add(1, std::memory_order_seq_cst);
  Plane.at(queueIndex(T->level()), W.Index).push(T);
  IdleEc.notifyOne();
}

bool Runtime::higherLevelPending(unsigned Level) const {
  for (unsigned L = Level + 1; L < Config.NumLevels; ++L)
    if (Pending[L].load(std::memory_order_relaxed) > 0)
      return true;
  return false;
}

void Runtime::enqueue(Task *T) {
  unsigned Q = queueIndex(T->level());
  Worker *Self =
      CurrentRuntime == this ? Workers[CurrentWorkerIndex].get() : nullptr;

  // Affinity hint first: a cross-worker hint goes through the target's
  // mailbox, a self hint through the next-slot path below. Tasks placed by
  // either are NOT counted in Pending — they are unstealable, and
  // advertising them would make every idle worker spin on work only one
  // of them can reach. Outstanding still counts them, so drain() is exact.
  if (T->affinity().any()) {
    int Target = resolveAffinityWorker(T->affinity(), Self);
    if (Target >= 0) {
      if (Self && static_cast<unsigned>(Target) == Self->Index &&
          Config.NextSlotEnabled) {
        AffinityHitsCount.fetch_add(1, std::memory_order_relaxed);
        placeInNextSlot(*Self, T);
        return;
      }
      if ((!Self || static_cast<unsigned>(Target) != Self->Index) &&
          tryMailboxDeliver(static_cast<unsigned>(Target), T)) {
        AffinityHitsCount.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    // Unresolvable or pressured hint: fall through to the normal paths.
  }

  // Worker spawns/resumes land in the worker's next-task slot (run-next
  // locality; the displaced occupant spills to the worker's own deque).
  if (Self && Config.NextSlotEnabled) {
    placeInNextSlot(*Self, T);
    return;
  }

  // seq_cst, not relaxed: this is the producer half of the parking Dekker
  // protocol. A worker about to park registers on IdleEc (seq_cst RMW) and
  // re-checks these counters; with both sides seq_cst, either the worker
  // sees this increment and stands down, or notifyOne's load sees the
  // registered waiter and wakes it. Relaxed here could lose the wakeup.
  Pending[T->level()].fetch_add(1, std::memory_order_seq_cst);

  // Worker spawns/resumes go to the worker's own per-level deque (work-
  // first locality; thieves and fall-through serving cover other levels).
  // External submissions go through the level's injection queue.
  if (Self) {
    Plane.at(Q, Self->Index).push(T);
    IdleEc.notifyOne();
    return;
  }
  conc::Backoff B;
  for (unsigned Attempt = 0; Attempt < MaxInjectionSpins; ++Attempt) {
    if (Injection[Q]->tryPush(T)) {
      IdleEc.notifyOne();
      return;
    }
    B.pause();
  }
  // Ring still full after the bounded wait: spill to the overflow list so
  // the producer never stalls unboundedly. Counted (snapshot/metrics) and
  // logged once per runtime — a sustained overflow means the injection
  // capacity is undersized for the submission rate.
  InjectionFullSpins.fetch_add(MaxInjectionSpins, std::memory_order_relaxed);
  if (!InjectionFullLogged.exchange(true, std::memory_order_relaxed))
    repro::log(repro::LogLevel::Warn)
        << "runtime: injection queue full (capacity "
        << Config.InjectionCapacity << ", level " << T->level()
        << "); spilling to the overflow list — consider a larger "
           "InjectionCapacity for this submission rate";
  {
    std::lock_guard<std::mutex> Lock(Overflow[Q]->M);
    Overflow[Q]->Q.push_back(T);
  }
  OverflowSize[Q].fetch_add(1, std::memory_order_release);
  IdleEc.notifyOne();
}

Task *Runtime::popOverflow(unsigned QueueIdx) {
  LevelOverflow &O = *Overflow[QueueIdx];
  std::lock_guard<std::mutex> Lock(O.M);
  if (O.Q.empty())
    return nullptr;
  Task *T = O.Q.front();
  O.Q.pop_front();
  OverflowSize[QueueIdx].fetch_sub(1, std::memory_order_relaxed);
  return T;
}

Task *Runtime::findTaskAtLevel(unsigned QueueIdx, Worker *Self, bool PopSelf) {
  // PopSelf distinguishes the worker's assigned level (pop the own deque's
  // hot end first — work-first order) from fall-through scans of other
  // levels, where the own deque holds only this worker's *cross-level*
  // spawns: those are reached through the steal loop below (Self included)
  // instead of paying an extra empty-pop per level per scan.
  if (Self && PopSelf)
    if (auto T = Plane.at(QueueIdx, Self->Index).pop())
      return *T;
  if (auto T = Injection[QueueIdx]->tryPop())
    return *T;
  if (OverflowSize[QueueIdx].load(std::memory_order_acquire) > 0)
    if (Task *T = popOverflow(QueueIdx))
      return T;
  // Victim scan over the plane's level row, from a per-thief random start
  // so concurrent thieves fan out across victims instead of all hammering
  // worker 0's deque first. With LocalityTiers on a multi-socket machine
  // the scan runs twice: pass 0 visits only same-socket victims (cache
  // lines cross a die, not the interconnect), pass 1 only cross-socket
  // ones — each pass keeping its own randomized start offset. Victims
  // with no known cpu count as same-socket, matching noteSteal's honest
  // fallback. Single-socket or unknown topology collapses to one flat
  // pass with zero per-victim tier arithmetic.
  unsigned N = static_cast<unsigned>(Workers.size());
  unsigned Start =
      Self ? static_cast<unsigned>(Self->StealRng.nextBelow(N)) : 0;
  const std::unique_ptr<QueuePlane::Deque> *Row = Plane.row(QueueIdx);
  int MyCpu = Self ? Self->LastCpu.load(std::memory_order_relaxed) : -1;
  bool Tiered = Config.LocalityTiers && MyCpu >= 0 &&
                repro::knownSocketCount() > 1;
  int MySocket = Tiered ? repro::cpuSocketOf(MyCpu) : 0;
  // Batch stealing (stealHalf) needs somewhere to put the extras — the
  // thief's own deque at this level — so it requires a worker identity.
  std::size_t BatchMax =
      Self ? std::min<std::size_t>(Config.StealBatchMax, StealBatchCap) : 1;
  const unsigned Passes = Tiered ? 2 : 1;
  for (unsigned Pass = 0; Pass < Passes; ++Pass) {
    for (unsigned I = 0; I < N; ++I) {
      unsigned V = Start + I;
      if (V >= N)
        V -= N;
      Worker *W = Workers[V].get();
      if (W == Self && PopSelf)
        continue; // own deque already popped above
      if (Tiered) {
        int VictimCpu = W->LastCpu.load(std::memory_order_relaxed);
        bool Same = VictimCpu < 0 || repro::cpuSocketOf(VictimCpu) == MySocket;
        if (Same != (Pass == 0))
          continue;
      }
      if (BatchMax > 1 && W != Self) {
        Task *Batch[StealBatchCap];
        std::size_t Got = Row[V]->stealHalf(Batch, BatchMax);
        if (Got == 0)
          continue;
        // Keep the oldest for ourselves; the rest go on our own deque at
        // the same level. The thief owns its plane column, so owner-side
        // pushes are legal here, and the extras were already counted in
        // Pending at their original enqueue — no re-count, no notify.
        for (std::size_t K = 1; K < Got; ++K)
          Plane.at(QueueIdx, Self->Index).push(Batch[K]);
        if (Got > 1) {
          BatchStealsCount.fetch_add(1, std::memory_order_relaxed);
          BatchStealTasksCount.fetch_add(Got, std::memory_order_relaxed);
        }
        trace::emit(trace::EventKind::Steal, static_cast<uint8_t>(QueueIdx),
                    Batch[0]->ringId(), V);
        noteSteal(*Self, *W);
        return Batch[0];
      }
      if (auto T = Row[V]->steal()) {
        trace::emit(trace::EventKind::Steal, static_cast<uint8_t>(QueueIdx),
                    (*T)->ringId(), V);
        if (Self && W != Self)
          noteSteal(*Self, *W);
        return *T;
      }
    }
  }
  return nullptr;
}

void Runtime::runTask(Task *T, Worker &Self, bool CountedPending) {
  if (CountedPending)
    Pending[T->level()].fetch_sub(1, std::memory_order_relaxed);
  uint64_t Begin = repro::nowNanos();
  Self.LastCpu.store(repro::currentCpu(), std::memory_order_relaxed);
  publishStatus(Self, WorkerState::Running, static_cast<uint8_t>(T->level()),
                T->ringId(), T->span().TraceLo, Begin);
  bool Finished = T->startOrResume(FiberStacks, &Self.StackCache);
  uint64_t ElapsedNanos = repro::nowNanos() - Begin;
  Self.WorkNanos.fetch_add(ElapsedNanos, std::memory_order_relaxed);
  TotalWorkNanos.fetch_add(ElapsedNanos, std::memory_order_relaxed);
  if (trace::enabled()) {
    trace::emit(trace::EventKind::RunSlice, static_cast<uint8_t>(T->level()),
                T->ringId(),
                static_cast<uint32_t>(std::min<uint64_t>(ElapsedNanos,
                                                         UINT32_MAX)));
    if (!Finished)
      trace::emit(trace::EventKind::Suspend,
                  static_cast<uint8_t>(T->level()), T->ringId());
  }

  if (!Finished) {
    // The task suspended on a future: park it there. If the future turned
    // ready while the context was being saved, requeue immediately.
    // Publish the in-io status *before* handing the task to the future —
    // after addWaiter another worker may resume (and recycle) it, so the
    // fields must be read while the task is still exclusively ours.
    publishStatus(Self, WorkerState::InIo, static_cast<uint8_t>(T->level()),
                  T->ringId(), T->span().TraceLo, Begin + ElapsedNanos);
    FutureStateBase *Awaited = T->waitingOn();
    assert(Awaited && "task neither finished nor suspended");
    T->clearWaitingOn();
    if (!Awaited->addWaiter({this, T}))
      resumeTask(T);
    return;
  }
  publishStatus(Self, WorkerState::Stealing,
                static_cast<uint8_t>(
                    Config.PriorityAware ? Self.AssignedLevel.load() : 0u),
                0, 0, Begin + ElapsedNanos);

  // This worker's own shards: no lock, no shared cache line. Their counts
  // are the completion counters (completed(), snapshot().TasksExecuted).
  auto &Shards = Self.Latency[T->level()];
  Shards[static_cast<unsigned>(LatencyKind::Response)].record(
      T->responseMicros());
  Shards[static_cast<unsigned>(LatencyKind::Compute)].record(
      T->computeMicros());
  Shards[static_cast<unsigned>(LatencyKind::QueueWait)].record(
      T->queueWaitMicros());
  Outstanding.fetch_sub(1, std::memory_order_release);
  recycleTask(T, Self);
}

void Runtime::recycleTask(Task *T, Worker &Self) {
  T->releaseRunResources(FiberStacks, &Self.StackCache);
  TasksRecycledCount.fetch_add(1, std::memory_order_relaxed);
  std::vector<Task *> &Cache = Self.TaskCache;
  Cache.push_back(T);
  if (Cache.size() <= TaskCacheCap)
    return;
  // Full: spill the older half in one lock, so a worker recycling tasks an
  // external thread keeps allocating takes the global lock once per
  // TaskCacheCap / 2 tasks, not once per task.
  auto Keep = Cache.end() - TaskCacheCap / 2;
  std::lock_guard<std::mutex> Lock(FreeTasksMutex);
  FreeTasks.insert(FreeTasks.end(), Cache.begin(), Keep);
  Cache.erase(Cache.begin(), Keep);
}

bool Runtime::anyPendingSeqCst() const {
  for (std::size_t L = 0; L < Pending.size(); ++L)
    if (Pending[L].load(std::memory_order_seq_cst) > 0)
      return true;
  return false;
}

void Runtime::workerLoop(unsigned Index) {
  CurrentRuntime = this;
  CurrentWorkerIndex = Index;
  trace::setThreadName("worker " + std::to_string(Index));
  Worker &W = *Workers[Index];
  bool HadWork = true; // throttles steal-fail events to one per episode
  publishStatus(W, WorkerState::Stealing,
                static_cast<uint8_t>(
                    Config.PriorityAware ? W.AssignedLevel.load() : 0u),
                0, 0, repro::nowNanos());
  while (!Stop.load(std::memory_order_acquire)) {
    unsigned Q = Config.PriorityAware ? W.AssignedLevel.load() : 0u;
    // Next-task slot first — the freshest spawn on the hottest cache —
    // unless the promptness guard trips: a strictly higher level with
    // pending work means the slot must not jump the priority queue, so
    // its occupant is flushed to the deque (stealable, Pending-visible)
    // and the normal priority-ordered scan runs instead. This is the
    // fairness bound: the slot can reorder work *within* a level but
    // never delays a higher level by more than one guard check.
    Task *T = nullptr;
    bool Counted = true;
    if (W.NextSlot) {
      if (Config.PriorityAware && higherLevelPending(W.NextSlotLevel)) {
        flushNextSlot(W);
      } else {
        T = W.NextSlot;
        W.NextSlot = nullptr;
        Counted = false;
        NextSlotHitsCount.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Then the affinity mailbox (also never Pending-counted).
    if (!T)
      if ((T = W.Mailbox.load(std::memory_order_acquire)) != nullptr) {
        W.Mailbox.store(nullptr, std::memory_order_relaxed);
        Counted = false;
      }
    if (!T)
      T = findTaskAtLevel(Q, &W, /*PopSelf=*/true);
    if (!T && Config.PriorityAware) {
      // Work conservation: the assignment is a preference, not a cage — an
      // idle worker serves other levels, highest priority first, rather
      // than spin while work queues elsewhere.
      for (unsigned L = Config.NumLevels; L-- > 0 && !T;)
        if (L != Q)
          T = findTaskAtLevel(L, &W, /*PopSelf=*/false);
    }
    if (T) {
      runTask(T, W, Counted);
      HadWork = true;
      continue;
    }
    // Emit at the transition into idleness, not per scan — a worker whose
    // park re-check keeps standing down rescans many times per episode
    // and would flush the whole ring with steal-fail noise.
    if (HadWork) {
      trace::emit(trace::EventKind::StealFail, static_cast<uint8_t>(Q), 0);
      HadWork = false;
    }
    // One fruitless full scan: park until an enqueue (or shutdown) rings
    // the event count. There is no spin phase — on an I/O-bound runtime
    // the cores mostly wait, and spinning there cost more CPU than every
    // futex wake it saved. The registration/re-check order is the consumer
    // half of the Dekker pairing described at enqueue — a submission
    // between the last scan and the futex sleep cannot be missed, because
    // its Pending increment either lands before the re-check (we stand
    // down) or after our seq_cst registration (its notify sees us).
    // ParkedFlag goes up (seq_cst) before the registration and the
    // mailbox joins the re-check: a mailbox producer whose CAS this
    // re-check misses must itself see the raised flag and notifyAll —
    // under SC one of the two loads is last (see Worker::Mailbox).
    W.ParkedFlag.store(true, std::memory_order_seq_cst);
    conc::EventCount::Key Key = IdleEc.prepareWait();
    if (Stop.load(std::memory_order_seq_cst) || anyPendingSeqCst() ||
        W.Mailbox.load(std::memory_order_seq_cst) != nullptr) {
      W.ParkedFlag.store(false, std::memory_order_relaxed);
      IdleEc.cancelWait();
      continue;
    }
    ParkedCount.fetch_add(1, std::memory_order_relaxed);
    publishStatus(W, WorkerState::Parked, static_cast<uint8_t>(Q), 0, 0,
                  repro::nowNanos());
    IdleEc.commitWait(Key);
    W.ParkedFlag.store(false, std::memory_order_relaxed);
    ParkedCount.fetch_sub(1, std::memory_order_relaxed);
    publishStatus(W, WorkerState::Stealing, static_cast<uint8_t>(Q), 0, 0,
                  repro::nowNanos());
  }
  CurrentRuntime = nullptr;
}

void Runtime::masterLoop() {
  trace::setThreadName("master");
  std::vector<double> Desire(Config.NumLevels, 1.0);
  std::vector<uint8_t> Satisfied(Config.NumLevels, 1);
  std::vector<unsigned> PrevGrant(Config.NumLevels, UINT_MAX);
  // Per-quantum scratch, refilled in place: the loop allocates nothing.
  std::vector<uint64_t> Work(Config.NumLevels);
  std::vector<unsigned> Assigned(Config.NumLevels);
  std::vector<unsigned> Grant(Config.NumLevels);
  const double QuantumNanos = static_cast<double>(Config.QuantumMicros) * 1000.0;
  uint64_t WatchdogLastCompleted = completedTotal();
  unsigned QuantaSinceProgress = 0;

  while (true) {
    {
      std::unique_lock<std::mutex> Lock(MasterMutex);
      MasterCv.wait_for(Lock, std::chrono::microseconds(Config.QuantumMicros),
                        [this] { return Stop.load(); });
    }
    if (Stop.load())
      return;

    // Stall watchdog: outstanding work but no completions across
    // WatchdogQuanta consecutive quanta means something is wedged (lost
    // wakeup, deadlocked future chain, I/O that never completes) — dump
    // the queue state once per episode so the stall is diagnosable.
    if (Config.WatchdogQuanta > 0) {
      uint64_t Done = completedTotal();
      if (Outstanding.load(std::memory_order_relaxed) > 0 &&
          Done == WatchdogLastCompleted) {
        if (++QuantaSinceProgress == Config.WatchdogQuanta) {
          Stalls.fetch_add(1, std::memory_order_relaxed);
          std::ostringstream Dump;
          Dump << "runtime watchdog: no progress for " << QuantaSinceProgress
               << " quanta; outstanding="
               << Outstanding.load(std::memory_order_relaxed)
               << " executed=" << Done << "; per-level [pending/assigned]:";
          auto Counts = countAssignments();
          for (unsigned L = Config.NumLevels; L-- > 0;)
            Dump << " L" << L << "=["
                 << Pending[L].load(std::memory_order_relaxed) << "/"
                 << Counts[L] << "]";
          repro::log(repro::LogLevel::Warn) << Dump.str();
        }
      } else {
        QuantaSinceProgress = 0;
        WatchdogLastCompleted = Done;
      }
    }

    // Collect per-level utilization over the quantum.
    std::fill(Work.begin(), Work.end(), 0);
    std::fill(Assigned.begin(), Assigned.end(), 0);
    for (auto &W : Workers) {
      unsigned L = W->AssignedLevel.load();
      ++Assigned[L];
      Work[L] += W->WorkNanos.exchange(0, std::memory_order_relaxed);
    }

    // Re-evaluate desires (A-STEAL rule, Sec. 4.3). A level with no queued
    // work lets its desire decay to zero so it releases its cores; queued
    // work bootstraps the desire back to one — without the zero floor, a
    // single-worker runtime would grant the idle top level its minimum
    // desire forever and starve everything below it.
    for (unsigned L = 0; L < Config.NumLevels; ++L) {
      bool HasWork = Pending[L].load(std::memory_order_relaxed) > 0;
      if (HasWork && Desire[L] < 1.0)
        Desire[L] = 1.0;
      if (Assigned[L] == 0) {
        // Got no cores: hold the desire if there is queued work (it was
        // denied, not idle), otherwise decay.
        if (!HasWork)
          Desire[L] /= Config.Growth;
        continue;
      }
      double Util = static_cast<double>(Work[L]) /
                    (QuantumNanos * static_cast<double>(Assigned[L]));
      Util = std::min(Util, 1.0);
      if (Util >= Config.UtilizationThreshold) {
        if (Satisfied[L])
          Desire[L] = std::min(std::max(Desire[L], 1.0) * Config.Growth,
                               static_cast<double>(Config.NumWorkers));
        // else: desire unchanged.
      } else {
        Desire[L] = HasWork ? std::max(1.0, Desire[L] / Config.Growth)
                            : Desire[L] / Config.Growth;
      }
    }

    // Grant cores strictly in priority order (highest level first).
    unsigned Remaining = Config.NumWorkers;
    for (unsigned L = Config.NumLevels; L-- > 0;) {
      auto Want = static_cast<unsigned>(Desire[L]);
      Grant[L] = std::min(Want, Remaining);
      Satisfied[L] = Grant[L] >= Want ? 1 : 0;
      Remaining -= Grant[L];
    }
    // Leftover cores: hand to the highest levels with queued work, else to
    // the top level.
    while (Remaining > 0) {
      bool Given = false;
      for (unsigned L = Config.NumLevels; L-- > 0 && Remaining > 0;)
        if (Pending[L].load(std::memory_order_relaxed) > 0) {
          ++Grant[L];
          --Remaining;
          Given = true;
        }
      if (!Given) {
        Grant[Config.NumLevels - 1] += Remaining;
        Remaining = 0;
      }
    }

    // Publish this quantum's desires for snapshot(), and record grant
    // changes (a level gaining or losing workers is a promotion/demotion
    // in the two-level scheduler — exactly what responsiveness debugging
    // needs to see on the timeline).
    bool GrantChanged = false;
    for (unsigned L = 0; L < Config.NumLevels; ++L) {
      DesireMirror[L].store(Desire[L], std::memory_order_relaxed);
      if (Grant[L] != PrevGrant[L]) {
        GrantChanged = true;
        trace::emit(trace::EventKind::AssignChange, static_cast<uint8_t>(L),
                    Grant[L], static_cast<uint32_t>(Desire[L] * 1000.0));
        PrevGrant[L] = Grant[L];
      }
    }

    // Apply: partition the worker array by level, highest levels first.
    unsigned Next = 0;
    for (unsigned L = Config.NumLevels; L-- > 0;)
      for (unsigned I = 0; I < Grant[L] && Next < Config.NumWorkers; ++I)
        Workers[Next++]->AssignedLevel.store(L, std::memory_order_relaxed);
    while (Next < Config.NumWorkers)
      Workers[Next++]->AssignedLevel.store(Config.NumLevels - 1,
                                           std::memory_order_relaxed);
    // A reassignment can point a parked worker at work it last saw as
    // someone else's; ring everyone so the new partition takes effect this
    // quantum. (Workers never park while any Pending counter is positive,
    // so this is belt-and-braces, and free when no one is parked.)
    if (GrantChanged && anyPendingSeqCst())
      IdleEc.notifyAll();
  }
}

void Runtime::drain() {
  if (onWorkerThread()) {
    // A worker draining spins on work only workers can run — a guaranteed
    // deadlock at NumWorkers=1 and a latent one elsewhere. Fail fast.
    repro::log(repro::LogLevel::Error)
        << "Runtime::drain() called from a worker thread; drain() is for "
           "external (driver) threads only — aborting";
    assert(false && "drain() called from a worker thread");
    std::abort();
  }
  conc::Backoff B;
  while (Outstanding.load(std::memory_order_acquire) > 0)
    B.pause();
}

repro::LatencyHistogram Runtime::latency(unsigned Level,
                                        LatencyKind Kind) const {
  repro::LatencyHistogram Merged;
  for (const auto &W : Workers)
    Merged.merge(W->Latency[Level][static_cast<unsigned>(Kind)]);
  return Merged;
}

uint64_t Runtime::completed(unsigned Level) const {
  uint64_t N = 0;
  for (const auto &W : Workers)
    N += W->Latency[Level][static_cast<unsigned>(LatencyKind::Response)]
             .count();
  return N;
}

uint64_t Runtime::completedTotal() const {
  uint64_t N = 0;
  for (unsigned L = 0; L < Config.NumLevels; ++L)
    N += completed(L);
  return N;
}

std::vector<unsigned> Runtime::countAssignments() const {
  std::vector<unsigned> Counts(Config.NumLevels, 0);
  for (const auto &W : Workers)
    ++Counts[W->AssignedLevel.load(std::memory_order_relaxed)];
  return Counts;
}

std::vector<double> Runtime::currentDesires() const {
  std::vector<double> D(Config.NumLevels, 0.0);
  for (unsigned L = 0; L < Config.NumLevels; ++L)
    D[L] = DesireMirror[L].load(std::memory_order_relaxed);
  return D;
}

RuntimeSnapshot Runtime::snapshot() const {
  RuntimeSnapshot S;
  S.TasksExecuted = completedTotal();
  S.TotalWorkNanos = TotalWorkNanos.load(std::memory_order_relaxed);
  S.Outstanding = Outstanding.load(std::memory_order_relaxed);
  S.StallsDetected = Stalls.load(std::memory_order_relaxed);
  S.EventsDropped = trace::EventLog::instance().droppedTotal();
  S.FtouchInversions = FtouchInversions.load(std::memory_order_relaxed);
  S.DeadlineMisses = DeadlineMisses.load(std::memory_order_relaxed);
  S.WorkersParked = ParkedCount.load(std::memory_order_relaxed);
  S.InjectionFullSpins = InjectionFullSpins.load(std::memory_order_relaxed);
  S.PoolStacksCreated = FiberStacks.created();
  S.PoolStacksReused = FiberStacks.reused();
  S.TasksRecycled = TasksRecycledCount.load(std::memory_order_relaxed);
  S.StealsSameSocket = StealsSameSocketCount.load(std::memory_order_relaxed);
  S.StealsCrossSocket = StealsCrossSocketCount.load(std::memory_order_relaxed);
  S.NextSlotHits = NextSlotHitsCount.load(std::memory_order_relaxed);
  S.BatchSteals = BatchStealsCount.load(std::memory_order_relaxed);
  S.BatchStealTasks = BatchStealTasksCount.load(std::memory_order_relaxed);
  S.AffinityHits = AffinityHitsCount.load(std::memory_order_relaxed);
  S.Pending.reserve(Config.NumLevels);
  S.InjectionOverflow.reserve(Config.NumLevels);
  for (unsigned L = 0; L < Config.NumLevels; ++L) {
    S.Pending.push_back(Pending[L].load(std::memory_order_relaxed));
    S.InjectionOverflow.push_back(
        OverflowSize[L].load(std::memory_order_relaxed));
  }
  S.Assigned = countAssignments();
  S.Desires = currentDesires();
  if (const AdmissionView *A = AdmissionStats.load(std::memory_order_acquire))
    S.Admission = A->sampleAdmission();
  return S;
}

void Runtime::sampleMetrics(repro::MetricsRegistry &M,
                            const std::string &Prefix) const {
  RuntimeSnapshot S = snapshot();
  M.counter(Prefix + ".tasks_executed").set(S.TasksExecuted);
  M.counter(Prefix + ".total_work_nanos").set(S.TotalWorkNanos);
  M.counter(Prefix + ".stalls_detected").set(S.StallsDetected);
  M.counter(Prefix + ".events_dropped").set(S.EventsDropped);
  M.counter(Prefix + ".ftouch_inversions").set(S.FtouchInversions);
  M.counter(Prefix + ".deadline_misses").set(S.DeadlineMisses);
  M.counter(Prefix + ".injection_full_spins").set(S.InjectionFullSpins);
  M.counter(Prefix + ".pool_stacks_created").set(S.PoolStacksCreated);
  M.counter(Prefix + ".pool_stacks_reused").set(S.PoolStacksReused);
  M.counter(Prefix + ".tasks_recycled").set(S.TasksRecycled);
  M.counter(Prefix + ".steals_same_socket").set(S.StealsSameSocket);
  M.counter(Prefix + ".steals_cross_socket").set(S.StealsCrossSocket);
  M.counter(Prefix + ".next_slot_hits").set(S.NextSlotHits);
  M.counter(Prefix + ".batch_steals").set(S.BatchSteals);
  M.counter(Prefix + ".batch_steal_tasks").set(S.BatchStealTasks);
  M.counter(Prefix + ".affinity_hits").set(S.AffinityHits);
  {
    // Same-socket share of all steals as a live gauge, so one scrape
    // answers "is the tiered scan working" without counter math. 1.0 when
    // no steal has happened yet (vacuously all-local).
    uint64_t Steals = S.StealsSameSocket + S.StealsCrossSocket;
    M.setGauge(Prefix + ".steal_same_socket_ratio",
               Steals == 0 ? 1.0
                           : static_cast<double>(S.StealsSameSocket) /
                                 static_cast<double>(Steals));
  }
  M.setGauge(Prefix + ".outstanding", static_cast<double>(S.Outstanding));
  M.setGauge(Prefix + ".workers_parked", static_cast<double>(S.WorkersParked));

  if (S.Admission.Attached) {
    M.counter(Prefix + ".admission.shed").set(S.Admission.Shed);
    M.counter(Prefix + ".admission.queue_delay_count")
        .set(S.Admission.QueueDelayCount);
    M.setGauge(Prefix + ".admission.queue_delay_p99_micros",
               S.Admission.QueueDelayP99Micros);
    M.setGauge(Prefix + ".admission.clamped_levels",
               static_cast<double>(S.Admission.ClampedLevels));
    for (unsigned L = 0; L < S.Admission.Levels.size(); ++L) {
      const AdmissionLevelSample &AL = S.Admission.Levels[L];
      std::string AP = Prefix + ".admission.level" + std::to_string(L);
      M.counter(AP + ".offered").set(AL.Offered);
      M.counter(AP + ".admitted").set(AL.Admitted);
      M.counter(AP + ".degraded").set(AL.Degraded);
      M.counter(AP + ".rejected").set(AL.Rejected);
      M.counter(AP + ".timed_out").set(AL.TimedOut);
      M.setGauge(AP + ".queued", static_cast<double>(AL.Queued));
      M.setGauge(AP + ".rate_per_sec", AL.RatePerSec);
      M.setGauge(AP + ".observed_offer_rate_per_sec",
                 AL.ObservedOfferRatePerSec);
      M.setGauge(AP + ".clamped_for_micros",
                 static_cast<double>(AL.ClampedForMicros));
    }
  }

  for (unsigned L = 0; L < Config.NumLevels; ++L) {
    std::string LP = Prefix + ".level" + std::to_string(L);
    M.setGauge(LP + ".pending", static_cast<double>(S.Pending[L]));
    M.setGauge(LP + ".assigned", static_cast<double>(S.Assigned[L]));
    M.setGauge(LP + ".desire", S.Desires[L]);
    M.counter(LP + ".completed").set(completed(L));
    M.setHistogram(LP + ".response_micros", latency(L, LatencyKind::Response));
    M.setHistogram(LP + ".compute_micros", latency(L, LatencyKind::Compute));
    M.setHistogram(LP + ".queue_wait_micros",
                   latency(L, LatencyKind::QueueWait));
  }
}

} // namespace repro::icilk
