//===- icilk/Task.h - Suspendable fiber-backed task -------------*- C++ -*-===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// One schedulable unit: the body of an fcreate'd thread plus its future
// completion. Tasks are *suspendable*: each runs on its own ucontext fiber
// so an ftouch of an unready future can park the task on the future's
// waiter list and hand the worker back to its scheduling loop — the role
// proactive work stealing plays in Cilk-F (Sec. 4.3). Helping-style
// blocking would deadlock on future graphs where a task waits on a
// non-descendant (e.g. the email app's print/compress slot chains).
//
// The fiber stack is acquired lazily at first dispatch from the runtime's
// StackPool (conc/StackPool.h), so queued-but-unstarted tasks are cheap
// and stacks are recycled across tasks instead of allocated-and-zeroed
// per spawn. A suspended task's context is fully saved before it becomes
// visible to resumers, so it may resume on any worker. Task objects
// themselves are slab-recycled by the runtime (reset/releaseRunResources)
// rather than new/deleted per spawn.
//
//===----------------------------------------------------------------------===//

#ifndef REPRO_ICILK_TASK_H
#define REPRO_ICILK_TASK_H

#include "conc/StackPool.h"
#include "icilk/Span.h"
#include "support/Timer.h"

#include <ucontext.h>

#include <cstdint>
#include <functional>
#include <memory>

// ThreadSanitizer needs two accommodations in the fiber layer: explicit
// fiber-switch annotations (TSan cannot follow raw swapcontext, see
// Task.cpp) and larger fiber stacks (instrumented frames are several times
// bigger, and an overflow corrupts whatever the allocator placed below).
#if defined(__SANITIZE_THREAD__)
#define ICILK_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ICILK_TSAN_FIBERS 1
#endif
#endif

namespace repro::icilk {

class FutureStateBase;

/// Optional placement hint attached at fcreate: run the task near a
/// specific worker or socket. Hints are best-effort — the scheduler
/// honors them through the next-slot and mailbox paths when the target
/// has room (a parked target is woken), and silently falls back to the
/// shared queues under pressure (occupied mailbox, unknown topology). A
/// default-constructed hint means "no preference".
struct AffinityHint {
  int16_t Worker = -1; ///< preferred worker index, -1 = none
  int16_t Socket = -1; ///< preferred socket id, -1 = none
  bool any() const { return Worker >= 0 || Socket >= 0; }
};

/// Fiber-backed task. Drive with startOrResume() from a worker; inspect
/// isDone()/waitingOn() afterwards.
class Task {
public:
#if ICILK_TSAN_FIBERS
  static constexpr std::size_t StackBytes = 1024 * 1024;
#else
  static constexpr std::size_t StackBytes = 256 * 1024;
#endif

  Task(std::function<void()> Body, unsigned Level)
      : Body(std::move(Body)), Level(Level), CreateNanos(repro::nowNanos()) {}
  ~Task();

  Task(const Task &) = delete;
  Task &operator=(const Task &) = delete;

  /// Re-arms a recycled Task for a fresh spawn (the runtime's slab
  /// recycler calls this instead of constructing a new object). Valid only
  /// after releaseRunResources(): the task must hold no stack, no TSan
  /// fiber, and no body.
  void reset(std::function<void()> NewBody, unsigned NewLevel);

  /// Hands the run-time resources back after the task finished: returns
  /// the fiber stack to \p Pool (through \p Cache when the caller is a
  /// worker), destroys the TSan fiber handle so a reused stack gets a
  /// fresh one, and drops the body (releasing its captured future state).
  /// Idempotent; also safe on a never-started task.
  void releaseRunResources(conc::StackPool &Pool,
                           conc::StackPool::LocalCache *Cache);

  unsigned level() const { return Level; }
  bool isDone() const { return Done; }

  /// The future this task suspended on (null unless just suspended).
  FutureStateBase *waitingOn() const { return WaitingOn; }
  void clearWaitingOn() { WaitingOn = nullptr; }

  /// Runs or resumes the task on the calling worker thread until it
  /// completes or suspends. Returns true when the task finished. A first
  /// dispatch draws its fiber stack from \p Pool (via \p Cache when the
  /// caller is a worker thread).
  bool startOrResume(conc::StackPool &Pool,
                     conc::StackPool::LocalCache *Cache);

  /// Called from inside the fiber: saves the context and switches back to
  /// the dispatching worker, recording the awaited future.
  void suspendOn(FutureStateBase &State);

  // Timing metadata (µs helpers valid once done).
  uint64_t createNanos() const { return CreateNanos; }
  double queueWaitMicros() const {
    return static_cast<double>(StartNanos - CreateNanos) / 1000.0;
  }
  double computeMicros() const {
    return static_cast<double>(FinishNanos - StartNanos) / 1000.0;
  }
  double responseMicros() const {
    return static_cast<double>(FinishNanos - CreateNanos) / 1000.0;
  }

  /// The task currently executing on this thread's fiber (null on a plain
  /// thread or in the worker's scheduler context).
  static Task *current();

  /// Trace identity for the optional execution-trace recorder (Trace.h).
  uint32_t traceId() const { return TraceId; }
  void setTraceId(uint32_t Id) { TraceId = Id; }

  /// Event-ring identity (EventRing.h), assigned by the runtime at submit
  /// when scheduler tracing is enabled; 0 otherwise. Distinct from
  /// traceId(): the two tracing systems attach independently.
  uint32_t ringId() const { return RingId; }
  void setRingId(uint32_t Id) { RingId = Id; }

  /// Request-tracing context (Span.h): the active span this task runs
  /// under, copied from the creator at fcreate. Survives suspend/steal/
  /// resume with the task; invalid (all-zero) when no trace is active.
  const SpanContext &span() const { return Span; }
  void setSpan(const SpanContext &C) { Span = C; }

  /// Placement hint (see AffinityHint), set at fcreate; default = none.
  const AffinityHint &affinity() const { return Affinity; }
  void setAffinity(const AffinityHint &H) { Affinity = H; }

private:
  static void trampoline();

  std::function<void()> Body;
  unsigned Level;
  uint64_t CreateNanos;
  uint64_t StartNanos = 0;
  uint64_t FinishNanos = 0;

  bool Started = false;
  bool Done = false;
  uint32_t TraceId = 0;
  uint32_t RingId = 0;
  SpanContext Span{};
  AffinityHint Affinity{};
  FutureStateBase *WaitingOn = nullptr;
  /// Pool-owned while free-listed, task-owned while attached. Acquired at
  /// first dispatch, returned in releaseRunResources; the destructor frees
  /// a still-attached stack directly (shutdown tears tasks down after the
  /// pool's accounting no longer matters).
  char *Stack = nullptr;
  ucontext_t Ctx{};
  /// The dispatching worker's return context, refreshed on every dispatch.
  /// Fiber code switches back through THIS pointer, never through the
  /// thread_local directly: a task can suspend on one worker and finish on
  /// another, and a TLS address the compiler cached before the migration
  /// would belong to the wrong thread.
  ucontext_t *ReturnCtx = nullptr;
  /// ThreadSanitizer fiber handles (used only in -fsanitize=thread builds;
  /// TSan cannot follow raw swapcontext without explicit fiber switches).
  /// DispatcherFiber is per-dispatch for the same migration reason.
  void *TsanFiber = nullptr;
  void *DispatcherFiber = nullptr;
};

} // namespace repro::icilk

#endif // REPRO_ICILK_TASK_H
