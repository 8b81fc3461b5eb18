//===- icilk/Io.h - Backend-neutral asynchronous I/O interface --*- C++ -*-===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// The io_future mechanism of Sec. 4.1, split from its first implementation.
// `Io` is the backend-neutral surface every consumer programs against:
// fd-based read/write/accept/connect returning Future<Prio, IoResult>,
// timer-backed sleeps, plain deadline callbacks (submitTimer — the substrate
// of Context::ftouchFor and the admission controller's queue-timeout
// sweeps), and fault-plan attachment. Two backends implement it:
//
//   * SimIo (SimIo.h) — the original timer-heap simulation. Operations are
//     latency models, not syscalls; every pre-existing app/bench/test runs
//     on it unchanged in behaviour.
//   * EpollReactor (EpollReactor.h) — real nonblocking file descriptors,
//     tried first on the submitting thread; an op that would block is
//     completed from an edge-triggered epoll loop, with the timer heap
//     unified into the same loop (epoll_wait timeout = next deadline).
//
// Backend selection is a constructor choice: code that holds an `Io&` works
// on either, with no #ifdefs. The property the paper's evaluation relies on
// is the interface contract: starting an operation never blocks a worker.
// The submitter may spend one nonblocking syscall on it, and an op whose
// result is already available (queued bytes, send-buffer room, a pending
// connection) may return an already-completed future; every other op
// completes later and wakes its toucher through the future's waiter list.
//
// The metrics prefix is mandatory at construction (not a sampleMetrics
// default): with two backends alive in one process (a sim origin and a real
// reactor, say) defaulted prefixes would collide in the registry and in
// /metrics.
//
// Buffer lifetime: read/write buffers must stay valid until the returned
// future completes (successfully or erroneously). A deadline touch
// (ftouchFor) that gives up on an fd operation does NOT release the buffer
// — cancel the fd (EpollReactor::cancelFd) and touch the future to
// completion before freeing it.
//
//===----------------------------------------------------------------------===//

#ifndef REPRO_ICILK_IO_H
#define REPRO_ICILK_IO_H

#include "icilk/FaultPlan.h"
#include "icilk/Future.h"

#include <sys/socket.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace repro {
class MetricsRegistry;
} // namespace repro

namespace repro::icilk {

class SpanStore;

/// Completed-I/O payload: byte count (as read()/write() return), the
/// accepted fd for accept(), 0 for a finished connect().
using IoResult = long;

/// Backend-neutral asynchronous I/O service. See the file comment for the
/// contract; see SimIo / EpollReactor for the two implementations.
class Io {
public:
  /// \p MetricsPrefix names this backend's counters in every registry dump
  /// ("<prefix>.submitted", ".completed", ".faulted", ".in_flight") and in
  /// the telemetry /metrics backend label. Mandatory: two backends in one
  /// process must not collide.
  explicit Io(std::string MetricsPrefix)
      : Prefix(std::move(MetricsPrefix)) {}
  virtual ~Io() = default;

  Io(const Io &) = delete;
  Io &operator=(const Io &) = delete;

  /// Asynchronous read from \p Fd into \p Buf: the future completes with
  /// the byte count of the *first* successful read once the fd turns
  /// readable (possibly short; 0 = EOF), or erroneously with an IoError.
  /// \p Buf must outlive the completion.
  template <typename Prio>
  Future<Prio, IoResult> read(int Fd, void *Buf, std::size_t Len) {
    auto State = std::make_shared<FutureState<IoResult>>(Prio::Level);
    startOpSpan(*State, "io.read");
    submitRead(Fd, Buf, Len, State);
    return Future<Prio, IoResult>(std::move(State));
  }

  /// Asynchronous write of the *whole* buffer: the backend resumes across
  /// short writes/EAGAIN and the future completes with \p Len only once
  /// every byte is out (or erroneously — a reset peer surfaces here).
  template <typename Prio>
  Future<Prio, IoResult> write(int Fd, const void *Buf, std::size_t Len) {
    auto State = std::make_shared<FutureState<IoResult>>(Prio::Level);
    startOpSpan(*State, "io.write");
    submitWrite(Fd, Buf, Len, State);
    return Future<Prio, IoResult>(std::move(State));
  }

  /// Asynchronous accept on listening \p Fd: completes with the accepted
  /// (nonblocking, cloexec) fd.
  template <typename Prio> Future<Prio, IoResult> accept(int Fd) {
    auto State = std::make_shared<FutureState<IoResult>>(Prio::Level);
    startOpSpan(*State, "io.accept");
    submitAccept(Fd, State);
    return Future<Prio, IoResult>(std::move(State));
  }

  /// Asynchronous connect of nonblocking \p Fd to \p Addr (copied, so the
  /// caller's sockaddr may die immediately): completes with 0.
  template <typename Prio>
  Future<Prio, IoResult> connect(int Fd, const struct sockaddr *Addr,
                                 socklen_t AddrLen) {
    auto State = std::make_shared<FutureState<IoResult>>(Prio::Level);
    startOpSpan(*State, "io.connect");
    submitConnect(Fd, Addr, AddrLen, State);
    return Future<Prio, IoResult>(std::move(State));
  }

  /// Pure timer future: completes with Unit after \p LatencyMicros. Never
  /// fault-injected and excluded from the I/O counters — retry loops sleep
  /// out their backoff on one of these so a worker is never parked.
  template <typename Prio>
  Future<Prio, Unit> sleepFor(uint64_t LatencyMicros) {
    auto State = std::make_shared<FutureState<Unit>>(Prio::Level);
    startOpSpan(*State, "io.sleep");
    submitSleep(LatencyMicros, State);
    return Future<Prio, Unit>(std::move(State));
  }

  /// Schedules \p Fn to run on the backend's timer thread after
  /// \p LatencyMicros. Not an I/O operation: excluded from
  /// completed()/inFlight() and never fault-injected. Keep callbacks small
  /// and non-blocking. Pending timers still fire (early) at shutdown.
  virtual void submitTimer(uint64_t LatencyMicros,
                           std::function<void()> Fn) = 0;

  /// Attaches a fault plan consulted for every subsequent I/O operation
  /// (null detaches). The plan is shared: several backends may draw from
  /// one plan, and the caller can inspect its counters afterwards.
  void setFaultPlan(std::shared_ptr<FaultPlan> Plan) {
    std::lock_guard<std::mutex> Lock(FaultMutex);
    Faults = std::move(Plan);
  }

  /// Attaches (or detaches, with nullptr) a request-tracing span store.
  /// While attached, every submission made under an active span becomes a
  /// timed child span of it ("io.read", "io.connect", ...), ended by the
  /// future's completion callback — on ANY backend, including erroneous
  /// completions and shutdown. The store must outlive every in-flight
  /// operation (in practice: outlive the backend's shutdown/destructor).
  void setSpans(SpanStore *S) {
    Spans.store(S, std::memory_order_release);
  }
  SpanStore *spans() const {
    return Spans.load(std::memory_order_acquire);
  }

  /// Number of I/O operations completed so far (successfully or
  /// erroneously; timers excluded).
  virtual uint64_t completed() const = 0;

  /// I/O operations submitted but not yet completed (timers excluded).
  virtual uint64_t inFlight() const = 0;

  /// I/O operations that completed erroneously (fault-injected, failed
  /// syscalls, or shutdown).
  uint64_t faulted() const {
    return FaultedOps.load(std::memory_order_relaxed);
  }

  /// I/O operations ever submitted.
  uint64_t submitted() const {
    return NextOpId.load(std::memory_order_relaxed) - 1;
  }

  /// The construction-time metrics prefix.
  const std::string &metricsPrefix() const { return Prefix; }

  /// Dumps the backend's counters into \p M as "<prefix>.*" (submitted /
  /// completed / faulted counters, in_flight gauge, plus anything the
  /// backend adds); see support/Metrics.h.
  void sampleMetrics(repro::MetricsRegistry &M) const;

protected:
  /// Type-erased submission hooks, one per public op. A backend completes
  /// the state right away (successfully, or erroneously) or arranges its
  /// completion on any thread; it never blocks the caller.
  virtual void submitRead(int Fd, void *Buf, std::size_t Len,
                          std::shared_ptr<FutureState<IoResult>> State) = 0;
  virtual void submitWrite(int Fd, const void *Buf, std::size_t Len,
                           std::shared_ptr<FutureState<IoResult>> State) = 0;
  virtual void submitAccept(int Fd,
                            std::shared_ptr<FutureState<IoResult>> State) = 0;
  virtual void submitConnect(int Fd, const struct sockaddr *Addr,
                             socklen_t AddrLen,
                             std::shared_ptr<FutureState<IoResult>> State) = 0;
  virtual void submitSleep(uint64_t LatencyMicros,
                           std::shared_ptr<FutureState<Unit>> State) = 0;

  /// Backend-specific extras appended by sampleMetrics (default: none).
  virtual void sampleBackendMetrics(repro::MetricsRegistry &M,
                                    const std::string &Prefix) const;

  /// The currently attached fault plan (may be null). Thread-safe.
  std::shared_ptr<FaultPlan> faultPlan() const {
    std::lock_guard<std::mutex> Lock(FaultMutex);
    return Faults;
  }

  /// Draws one fault decision from the attached plan (Kind::None when no
  /// plan is attached).
  FaultPlan::Decision drawFault() {
    if (std::shared_ptr<FaultPlan> Plan = faultPlan())
      return Plan->next();
    return {};
  }

  /// Allocates the next event-ring op id.
  uint64_t nextOpId() {
    return NextOpId.fetch_add(1, std::memory_order_relaxed);
  }

  /// Request-tracing hook shared by every public op template (backends
  /// with their own entry points — SimIo::simRead/simWrite — call it too):
  /// stamps the submitter's active span on \p State and, when a store is
  /// attached and a span is active, opens a timed child op span whose end
  /// is a one-shot completion callback. Registered before the backend sees
  /// the state, so no completion can be missed; callbacks drain on both
  /// successful and erroneous completion (shutdown included).
  void startOpSpan(FutureStateBase &State, const char *OpName);

  /// Counts one erroneous completion.
  void noteFault() { FaultedOps.fetch_add(1, std::memory_order_relaxed); }

private:
  const std::string Prefix;
  mutable std::mutex FaultMutex;
  std::shared_ptr<FaultPlan> Faults;
  std::atomic<uint64_t> NextOpId{1};   ///< event-ring op ids
  std::atomic<uint64_t> FaultedOps{0}; ///< erroneous completions
  std::atomic<SpanStore *> Spans{nullptr};
};

} // namespace repro::icilk

#endif // REPRO_ICILK_IO_H
