//===- icilk/EpollReactor.h - Real-fd epoll I/O backend ---------*- C++ -*-===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// The kernel-backed Io implementation: io_futures completed from real
// nonblocking file descriptors, the design point of the paper's Sec. 4.1
// sockets (and of Cilk-F's I/O latency hiding — see PAPERS.md, "Reduced
// I/O Latency with Futures").
//
// Try first, park on would-block: every submission draws its fault-plan
// decision, checks for shutdown, and then issues the op's nonblocking
// syscall right on the submitting thread. An op that finishes there (bytes
// already queued, a write that fits the send buffer, a connection already
// pending) completes its future before submit returns — no allocation, no
// inbox lock, no eventfd, and the toucher never suspends. Only an op that
// hits EAGAIN / EINPROGRESS is handed to the loop thread, which parks it
// in an edge-triggered epoll set WITHOUT re-issuing the syscall (an issued
// connect must never be re-attempted: SO_ERROR reads 0 while the handshake
// is still in flight) and re-drives it from the next readiness edge.
//
// Fd ownership: the loop touches an fd only while it holds a parked op for
// it, and deregisters the fd before it publishes that op's completion. A
// caller keeps at most one op per direction (read/accept, write/connect)
// in flight per fd, so a submitter's syscall never races the loop's on the
// same direction, and a caller that has touched every op on an fd to
// completion may close it.
//
// Operation semantics:
//   * read      — completes with the first successful read once the fd is
//                 readable: possibly short, 0 at EOF. EINTR is retried;
//                 EAGAIN parks the op until the next readiness edge.
//   * write     — completes with Len only after the WHOLE buffer is out;
//                 the loop resumes the op across short writes and EAGAIN
//                 storms. A reset peer surfaces as IoError(Reset).
//   * accept    — completes with the accepted fd (made nonblocking +
//                 cloexec); ECONNABORTED is swallowed and retried.
//   * connect   — completes with 0 once the nonblocking connect resolves
//                 (EINPROGRESS → EPOLLOUT → SO_ERROR check).
//
// Timer unification: the deadline heap (submitTimer / sleepFor — and with
// them Context::ftouchFor and the admission controller's queue-timeout
// sweeps) lives inside the same loop; epoll_wait's timeout is the next
// deadline, so timers need no second thread and fire with epoll_wait
// granularity. Fault-plan decisions are injected through the same heap
// (a failed op completes erroneously after a timer tick instead of
// touching the fd; a delayed op gets its first attempt on the loop once
// the delay expires).
//
// Graceful shutdown: shutdown() (idempotent, also run by the destructor)
// stops the loop, erroneously-completes every parked fd operation with
// IoErrc::Shutdown, fires every pending timer early, and makes all
// subsequent submissions fail immediately, before any syscall — a server
// can stop accepting, shut the reactor down, and then drain its runtime
// knowing no task stays parked on a dead fd.
//
//===----------------------------------------------------------------------===//

#ifndef REPRO_ICILK_EPOLLREACTOR_H
#define REPRO_ICILK_EPOLLREACTOR_H

#include "icilk/Io.h"

#include <map>
#include <queue>
#include <thread>
#include <vector>

namespace repro::icilk {

class EpollReactor : public Io {
public:
  explicit EpollReactor(std::string MetricsPrefix);
  ~EpollReactor() override;

  void submitTimer(uint64_t LatencyMicros, std::function<void()> Fn) override;

  uint64_t completed() const override;
  uint64_t inFlight() const override;

  /// Erroneously-completes (IoErrc::Cancelled) every operation parked on
  /// \p Fd. Asynchronous: the cancellation is processed by the loop
  /// thread; a toucher of the cancelled future is woken as usual. An op
  /// that already finished (inline or from an edge) is unaffected. An op
  /// submitted concurrently with the cancel may land after it and survive
  /// — callers serializing "cancel, then reuse the buffer" must touch the
  /// future to completion after cancelFd() returns it to readiness.
  void cancelFd(int Fd);

  /// Stops the loop, erroneously-completes parked fd futures
  /// (IoErrc::Shutdown), fires pending timers early, and fails all
  /// subsequent submissions immediately, without a syscall. Idempotent;
  /// the destructor calls it. After shutdown, submitTimer callbacks run
  /// inline on the submitting thread.
  void shutdown();

  /// Per-op-kind counters (reads/writes/accepts/connects submitted), loop
  /// wakeups, and ops finished on the submitting thread without reaching
  /// the loop, for tests and /metrics.
  uint64_t reads() const { return Reads.load(std::memory_order_relaxed); }
  uint64_t writes() const { return Writes.load(std::memory_order_relaxed); }
  uint64_t accepts() const { return Accepts.load(std::memory_order_relaxed); }
  uint64_t connects() const {
    return Connects.load(std::memory_order_relaxed);
  }
  uint64_t loopWakeups() const {
    return Wakeups.load(std::memory_order_relaxed);
  }
  uint64_t inlineOps() const { return Inline.load(std::memory_order_relaxed); }

protected:
  void submitRead(int Fd, void *Buf, std::size_t Len,
                  std::shared_ptr<FutureState<IoResult>> State) override;
  void submitWrite(int Fd, const void *Buf, std::size_t Len,
                   std::shared_ptr<FutureState<IoResult>> State) override;
  void submitAccept(int Fd,
                    std::shared_ptr<FutureState<IoResult>> State) override;
  void submitConnect(int Fd, const struct sockaddr *Addr, socklen_t AddrLen,
                     std::shared_ptr<FutureState<IoResult>> State) override;
  void submitSleep(uint64_t LatencyMicros,
                   std::shared_ptr<FutureState<Unit>> State) override;
  void sampleBackendMetrics(repro::MetricsRegistry &M,
                            const std::string &Prefix) const override;

private:
  enum class OpKind { Read, Write, Accept, Connect };

  /// One fd operation. Lives on the submitter's stack while it is tried
  /// first; only an op that would block is copied to the heap and owned by
  /// the loop thread (parked in FdState until the fd turns ready).
  struct FdOp {
    OpKind Kind;
    int Fd = -1;
    void *RBuf = nullptr;       ///< Read: destination
    const void *WBuf = nullptr; ///< Write: source
    std::size_t Len = 0;
    std::size_t Done = 0;       ///< Write: bytes already out
    sockaddr_storage Addr{};    ///< Connect: destination (copied)
    socklen_t AddrLen = 0;
    bool ConnectIssued = false; ///< Connect: issued once, never again
    std::shared_ptr<FutureState<IoResult>> State;
    uint64_t OpId = 0;
    uint8_t Level = 0;
    /// Terminal outcome, recorded by attempt() and published by
    /// finishOp() — completion is deferred so the loop can deregister the
    /// fd first (see onFdEvent).
    IoResult Result = 0;
    IoErrc Err = IoErrc::OsError;
    int Errno = 0;
    bool Failed = false;
  };

  /// Shared ownership so timer lambdas (std::function is copy-requiring)
  /// can hold deferred operations.
  using OpPtr = std::shared_ptr<FdOp>;

  /// Per-fd parking slots: at most one pending read-direction op (read or
  /// accept) and one write-direction op (write or connect) per fd.
  struct FdState {
    OpPtr ReadOp;
    OpPtr WriteOp;
    uint32_t Armed = 0; ///< epoll interest mask currently registered
  };

  struct TimerEntry {
    uint64_t DeadlineNanos;
    uint64_t Seq; ///< FIFO among equal deadlines
    std::function<void()> Fn;

    bool operator>(const TimerEntry &O) const {
      return DeadlineNanos != O.DeadlineNanos ? DeadlineNanos > O.DeadlineNanos
                                              : Seq > O.Seq;
    }
  };

  /// Cross-thread submission envelope drained by the loop.
  struct Incoming {
    OpPtr Op;          ///< would-block fd operation to park, or...
    int CancelFd = -1; ///< ...an fd whose parked ops to cancel
  };

  /// Counts, draws the fault decision, checks shutdown, then tries \p O on
  /// the calling thread; a would-block op is copied to the loop's inbox.
  void submitOp(FdOp &O);
  void wakeLoop();
  void loop();
  /// First attempt of a fault-delayed op, on the loop: finish or park.
  void startOp(OpPtr O);
  /// Attempts the op's syscall now. Returns true when the op reached a
  /// terminal state, recorded in O.Result / O.Err but NOT yet published
  /// to the future — callers publish with finishOp() after any fd
  /// deregistration. False means EAGAIN/EINPROGRESS: park the op.
  bool attempt(FdOp &O);
  /// Publishes a terminal op to its future (complete or fail). Once this
  /// runs, a submitter may close the fd — the loop must be done with it.
  void finishOp(FdOp &O);
  /// Parks a would-block op on its fd without issuing its syscall; the
  /// registration's initial edge covers readiness that arrived since.
  void parkOp(OpPtr O);
  void rearm(int Fd);
  void onFdEvent(int Fd, uint32_t Events);
  void completeOp(FdOp &O, IoResult R);
  void failOp(FdOp &O, IoErrc Code, int Errno = 0);
  /// Counter/trace bookkeeping of an erroneous completion, shared by
  /// failOp and the fault-injection timer lambdas.
  void failState(std::shared_ptr<FutureState<IoResult>> State, uint64_t OpId,
                 uint8_t Level, IoErrc Code, int Errno);
  void cancelFdOnLoop(int Fd);
  void pushTimerLocked(uint64_t LatencyMicros, std::function<void()> Fn);
  int nextTimeoutMillisLocked() const;
  void fireDueTimers();

  int EpollFd = -1;
  int WakeFd = -1; ///< eventfd the submitters poke

  mutable std::mutex Mutex; ///< guards Queue, Timers, Down transitions
  std::vector<Incoming> Queue;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      Timers;
  uint64_t TimerSeq = 0;
  std::atomic<bool> Down{false}; ///< set by shutdown(); submissions fail fast

  /// Loop-thread-only fd state (no lock needed).
  std::map<int, FdState> Fds;

  std::atomic<uint64_t> Done{0};
  std::atomic<uint64_t> Pending{0};
  std::atomic<uint64_t> Reads{0}, Writes{0}, Accepts{0}, Connects{0};
  std::atomic<uint64_t> Wakeups{0};
  std::atomic<uint64_t> Inline{0}; ///< ops finished without the loop

  std::thread Loop;
};

} // namespace repro::icilk

#endif // REPRO_ICILK_EPOLLREACTOR_H
