//===- icilk/EpollReactor.cpp - Real-fd epoll I/O backend -------------------===//

#include "icilk/EpollReactor.h"

#include "icilk/EventRing.h"
#include "icilk/Runtime.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace repro::icilk {

namespace {

/// Dispatches a completion outside any reactor state: requeue parked
/// waiters, run one-shot callbacks.
void dispatch(Wakeup W) {
  for (Waiter &Wt : W.Waiters)
    Wt.Rt->resumeTask(Wt.T);
  for (std::function<void()> &Fn : W.Callbacks)
    Fn();
}

/// Maps a syscall errno onto the runtime's error vocabulary. Connection
/// teardown errnos get the specific code retries key off; the long tail
/// stays inspectable through IoError::errnoValue().
IoErrc errcFromErrno(int E) {
  switch (E) {
  case ECONNRESET:
  case EPIPE:
    return IoErrc::Reset;
  case ETIMEDOUT:
    return IoErrc::Timeout;
  default:
    return IoErrc::OsError;
  }
}

} // namespace

EpollReactor::EpollReactor(std::string MetricsPrefix)
    : Io(std::move(MetricsPrefix)) {
  EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
  WakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (EpollFd >= 0 && WakeFd >= 0) {
    struct epoll_event Ev {};
    Ev.events = EPOLLIN;
    Ev.data.fd = WakeFd;
    ::epoll_ctl(EpollFd, EPOLL_CTL_ADD, WakeFd, &Ev);
    Loop = std::thread([this] { loop(); });
  } else {
    // Out of fds at construction: run permanently "down" — every
    // submission fails fast with Shutdown instead of crashing.
    Down.store(true, std::memory_order_release);
  }
}

EpollReactor::~EpollReactor() {
  shutdown();
  if (EpollFd >= 0)
    ::close(EpollFd);
  if (WakeFd >= 0)
    ::close(WakeFd);
}

void EpollReactor::wakeLoop() {
  if (WakeFd < 0)
    return;
  uint64_t One = 1;
  ssize_t N;
  do {
    N = ::write(WakeFd, &One, sizeof One);
  } while (N < 0 && errno == EINTR);
}

//===----------------------------------------------------------------------===//
// Submission (any thread)
//===----------------------------------------------------------------------===//

void EpollReactor::submitOp(FdOp &O) {
  switch (O.Kind) {
  case OpKind::Read:
    Reads.fetch_add(1, std::memory_order_relaxed);
    break;
  case OpKind::Write:
    Writes.fetch_add(1, std::memory_order_relaxed);
    break;
  case OpKind::Accept:
    Accepts.fetch_add(1, std::memory_order_relaxed);
    break;
  case OpKind::Connect:
    Connects.fetch_add(1, std::memory_order_relaxed);
    break;
  }
  O.OpId = nextOpId();
  O.State->setIoOpId(O.OpId);
  O.Level = static_cast<uint8_t>(O.State->level());
  Pending.fetch_add(1, std::memory_order_relaxed);
  trace::emit(trace::EventKind::IoBegin, O.Level, O.OpId, 0);

  FaultPlan::Decision D = drawFault();
  if (D.K == FaultPlan::Kind::None && !Down.load(std::memory_order_acquire) &&
      attempt(O)) {
    // Finished on this thread: the future is ready before submit returns,
    // so its toucher never suspends and the loop never hears of the op.
    Inline.fetch_add(1, std::memory_order_relaxed);
    finishOp(O);
    return;
  }
  bool DownNow;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    DownNow = Down.load(std::memory_order_relaxed);
    if (!DownNow) {
      switch (D.K) {
      case FaultPlan::Kind::None:
        // Would block: the loop parks it without re-issuing the syscall.
        Queue.push_back(Incoming{std::make_shared<FdOp>(std::move(O)), -1});
        break;
      case FaultPlan::Kind::Fail:
        // A real op's latency is the kernel's to decide; an injected
        // failure surfaces on the next loop tick.
        pushTimerLocked(0, [this, State = O.State, OpId = O.OpId,
                            Level = O.Level, Code = D.Code] {
          failState(State, OpId, Level, Code, 0);
        });
        break;
      case FaultPlan::Kind::Delay:
        // Hold the op on the timer heap, then start it on the loop.
        pushTimerLocked(D.ExtraLatencyMicros,
                        [this, Op = std::make_shared<FdOp>(std::move(O))] {
                          startOp(Op);
                        });
        break;
      case FaultPlan::Kind::Drop:
        pushTimerLocked(D.DropAfterMicros,
                        [this, State = O.State, OpId = O.OpId,
                         Level = O.Level, Code = D.Code] {
                          failState(State, OpId, Level, Code, 0);
                        });
        break;
      }
    }
  }
  if (DownNow) {
    failOp(O, IoErrc::Shutdown);
    return;
  }
  wakeLoop();
}

void EpollReactor::submitRead(int Fd, void *Buf, std::size_t Len,
                              std::shared_ptr<FutureState<IoResult>> State) {
  FdOp O;
  O.Kind = OpKind::Read;
  O.Fd = Fd;
  O.RBuf = Buf;
  O.Len = Len;
  O.State = std::move(State);
  submitOp(O);
}

void EpollReactor::submitWrite(int Fd, const void *Buf, std::size_t Len,
                               std::shared_ptr<FutureState<IoResult>> State) {
  FdOp O;
  O.Kind = OpKind::Write;
  O.Fd = Fd;
  O.WBuf = Buf;
  O.Len = Len;
  O.State = std::move(State);
  submitOp(O);
}

void EpollReactor::submitAccept(int Fd,
                                std::shared_ptr<FutureState<IoResult>> State) {
  FdOp O;
  O.Kind = OpKind::Accept;
  O.Fd = Fd;
  O.State = std::move(State);
  submitOp(O);
}

void EpollReactor::submitConnect(int Fd, const struct sockaddr *Addr,
                                 socklen_t AddrLen,
                                 std::shared_ptr<FutureState<IoResult>> State) {
  FdOp O;
  O.Kind = OpKind::Connect;
  O.Fd = Fd;
  if (AddrLen > 0 && AddrLen <= sizeof(O.Addr))
    std::memcpy(&O.Addr, Addr, AddrLen);
  O.AddrLen = AddrLen;
  O.State = std::move(State);
  submitOp(O);
}

void EpollReactor::submitTimer(uint64_t LatencyMicros,
                               std::function<void()> Fn) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Down.load(std::memory_order_relaxed)) {
      pushTimerLocked(LatencyMicros, std::move(Fn));
      Fn = nullptr;
    }
  }
  if (Fn) {
    // After shutdown a timer "fires early": inline, on the submitter.
    Fn();
    return;
  }
  wakeLoop();
}

void EpollReactor::submitSleep(uint64_t LatencyMicros,
                               std::shared_ptr<FutureState<Unit>> State) {
  // Timer-backed, not a counted I/O op: the sentinel keeps profiler
  // attribution (see Profiler.h / SimIo) identical across backends.
  State->setIoOpId(UINT64_MAX);
  submitTimer(LatencyMicros, [State = std::move(State)] {
    dispatch(State->complete(Unit{}));
  });
}

void EpollReactor::cancelFd(int Fd) {
  bool DownNow;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    DownNow = Down.load(std::memory_order_relaxed);
    if (!DownNow)
      Queue.push_back(Incoming{nullptr, Fd});
  }
  if (!DownNow)
    wakeLoop();
  // After shutdown every in-flight op is already erroneously complete.
}

//===----------------------------------------------------------------------===//
// Timer heap
//===----------------------------------------------------------------------===//

void EpollReactor::pushTimerLocked(uint64_t LatencyMicros,
                                   std::function<void()> Fn) {
  Timers.push(TimerEntry{repro::nowNanos() + LatencyMicros * 1000, TimerSeq++,
                         std::move(Fn)});
}

int EpollReactor::nextTimeoutMillisLocked() const {
  if (!Queue.empty())
    return 0;
  if (Timers.empty())
    return -1; // nothing scheduled: sleep until woken
  uint64_t Now = repro::nowNanos();
  uint64_t Deadline = Timers.top().DeadlineNanos;
  if (Deadline <= Now)
    return 0;
  // Round up so a timer never fires a tick early and spins.
  uint64_t Millis = (Deadline - Now + 999999) / 1000000;
  return static_cast<int>(std::min<uint64_t>(Millis, 60000));
}

void EpollReactor::fireDueTimers() {
  std::vector<std::function<void()>> Due;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    uint64_t Now = repro::nowNanos();
    while (!Timers.empty() && Timers.top().DeadlineNanos <= Now) {
      Due.push_back(Timers.top().Fn);
      Timers.pop();
    }
  }
  for (auto &Fn : Due)
    Fn();
}

//===----------------------------------------------------------------------===//
// The loop (one thread; sole owner of Fds and of every parked op's syscalls)
//===----------------------------------------------------------------------===//

void EpollReactor::loop() {
  trace::setThreadName("reactor");
  constexpr int MaxEvents = 64;
  struct epoll_event Events[MaxEvents];
  while (true) {
    int TimeoutMs;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Down.load(std::memory_order_relaxed))
        return; // shutdown() finishes the cleanup after joining us
      TimeoutMs = nextTimeoutMillisLocked();
    }
    int N = ::epoll_wait(EpollFd, Events, MaxEvents, TimeoutMs);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return; // epoll fd gone: nothing left to drive
    }
    Wakeups.fetch_add(1, std::memory_order_relaxed);

    // Drain cross-thread submissions first: a new op on an fd whose
    // readiness edge is in this very batch must be parked before the
    // event is processed.
    std::vector<Incoming> Batch;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Batch.swap(Queue);
    }
    for (Incoming &In : Batch) {
      if (In.Op)
        parkOp(std::move(In.Op));
      else if (In.CancelFd >= 0)
        cancelFdOnLoop(In.CancelFd);
    }

    fireDueTimers();

    for (int I = 0; I < N; ++I) {
      if (Events[I].data.fd == WakeFd) {
        uint64_t Drain;
        while (::read(WakeFd, &Drain, sizeof Drain) > 0) {
        }
        continue;
      }
      onFdEvent(Events[I].data.fd, Events[I].events);
    }
  }
}

void EpollReactor::startOp(OpPtr O) {
  if (Down.load(std::memory_order_acquire)) {
    // A delayed op whose timer fired early, at shutdown.
    failOp(*O, IoErrc::Shutdown);
    return;
  }
  if (attempt(*O)) {
    finishOp(*O);
    return;
  }
  parkOp(std::move(O));
}

bool EpollReactor::attempt(FdOp &O) {
  auto Ok = [&](IoResult R) {
    O.Failed = false;
    O.Result = R;
    return true;
  };
  auto Fail = [&](IoErrc C, int E) {
    O.Failed = true;
    O.Err = C;
    O.Errno = E;
    return true;
  };
  switch (O.Kind) {
  case OpKind::Read:
    for (;;) {
      ssize_t N = ::read(O.Fd, O.RBuf, O.Len);
      if (N >= 0)
        return Ok(static_cast<IoResult>(N));
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return false;
      return Fail(errcFromErrno(errno), errno);
    }
  case OpKind::Accept:
    for (;;) {
      int Client = ::accept4(O.Fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (Client >= 0)
        return Ok(static_cast<IoResult>(Client));
      if (errno == EINTR || errno == ECONNABORTED)
        continue; // the aborted connection is nobody's op: take the next
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return false;
      return Fail(errcFromErrno(errno), errno);
    }
  case OpKind::Write:
    for (;;) {
      if (O.Done >= O.Len)
        return Ok(static_cast<IoResult>(O.Len));
      ssize_t N = ::write(O.Fd, static_cast<const char *>(O.WBuf) + O.Done,
                          O.Len - O.Done);
      if (N > 0) {
        O.Done += static_cast<std::size_t>(N);
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return false; // resume at the next writability edge
      return Fail(N < 0 ? errcFromErrno(errno) : IoErrc::OsError,
                  N < 0 ? errno : 0);
    }
  case OpKind::Connect:
    if (!O.ConnectIssued) {
      // EINTR on connect means it proceeds asynchronously, same as
      // EINPROGRESS — never re-issue the syscall.
      int R = ::connect(O.Fd, reinterpret_cast<struct sockaddr *>(&O.Addr),
                        O.AddrLen);
      if (R == 0)
        return Ok(0);
      if (errno == EINPROGRESS || errno == EINTR || errno == EAGAIN) {
        O.ConnectIssued = true;
        return false; // resolved by the EPOLLOUT edge
      }
      return Fail(errcFromErrno(errno), errno);
    } else {
      // Only ever reached from a readiness edge: before the handshake
      // resolves SO_ERROR reads 0 too, so polling it early would report a
      // connect still in flight as done.
      int Err = 0;
      socklen_t Len = sizeof Err;
      if (::getsockopt(O.Fd, SOL_SOCKET, SO_ERROR, &Err, &Len) < 0)
        Err = errno;
      if (Err == 0)
        return Ok(0);
      if (Err == EINPROGRESS)
        return false; // spurious wakeup: still connecting
      return Fail(errcFromErrno(Err), Err);
    }
  }
  return true; // unreachable
}

void EpollReactor::finishOp(FdOp &O) {
  if (O.Failed)
    failOp(O, O.Err, O.Errno);
  else
    completeOp(O, O.Result);
}

void EpollReactor::parkOp(OpPtr O) {
  int Fd = O->Fd;
  FdState &S = Fds[Fd];
  bool ReadDir = O->Kind == OpKind::Read || O->Kind == OpKind::Accept;
  OpPtr &Slot = ReadDir ? S.ReadOp : S.WriteOp;
  if (Slot) {
    // One op per direction per fd: a second concurrent one is a caller
    // bug, surfaced loudly rather than silently queued.
    failOp(*O, IoErrc::OsError, EBUSY);
    return;
  }
  Slot = std::move(O);
  rearm(Fd);
}

void EpollReactor::rearm(int Fd) {
  auto It = Fds.find(Fd);
  if (It == Fds.end())
    return;
  FdState &S = It->second;
  uint32_t Want = 0;
  if (S.ReadOp)
    Want |= EPOLLIN | EPOLLRDHUP;
  if (S.WriteOp)
    Want |= EPOLLOUT;
  if (Want == 0) {
    if (S.Armed)
      ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, Fd, nullptr);
    Fds.erase(It);
    return;
  }
  struct epoll_event Ev {};
  Ev.events = Want | EPOLLET;
  Ev.data.fd = Fd;
  if (S.Armed == 0) {
    // ADD (like MOD below) reports current readiness as an initial edge,
    // so a byte that landed between the submitter's EAGAIN and this
    // registration is not lost.
    if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev) < 0) {
      int E = errno;
      OpPtr R = std::move(S.ReadOp), W = std::move(S.WriteOp);
      Fds.erase(It);
      if (R)
        failOp(*R, errcFromErrno(E), E);
      if (W)
        failOp(*W, errcFromErrno(E), E);
      return;
    }
  } else if (S.Armed != (Want | EPOLLET)) {
    ::epoll_ctl(EpollFd, EPOLL_CTL_MOD, Fd, &Ev);
  }
  S.Armed = Want | EPOLLET;
}

void EpollReactor::onFdEvent(int Fd, uint32_t Events) {
  auto It = Fds.find(Fd);
  if (It == Fds.end())
    return; // op completed/cancelled before this edge was processed
  FdState &S = It->second;
  bool ErrEdge = (Events & (EPOLLERR | EPOLLHUP)) != 0;
  OpPtr FinishedR, FinishedW;
  if (S.ReadOp && (ErrEdge || (Events & (EPOLLIN | EPOLLRDHUP))) &&
      attempt(*S.ReadOp))
    FinishedR = std::move(S.ReadOp);
  if (S.WriteOp && (ErrEdge || (Events & EPOLLOUT)) && attempt(*S.WriteOp))
    FinishedW = std::move(S.WriteOp);
  // Deregister BEFORE publishing completions: the moment a future reads
  // ready its submitter may close the fd, so the loop must already have
  // dropped every reference (epoll_ctl included) by then.
  rearm(Fd); // drops the registration when both slots emptied
  if (FinishedR)
    finishOp(*FinishedR);
  if (FinishedW)
    finishOp(*FinishedW);
}

void EpollReactor::cancelFdOnLoop(int Fd) {
  auto It = Fds.find(Fd);
  if (It == Fds.end())
    return;
  OpPtr R = std::move(It->second.ReadOp);
  OpPtr W = std::move(It->second.WriteOp);
  if (It->second.Armed)
    ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, Fd, nullptr);
  Fds.erase(It);
  if (R)
    failOp(*R, IoErrc::Cancelled);
  if (W)
    failOp(*W, IoErrc::Cancelled);
}

//===----------------------------------------------------------------------===//
// Completion
//===----------------------------------------------------------------------===//

void EpollReactor::completeOp(FdOp &O, IoResult R) {
  Done.fetch_add(1, std::memory_order_relaxed);
  Pending.fetch_sub(1, std::memory_order_relaxed);
  trace::emit(trace::EventKind::IoComplete, O.Level, O.OpId);
  dispatch(O.State->complete(R));
}

void EpollReactor::failState(std::shared_ptr<FutureState<IoResult>> State,
                             uint64_t OpId, uint8_t Level, IoErrc Code,
                             int Errno) {
  Done.fetch_add(1, std::memory_order_relaxed);
  Pending.fetch_sub(1, std::memory_order_relaxed);
  noteFault();
  trace::emit(trace::EventKind::IoFault, Level, OpId);
  dispatch(
      State->completeError(std::make_exception_ptr(IoError(Code, Errno))));
}

void EpollReactor::failOp(FdOp &O, IoErrc Code, int Errno) {
  failState(O.State, O.OpId, O.Level, Code, Errno);
}

//===----------------------------------------------------------------------===//
// Shutdown
//===----------------------------------------------------------------------===//

void EpollReactor::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Down.exchange(true, std::memory_order_acq_rel))
      return; // someone else already ran (or is running) the teardown
  }
  wakeLoop();
  if (Loop.joinable())
    Loop.join();

  // Single-threaded from here: the loop is dead and every new submission
  // fails fast, so Queue/Timers/Fds can only shrink.
  std::vector<Incoming> Batch;
  std::vector<std::function<void()>> LateTimers;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Batch.swap(Queue);
    while (!Timers.empty()) {
      LateTimers.push_back(Timers.top().Fn);
      Timers.pop();
    }
  }
  for (Incoming &In : Batch)
    if (In.Op)
      failOp(*In.Op, IoErrc::Shutdown);
  for (auto &[Fd, S] : Fds) {
    if (S.Armed)
      ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, Fd, nullptr);
    if (S.ReadOp)
      failOp(*S.ReadOp, IoErrc::Shutdown);
    if (S.WriteOp)
      failOp(*S.WriteOp, IoErrc::Shutdown);
  }
  Fds.clear();
  // Pending timers fire early (matching SimIo's teardown semantics), so
  // ftouchFor gates resolve and admission sweeps run their last lap.
  for (auto &Fn : LateTimers)
    Fn();
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

uint64_t EpollReactor::completed() const {
  return Done.load(std::memory_order_relaxed);
}

uint64_t EpollReactor::inFlight() const {
  return Pending.load(std::memory_order_relaxed);
}

void EpollReactor::sampleBackendMetrics(repro::MetricsRegistry &M,
                                        const std::string &Prefix) const {
  M.counter(Prefix + ".reads").set(reads());
  M.counter(Prefix + ".writes").set(writes());
  M.counter(Prefix + ".accepts").set(accepts());
  M.counter(Prefix + ".connects").set(connects());
  M.counter(Prefix + ".loop_wakeups").set(loopWakeups());
  M.counter(Prefix + ".inline").set(inlineOps());
}

} // namespace repro::icilk
