//===- tests/icilk/reactor_test.cpp - Real-fd epoll backend edge cases ------===//
//
// Loopback exercises of EpollReactor: partial reads, short-write/EAGAIN
// storms, EOF, peer resets, cancellation, shutdown with in-flight futures,
// fault injection, and deadline touches — all over real sockets. Runs
// under TSan/ASan via scripts/check.sh (part of icilk_tests).
//
//===----------------------------------------------------------------------===//

#include "icilk/Context.h"
#include "icilk/EpollReactor.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

namespace repro::icilk {
namespace {

ICILK_PRIORITY(Low, BasePriority, 0);
ICILK_PRIORITY(High, Low, 1);

void setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  ASSERT_GE(Flags, 0);
  ASSERT_EQ(::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK), 0);
}

/// A connected nonblocking AF_UNIX stream pair.
struct UnixPair {
  UnixPair() { setup(); }
  void setup() {
    int Fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    A = Fds[0];
    B = Fds[1];
    setNonBlocking(A);
    setNonBlocking(B);
  }
  ~UnixPair() {
    if (A >= 0)
      ::close(A);
    if (B >= 0)
      ::close(B);
  }
  void closeA() {
    ::close(A);
    A = -1;
  }
  void closeB() {
    ::close(B);
    B = -1;
  }
  int A = -1, B = -1;
};

struct sockaddr *asSockaddr(struct sockaddr_in &Addr) {
  return reinterpret_cast<struct sockaddr *>(&Addr);
}

/// A TCP listener on an ephemeral loopback port (socket type flags
/// \p Flags added), its address in \p Addr; -1 on failure.
int listenLoopback(int Backlog, struct sockaddr_in &Addr, int Flags = 0) {
  int L = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | Flags, 0);
  Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t Len = sizeof Addr;
  if (L >= 0 && (::bind(L, asSockaddr(Addr), sizeof Addr) != 0 ||
                 ::listen(L, Backlog) != 0 ||
                 ::getsockname(L, asSockaddr(Addr), &Len) != 0)) {
    ::close(L);
    L = -1;
  }
  return L;
}

/// A connected nonblocking TCP loopback pair (Client, Server). TCP is
/// needed where AF_UNIX can't express the scenario: RST generation and
/// kernel-bounded send buffers.
struct TcpPair {
  TcpPair() { setup(); }
  void setup() {
    struct sockaddr_in Addr;
    int L = listenLoopback(1, Addr);
    ASSERT_GE(L, 0);
    Client = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(Client, 0);
    ASSERT_EQ(::connect(Client, asSockaddr(Addr), sizeof Addr), 0);
    Server = ::accept(L, nullptr, nullptr);
    ASSERT_GE(Server, 0);
    ::close(L);
    setNonBlocking(Client);
    setNonBlocking(Server);
  }
  ~TcpPair() {
    if (Client >= 0)
      ::close(Client);
    if (Server >= 0)
      ::close(Server);
  }
  int Client = -1, Server = -1;
};

template <typename P, typename T> void spinReady(const Future<P, T> &F) {
  while (!F.isReady())
    std::this_thread::yield();
}

TEST(ReactorTest, SleepForCompletesAfterLatency) {
  EpollReactor Io{"rx"};
  uint64_t Start = repro::nowMicros();
  auto F = Io.sleepFor<Low>(3000);
  EXPECT_FALSE(F.isReady());
  spinReady(F);
  EXPECT_GE(repro::nowMicros() - Start + 500, 3000u);
}

TEST(ReactorTest, TimersFireInDeadlineOrder) {
  EpollReactor Io{"rx"};
  std::atomic<int> Order{0};
  std::atomic<int> SlowSaw{-1}, FastSaw{-1};
  Io.submitTimer(20000, [&] { SlowSaw = Order.fetch_add(1); });
  Io.submitTimer(1000, [&] { FastSaw = Order.fetch_add(1); });
  // Wait for the stores, not the counter: Order reaches 2 just before
  // SlowSaw is written.
  while (SlowSaw.load() < 0 || FastSaw.load() < 0)
    std::this_thread::yield();
  EXPECT_EQ(FastSaw.load(), 0);
  EXPECT_EQ(SlowSaw.load(), 1);
}

TEST(ReactorTest, ReadCompletesWhenDataAlreadyBuffered) {
  // Data written *before* the op is submitted completes it on the
  // submitting thread: the future is ready when read() returns and the
  // loop never wakes. (The EPOLL_CTL_ADD initial edge now only covers
  // bytes that land between the submitter's EAGAIN and the loop's
  // registration.)
  EpollReactor Io{"rx"};
  UnixPair P;
  ASSERT_EQ(::write(P.B, "hello", 5), 5);
  uint64_t Wakeups = Io.loopWakeups();
  char Buf[16];
  auto F = Io.read<High>(P.A, Buf, sizeof Buf);
  ASSERT_TRUE(F.isReady());
  EXPECT_EQ(F.state()->value(), 5);
  EXPECT_EQ(std::memcmp(Buf, "hello", 5), 0);
  EXPECT_EQ(Io.inlineOps(), 1u);
  EXPECT_EQ(Io.loopWakeups(), Wakeups);
}

TEST(ReactorTest, WriteAndAcceptThatCanFinishCompleteInline) {
  // A write that fits the send buffer and an accept with a connection
  // already queued finish on the submitting thread too.
  EpollReactor Io{"rx"};
  uint64_t Wakeups = Io.loopWakeups();
  UnixPair P;
  auto W = Io.write<Low>(P.A, "ping", 4);
  ASSERT_TRUE(W.isReady());
  EXPECT_EQ(W.state()->value(), 4);
  EXPECT_EQ(Io.inlineOps(), 1u);

  struct sockaddr_in Addr;
  int L = listenLoopback(4, Addr, SOCK_NONBLOCK);
  ASSERT_GE(L, 0);
  int C = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(C, 0);
  ASSERT_EQ(::connect(C, asSockaddr(Addr), sizeof Addr), 0);
  auto A = Io.accept<High>(L);
  ASSERT_TRUE(A.isReady());
  int S = static_cast<int>(A.state()->value());
  EXPECT_GE(S, 0);
  EXPECT_EQ(Io.inlineOps(), 2u);
  EXPECT_EQ(Io.loopWakeups(), Wakeups);
  ::close(S);
  ::close(C);
  ::close(L);
}

TEST(ReactorTest, ReadParksUntilDataArrives) {
  EpollReactor Io{"rx"};
  UnixPair P;
  char Buf[16];
  auto F = Io.read<High>(P.A, Buf, sizeof Buf);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(F.isReady()) << "no data yet: the op must stay parked";
  ASSERT_EQ(::write(P.B, "ping", 4), 4);
  spinReady(F);
  EXPECT_EQ(F.state()->value(), 4);
}

TEST(ReactorTest, PartialReadCompletesShort) {
  // The contract is "first successful read": 3 bytes into an 8-byte
  // buffer completes with 3, not a blocked wait for 8.
  EpollReactor Io{"rx"};
  UnixPair P;
  ASSERT_EQ(::write(P.B, "abc", 3), 3);
  char Buf[8];
  auto F = Io.read<Low>(P.A, Buf, sizeof Buf);
  spinReady(F);
  EXPECT_EQ(F.state()->value(), 3);
}

TEST(ReactorTest, EofCompletesWithZero) {
  EpollReactor Io{"rx"};
  UnixPair P;
  char Buf[8];
  auto F = Io.read<Low>(P.A, Buf, sizeof Buf);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  P.closeB();
  spinReady(F);
  EXPECT_EQ(F.state()->value(), 0);
}

TEST(ReactorTest, WriteResumesAcrossEagainStorm) {
  // A payload far beyond the kernel send buffer: the loop must park the
  // op on EAGAIN, resume on every EPOLLOUT edge, and complete only when
  // the whole buffer is out. The reader drains slowly to force many
  // short-write laps.
  EpollReactor Io{"rx"};
  TcpPair P;
  int Small = 4096;
  ::setsockopt(P.Client, SOL_SOCKET, SO_SNDBUF, &Small, sizeof Small);
  ::setsockopt(P.Server, SOL_SOCKET, SO_RCVBUF, &Small, sizeof Small);
  const std::size_t Total = 512 * 1024;
  std::vector<char> Payload(Total);
  for (std::size_t I = 0; I < Total; ++I)
    Payload[I] = static_cast<char>(I * 31);

  std::atomic<std::size_t> Received{0};
  std::thread Reader([&] {
    std::vector<char> Chunk(4096);
    std::size_t Got = 0;
    int Laps = 0;
    while (Got < Total) {
      long N = ::read(P.Server, Chunk.data(), Chunk.size());
      if (N > 0) {
        // Verify the byte stream while draining.
        for (long I = 0; I < N; ++I)
          if (Chunk[static_cast<std::size_t>(I)] !=
              static_cast<char>((Got + static_cast<std::size_t>(I)) * 31)) {
            ADD_FAILURE() << "corrupt byte at offset " << Got + I;
            return;
          }
        Got += static_cast<std::size_t>(N);
        // Throttle the early laps so the writer really hits EAGAIN.
        if (++Laps < 16)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } else {
        std::this_thread::yield();
      }
    }
    Received = Got;
  });

  auto F = Io.write<Low>(P.Client, Payload.data(), Total);
  spinReady(F);
  EXPECT_EQ(F.state()->value(), static_cast<long>(Total));
  Reader.join();
  EXPECT_EQ(Received.load(), Total);
}

TEST(ReactorTest, PeerResetSurfacesAsIoError) {
  EpollReactor Io{"rx"};
  TcpPair P;
  // SO_LINGER{on, 0} makes close() send RST instead of FIN.
  struct linger Lin {};
  Lin.l_onoff = 1;
  Lin.l_linger = 0;
  ASSERT_EQ(::setsockopt(P.Server, SOL_SOCKET, SO_LINGER, &Lin, sizeof Lin),
            0);
  char Buf[16];
  auto F = Io.read<Low>(P.Client, Buf, sizeof Buf);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ::close(P.Server);
  P.Server = -1;
  spinReady(F);
  try {
    (void)F.state()->value();
    FAIL() << "a reset peer must complete the read erroneously";
  } catch (const IoError &E) {
    EXPECT_EQ(E.code(), IoErrc::Reset);
  }
  EXPECT_EQ(Io.faulted(), 1u);
}

TEST(ReactorTest, AcceptAndConnectOverLoopback) {
  EpollReactor Io{"rx"};
  // Nonblocking listener, reactor-driven accept + connect.
  struct sockaddr_in Addr;
  int L = listenLoopback(4, Addr, SOCK_NONBLOCK);
  ASSERT_GE(L, 0);

  auto Accepted = Io.accept<High>(L);
  int C = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  ASSERT_GE(C, 0);
  auto Connected = Io.connect<Low>(C, asSockaddr(Addr), sizeof Addr);
  spinReady(Connected);
  EXPECT_EQ(Connected.state()->value(), 0);
  spinReady(Accepted);
  int S = static_cast<int>(Accepted.state()->value());
  ASSERT_GE(S, 0);

  // Round-trip a byte through the freshly built pair, via the reactor.
  char Out = 'x', In = 0;
  auto W = Io.write<Low>(C, &Out, 1);
  auto R = Io.read<Low>(S, &In, 1);
  spinReady(W);
  spinReady(R);
  EXPECT_EQ(R.state()->value(), 1);
  EXPECT_EQ(In, 'x');

  EXPECT_EQ(Io.accepts(), 1u);
  EXPECT_EQ(Io.connects(), 1u);
  EXPECT_EQ(Io.reads(), 1u);
  EXPECT_EQ(Io.writes(), 1u);

  ::close(S);
  ::close(C);
  ::close(L);
}

TEST(ReactorTest, ConnectWaitsForTheHandshakeItIssued) {
  // A connect that gets EINPROGRESS is parked, never re-issued: while the
  // handshake is in flight SO_ERROR reads 0, so polling it early would
  // report success. A full accept queue (backlog 1 holds two un-accepted
  // connections) makes the kernel drop our SYN; the connect may resolve
  // only after one of them is accepted and the SYN retransmit (~1 s)
  // lands.
  EpollReactor Io{"rx"};
  struct sockaddr_in Addr;
  int L = listenLoopback(1, Addr);
  ASSERT_GE(L, 0);
  int Fillers[2];
  for (int &Fd : Fillers) {
    Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(Fd, 0);
    ASSERT_EQ(::connect(Fd, asSockaddr(Addr), sizeof Addr), 0);
  }

  int C = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  ASSERT_GE(C, 0);
  auto F = Io.connect<Low>(C, asSockaddr(Addr), sizeof Addr);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(F.isReady()) << "the accept queue is full: no handshake yet";

  int S1 = ::accept(L, nullptr, nullptr);
  ASSERT_GE(S1, 0);
  uint64_t Deadline = repro::nowMicros() + 10'000'000;
  while (!F.isReady() && repro::nowMicros() < Deadline)
    std::this_thread::yield();
  ASSERT_TRUE(F.isReady()) << "the retransmitted SYN never completed it";
  EXPECT_EQ(F.state()->value(), 0);
  for (int Fd : {S1, C, Fillers[0], Fillers[1], L})
    ::close(Fd);
}

TEST(ReactorTest, CancelFdFailsParkedOps) {
  EpollReactor Io{"rx"};
  UnixPair P;
  char Buf[8];
  auto F = Io.read<Low>(P.A, Buf, sizeof Buf);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Io.cancelFd(P.A);
  spinReady(F);
  try {
    (void)F.state()->value();
    FAIL() << "cancelFd must complete the parked read erroneously";
  } catch (const IoError &E) {
    EXPECT_EQ(E.code(), IoErrc::Cancelled);
  }
}

TEST(ReactorTest, ShutdownFailsInFlightAndSubsequentOps) {
  UnixPair P;
  char Buf[8];
  EpollReactor Io{"rx"};
  auto Parked = Io.read<Low>(P.A, Buf, sizeof Buf);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(Parked.isReady());
  std::atomic<bool> TimerRan{false};
  Io.submitTimer(5'000'000, [&] { TimerRan = true; }); // fired early
  Io.shutdown();
  ASSERT_TRUE(Parked.isReady());
  try {
    (void)Parked.state()->value();
    FAIL() << "shutdown must complete parked futures erroneously";
  } catch (const IoError &E) {
    EXPECT_EQ(E.code(), IoErrc::Shutdown);
  }
  EXPECT_TRUE(TimerRan.load()) << "pending timers fire early at shutdown";

  // Post-shutdown submissions fail immediately (no hang, no crash) —
  // even on a readable fd: the shutdown check precedes the syscall.
  ASSERT_EQ(::write(P.B, "late", 4), 4);
  auto Late = Io.read<Low>(P.A, Buf, sizeof Buf);
  ASSERT_TRUE(Late.isReady());
  try {
    (void)Late.state()->value();
    FAIL() << "post-shutdown submit must fail fast";
  } catch (const IoError &E) {
    EXPECT_EQ(E.code(), IoErrc::Shutdown);
  }
  Io.shutdown(); // idempotent
  EXPECT_EQ(Io.inFlight(), 0u);
}

TEST(ReactorTest, FaultPlanInjectsErroneousCompletions) {
  EpollReactor Io{"rx"};
  FaultSpec Spec;
  Spec.FailProb = 1.0;
  Io.setFaultPlan(std::make_shared<FaultPlan>(/*Seed=*/7, Spec));
  UnixPair P;
  ASSERT_EQ(::write(P.B, "data", 4), 4); // readable — but the plan says no
  char Buf[8];
  auto F = Io.read<Low>(P.A, Buf, sizeof Buf);
  spinReady(F);
  EXPECT_THROW((void)F.state()->value(), IoError);
  EXPECT_EQ(Io.faulted(), 1u);
}

TEST(ReactorTest, WorkerRunsTasksWhileFdOpPends) {
  // The latency-hiding property on real fds: a worker whose task parks on
  // a socket read keeps executing other tasks meanwhile.
  RuntimeConfig C;
  C.NumWorkers = 1;
  C.NumLevels = 2;
  Runtime Rt(C);
  EpollReactor Io{"rx"};
  UnixPair P;
  std::atomic<int> Background{0};

  std::thread LateWriter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_EQ(::write(P.B, "payload", 7), 7);
  });
  char Buf[16];
  auto Waiter = fcreate<Low>(Rt, [&](Context<Low> &Ctx) {
    auto IoF = Io.read<High>(P.A, Buf, sizeof Buf);
    for (int I = 0; I < 10; ++I)
      Ctx.fcreate<Low>([&](Context<Low> &) { Background.fetch_add(1); });
    long Bytes = Ctx.ftouch(IoF); // helping runs the 10 tasks meanwhile
    return static_cast<int>(Bytes) + Background.load();
  });
  EXPECT_EQ(touchFromOutside(Rt, Waiter), 17)
      << "background tasks should finish during the socket wait";
  LateWriter.join();
}

TEST(ReactorTest, FtouchForDeadlineOnParkedRead) {
  // ftouchFor rides the reactor's own timer heap: a deadline on a read
  // that never completes comes back empty, and the op can then be
  // cancelled and touched to completion before the buffer dies.
  RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 2;
  Runtime Rt(C);
  EpollReactor Io{"rx"};
  UnixPair P;
  char Buf[8];
  auto Outcome = fcreate<High>(Rt, [&](Context<High> &Ctx) {
    auto F = Io.read<High>(P.A, Buf, sizeof Buf);
    auto R = Ctx.ftouchFor(F, Io, /*TimeoutMicros=*/5000);
    if (R.has_value())
      return -1; // nothing was ever written: must time out
    Io.cancelFd(P.A); // release the buffer safely (see Io.h contract)
    try {
      (void)Ctx.ftouch(F);
      return -2;
    } catch (const IoError &E) {
      return E.code() == IoErrc::Cancelled ? 1 : -3;
    }
  });
  EXPECT_EQ(touchFromOutside(Rt, Outcome), 1);
}

TEST(ReactorTest, MetricsCarryBackendCounters) {
  EpollReactor Io{"rxm"};
  UnixPair P;
  ASSERT_EQ(::write(P.B, "z", 1), 1);
  char Buf[4];
  auto F = Io.read<Low>(P.A, Buf, sizeof Buf);
  spinReady(F);
  repro::MetricsRegistry M;
  Io.sampleMetrics(M);
  EXPECT_EQ(M.counter("rxm.submitted").value(), 1u);
  EXPECT_EQ(M.counter("rxm.completed").value(), 1u);
  EXPECT_EQ(M.counter("rxm.reads").value(), 1u);
  EXPECT_EQ(M.counter("rxm.writes").value(), 0u);
  EXPECT_EQ(M.counter("rxm.inline").value(), 1u);
}

} // namespace
} // namespace repro::icilk
