//===- perfbench/src/ProxyBench.cpp - RealProxy over loopback sockets ------===//
//
// The proxy-hit and proxy-miss workloads: one generator thread drives
// apps::RealProxy over real loopback sockets on a seeded Poisson schedule,
// with support/HttpServer as the origin. Every response is checked against
// the origin's seed-determined body, its status and its X-Request-Id echo.
//
//===----------------------------------------------------------------------===//

#include "HttpFraming.h"
#include "SpanAnalysis.h"
#include "Workloads.h"

#include "apps/RealProxy.h"
#include "support/HttpServer.h"
#include "support/Metrics.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>

namespace perfbench {

namespace {

using repro::MetricsRegistry;
using repro::apps::RealProxy;
using repro::apps::RealProxyConfig;
using repro::apps::RealProxyStats;
namespace http = repro::http;

/// How long the generator waits for replies after its last send.
constexpr uint64_t DrainTimeoutNs = 10'000'000'000;
/// Hits each set-up connection sends after the hot set is cached.
constexpr uint32_t WarmHitsPerConnection = 16;
/// Per-exchange timeout of the blocking set-up requests.
constexpr int SetupTimeoutMs = 5000;

/// An owned client socket.
class ClientFd {
public:
  explicit ClientFd(int Fd = -1) : Fd(Fd) {}
  ~ClientFd() { reset(); }
  ClientFd(const ClientFd &) = delete;
  ClientFd &operator=(const ClientFd &) = delete;
  int get() const { return Fd; }
  void reset(int NewFd = -1) {
    if (Fd >= 0)
      ::close(Fd);
    Fd = NewFd;
  }

private:
  int Fd;
};

/// Blocking connect to 127.0.0.1:\p Port, then nonblocking with
/// TCP_NODELAY (pipelined requests must not wait on Nagle). -1 on failure.
int connectLoopback(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) < 0) {
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
  ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
  return Fd;
}

/// Writes as much of \p Out as the socket takes, erasing what was sent.
/// False on a socket error.
bool flush(int Fd, std::string &Out) {
  while (!Out.empty()) {
    ssize_t N = ::send(Fd, Out.data(), Out.size(), MSG_NOSIGNAL);
    if (N < 0)
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    Out.erase(0, static_cast<std::size_t>(N));
  }
  return true;
}

/// Reads whatever is available into \p Reader. Returns the byte count,
/// 0 at EOF, -1 when nothing is available, -2 on error.
long drainSocket(int Fd, ResponseReader &Reader) {
  char Buf[65536];
  long Total = 0;
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof Buf);
    if (N > 0) {
      Reader.feed(Buf, static_cast<std::size_t>(N));
      Total += N;
      continue;
    }
    if (N == 0)
      return Total > 0 ? Total : 0;
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return Total > 0 ? Total : -1;
    return -2;
  }
}

/// One blocking request/response exchange on \p Fd (set-up only).
bool exchange(int Fd, ResponseReader &Reader, const std::string &Request,
              FramedResponse &Out) {
  std::string Pending = Request;
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(SetupTimeoutMs);
  for (;;) {
    if (!flush(Fd, Pending))
      return false;
    switch (Reader.next(Out)) {
    case ResponseReader::Result::Complete:
      return true;
    case ResponseReader::Result::Malformed:
      return false;
    case ResponseReader::Result::NeedMore:
      break;
    }
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
    // Spin rather than block, like the generators: set-up time should not
    // depend on how late a sleeping thread is woken.
    long Got = drainSocket(Fd, Reader);
    if (Got == 0 || Got == -2)
      return Reader.next(Out) == ResponseReader::Result::Complete;
  }
}

std::string traceIdFor(uint64_t A) {
  return hex16(mix64(A, 11) | 1) + hex16(mix64(A, 12));
}

/// The wire request. It always carries a traceparent, so traced and
/// untraced runs send identical bytes.
std::string buildRequest(const std::string &Target, uint64_t RequestId,
                         const std::string &TraceId, bool Close) {
  std::string R = "GET " + Target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  R += "X-Request-Id: " + hex16(RequestId) + "\r\n";
  R += "traceparent: 00-" + TraceId + "-" + hex16(RequestId | 1) + "-01\r\n";
  if (Close)
    R += "Connection: close\r\n";
  R += "\r\n";
  return R;
}

bool responseMatches(const FramedResponse &R, uint64_t RequestId,
                     const std::string &Body, std::string *Why) {
  if (R.Status != 200)
    *Why = "status " + std::to_string(R.Status);
  else if (R.RequestId != hex16(RequestId))
    *Why = "X-Request-Id '" + R.RequestId + "' != " + hex16(RequestId);
  else if (R.Body != Body)
    *Why = "body mismatch (" + std::to_string(R.Body.size()) + " vs " +
           std::to_string(Body.size()) + " bytes)";
  else
    return true;
  return false;
}

/// A keep-alive client connection of proxy-hit.
struct KeepAliveConn {
  ClientFd Fd;
  ResponseReader Reader;
  std::string Pending;               ///< request bytes not yet sent
  std::deque<std::size_t> Outstanding; ///< arrivals awaiting a reply
  std::string TraceId;
  uint32_t SetupRequests = 0; ///< requests sent on it during set-up
  bool Broken = false;
};

/// Origin + proxy + (proxy-hit) keep-alive connections, warmed up.
struct ProxyStack {
  MetricsRegistry Metrics;
  std::atomic<int> TelemetryPort{-1};
  http::HttpServer Origin;
  std::unique_ptr<RealProxy> Proxy;
  std::vector<std::unique_ptr<KeepAliveConn>> Conns;
  RealProxyStats AfterSetup;
};

/// Set-up: start the origin and the proxy, cache the hot set through it,
/// warm its hit path, and (proxy-hit) open the keep-alive connections.
/// Returns false with \p Error on any failure.
bool setUp(ProxyStack &S, const WorkloadSpec &W, uint64_t Seed, bool Traced,
           const std::vector<std::string> &HotBodies, std::string *Error) {
  S.Origin.route("/obj", [Seed](const http::Request &Req) {
    auto It = Req.Query.find("k");
    if (It == Req.Query.end())
      return http::Response{404, "text/plain; charset=utf-8", "no key\n"};
    return http::Response{200, "text/plain; charset=utf-8",
                          objectBody(Seed, It->second)};
  });
  if (!S.Origin.start(0, Error))
    return false;

  RealProxyConfig C;
  C.OriginPort = S.Origin.port();
  C.Rt.NumWorkers = 2;
  C.Rt.NumLevels = 4;
  C.Admission.Enabled = W.Kind == WorkloadKind::ProxyMiss;
  C.Metrics = &S.Metrics;
  if (Traced) {
    C.Tracing.Enabled = true;
    C.Tracing.Config.HeadSampleRate = 1.0;
    C.Tracing.Config.MaxRetainedTraces = 1 << 17;
    C.Tracing.Config.MaxSpansPerTrace = 1 << 20;
    C.TelemetryPort = 0;
    C.TelemetryPortOut = &S.TelemetryPort;
  }
  S.Proxy = std::make_unique<RealProxy>(C);
  if (!S.Proxy->start(Error))
    return false;
  if (Traced) {
    for (int I = 0; I < 200 && S.TelemetryPort.load() < 0; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (S.TelemetryPort.load() <= 0) {
      *Error = "telemetry did not come up";
      return false;
    }
  }

  uint64_t WarmId = mix64(Seed, 0x5e7);
  auto Fetch = [&](int Fd, ResponseReader &Reader, uint32_t Key,
                   const std::string &TraceId, bool Close) {
    uint64_t Id = ++WarmId;
    FramedResponse R;
    std::string Why;
    if (!exchange(Fd, Reader,
                  buildRequest(objectTarget(hotKey(Key)), Id, TraceId, Close),
                  R) ||
        !responseMatches(R, Id, HotBodies[Key], &Why)) {
      *Error = "set-up fetch of " + hotKey(Key) + " failed " + Why;
      return false;
    }
    return true;
  };
  if (W.Kind == WorkloadKind::ProxyHit) {
    for (unsigned I = 0; I < W.Connections; ++I) {
      auto Conn = std::make_unique<KeepAliveConn>();
      Conn->Fd.reset(connectLoopback(S.Proxy->port()));
      Conn->TraceId = traceIdFor(mix64(Seed, 100 + I));
      if (Conn->Fd.get() < 0) {
        *Error = "connect to proxy failed";
        return false;
      }
      // The first connection caches the hot set; the others warm their
      // own hit path with part of it.
      Conn->SetupRequests = I == 0 ? W.HotKeys : WarmHitsPerConnection;
      for (uint32_t K = 0; K < Conn->SetupRequests; ++K)
        if (!Fetch(Conn->Fd.get(), Conn->Reader, K, Conn->TraceId, false))
          return false;
      S.Conns.push_back(std::move(Conn));
    }
  } else {
    // One connection per request: the hot set (misses that fill the
    // cache), then some of it again (hits).
    for (int Pass = 0; Pass < 2; ++Pass)
      for (uint32_t K = 0; K < (Pass ? WarmHitsPerConnection : W.HotKeys);
           ++K) {
        ClientFd Fd(connectLoopback(S.Proxy->port()));
        ResponseReader Reader;
        if (Fd.get() < 0 ||
            !Fetch(Fd.get(), Reader, K, traceIdFor(WarmId), true))
          return false;
      }
  }
  S.AfterSetup = S.Proxy->stats();
  return true;
}

/// What the measured window produced.
struct WindowResult {
  std::vector<ClientRecord> Records; ///< one per arrival
  std::vector<uint8_t> Ok;           ///< 1 = verified reply
  std::vector<double> LateUs;        ///< send time - scheduled time
  std::size_t Sent = 0;
  std::size_t Failed = 0;
  double GeneratorCpuSeconds = 0;
  ProcCounters Before, After;
};

void failArrival(WindowResult &R, RunOutcome &Out, std::size_t I,
                 const std::string &Why) {
  if (R.Failed++ < 5)
    Out.note("request " + std::to_string(I) + " failed: " + Why);
}

/// Polls \p Fds without blocking (the generator spins; see spinUntilNs).
void pollNow(std::vector<pollfd> &Fds) {
  timespec Zero{0, 0};
  ::ppoll(Fds.data(), Fds.size(), &Zero, nullptr);
}

/// proxy-hit: pipelined requests over the keep-alive connections.
void runKeepAlive(ProxyStack &S, const std::vector<Arrival> &Sched,
                  const std::vector<std::string> &HotTargets,
                  const std::vector<std::string> &HotBodies, uint64_t T0,
                  WindowResult &R, RunOutcome &Out) {
  const std::size_t N = Sched.size();
  R.Records.resize(N);
  R.Ok.assign(N, 0);
  std::vector<std::string> Requests(N);
  for (std::size_t I = 0; I < N; ++I) {
    R.Records[I].SchedNs = T0 + Sched[I].AtNs;
    R.Records[I].TraceId = S.Conns[Sched[I].Conn]->TraceId;
    Requests[I] = buildRequest(HotTargets[Sched[I].Key], Sched[I].RequestId,
                               R.Records[I].TraceId, false);
  }
  std::vector<pollfd> Fds(S.Conns.size());
  std::size_t Next = 0, Outstanding = 0;
  uint64_t DrainDeadline = (N ? R.Records[N - 1].SchedNs : T0) + DrainTimeoutNs;
  FramedResponse Resp;
  std::string Why;
  for (;;) {
    uint64_t Now = nowNs();
    for (; Next < N && R.Records[Next].SchedNs <= Now; ++Next) {
      KeepAliveConn &C = *S.Conns[Sched[Next].Conn];
      uint64_t SendNs = nowNs();
      R.Records[Next].SendNs = SendNs;
      R.LateUs.push_back(static_cast<double>(SendNs - R.Records[Next].SchedNs) /
                         1000.0);
      ++R.Sent;
      if (C.Broken) {
        failArrival(R, Out, Next, "connection broken");
        continue;
      }
      C.Pending += Requests[Next];
      C.Outstanding.push_back(Next);
      ++Outstanding;
      if (!flush(C.Fd.get(), C.Pending))
        C.Broken = true;
    }
    if (Next == N && (Outstanding == 0 || Now > DrainDeadline))
      break;
    for (std::size_t I = 0; I < S.Conns.size(); ++I) {
      KeepAliveConn &C = *S.Conns[I];
      Fds[I].fd = C.Broken ? -1 : C.Fd.get();
      Fds[I].events =
          static_cast<short>(POLLIN | (C.Pending.empty() ? 0 : POLLOUT));
      Fds[I].revents = 0;
    }
    pollNow(Fds);
    for (std::size_t I = 0; I < S.Conns.size(); ++I) {
      KeepAliveConn &C = *S.Conns[I];
      if (C.Broken || !Fds[I].revents)
        continue;
      if (!C.Pending.empty() && !flush(C.Fd.get(), C.Pending))
        C.Broken = true;
      long Got = drainSocket(C.Fd.get(), C.Reader);
      uint64_t RecvNs = nowNs();
      if (Got == 0 || Got == -2)
        C.Broken = true;
      for (;;) {
        ResponseReader::Result Res = C.Reader.next(Resp);
        if (Res == ResponseReader::Result::NeedMore)
          break;
        if (Res == ResponseReader::Result::Malformed || C.Outstanding.empty()) {
          C.Broken = true;
          break;
        }
        std::size_t A = C.Outstanding.front();
        C.Outstanding.pop_front();
        --Outstanding;
        R.Records[A].RecvNs = RecvNs;
        if (responseMatches(Resp, Sched[A].RequestId,
                            HotBodies[Sched[A].Key], &Why))
          R.Ok[A] = 1;
        else
          failArrival(R, Out, A, Why);
      }
      if (C.Broken) {
        for (std::size_t A : C.Outstanding)
          failArrival(R, Out, A, "connection closed or unparsable reply");
        Outstanding -= C.Outstanding.size();
        C.Outstanding.clear();
      }
    }
  }
  for (auto &C : S.Conns) {
    for (std::size_t A : C->Outstanding)
      failArrival(R, Out, A, "no reply within the drain timeout");
    C->Outstanding.clear();
  }
}

/// proxy-miss: one Connection: close request per connection, at most
/// Connections open; due arrivals beyond that wait (their latency still
/// runs from the scheduled time).
void runPerRequest(ProxyStack &S, const WorkloadSpec &W, uint64_t Seed,
                   const std::vector<Arrival> &Sched,
                   const std::vector<std::string> &HotBodies, uint64_t T0,
                   WindowResult &R, RunOutcome &Out) {
  const std::size_t N = Sched.size();
  R.Records.resize(N);
  R.Ok.assign(N, 0);
  for (std::size_t I = 0; I < N; ++I) {
    R.Records[I].SchedNs = T0 + Sched[I].AtNs;
    R.Records[I].TraceId = traceIdFor(Sched[I].RequestId);
    R.Records[I].Miss = Sched[I].Miss;
  }
  struct Slot {
    ClientFd Fd;
    ResponseReader Reader;
    std::size_t Arrival = 0;
    bool Replied = false;
  };
  std::vector<std::unique_ptr<Slot>> Slots;
  for (unsigned I = 0; I < W.Connections; ++I)
    Slots.push_back(std::make_unique<Slot>());
  std::deque<std::size_t> Backlog;
  std::vector<pollfd> Fds(Slots.size());
  std::size_t Next = 0, Open = 0;
  uint64_t DrainDeadline = (N ? R.Records[N - 1].SchedNs : T0) + DrainTimeoutNs;
  FramedResponse Resp;
  std::string Why;
  for (;;) {
    uint64_t Now = nowNs();
    for (; Next < N && R.Records[Next].SchedNs <= Now; ++Next) {
      R.LateUs.push_back(static_cast<double>(Now - R.Records[Next].SchedNs) /
                         1000.0);
      Backlog.push_back(Next);
    }
    for (auto &Sl : Slots) {
      if (Backlog.empty())
        break;
      if (Sl->Fd.get() >= 0)
        continue;
      std::size_t A = Backlog.front();
      Backlog.pop_front();
      const Arrival &Ar = Sched[A];
      std::string Target = objectTarget(Ar.Miss ? missKey(Seed, Ar.Key)
                                                : hotKey(Ar.Key));
      std::string Req = buildRequest(Target, Ar.RequestId,
                                     R.Records[A].TraceId, true);
      R.Records[A].SendNs = nowNs();
      ++R.Sent;
      Sl->Fd.reset(connectLoopback(S.Proxy->port()));
      Sl->Reader = ResponseReader();
      Sl->Arrival = A;
      Sl->Replied = false;
      if (Sl->Fd.get() < 0 || !flush(Sl->Fd.get(), Req) || !Req.empty()) {
        failArrival(R, Out, A, "connect/send failed");
        Sl->Fd.reset();
        continue;
      }
      ++Open;
    }
    if (Next == N && Backlog.empty() && (Open == 0 || Now > DrainDeadline))
      break;
    for (std::size_t I = 0; I < Slots.size(); ++I) {
      Fds[I].fd = Slots[I]->Fd.get();
      Fds[I].events = POLLIN;
      Fds[I].revents = 0;
    }
    pollNow(Fds);
    for (std::size_t I = 0; I < Slots.size(); ++I) {
      Slot &Sl = *Slots[I];
      if (Sl.Fd.get() < 0 || !Fds[I].revents)
        continue;
      long Got = drainSocket(Sl.Fd.get(), Sl.Reader);
      uint64_t RecvNs = nowNs();
      std::size_t A = Sl.Arrival;
      if (!Sl.Replied) {
        ResponseReader::Result Res = Sl.Reader.next(Resp);
        if (Res == ResponseReader::Result::Complete) {
          Sl.Replied = true;
          R.Records[A].RecvNs = RecvNs;
          const Arrival &Ar = Sched[A];
          std::string Body = Ar.Miss ? objectBody(Seed, missKey(Seed, Ar.Key))
                                     : HotBodies[Ar.Key];
          if (responseMatches(Resp, Ar.RequestId, Body, &Why))
            R.Ok[A] = 1;
          else
            failArrival(R, Out, A, Why);
        } else if (Res == ResponseReader::Result::Malformed) {
          Got = -2;
        }
      }
      if (Got == 0 || Got == -2) {
        if (!Sl.Replied)
          failArrival(R, Out, A, "connection closed without a reply");
        Sl.Fd.reset();
        --Open;
      }
    }
  }
  for (auto &Sl : Slots)
    if (Sl->Fd.get() >= 0 && !Sl->Replied)
      failArrival(R, Out, Sl->Arrival, "no reply within the drain timeout");
  for (std::size_t A : Backlog)
    failArrival(R, Out, A, "never sent");
}

/// Runs one measured window on a set-up stack.
WindowResult runWindow(ProxyStack &S, const WorkloadSpec &W, uint64_t Seed,
                       const std::vector<Arrival> &Sched,
                       const std::vector<std::string> &HotTargets,
                       const std::vector<std::string> &HotBodies,
                       RunOutcome &Out) {
  WindowResult R;
  uint64_t T0 = nowNs() + 2'000'000;
  R.Before = sampleProc();
  double Cpu0 = threadCpuSeconds();
  if (W.Kind == WorkloadKind::ProxyHit)
    runKeepAlive(S, Sched, HotTargets, HotBodies, T0, R, Out);
  else
    runPerRequest(S, W, Seed, Sched, HotBodies, T0, R, Out);
  R.GeneratorCpuSeconds = threadCpuSeconds() - Cpu0;
  R.After = sampleProc();
  return R;
}

/// The window's counts must equal what the schedule implies.
void checkProxyCounts(const ProxyStack &S, const WorkloadSpec &W,
                      const std::vector<Arrival> &Sched, RunOutcome &Out) {
  RealProxyStats A = S.AfterSetup, B = S.Proxy->stats();
  uint64_t Misses = 0;
  for (const Arrival &Ar : Sched)
    Misses += Ar.Miss;
  uint64_t N = Sched.size();
  auto Expect = [&](const char *What, uint64_t Got, uint64_t Want) {
    if (Got != Want)
      Out.fail(std::string("proxy ") + What + " " + std::to_string(Got) +
               ", schedule implies " + std::to_string(Want));
  };
  Expect("requests", B.Requests - A.Requests, N);
  Expect("cache hits", B.CacheHits - A.CacheHits, N - Misses);
  Expect("cache misses", B.CacheMisses - A.CacheMisses, Misses);
  Expect("accepted connections", B.Accepted - A.Accepted,
         W.Kind == WorkloadKind::ProxyHit ? 0 : N);
  Expect("503s", B.Rejected503 - A.Rejected503, 0);
  Expect("origin errors", B.OriginErrors - A.OriginErrors, 0);
  Expect("bad requests", B.BadRequests - A.BadRequests, 0);
}

struct Latencies {
  /// Microseconds from the scheduled time, per window of the schedule.
  std::vector<std::vector<double>> Top, Low;
  std::size_t Completed = 0;
  /// Every window's samples in one set.
  static std::vector<double> all(const std::vector<std::vector<double>> &W) {
    std::vector<double> Out;
    for (const auto &V : W)
      Out.insert(Out.end(), V.begin(), V.end());
    return Out;
  }
};

Latencies latencies(const WindowResult &R, const WorkloadSpec &W,
                    const std::vector<Arrival> &Sched, double Seconds) {
  Latencies L;
  L.Top.resize(windowCount(Seconds));
  L.Low.resize(windowCount(Seconds));
  for (std::size_t I = 0; I < R.Records.size(); ++I) {
    if (!R.Ok[I])
      continue;
    ++L.Completed;
    double Us =
        static_cast<double>(R.Records[I].RecvNs - R.Records[I].SchedNs) / 1000.0;
    std::size_t Win = windowIndex(Sched[I].AtNs, Seconds);
    (R.Records[I].Miss ? L.Low : L.Top)[Win].push_back(Us);
  }
  // proxy-hit has one class of request: its lowest priority is its top.
  if (W.Kind == WorkloadKind::ProxyHit)
    L.Low = L.Top;
  return L;
}

/// The tail percentiles, reported without a bound (see noteTails).
std::map<std::string, double> windowedTails(const Latencies &L) {
  return {{"tail.p95_us", windowedPercentile(L.Top, 95)},
          {"tail.p99_us", windowedPercentile(L.Top, 99)},
          {"tail.low_p95_us", windowedPercentile(L.Low, 95)},
          {"tail.low_p99_us", windowedPercentile(L.Low, 99)}};
}

void noteSupport(RunOutcome &Out, const char *What,
                 const std::vector<std::vector<double>> &Windows) {
  std::size_t Least = SIZE_MAX;
  for (const auto &W : Windows)
    Least = std::min(Least, W.size());
  Out.note(std::string(What) + ": " + std::to_string(Windows.size()) +
           " windows, fewest samples " + std::to_string(Least) +
           ", highest supported percentile p" +
           std::to_string(highestSupportedPercentile(Least)).substr(0, 5));
}

} // namespace

WorkloadResult runProxyWorkload(const RunArgs &Args) {
  const WorkloadSpec &W = *Args.Workload;
  WorkloadResult Res;
  RunOutcome &Out = Res.Outcome;
  std::vector<std::string> HotTargets, HotBodies;
  for (uint32_t K = 0; K < W.HotKeys; ++K) {
    HotTargets.push_back(objectTarget(hotKey(K)));
    HotBodies.push_back(objectBody(Args.Seed, hotKey(K)));
  }
  std::string Error;

  if (!Args.Trace) {
    // Set up several times; the last stack is the one measured.
    std::vector<double> SetupSeconds;
    std::unique_ptr<ProxyStack> S;
    std::vector<Arrival> Sched;
    for (int Rep = 0; Rep < SetupRepetitions; ++Rep) {
      S.reset();
      uint64_t Start = nowNs();
      S = std::make_unique<ProxyStack>();
      Sched = makeSchedule(W, Args.Seed, Args.Seconds);
      if (!setUp(*S, W, Args.Seed, false, HotBodies, &Error)) {
        Out.fail("set-up: " + Error);
        return Res;
      }
      SetupSeconds.push_back(static_cast<double>(nowNs() - Start) / 1e9);
    }
    WindowResult R = runWindow(*S, W, Args.Seed, Sched, HotTargets, HotBodies,
                               Out);
    checkProxyCounts(*S, W, Sched, Out);
    Res.Values["bench.gen_late_p99_us"] =
        checkGenerator(R.LateUs, R.Sent, Sched.size(), GenLateBoundUs, Out);
    Latencies L = latencies(R, W, Sched, Args.Seconds);
    Out.Attempted = Sched.size();
    Out.Failed = R.Failed;
    noteSupport(Out, "top-priority latency samples", L.Top);
    noteSupport(Out, "lowest-priority latency samples", L.Low);
    double ServerCpu = (R.After.CpuSeconds - R.Before.CpuSeconds) -
                       R.GeneratorCpuSeconds;
    Res.Values["setup_s"] = setupSeconds(Out, SetupSeconds);
    for (const auto &[Name, Windows] :
         {std::pair{"top", &L.Top}, std::pair{"low", &L.Low}}) {
      std::string Line = std::string(Name) + " windows p50/p95/p99 (us):";
      for (const auto &V : *Windows)
        Line += " " + std::to_string(percentile(V, 50)).substr(0, 7) + "/" +
                std::to_string(percentile(V, 95)).substr(0, 7) + "/" +
                std::to_string(percentile(V, 99)).substr(0, 7);
      Out.note(Line);
    }
    Res.Values["p50_us"] = windowedPercentile(L.Top, 50);
    Res.Values["low_p50_us"] = windowedPercentile(L.Low, 50);
    noteTails(Out, windowedTails(L));
    Res.Values["cpu_us_per_op"] = ratio(ServerCpu * 1e6, L.Completed);
    Res.Values["peak_rss_mb"] = R.After.PeakRssMb;
    return Res;
  }

  // Traced invocation. Phase A: the untraced stack on the first half of the
  // schedule, for exact counters and the overhead ratio's denominator.
  double Half = Args.Seconds / 2;
  double TracedSeconds = std::min(Half, TracedSecondsCap);
  std::vector<Arrival> Sched = makeSchedule(W, Args.Seed, Half);
  double UntracedP50 = 0;
  {
    ProxyStack S;
    if (!setUp(S, W, Args.Seed, false, HotBodies, &Error)) {
      Out.fail("set-up: " + Error);
      return Res;
    }
    WindowResult R = runWindow(S, W, Args.Seed, Sched, HotTargets, HotBodies,
                               Out);
    checkProxyCounts(S, W, Sched, Out);
    Res.Values["bench.gen_late_p99_us"] =
        checkGenerator(R.LateUs, R.Sent, Sched.size(), GenLateBoundUs, Out);
    Latencies L = latencies(R, W, Sched, Half);
    // The overhead ratio compares the same arrivals: the traced phase
    // replays the first TracedSeconds of this schedule.
    std::vector<double> Prefix;
    for (std::size_t I = 0; I < Sched.size(); ++I)
      if (R.Ok[I] && !Sched[I].Miss &&
          Sched[I].AtNs < static_cast<uint64_t>(TracedSeconds * 1e9))
        Prefix.push_back(
            static_cast<double>(R.Records[I].RecvNs - R.Records[I].SchedNs) /
            1000.0);
    UntracedP50 = percentile(Prefix, 50);
    for (const auto &[Name, Value] : windowedTails(L))
      Res.Values[Name] = Value;
    Out.Attempted += Sched.size();
    Out.Failed += R.Failed;
    RealProxyStats St = S.Proxy->stats();
    S.Conns.clear();
    S.Proxy->stop(); // dumps the final counters into S.Metrics
    auto Cn = S.Metrics.counters();
    auto G = S.Metrics.gauges();
    double Requests = static_cast<double>(Cn["realproxy.requests"]);
    double Ops = static_cast<double>(L.Completed);
    Res.Values["realproxy.cache_hit_ratio"] =
        ratio(static_cast<double>(St.CacheHits - S.AfterSetup.CacheHits),
              static_cast<double>(St.Requests - S.AfterSetup.Requests));
    Res.Values["reactor.ops_per_req"] =
        ratio(static_cast<double>(Cn["proxy.io.submitted"]), Requests);
    Res.Values["reactor.loop_wakeups_per_req"] =
        ratio(static_cast<double>(Cn["proxy.io.loop_wakeups"]), Requests);
    Res.Values["admission.shed"] =
        static_cast<double>(Cn["realproxy.runtime.admission.shed"]);
    Res.Values["admission.queue_delay_p99_us"] =
        G["realproxy.runtime.admission.queue_delay_p99_micros"];
    const std::string RT = "realproxy.runtime.";
    double Tasks = static_cast<double>(Cn[RT + "tasks_executed"]);
    double StacksNew = static_cast<double>(Cn[RT + "pool_stacks_created"]);
    double StacksReused = static_cast<double>(Cn[RT + "pool_stacks_reused"]);
    Res.Values["rt.tasks_per_op"] = ratio(Tasks, Requests);
    Res.Values["rt.ctx_switches_per_op"] = ratio(
        static_cast<double>(R.After.ContextSwitches - R.Before.ContextSwitches),
        Ops);
    Res.Values["rt.inversions"] =
        static_cast<double>(Cn[RT + "ftouch_inversions"]);
    Res.Values["conc.steals_per_op"] =
        ratio(static_cast<double>(Cn[RT + "steals_same_socket"] +
                                  Cn[RT + "steals_cross_socket"]),
              Requests);
    Res.Values["conc.batch_steal_tasks_per_op"] =
        ratio(static_cast<double>(Cn[RT + "batch_steal_tasks"]), Requests);
    Res.Values["conc.next_slot_hits_per_task"] =
        ratio(static_cast<double>(Cn[RT + "next_slot_hits"]), Tasks);
    Res.Values["conc.stack_reuse_ratio"] =
        ratio(StacksReused, StacksReused + StacksNew);
    Res.Values["proc.allocs_per_op"] = ratio(
        static_cast<double>(R.After.Allocations - R.Before.Allocations), Ops);
    Out.note("counters cover all " + std::to_string(Cn["realproxy.requests"]) +
             " requests the proxy served, set-up included");
  }

  // Phase B: a fresh traced stack replaying the schedule's first
  // TracedSeconds (every span of it is held in memory until exported).
  Sched = makeSchedule(W, Args.Seed, TracedSeconds);
  ProxyStack S;
  if (!setUp(S, W, Args.Seed, true, HotBodies, &Error)) {
    Out.fail("traced set-up: " + Error);
    return Res;
  }
  uint64_t PhaseStart = nowNs();
  WindowResult R = runWindow(S, W, Args.Seed, Sched, HotTargets, HotBodies,
                             Out);
  uint64_t PhaseNs = nowNs() - PhaseStart;
  checkProxyCounts(S, W, Sched, Out);
  Latencies L = latencies(R, W, Sched, TracedSeconds);
  double TracedP50 = percentile(Latencies::all(L.Top), 50);
  Out.Attempted += Sched.size();
  Out.Failed += R.Failed;
  std::map<std::string, std::size_t> Skip;
  for (auto &C : S.Conns)
    Skip[C->TraceId] = C->SetupRequests;
  // Keep-alive traces finish when their connection closes.
  S.Conns.clear();
  SpanDump Dump;
  for (int Try = 0; Try < 20; ++Try) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto Body = http::get(static_cast<uint16_t>(S.TelemetryPort.load()),
                          "/spans.json", 20000);
    Dump = SpanDump();
    if (!Body || !parseSpanDump(Body->Body, spanEpochNs(), Dump, &Error)) {
      Out.fail("cannot read /spans.json: " + Error);
      return Res;
    }
    if (Dump.Finished == Dump.Started)
      break;
  }
  S.Proxy->stop();
  std::vector<ClientRecord> Matched;
  for (std::size_t I = 0; I < R.Records.size(); ++I)
    if (R.Ok[I])
      Matched.push_back(R.Records[I]);
  ProxyLayers Ly = analyzeProxy(Dump, Matched, Skip);
  Res.Values["realproxy.handler_self_us.p50"] = percentile(Ly.HandlerSelfUs, 50);
  Res.Values["realproxy.handler_self_us.p99"] = percentile(Ly.HandlerSelfUs, 99);
  Res.Values["realproxy.accept_to_handler_us.p50"] =
      percentile(Ly.AcceptToHandlerUs, 50);
  Res.Values["reactor.read_us.p50"] = percentile(Ly.ReadUs, 50);
  Res.Values["reactor.write_us.p50"] = percentile(Ly.WriteUs, 50);
  Res.Values["reactor.connect_us.p50"] = percentile(Ly.ConnectUs, 50);
  Res.Values["admission.span_us.p50"] = percentile(Ly.AdmissionUs, 50);
  Res.Values["origin.service_us.p50"] = percentile(Ly.OriginServiceUs, 50);
  Res.Values["origin.busy_ratio"] =
      ratio(static_cast<double>(Ly.OriginBusyNs), static_cast<double>(PhaseNs));
  Res.Values["trace.overhead_ratio"] = ratio(TracedP50, UntracedP50);
  Res.Values["trace.unaccounted_ratio"] =
      ratio(Ly.UnaccountedNs, Ly.LatencyNs);
  Res.Values["trace.requests_covered"] =
      ratio(static_cast<double>(Ly.Matched), static_cast<double>(Ly.Requests));
  Res.Values["spans.dropped"] = static_cast<double>(
      Ly.SpansDropped + Dump.RetainedDropped + Dump.ActiveOverflow);
  Out.note("traced latency split, p50 (us): span coverage " +
           std::to_string(percentile(Ly.CoveredUs, 50)) +
           ", client residual " + std::to_string(percentile(Ly.ResidualUs, 50)) +
           ", client latency " + std::to_string(TracedP50));
  Out.note("traced phase: " + std::to_string(Ly.Matched) + " of " +
           std::to_string(Ly.Requests) +
           " verified requests matched to handler spans (" +
           std::to_string(Dump.Traces.size()) + " traces, " +
           std::to_string(Dump.Started - Dump.Finished) + " unfinished)");
  return Res;
}

} // namespace perfbench
