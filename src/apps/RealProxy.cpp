//===- apps/RealProxy.cpp - The proxy case study on real sockets ------------===//

#include "apps/RealProxy.h"

#include "icilk/Admission.h"
#include "icilk/EpollReactor.h"
#include "support/HttpServer.h" // http::statusReason
#include "support/Logging.h"
#include "support/Timer.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace repro::apps {

namespace {

using icilk::Context;

/// One client connection. Owned by shared_ptr so the fd closes exactly
/// when the last task touching the connection unwinds — including the
/// shutdown path, where the reactor erroneously-completes a parked read
/// and the resumed task drops its reference.
struct Connection {
  explicit Connection(int Fd) : Fd(Fd) {}
  ~Connection() {
    if (Fd >= 0)
      ::close(Fd);
    // The trace finishes exactly when the last reference drops — the RAII
    // mirror of the fd close. This covers every exit: a served keep-alive
    // chain, a reset peer, a 503 shed at the door, and an admission queue
    // timeout that silently destroys the submit lambda (and with it this
    // connection) without ever dispatching.
    if (Spans)
      Spans->finishTrace(Root);
  }
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  int Fd;
  std::string Buf;   ///< bytes read but not yet consumed (pipelining)
  char Chunk[4096];  ///< reactor read destination; outlives each op
                     ///< because the reading task holds the Connection

  icilk::SpanStore *Spans = nullptr; ///< null = tracing disabled
  icilk::SpanContext Root;           ///< root "request" span, opened at accept
  icilk::SpanContext AdmissionSpan;  ///< open from offer() until dispatch;
                                     ///< a shed entry leaves it for
                                     ///< finishTrace to close
  bool RemoteAdopted = false;        ///< a client traceparent was recorded
};

using ConnPtr = std::shared_ptr<Connection>;

struct ParsedRequest {
  std::string Method;
  std::string Target;
  bool KeepAlive = true;
  std::size_t HeaderEnd = 0;  ///< bytes to consume (through "\r\n\r\n")
  std::string Traceparent;    ///< client traceparent header, verbatim
  std::string RequestId;      ///< client X-Request-Id header, verbatim
};

/// The client's X-Request-Id is echoed into the reply and forwarded to the
/// origin verbatim, so only short printable-ASCII ids are kept: a bare LF
/// in one would start a new header line at a parser that splits on LF.
bool validRequestId(const std::string &Id) {
  constexpr std::size_t MaxRequestIdBytes = 128;
  return Id.size() <= MaxRequestIdBytes &&
         std::all_of(Id.begin(), Id.end(),
                     [](char C) { return C >= 0x20 && C <= 0x7e; });
}

/// Parses the first complete request-header block in \p Buf (the caller
/// has already verified "\r\n\r\n" is present). nullopt = malformed.
std::optional<ParsedRequest> parseRequest(const std::string &Buf) {
  std::size_t End = Buf.find("\r\n\r\n");
  if (End == std::string::npos)
    return std::nullopt;
  ParsedRequest R;
  R.HeaderEnd = End + 4;
  std::size_t LineEnd = Buf.find("\r\n");
  std::size_t Sp1 = Buf.find(' ');
  if (Sp1 == std::string::npos || Sp1 > LineEnd)
    return std::nullopt;
  std::size_t Sp2 = Buf.find(' ', Sp1 + 1);
  if (Sp2 == std::string::npos || Sp2 > LineEnd)
    return std::nullopt;
  R.Method = Buf.substr(0, Sp1);
  R.Target = Buf.substr(Sp1 + 1, Sp2 - Sp1 - 1);
  if (R.Method.empty() || R.Target.empty() || R.Target[0] != '/')
    return std::nullopt;
  std::string Version = Buf.substr(Sp2 + 1, LineEnd - Sp2 - 1);
  R.KeepAlive = Version != "HTTP/1.0"; // 1.1 default: persistent
  // Scan headers for an explicit Connection preference.
  std::size_t Pos = LineEnd + 2;
  while (Pos < End) {
    std::size_t Next = Buf.find("\r\n", Pos);
    std::string Line = Buf.substr(Pos, Next - Pos);
    std::size_t Colon = Line.find(':');
    if (Colon != std::string::npos) {
      std::string Key = Line.substr(0, Colon);
      for (char &C : Key)
        C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
      auto Trimmed = [&Line, Colon] {
        std::size_t B = Colon + 1, E = Line.size();
        while (B < E && (Line[B] == ' ' || Line[B] == '\t'))
          ++B;
        while (E > B && (Line[E - 1] == ' ' || Line[E - 1] == '\t'))
          --E;
        return Line.substr(B, E - B);
      };
      if (Key == "connection") {
        std::string Val = Line.substr(Colon + 1);
        for (char &C : Val)
          C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
        if (Val.find("close") != std::string::npos)
          R.KeepAlive = false;
        else if (Val.find("keep-alive") != std::string::npos)
          R.KeepAlive = true;
      } else if (Key == "traceparent") {
        R.Traceparent = Trimmed();
      } else if (Key == "x-request-id") {
        R.RequestId = Trimmed();
        if (!validRequestId(R.RequestId))
          R.RequestId.clear(); // treated as absent: a fresh id is minted
      }
    }
    Pos = Next + 2;
  }
  return R;
}

/// A fresh X-Request-Id for clients that did not send one: 16 lowercase
/// hex digits, unique per process (counter ⊕ clock through a 64-bit mix).
std::string makeRequestId() {
  static std::atomic<uint64_t> Counter{1};
  uint64_t X = repro::nowNanos() ^
               (Counter.fetch_add(1, std::memory_order_relaxed) << 40);
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  X ^= X >> 31;
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx",
                static_cast<unsigned long long>(X));
  return std::string(Buf, 16);
}

struct OriginResponse {
  int Status = 0;
  std::string ContentType = "text/plain; charset=utf-8";
  std::string Body;
};

/// Parses a whole origin response (read to EOF — the proxy speaks
/// "Connection: close" upstream, so EOF delimits the body).
std::optional<OriginResponse> parseOriginResponse(const std::string &Raw) {
  std::size_t End = Raw.find("\r\n\r\n");
  if (End == std::string::npos)
    return std::nullopt;
  OriginResponse R;
  // "HTTP/1.1 200 OK"
  std::size_t Sp = Raw.find(' ');
  if (Sp == std::string::npos || Sp + 4 > End)
    return std::nullopt;
  R.Status = std::atoi(Raw.c_str() + Sp + 1);
  if (R.Status < 100 || R.Status > 599)
    return std::nullopt;
  std::size_t Pos = Raw.find("\r\n") + 2;
  while (Pos < End) {
    std::size_t Next = Raw.find("\r\n", Pos);
    std::string Line = Raw.substr(Pos, Next - Pos);
    std::size_t Colon = Line.find(':');
    if (Colon != std::string::npos) {
      std::string Key = Line.substr(0, Colon);
      for (char &C : Key)
        C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
      if (Key == "content-type") {
        std::size_t V = Colon + 1;
        while (V < Line.size() && Line[V] == ' ')
          ++V;
        R.ContentType = Line.substr(V);
      }
    }
    Pos = Next + 2;
  }
  R.Body = Raw.substr(End + 4);
  return R;
}

/// Serializes one response. HEAD requests get headers only, but the
/// Content-Length of the body they did not receive. \p ExtraHeaders is
/// pre-rendered "Key: value\r\n" lines (the X-Request-Id echo).
std::string makeResponse(int Status, const std::string &ContentType,
                         const std::string &Body, bool KeepAlive,
                         bool HeadOnly,
                         const std::string &ExtraHeaders = std::string()) {
  std::string Out = "HTTP/1.1 " + std::to_string(Status) + " " +
                    http::statusReason(Status) + "\r\n";
  Out += "Content-Type: " + ContentType + "\r\n";
  Out += "Content-Length: " + std::to_string(Body.size()) + "\r\n";
  Out += KeepAlive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  Out += ExtraHeaders;
  Out += "\r\n";
  if (!HeadOnly)
    Out += Body;
  return Out;
}

/// Turns Nagle off: the proxy writes each request and reply in one op, so
/// holding a short tail back for an ACK only adds latency.
void setNoDelay(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
}

/// RAII fd for the origin leg.
struct OwnedFd {
  explicit OwnedFd(int Fd) : Fd(Fd) {}
  ~OwnedFd() {
    if (Fd >= 0)
      ::close(Fd);
  }
  OwnedFd(const OwnedFd &) = delete;
  OwnedFd &operator=(const OwnedFd &) = delete;
  int Fd;
};

struct CacheEntry {
  std::string ContentType;
  std::string Body;
};

} // namespace

struct RealProxy::Impl {
  explicit Impl(const RealProxyConfig &Config)
      : Config(Config),
        Spans(Config.Tracing.Enabled
                  ? std::make_unique<icilk::SpanStore>(Config.Tracing.Config)
                  : nullptr),
        Rt(Config.Rt) {
    if (Spans) {
      Rt.setSpans(Spans.get());
      Io.setSpans(Spans.get());
    }
    if (Config.Faults.enabled()) {
      Faults =
          std::make_shared<icilk::FaultPlan>(Config.FaultSeed, Config.Faults);
      Io.setFaultPlan(Faults);
    }
    if (Config.Admission.Enabled)
      Admission = std::make_unique<icilk::AdmissionController>(
          Rt, Config.Admission.Config, &Io);
  }

  RealProxyConfig Config;
  /// Declared before Rt and Io: destroyed after both, so every span
  /// recorded during runtime drain / reactor shutdown still has a store.
  std::unique_ptr<icilk::SpanStore> Spans;
  icilk::Runtime Rt;
  icilk::EpollReactor Io{"proxy.io"};
  std::shared_ptr<icilk::FaultPlan> Faults;

  std::mutex CacheMutex;
  std::unordered_map<std::string, CacheEntry> Cache;

  std::atomic<uint64_t> Accepted{0}, Requests{0}, Hits{0}, Misses{0};
  std::atomic<uint64_t> Rejected{0}, Degraded{0}, OriginErrors{0},
      BadRequests{0};

  int ListenFd = -1;
  std::atomic<uint16_t> BoundPort{0};
  std::atomic<bool> Stopping{false};
  std::atomic<bool> Stopped{false};

  /// Destroyed before Rt and Io, while both still live.
  std::unique_ptr<icilk::AdmissionController> Admission;
  /// Declared last: destroyed first, so its health watcher (which reads
  /// the admission controller through Rt.snapshot()) is joined before
  /// the controller dies.
  std::unique_ptr<TelemetryScope> Telemetry;
};

namespace {

/// Writes \p Data fully to the connection; false when the write fails
/// (reset peer, shutdown) and the connection should be dropped.
template <typename Prio>
bool writeAll(RealProxy::Impl &S, Context<Prio> &Ctx, const ConnPtr &Conn,
              const std::string &Data) {
  try {
    Ctx.ftouch(S.Io.write<Prio>(Conn->Fd, Data.data(), Data.size()));
    return true;
  } catch (const icilk::IoError &) {
    return false;
  }
}

/// The origin leg (always at ProxyFetch): nonblocking connect, request,
/// read to EOF. nullopt on any socket failure. \p ExtraHeaders is
/// pre-rendered "Key: value\r\n" lines forwarded upstream (X-Request-Id
/// and, when tracing, the outbound traceparent).
std::optional<OriginResponse> fetchOrigin(RealProxy::Impl &S,
                                          Context<ProxyFetch> &Ctx,
                                          const std::string &Target,
                                          const std::string &ExtraHeaders) {
  OwnedFd Fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (Fd.Fd < 0)
    return std::nullopt;
  setNoDelay(Fd.Fd);
  struct sockaddr_in Addr {};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(S.Config.OriginPort);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  try {
    Ctx.ftouch(S.Io.connect<ProxyFetch>(
        Fd.Fd, reinterpret_cast<struct sockaddr *>(&Addr), sizeof Addr));
    std::string Request = "GET " + Target +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n" + ExtraHeaders +
                          "Connection: close\r\n\r\n";
    Ctx.ftouch(S.Io.write<ProxyFetch>(Fd.Fd, Request.data(), Request.size()));
    std::string Raw;
    char Chunk[4096];
    for (;;) {
      long N = Ctx.ftouch(S.Io.read<ProxyFetch>(Fd.Fd, Chunk, sizeof Chunk));
      if (N == 0)
        break; // EOF: the close-delimited response is complete
      Raw.append(Chunk, static_cast<std::size_t>(N));
      if (Raw.size() > (1u << 22))
        return std::nullopt; // runaway origin
    }
    return parseOriginResponse(Raw);
  } catch (const icilk::IoError &) {
    return std::nullopt;
  }
}

template <typename Prio>
void requestLoop(RealProxy::Impl &S, Context<Prio> &Ctx, ConnPtr Conn);

/// Cache-miss path, always at ProxyFetch: fetch from the origin, fill the
/// cache, reply, then — if the connection persists — *resume* the request
/// loop with a fresh task at the connection's own priority. The client
/// loop never waited: it delegated and returned (the Touch rule forbids
/// the inverse).
template <typename ConnPrio>
void fetchAndServe(RealProxy::Impl &S, Context<ProxyFetch> &Ctx, ConnPtr Conn,
                   std::string Target, bool KeepAlive, bool HeadOnly,
                   std::string RequestId) {
  // This task runs under the request's "handler" span (stamped at spawn);
  // the connect/write/read futures below become its io.* children.
  icilk::SpanContext Handler = icilk::span::current();
  std::string OriginHeaders = "X-Request-Id: " + RequestId + "\r\n";
  if (Conn->Spans) {
    std::string Tp = Conn->Spans->traceparentFor(Handler);
    if (!Tp.empty())
      OriginHeaders += "traceparent: " + Tp + "\r\n";
  }
  auto Origin = fetchOrigin(S, Ctx, Target, OriginHeaders);
  std::string Echo = "X-Request-Id: " + RequestId + "\r\n";
  std::string Reply;
  if (!Origin) {
    S.OriginErrors.fetch_add(1, std::memory_order_relaxed);
    if (Conn->Spans && Handler.valid())
      Conn->Spans->noteFlags(Handler, icilk::TfError);
    Reply = makeResponse(502, "text/plain; charset=utf-8",
                         "502 bad gateway\n", KeepAlive, HeadOnly, Echo);
  } else {
    if (Origin->Status == 200) {
      std::lock_guard<std::mutex> Lock(S.CacheMutex);
      S.Cache[Target] = CacheEntry{Origin->ContentType, Origin->Body};
    }
    if (Conn->Spans && Handler.valid() && Origin->Status >= 500)
      Conn->Spans->noteFlags(Handler, icilk::TfError);
    Reply = makeResponse(Origin->Status, Origin->ContentType, Origin->Body,
                         KeepAlive, HeadOnly, Echo);
  }
  icilk::SpanContext Resp{};
  if (Conn->Spans && Handler.valid())
    Resp = Conn->Spans->startSpan(Handler, "response", ProxyFetch::Level);
  bool Ok;
  {
    icilk::span::Scope Sc(Resp.valid() ? Resp : Handler);
    Ok = writeAll(S, Ctx, Conn, Reply);
  }
  if (Conn->Spans) {
    if (Resp.valid())
      Conn->Spans->endSpan(Resp);
    // End the handler span — but never the root, which this task runs
    // under when the handler span was dropped (span-cap overflow).
    if (Handler.valid() && Handler.SpanId != Conn->Root.SpanId)
      Conn->Spans->endSpan(Handler);
  }
  if (!Ok || !KeepAlive)
    return;
  // Task chaining: the next request of this connection gets its own task
  // back at the connection's priority, parented at the trace root again.
  icilk::span::Scope Sc(Conn->Root);
  Ctx.template fcreate<ConnPrio>(
      [&S, Conn = std::move(Conn)](Context<ConnPrio> &C) mutable {
        requestLoop<ConnPrio>(S, C, std::move(Conn));
      });
}

/// Per-connection request loop at priority \p Prio (ProxyClient normally,
/// ProxyFetch when admission degraded the connection). Returns — dropping
/// the connection — on EOF, parse errors, write failures, or shutdown.
template <typename Prio>
void requestLoop(RealProxy::Impl &S, Context<Prio> &Ctx, ConnPtr Conn) {
  for (;;) {
    // Accumulate one full header block (pipelined bytes may already be
    // buffered from the previous lap).
    while (Conn->Buf.find("\r\n\r\n") == std::string::npos) {
      if (Conn->Buf.size() > S.Config.MaxHeaderBytes) {
        S.BadRequests.fetch_add(1, std::memory_order_relaxed);
        writeAll(S, Ctx, Conn,
                 makeResponse(400, "text/plain; charset=utf-8",
                              "400 bad request\n", false, false));
        return;
      }
      long N;
      try {
        N = Ctx.ftouch(
            S.Io.read<Prio>(Conn->Fd, Conn->Chunk, sizeof Conn->Chunk));
      } catch (const icilk::IoError &) {
        return; // reset / shutdown: drop the connection
      }
      if (N == 0)
        return; // peer closed between requests
      Conn->Buf.append(Conn->Chunk, static_cast<std::size_t>(N));
    }
    auto Req = parseRequest(Conn->Buf);
    if (!Req) {
      S.BadRequests.fetch_add(1, std::memory_order_relaxed);
      writeAll(S, Ctx, Conn,
               makeResponse(400, "text/plain; charset=utf-8",
                            "400 bad request\n", false, false));
      return;
    }
    Conn->Buf.erase(0, Req->HeaderEnd);
    // X-Request-Id rides every response and origin call whether or not
    // tracing (or sampling) is on: generated here when the client sent
    // none, echoed below, forwarded upstream by fetchAndServe.
    std::string RequestId =
        Req->RequestId.empty() ? makeRequestId() : Req->RequestId;
    std::string Echo = "X-Request-Id: " + RequestId + "\r\n";
    if (Req->Method != "GET" && Req->Method != "HEAD") {
      writeAll(S, Ctx, Conn,
               makeResponse(405, "text/plain; charset=utf-8",
                            "405 method not allowed\n", false, false, Echo));
      return;
    }
    S.Requests.fetch_add(1, std::memory_order_relaxed);
    bool HeadOnly = Req->Method == "HEAD";

    // One "handler" span per request on the connection's trace. A client
    // traceparent re-roots the trace under the caller's ids (first one
    // wins; sampled=01 forces retention).
    icilk::SpanContext Handler{};
    if (Conn->Spans) {
      if (!Req->Traceparent.empty() && !Conn->RemoteAdopted)
        if (auto Remote = icilk::parseTraceparent(Req->Traceparent)) {
          Conn->Spans->adoptRemote(Conn->Root, *Remote);
          Conn->RemoteAdopted = true;
        }
      Handler = Conn->Spans->startSpan(Conn->Root, "handler", Prio::Level);
    }
    icilk::span::Scope HandlerScope(Handler.valid() ? Handler
                                                    : icilk::span::current());

    std::optional<CacheEntry> Cached;
    {
      std::lock_guard<std::mutex> Lock(S.CacheMutex);
      auto It = S.Cache.find(Req->Target);
      if (It != S.Cache.end())
        Cached = It->second;
    }
    if (Cached) {
      S.Hits.fetch_add(1, std::memory_order_relaxed);
      icilk::SpanContext Resp{};
      if (Handler.valid())
        Resp = Conn->Spans->startSpan(Handler, "response", Prio::Level);
      bool Ok;
      {
        icilk::span::Scope Sc(Resp.valid() ? Resp : icilk::span::current());
        Ok = writeAll(S, Ctx, Conn,
                      makeResponse(200, Cached->ContentType, Cached->Body,
                                   Req->KeepAlive, HeadOnly, Echo));
      }
      if (Resp.valid())
        Conn->Spans->endSpan(Resp);
      if (Handler.valid())
        Conn->Spans->endSpan(Handler);
      if (!Ok || !Req->KeepAlive)
        return;
      continue; // next request, same task
    }
    S.Misses.fetch_add(1, std::memory_order_relaxed);
    // Delegate downward; the fetch task replies and (on keep-alive)
    // chains the loop's continuation. This task is done either way. It
    // spawns under the handler span, so the origin-leg io.* futures stay
    // children of this request; the fetch task ends the handler span.
    Ctx.template fcreate<ProxyFetch>(
        [&S, Conn = std::move(Conn), Target = Req->Target,
         KeepAlive = Req->KeepAlive, HeadOnly,
         RequestId = std::move(RequestId)](Context<ProxyFetch> &C) mutable {
          fetchAndServe<Prio>(S, C, std::move(Conn), std::move(Target),
                              KeepAlive, HeadOnly, std::move(RequestId));
        });
    return;
  }
}

/// Admission outcome → connection fate. Runs inline on the accept task
/// (fast path) or on the controller thread (queued dispatch).
void dispatchConnection(RealProxy::Impl &S, ConnPtr Conn, unsigned Level) {
  // Dispatch closes the admission span (a shed entry never gets here —
  // finishTrace closes it instead, leaving the open span as the tell).
  if (Conn->Spans && Conn->AdmissionSpan.valid()) {
    Conn->Spans->endSpan(Conn->AdmissionSpan);
    Conn->AdmissionSpan = {};
  }
  // The request loop spawns under the trace root, whichever thread runs
  // this dispatch.
  icilk::span::Scope Sc(Conn->Root);
  if (Level >= 3) {
    icilk::fcreate<ProxyClient>(
        S.Rt, [&S, Conn = std::move(Conn)](Context<ProxyClient> &C) mutable {
          requestLoop<ProxyClient>(S, C, std::move(Conn));
        });
    return;
  }
  S.Degraded.fetch_add(1, std::memory_order_relaxed);
  icilk::fcreate<ProxyFetch>(
      S.Rt, [&S, Conn = std::move(Conn)](Context<ProxyFetch> &C) mutable {
        requestLoop<ProxyFetch>(S, C, std::move(Conn));
      });
}

/// The accept loop (ProxyClient): park on accept, decide admission, spawn
/// the connection's first task. Ends when the reactor shuts down (the
/// parked accept completes erroneously).
void acceptLoop(RealProxy::Impl &S, Context<ProxyClient> &Ctx) {
  for (;;) {
    long ClientFd;
    try {
      ClientFd = Ctx.ftouch(S.Io.accept<ProxyClient>(S.ListenFd));
    } catch (const icilk::IoError &) {
      return; // shutdown (or listen socket gone)
    }
    S.Accepted.fetch_add(1, std::memory_order_relaxed);
    setNoDelay(static_cast<int>(ClientFd));
    auto Conn = std::make_shared<Connection>(static_cast<int>(ClientFd));
    if (S.Spans) {
      // One trace per connection, rooted here. The instant "accept" child
      // marks arrival time in the export.
      Conn->Spans = S.Spans.get();
      Conn->Root = S.Spans->startTrace("request", /*Level=*/3);
      icilk::SpanContext Accept =
          S.Spans->startSpan(Conn->Root, "accept", /*Level=*/3);
      if (Accept.valid())
        S.Spans->endSpan(Accept);
    }
    if (!S.Admission) {
      dispatchConnection(S, std::move(Conn), 3);
      continue;
    }
    if (S.Spans)
      Conn->AdmissionSpan =
          S.Spans->startSpan(Conn->Root, "admission", /*Level=*/3);
    auto Result = [&] {
      // offer() records its decision on the active span — point it at the
      // admission span so admit/enqueue/degrade/reject events land there.
      icilk::span::Scope Sc(Conn->AdmissionSpan.valid() ? Conn->AdmissionSpan
                                                        : Conn->Root);
      return S.Admission->offer(3, [&S, Conn](unsigned Level) {
        dispatchConnection(S, Conn, Level);
      });
    }();
    if (Result == icilk::AdmitResult::Rejected) {
      S.Rejected.fetch_add(1, std::memory_order_relaxed);
      if (S.Spans && Conn->AdmissionSpan.valid()) {
        S.Spans->endSpan(Conn->AdmissionSpan);
        Conn->AdmissionSpan = {};
      }
      // Shed at the door: a tiny fetch-level task says 503 and hangs up.
      // (The trace already carries TfShed from the admission controller,
      // so the tail sampler always retains it.)
      icilk::span::Scope Sc(Conn->Root);
      icilk::fcreate<ProxyFetch>(
          S.Rt, [&S, Conn = std::move(Conn)](Context<ProxyFetch> &C) mutable {
            writeAll(S, C, Conn,
                     makeResponse(503, "text/plain; charset=utf-8",
                                  "503 service unavailable\n", false, false));
          });
    }
  }
}

} // namespace

RealProxy::RealProxy(const RealProxyConfig &Config)
    : P(std::make_unique<Impl>(Config)) {}

RealProxy::~RealProxy() { stop(); }

bool RealProxy::start(std::string *Error) {
  Impl &S = *P;
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    if (Error)
      *Error = "socket() failed";
    return false;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof One);
  struct sockaddr_in Addr {};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(S.Config.ListenPort);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(Fd, reinterpret_cast<struct sockaddr *>(&Addr), sizeof Addr) <
          0 ||
      ::listen(Fd, 128) < 0) {
    if (Error)
      *Error = "bind/listen failed on port " +
               std::to_string(S.Config.ListenPort);
    ::close(Fd);
    return false;
  }
  socklen_t Len = sizeof Addr;
  ::getsockname(Fd, reinterpret_cast<struct sockaddr *>(&Addr), &Len);
  S.BoundPort.store(ntohs(Addr.sin_port), std::memory_order_release);
  S.ListenFd = Fd;

  S.Telemetry = std::make_unique<TelemetryScope>(
      S.Rt, S.Config.TelemetryPort, S.Config.TelemetryPortOut,
      S.Config.Metrics, &S.Io, S.Config.Slos);
  if (S.Spans && S.Telemetry->get())
    S.Telemetry->get()->trackSpans(S.Spans.get());

  icilk::fcreate<ProxyClient>(
      S.Rt, [&S](Context<ProxyClient> &C) { acceptLoop(S, C); });
  repro::log(LogLevel::Info) << "real proxy listening on 127.0.0.1:"
                             << S.BoundPort.load() << " (origin 127.0.0.1:"
                             << S.Config.OriginPort << ")";
  return true;
}

void RealProxy::stop() {
  Impl &S = *P;
  if (S.Stopped.exchange(true, std::memory_order_acq_rel))
    return;
  S.Stopping.store(true, std::memory_order_release);
  // Order matters: shed queued arrivals first (their submits must not
  // land after the runtime drains), then fail every parked socket future
  // so connection tasks unwind, then wait for them.
  if (S.Admission)
    S.Admission->stop();
  S.Io.shutdown();
  S.Rt.drain();
  if (S.ListenFd >= 0) {
    ::close(S.ListenFd);
    S.ListenFd = -1;
  }
  if (repro::MetricsRegistry *M = S.Config.Metrics) {
    S.Io.sampleMetrics(*M);
    S.Rt.sampleMetrics(*M, "realproxy.runtime");
    M->counter("realproxy.accepted").set(S.Accepted.load());
    M->counter("realproxy.requests").set(S.Requests.load());
    M->counter("realproxy.cache_hits").set(S.Hits.load());
    M->counter("realproxy.cache_misses").set(S.Misses.load());
    M->counter("realproxy.rejected_503").set(S.Rejected.load());
    M->counter("realproxy.degraded").set(S.Degraded.load());
    M->counter("realproxy.origin_errors").set(S.OriginErrors.load());
    M->counter("realproxy.bad_requests").set(S.BadRequests.load());
    if (S.Spans) {
      icilk::SpanStore::Stats St = S.Spans->stats();
      M->counter("realproxy.traces_started").set(St.Started);
      M->counter("realproxy.traces_finished").set(St.Finished);
      M->counter("realproxy.traces_retained").set(St.Retained);
      M->counter("realproxy.traces_tail_kept").set(St.TailKept);
    }
  }
}

uint16_t RealProxy::port() const {
  return P->BoundPort.load(std::memory_order_acquire);
}

RealProxyStats RealProxy::stats() const {
  const Impl &S = *P;
  RealProxyStats St;
  St.Accepted = S.Accepted.load(std::memory_order_relaxed);
  St.Requests = S.Requests.load(std::memory_order_relaxed);
  St.CacheHits = S.Hits.load(std::memory_order_relaxed);
  St.CacheMisses = S.Misses.load(std::memory_order_relaxed);
  St.Rejected503 = S.Rejected.load(std::memory_order_relaxed);
  St.Degraded = S.Degraded.load(std::memory_order_relaxed);
  St.OriginErrors = S.OriginErrors.load(std::memory_order_relaxed);
  St.BadRequests = S.BadRequests.load(std::memory_order_relaxed);
  return St;
}

} // namespace repro::apps
