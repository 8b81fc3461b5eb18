//===- support/HttpServer.h - Minimal blocking HTTP/1.1 server -*- C++ -*-===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// A small dependency-free HTTP/1.1 server for the live-telemetry surface
// (icilk/Telemetry.h): a blocking accept loop on its own thread serving
// GET requests against an exact-match route table. Deliberately minimal —
// one connection at a time, no keep-alive, no TLS, request size capped —
// because its only job is letting `curl` and a scraper reach a running
// scheduler without pulling in an HTTP library.
//
// Handlers run on the server thread, concurrently with the workload, so
// they must only touch thread-safe surfaces (Runtime::snapshot(),
// MetricsRegistry, EventLog::snapshot(), Runtime::latency() — all built
// for exactly this).
//
//===----------------------------------------------------------------------===//

#ifndef REPRO_SUPPORT_HTTPSERVER_H
#define REPRO_SUPPORT_HTTPSERVER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace repro::http {

/// One parsed GET request. Only the pieces telemetry handlers need.
struct Request {
  std::string Method;                         ///< "GET"
  std::string Path;                           ///< target before '?'
  std::map<std::string, std::string> Query;   ///< decoded query parameters
  std::map<std::string, std::string> Headers; ///< keys lowercased

  /// Query parameter \p Key as an integer, or \p Default when absent or
  /// non-numeric.
  int64_t queryInt(const std::string &Key, int64_t Default) const;

  /// Header \p Key (lowercase), or "" when absent. Values are trimmed of
  /// surrounding whitespace but otherwise verbatim.
  std::string header(const std::string &Key) const;
};

/// A response to serialize: status line + Content-Type + body.
struct Response {
  int Status = 200;
  std::string ContentType = "text/plain; charset=utf-8";
  std::string Body;
};

/// Standard reason phrase for \p Status ("OK", "Not Found", ...).
const char *statusReason(int Status);

class HttpServer {
public:
  using Handler = std::function<Response(const Request &)>;

  HttpServer() = default;
  ~HttpServer();

  HttpServer(const HttpServer &) = delete;
  HttpServer &operator=(const HttpServer &) = delete;

  /// Registers \p H for exact path \p Path. Call before start(); routes
  /// are not mutable while the server runs.
  void route(std::string Path, Handler H);

  /// Binds 0.0.0.0:\p Port (0 = ephemeral) and starts the accept thread.
  /// Returns false — filling \p Error when given — if the bind fails
  /// (e.g. the port is already in use). Idempotent failure: the server is
  /// reusable for another start() attempt.
  bool start(uint16_t Port, std::string *Error = nullptr);

  /// Stops the accept loop and joins the thread. Safe to call twice.
  void stop();

  bool running() const { return Running.load(std::memory_order_acquire); }

  /// The actually-bound port (resolves an ephemeral request); 0 before
  /// start() succeeds.
  uint16_t port() const { return BoundPort.load(std::memory_order_acquire); }

private:
  void acceptLoop();
  void handleConnection(int Fd);

  std::vector<std::pair<std::string, Handler>> Routes;
  std::thread Thread;
  std::atomic<bool> Running{false};
  std::atomic<bool> StopFlag{false};
  std::atomic<uint16_t> BoundPort{0};
  int ListenFd = -1;
};

/// Blocking one-shot client: GETs \p Target from 127.0.0.1:\p Port and
/// returns the response (status parsed from the status line, body after
/// the header block), or nullopt on connect/read failure. For tests and
/// small tools; use curl for anything interactive.
std::optional<Response> get(uint16_t Port, const std::string &Target,
                            uint64_t TimeoutMillis = 2000);

/// Sends \p Raw verbatim to 127.0.0.1:\p Port and returns everything the
/// server wrote back ("" on connect failure). Lets tests poke the parser
/// with malformed requests.
std::string rawRequest(uint16_t Port, const std::string &Raw,
                       uint64_t TimeoutMillis = 2000);

} // namespace repro::http

#endif // REPRO_SUPPORT_HTTPSERVER_H
