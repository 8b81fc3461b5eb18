//===- tests/apps/realproxy_test.cpp - Real-socket proxy, end to end --------===//
//
// The acceptance path of the reactor redesign: a real HTTP/1.1 request
// served through the epoll-backed proxy from kernel wakeups, against a
// blocking support/HttpServer origin. Covers cache behaviour, error
// forwarding, dead origins, keep-alive, admission rejection, and prompt
// shutdown.
//
//===----------------------------------------------------------------------===//

#include "apps/RealProxy.h"
#include "support/HttpServer.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

namespace repro::apps {
namespace {

/// An origin + proxy pair for one test.
struct ProxyFixture {
  explicit ProxyFixture(RealProxyConfig Config = {}) {
    Origin.route("/page", [this](const http::Request &) {
      OriginHits.fetch_add(1, std::memory_order_relaxed);
      return http::Response{200, "text/plain; charset=utf-8", "origin body\n"};
    });
    Origin.route("/other", [](const http::Request &) {
      return http::Response{200, "text/plain; charset=utf-8", "other\n"};
    });
    EXPECT_TRUE(Origin.start(0, &Error)) << Error;
    Config.OriginPort = Origin.port();
    Proxy = std::make_unique<RealProxy>(Config);
    EXPECT_TRUE(Proxy->start(&Error)) << Error;
  }
  ~ProxyFixture() {
    Proxy->stop();
    Origin.stop();
  }

  http::HttpServer Origin;
  std::unique_ptr<RealProxy> Proxy;
  std::atomic<int> OriginHits{0};
  std::string Error;
};

TEST(RealProxyTest, ServesEndToEndAndCaches) {
  ProxyFixture F;
  auto R1 = http::get(F.Proxy->port(), "/page", 2000);
  ASSERT_TRUE(R1.has_value());
  EXPECT_EQ(R1->Status, 200);
  EXPECT_EQ(R1->Body, "origin body\n");

  auto R2 = http::get(F.Proxy->port(), "/page", 2000);
  ASSERT_TRUE(R2.has_value());
  EXPECT_EQ(R2->Body, "origin body\n");
  EXPECT_EQ(F.OriginHits.load(), 1) << "second request must hit the cache";

  RealProxyStats S = F.Proxy->stats();
  EXPECT_EQ(S.Requests, 2u);
  EXPECT_EQ(S.CacheMisses, 1u);
  EXPECT_EQ(S.CacheHits, 1u);
  EXPECT_EQ(S.OriginErrors, 0u);
}

TEST(RealProxyTest, ForwardsOriginStatus) {
  ProxyFixture F;
  auto R = http::get(F.Proxy->port(), "/no-such-route", 2000);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->Status, 404);
  // Non-200s are not cached: a later registration-free fetch re-asks.
  auto R2 = http::get(F.Proxy->port(), "/no-such-route", 2000);
  ASSERT_TRUE(R2.has_value());
  EXPECT_EQ(R2->Status, 404);
  EXPECT_EQ(F.Proxy->stats().CacheHits, 0u);
}

TEST(RealProxyTest, DeadOriginYields502) {
  ProxyFixture F;
  F.Origin.stop(); // kill the origin under the proxy
  auto R = http::get(F.Proxy->port(), "/page", 2000);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->Status, 502);
  EXPECT_GE(F.Proxy->stats().OriginErrors, 1u);
}

TEST(RealProxyTest, KeepAliveServesTwoRequestsOnOneConnection) {
  ProxyFixture F;
  // Two pipelined requests on one connection; rawRequest reads until the
  // peer closes, so the second says "Connection: close" to end the stream.
  std::string Raw = "GET /page HTTP/1.1\r\nHost: x\r\n\r\n"
                    "GET /other HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                    "\r\n";
  std::string Reply = http::rawRequest(F.Proxy->port(), Raw, 3000);
  EXPECT_NE(Reply.find("origin body"), std::string::npos) << Reply;
  EXPECT_NE(Reply.find("other"), std::string::npos) << Reply;
  RealProxyStats S = F.Proxy->stats();
  EXPECT_EQ(S.Requests, 2u);
  EXPECT_EQ(S.Accepted, 1u) << "both requests must ride one connection";
}

TEST(RealProxyTest, MalformedRequestGets400) {
  ProxyFixture F;
  std::string Reply =
      http::rawRequest(F.Proxy->port(), "NONSENSE\r\n\r\n", 2000);
  EXPECT_NE(Reply.find("400"), std::string::npos) << Reply;
  EXPECT_EQ(F.Proxy->stats().BadRequests, 1u);
}

TEST(RealProxyTest, NonGetGets405) {
  ProxyFixture F;
  std::string Reply = http::rawRequest(
      F.Proxy->port(), "POST /page HTTP/1.1\r\nHost: x\r\n\r\n", 2000);
  EXPECT_NE(Reply.find("405"), std::string::npos) << Reply;
}

TEST(RealProxyTest, AdmissionRejectionYields503) {
  RealProxyConfig Config;
  Config.Admission.Enabled = true;
  // A controller with no tokens, no queue, and no degrade path rejects
  // every arrival at the door.
  Config.Admission.Config.InitialRatePerSec = 1;
  Config.Admission.Config.MinRatePerSec = 1;
  Config.Admission.Config.BurstTokens = 0;
  Config.Admission.Config.QueueCap = 0;
  Config.Admission.Config.AllowDegrade = false;
  ProxyFixture F(Config);
  int Saw503 = 0;
  for (int I = 0; I < 8; ++I) {
    auto R = http::get(F.Proxy->port(), "/page", 2000);
    if (R && R->Status == 503)
      ++Saw503;
  }
  EXPECT_GT(Saw503, 0) << "a zero-token controller must shed connections";
  EXPECT_GE(F.Proxy->stats().Rejected503, static_cast<uint64_t>(Saw503));
}

TEST(RealProxyTest, StopIsPromptWithIdleKeepAliveConnection) {
  // A parked keep-alive connection must not stall shutdown: stop() fails
  // the parked read via reactor shutdown and drains within bounded time.
  uint64_t StopMicros = 0;
  {
    ProxyFixture F;
    // Open a keep-alive connection and leave it idle (parked read).
    std::thread Idle([&] {
      (void)http::rawRequest(F.Proxy->port(),
                             "GET /page HTTP/1.1\r\nHost: x\r\n\r\n", 3000);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    uint64_t Start = repro::nowMicros();
    F.Proxy->stop();
    StopMicros = repro::nowMicros() - Start;
    Idle.join();
  }
  EXPECT_LT(StopMicros, 2'000'000u)
      << "stop() must not wait out idle connections";
}

//===----------------------------------------------------------------------===//
// Request tracing + request ids
//===----------------------------------------------------------------------===//

/// Polls /spans.json on \p TelemetryPort until \p MinTraces traces are
/// exported (traces finish when connections unwind, slightly after the
/// client sees its response) or ~2s passes. Returns the parsed document.
std::optional<json::Value> scrapeSpans(int TelemetryPort,
                                       std::size_t MinTraces) {
  std::optional<json::Value> Doc;
  for (int Tries = 0; Tries < 40; ++Tries) {
    auto R = http::get(static_cast<uint16_t>(TelemetryPort), "/spans.json",
                       2000);
    if (R && R->Status == 200)
      if (auto Parsed = json::parse(R->Body)) {
        Doc = std::move(Parsed);
        const json::Value *Traces = Doc->find("traces");
        if (Traces && Traces->size() >= MinTraces)
          return Doc;
      }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return Doc;
}

/// Finds the span named \p Name in \p Spans (first match), else nullptr.
const json::Value *spanNamed(const json::Value &Spans,
                             const std::string &Name) {
  for (const json::Value &S : Spans.elements())
    if (const json::Value *N = S.find("name"); N && N->asString() == Name)
      return &S;
  return nullptr;
}

TEST(RealProxyTest, TracingExportsEndToEndRequestTrace) {
  // The acceptance path: a client with a traceparent header through a
  // cache miss must yield ONE exported trace containing accept,
  // admission-decision, handler, origin-connect, origin-read, and
  // response spans with correct parent links — retained purely by the
  // remote sampled=01 flag (head sampling is OFF).
  std::atomic<int> TelemetryPort{-1};
  RealProxyConfig Config;
  Config.Tracing.Enabled = true;
  Config.Tracing.Config.HeadSampleRate = 0.0;
  Config.Admission.Enabled = true; // permissive defaults: fast-path admits
  Config.TelemetryPort = 0;
  Config.TelemetryPortOut = &TelemetryPort;
  ProxyFixture F(Config);

  const std::string RemoteTrace = "4bf92f3577b34da6a3ce929d0e0e4736";
  std::string Reply = http::rawRequest(
      F.Proxy->port(),
      "GET /page HTTP/1.1\r\nHost: x\r\n"
      "traceparent: 00-" + RemoteTrace + "-00f067aa0ba902b7-01\r\n"
      "Connection: close\r\n\r\n",
      3000);
  EXPECT_NE(Reply.find("origin body"), std::string::npos) << Reply;

  auto Doc = scrapeSpans(TelemetryPort.load(), 1);
  ASSERT_TRUE(Doc.has_value());
  const json::Value *Traces = Doc->find("traces");
  ASSERT_NE(Traces, nullptr);
  ASSERT_EQ(Traces->size(), 1u)
      << "head rate 0 + one remote-sampled request = exactly one trace";
  const json::Value &T = Traces->at(0);
  EXPECT_EQ(T.find("trace_id")->asString(), RemoteTrace)
      << "the client's trace id must be the exported one";
  EXPECT_EQ(T.find("remote_parent_span_id")->asString(), "00f067aa0ba902b7");

  const json::Value *Spans = T.find("spans");
  ASSERT_NE(Spans, nullptr);
  const std::string Root = T.find("root_span_id")->asString();
  const json::Value *Accept = spanNamed(*Spans, "accept");
  const json::Value *Admission = spanNamed(*Spans, "admission");
  const json::Value *Handler = spanNamed(*Spans, "handler");
  const json::Value *Connect = spanNamed(*Spans, "io.connect");
  const json::Value *Response = spanNamed(*Spans, "response");
  ASSERT_NE(Accept, nullptr);
  ASSERT_NE(Admission, nullptr);
  ASSERT_NE(Handler, nullptr);
  ASSERT_NE(Connect, nullptr) << "the miss must show the origin connect";
  ASSERT_NE(Response, nullptr);
  EXPECT_EQ(Accept->find("parent_span_id")->asString(), Root);
  EXPECT_EQ(Admission->find("parent_span_id")->asString(), Root);
  EXPECT_EQ(Handler->find("parent_span_id")->asString(), Root);
  const std::string HandlerId = Handler->find("span_id")->asString();
  EXPECT_EQ(Connect->find("parent_span_id")->asString(), HandlerId)
      << "origin connect must be a child of the handler";
  EXPECT_EQ(Response->find("parent_span_id")->asString(), HandlerId);
  // At least one origin-side read rides under the handler too.
  bool OriginRead = false;
  for (const json::Value &S : Spans->elements())
    if (S.find("name")->asString() == "io.read" &&
        S.find("parent_span_id")->asString() == HandlerId)
      OriginRead = true;
  EXPECT_TRUE(OriginRead) << "origin read must be a child of the handler";
  // The admission decision itself is on the admission span.
  const json::Value *Events = Admission->find("events");
  ASSERT_NE(Events, nullptr);
  ASSERT_GE(Events->size(), 1u);
  EXPECT_EQ(Events->at(0).find("kind")->asString(), "admit");
}

TEST(RealProxyTest, ShedConnectionsAlwaysTracedDespiteHeadSampling) {
  // A 503-shed connection must appear in /spans.json even at a 1% head
  // rate: the tail sampler retains every TfShed trace.
  std::atomic<int> TelemetryPort{-1};
  RealProxyConfig Config;
  Config.Tracing.Enabled = true;
  Config.Tracing.Config.HeadSampleRate = 0.01;
  Config.Admission.Enabled = true;
  Config.Admission.Config.InitialRatePerSec = 1;
  Config.Admission.Config.MinRatePerSec = 1;
  Config.Admission.Config.BurstTokens = 0;
  Config.Admission.Config.QueueCap = 0;
  Config.Admission.Config.AllowDegrade = false;
  Config.TelemetryPort = 0;
  Config.TelemetryPortOut = &TelemetryPort;
  ProxyFixture F(Config);

  for (int I = 0; I < 6; ++I)
    (void)http::get(F.Proxy->port(), "/page", 2000);
  uint64_t Rejected = F.Proxy->stats().Rejected503;
  ASSERT_GT(Rejected, 0u) << "the zero-token controller must shed";

  auto Doc = scrapeSpans(TelemetryPort.load(), Rejected);
  ASSERT_TRUE(Doc.has_value());
  const json::Value *Traces = Doc->find("traces");
  ASSERT_NE(Traces, nullptr);
  uint64_t ShedTraces = 0;
  bool SawRejectEvent = false;
  for (const json::Value &T : Traces->elements()) {
    bool Shed = false;
    for (const json::Value &Flag : T.find("flag_names")->elements())
      if (Flag.asString() == "shed")
        Shed = true;
    if (!Shed)
      continue;
    ++ShedTraces;
    if (const json::Value *Spans = T.find("spans"))
      if (const json::Value *Admission = spanNamed(*Spans, "admission"))
        if (const json::Value *Events = Admission->find("events"))
          for (const json::Value &E : Events->elements())
            if (E.find("kind")->asString() == "reject")
              SawRejectEvent = true;
  }
  EXPECT_GE(ShedTraces, Rejected)
      << "every shed connection needs a retained trace";
  EXPECT_TRUE(SawRejectEvent)
      << "shed traces must carry the admission reject event";
}

TEST(RealProxyTest, RequestIdForwardedAndEchoedIndependentOfTracing) {
  // X-Request-Id works with tracing entirely OFF: client-sent ids are
  // forwarded to the origin and echoed on the response; absent ids are
  // generated (16 hex) and still do both.
  std::mutex SeenMutex;
  std::string SeenAtOrigin;
  http::HttpServer Origin;
  Origin.route("/page", [&](const http::Request &Req) {
    std::lock_guard<std::mutex> Lock(SeenMutex);
    SeenAtOrigin = Req.header("x-request-id");
    return http::Response{200, "text/plain; charset=utf-8", "origin body\n"};
  });
  std::string Error;
  ASSERT_TRUE(Origin.start(0, &Error)) << Error;
  RealProxyConfig Config;
  Config.OriginPort = Origin.port();
  RealProxy Proxy(Config);
  ASSERT_TRUE(Proxy.start(&Error)) << Error;

  // Client-sent id: forwarded and echoed verbatim.
  std::string Reply = http::rawRequest(
      Proxy.port(),
      "GET /page HTTP/1.1\r\nHost: x\r\nX-Request-Id: abc123beef\r\n"
      "Connection: close\r\n\r\n",
      3000);
  EXPECT_NE(Reply.find("X-Request-Id: abc123beef\r\n"), std::string::npos)
      << Reply;
  {
    std::lock_guard<std::mutex> Lock(SeenMutex);
    EXPECT_EQ(SeenAtOrigin, "abc123beef");
  }

  // No id sent: one is generated and echoed on the response.
  Reply = http::rawRequest(Proxy.port(),
                           "GET /other HTTP/1.1\r\nHost: x\r\n"
                           "Connection: close\r\n\r\n",
                           3000);
  auto At = Reply.find("X-Request-Id: ");
  ASSERT_NE(At, std::string::npos) << Reply;
  std::string Generated = Reply.substr(At + 14, 16);
  EXPECT_EQ(Generated.find_first_not_of("0123456789abcdef"),
            std::string::npos)
      << "generated ids are 16 lowercase hex digits, got: " << Generated;
  Proxy.stop();
  Origin.stop();
}

TEST(RealProxyTest, RequestIdCannotInjectHeaders) {
  // The proxy splits header lines on CRLF, the origin's parser on a bare
  // LF: an id carrying an LF must be replaced, not forwarded or echoed.
  std::mutex SeenMutex;
  std::map<std::string, std::string> SeenHeaders;
  http::HttpServer Origin;
  Origin.route("/page", [&](const http::Request &Req) {
    std::lock_guard<std::mutex> Lock(SeenMutex);
    SeenHeaders = Req.Headers;
    return http::Response{200, "text/plain; charset=utf-8", "origin body\n"};
  });
  std::string Error;
  ASSERT_TRUE(Origin.start(0, &Error)) << Error;
  RealProxyConfig Config;
  Config.OriginPort = Origin.port();
  RealProxy Proxy(Config);
  ASSERT_TRUE(Proxy.start(&Error)) << Error;

  std::string Reply = http::rawRequest(
      Proxy.port(),
      "GET /page HTTP/1.1\r\nHost: x\r\nX-Request-Id: a\nX-Evil: 1\r\n"
      "Connection: close\r\n\r\n",
      3000);
  EXPECT_NE(Reply.find("origin body"), std::string::npos) << Reply;
  std::string Lower = Reply;
  for (char &C : Lower)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  EXPECT_EQ(Lower.find("x-evil"), std::string::npos) << Reply;
  {
    std::lock_guard<std::mutex> Lock(SeenMutex);
    EXPECT_EQ(SeenHeaders.count("x-evil"), 0u);
    // A fresh id was minted in place of the rejected one.
    EXPECT_EQ(SeenHeaders["x-request-id"].size(), 16u);
  }

  // Overlong ids are dropped the same way.
  std::string Long(129, 'a');
  Reply = http::rawRequest(Proxy.port(),
                           "GET /page HTTP/1.1\r\nHost: x\r\nX-Request-Id: " +
                               Long + "\r\nConnection: close\r\n\r\n",
                           3000);
  EXPECT_EQ(Reply.find(Long), std::string::npos);
  Proxy.stop();
  Origin.stop();
}

TEST(RealProxyTest, TraceparentEmittedOnOriginLeg) {
  // On a cache miss the origin leg must carry a well-formed traceparent
  // continuing the client's trace under a fresh span id.
  std::mutex SeenMutex;
  std::string SeenTraceparent;
  http::HttpServer Origin;
  Origin.route("/page", [&](const http::Request &Req) {
    std::lock_guard<std::mutex> Lock(SeenMutex);
    SeenTraceparent = Req.header("traceparent");
    return http::Response{200, "text/plain; charset=utf-8", "origin body\n"};
  });
  std::string Error;
  ASSERT_TRUE(Origin.start(0, &Error)) << Error;
  RealProxyConfig Config;
  Config.OriginPort = Origin.port();
  Config.Tracing.Enabled = true;
  Config.Tracing.Config.HeadSampleRate = 1.0;
  RealProxy Proxy(Config);
  ASSERT_TRUE(Proxy.start(&Error)) << Error;

  const std::string ClientSpan = "00f067aa0ba902b7";
  (void)http::rawRequest(Proxy.port(),
                         "GET /page HTTP/1.1\r\nHost: x\r\n"
                         "traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-" +
                             ClientSpan + "-01\r\nConnection: close\r\n\r\n",
                         3000);
  std::string Seen;
  {
    std::lock_guard<std::mutex> Lock(SeenMutex);
    Seen = SeenTraceparent;
  }
  auto Parsed = icilk::parseTraceparent(Seen);
  ASSERT_TRUE(Parsed.has_value()) << "origin saw: " << Seen;
  EXPECT_EQ(Seen.substr(0, 36), "00-4bf92f3577b34da6a3ce929d0e0e4736-")
      << "the origin leg must continue the client's trace";
  EXPECT_NE(Seen.substr(36, 16), ClientSpan)
      << "the origin leg must get its own span id, not the client's";
  EXPECT_TRUE(Parsed->sampled());
  Proxy.stop();
  Origin.stop();
}

TEST(RealProxyTest, MetricsDumpCarriesBackendAndProxyCounters) {
  MetricsRegistry M;
  RealProxyConfig Config;
  Config.Metrics = &M;
  {
    ProxyFixture F(Config);
    ASSERT_TRUE(http::get(F.Proxy->port(), "/page", 2000).has_value());
    F.Proxy->stop(); // dumps into M
  }
  EXPECT_GE(M.counter("proxy.io.completed").value(), 4u)
      << "accept + client read + origin ops must all be counted";
  EXPECT_EQ(M.counter("realproxy.requests").value(), 1u);
  EXPECT_GE(M.counter("proxy.io.accepts").value(), 1u);
  EXPECT_GE(M.counter("proxy.io.connects").value(), 1u);
  EXPECT_GE(M.counter("proxy.io.inline").value(), 2u)
      << "the origin request and the reply fit their send buffers: both "
         "writes must finish on the submitting worker";
}

} // namespace
} // namespace repro::apps
