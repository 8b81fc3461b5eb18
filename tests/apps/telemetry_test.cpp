//===- tests/apps/telemetry_test.cpp - Live telemetry, end to end ----------===//
//
// The acceptance test for the live-telemetry surface: run the job-server
// case study with a telemetry server on an ephemeral port and poll it from
// a client thread *while the run is live* — the whole point of the
// subsystem is that you never stop the workload to look at it. Asserts
// Prometheus exposition validity (HELP/TYPE lines, name charset, counter
// monotonicity across scrapes), that the windowed latency quantiles move
// once jobs flow, and the error paths (malformed requests, a taken port).
//
// This file is its own test binary (telemetry_tests) so scripts/check.sh
// can run it under TSan: an HTTP thread scraping a scheduler mid-run is
// exactly the kind of concurrency a race detector should sweep.
//
//===----------------------------------------------------------------------===//

#include "apps/JobServer.h"
#include "icilk/EventRing.h"
#include "icilk/Telemetry.h"
#include "support/HttpServer.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

namespace repro::apps {
namespace {

bool validMetricName(const std::string &Name) {
  if (Name.empty())
    return false;
  auto Ok = [](char C, bool First) {
    bool Alpha = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                 C == '_' || C == ':';
    return First ? Alpha : (Alpha || (C >= '0' && C <= '9'));
  };
  if (!Ok(Name[0], true))
    return false;
  for (std::size_t I = 1; I < Name.size(); ++I)
    if (!Ok(Name[I], false))
      return false;
  return true;
}

/// Parses one Prometheus text exposition: checks line-level validity and
/// returns {series-name-with-labels: value}. Fails the test on malformed
/// lines, samples without a preceding TYPE, or bad metric names. Sample
/// lines may carry an OpenMetrics exemplar suffix
/// (`name{labels} value # {trace_id="…"} value`); when \p ExemplarTraceIds
/// is given, every exemplar's trace id is validated and collected there.
std::map<std::string, double>
parseExposition(const std::string &Text,
                std::vector<std::string> *ExemplarTraceIds = nullptr) {
  std::map<std::string, double> Out;
  std::map<std::string, std::string> Types; // metric -> counter/gauge
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    if (Line.rfind("# HELP ", 0) == 0)
      continue;
    if (Line.rfind("# TYPE ", 0) == 0) {
      std::istringstream LS(Line.substr(7));
      std::string Name, Type;
      LS >> Name >> Type;
      EXPECT_TRUE(validMetricName(Name)) << Name;
      EXPECT_TRUE(Type == "counter" || Type == "gauge" ||
                  Type == "histogram" || Type == "summary")
          << Name << " has type " << Type;
      Types[Name] = Type;
      continue;
    }
    if (Line[0] == '#') {
      ADD_FAILURE() << "unknown comment form: " << Line;
      continue;
    }
    // An exemplar rides after " # " on an otherwise-normal sample line;
    // split it off and validate it separately.
    if (std::size_t Hash = Line.find(" # "); Hash != std::string::npos) {
      std::string Ex = Line.substr(Hash + 3);
      Line = Line.substr(0, Hash);
      EXPECT_EQ(Ex.rfind("{trace_id=\"", 0), 0u) << Ex;
      std::size_t IdEnd = Ex.find('"', 11);
      std::size_t ExSpace = Ex.rfind(' ');
      if (IdEnd == std::string::npos || ExSpace == std::string::npos) {
        ADD_FAILURE() << "malformed exemplar: " << Ex;
        continue;
      }
      std::string Id = Ex.substr(11, IdEnd - 11);
      EXPECT_EQ(Id.size(), 32u) << Id; // 128-bit trace id, lowercase hex
      for (char C : Id)
        EXPECT_TRUE((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')) << Id;
      // "...\"} value" closes the exemplar.
      EXPECT_NO_THROW((void)std::stod(Ex.substr(ExSpace + 1))) << Ex;
      if (ExemplarTraceIds)
        ExemplarTraceIds->push_back(Id);
    }
    // "name{labels} value" or "name value"
    std::size_t SpacePos = Line.rfind(' ');
    if (SpacePos == std::string::npos) {
      ADD_FAILURE() << "sample without value: " << Line;
      continue;
    }
    std::string Series = Line.substr(0, SpacePos);
    std::string ValueText = Line.substr(SpacePos + 1);
    std::size_t Brace = Series.find('{');
    std::string Name = Series.substr(0, Brace);
    EXPECT_TRUE(validMetricName(Name)) << Name;
    EXPECT_TRUE(Types.count(Name)) << Name << " sample precedes its TYPE";
    if (Brace != std::string::npos) {
      EXPECT_EQ(Series.back(), '}') << Series;
    }
    try {
      Out[Series] = std::stod(ValueText);
    } catch (...) {
      ADD_FAILURE() << "non-numeric sample value: " << Line;
    }
  }
  return Out;
}

TEST(TelemetryHelpersTest, SanitizeMetricName) {
  using icilk::Telemetry;
  EXPECT_EQ(Telemetry::sanitizeMetricName("jobserver.shed.live"),
            "jobserver_shed_live");
  EXPECT_EQ(Telemetry::sanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(Telemetry::sanitizeMetricName("a-b c"), "a_b_c");
  EXPECT_TRUE(validMetricName(Telemetry::sanitizeMetricName("väldigt:bra")));
}

TEST(TelemetryHelpersTest, LabelAndHelpEscaping) {
  using icilk::Telemetry;
  EXPECT_EQ(Telemetry::escapeLabelValue("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(Telemetry::escapeHelpText("back\\slash\nnewline"),
            "back\\\\slash\\nnewline");
}

/// Renderers against a quiet runtime: no HTTP, just shape checks.
TEST(TelemetryRenderTest, PrometheusAndJsonShapes) {
  icilk::RuntimeConfig RC;
  RC.NumWorkers = 2;
  RC.NumLevels = 3;
  icilk::Runtime Rt(RC);
  MetricsRegistry Registry;
  Registry.counter("demo.count with space").add(5);
  Registry.setGauge("demo.gauge", 2.5);

  icilk::Telemetry T(Rt, {}, &Registry);
  auto Series = parseExposition(T.renderPrometheus());
  EXPECT_TRUE(Series.count("icilk_tasks_executed_total"));
  EXPECT_TRUE(Series.count("icilk_ready_depth{level=\"0\"}"));
  EXPECT_TRUE(Series.count("icilk_ready_depth{level=\"2\"}"));
  EXPECT_TRUE(Series.count(
      "icilk_response_latency_micros{level=\"1\",quantile=\"0.99\"}"));
  EXPECT_TRUE(Series.count("icilk_events_dropped_total"));
  EXPECT_EQ(Series["demo_count_with_space"], 5.0);
  EXPECT_EQ(Series["demo_gauge"], 2.5);

  json::Value Snap = T.snapshotJson();
  ASSERT_TRUE(Snap.isObject());
  EXPECT_TRUE(Snap.contains("events_dropped"));
  ASSERT_NE(Snap.find("levels"), nullptr);
  EXPECT_EQ(Snap.find("levels")->size(), 3u);

  json::Value Lat = T.latencyJson();
  ASSERT_NE(Lat.find("levels"), nullptr);
  EXPECT_EQ(Lat.find("levels")->size(), 3u);
  EXPECT_TRUE(Lat.find("levels")->at(0).contains("p999"));
}

TEST(TelemetryRenderTest, TraceSliceIsValidChromeTraceJson) {
  icilk::trace::enable();
  icilk::trace::clear();
  icilk::RuntimeConfig RC;
  RC.NumWorkers = 2;
  icilk::Runtime Rt(RC);
  // JobSw (level 0) from JobServer.h: any priority type works here.
  auto F =
      icilk::fcreate<JobSw>(Rt, [](icilk::Context<JobSw> &) { return 1; });
  EXPECT_EQ(icilk::touchFromOutside(Rt, F), 1);
  Rt.drain();

  icilk::Telemetry T(Rt, {});
  std::string Err;
  auto V = json::parse(T.traceSlice(60000), &Err);
  icilk::trace::disable();
  ASSERT_TRUE(V.has_value()) << Err;
  ASSERT_TRUE(V->isObject());
  const json::Value *Other = V->find("otherData");
  ASSERT_NE(Other, nullptr);
  EXPECT_TRUE(Other->contains("events_dropped"));
  ASSERT_NE(V->find("traceEvents"), nullptr);
  EXPECT_GT(V->find("traceEvents")->size(), 0u);

  // A zero-width slice in the far past keeps the schema but drops events
  // down to (at most) the thread-name metadata records.
  auto Empty = json::parse(T.traceSlice(1), &Err);
  ASSERT_TRUE(Empty.has_value()) << Err;
}

TEST(TelemetryRenderTest, LatencyTailIsExactAndEveryReaderAgrees) {
  // Two 250 ms tasks among a hundred: p99 is the tail itself, which must
  // not saturate anywhere. While every window still covers the whole run
  // (telemetry's sampler is not started, admission's epoch is a minute),
  // /latency.json, /metrics and the admission controller read the same
  // counts and so report the same p99, to the last bit.
  icilk::RuntimeConfig RC;
  RC.NumWorkers = 2;
  RC.NumLevels = 4;
  icilk::Runtime Rt(RC);
  icilk::AdmissionConfig AC;
  AC.ControlIntervalMillis = 5;
  AC.EpochMillis = 60000;
  icilk::AdmissionController Admission(Rt, AC);
  icilk::Telemetry T(Rt, {});
  for (int I = 0; I < 98; ++I)
    icilk::fcreate<JobMatmul>(Rt, [](icilk::Context<JobMatmul> &) {});
  for (int I = 0; I < 2; ++I)
    icilk::fcreate<JobMatmul>(Rt, [](icilk::Context<JobMatmul> &) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    });
  Rt.drain();

  const unsigned L = JobMatmul::Level;
  json::Value Lat = T.latencyJson();
  double JsonP99 = Lat.find("levels")->at(L).find("p99")->asNumber();
  EXPECT_GE(JsonP99, 250000.0);
  auto Series = parseExposition(T.renderPrometheus());
  EXPECT_EQ(Series["icilk_response_latency_micros{level=\"" +
                   std::to_string(L) + "\",quantile=\"0.99\"}"],
            JsonP99);
  // The controller reads its window on its own tick: wait for one that
  // started after the drain (a different reading never converges).
  double AdmissionP99 = 0;
  for (int Try = 0; Try < 400 && AdmissionP99 != JsonP99; ++Try) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    AdmissionP99 = Rt.snapshot().Admission.Levels[L].WindowP99Micros;
  }
  EXPECT_EQ(AdmissionP99, JsonP99);
}

/// A retained-trace summary as the span store reports it; \p Id stands in
/// for both the displayed trace id and the pin key.
icilk::SpanStore::RetainedSummary retainedTrace(unsigned Level, double Micros,
                                                uint64_t EndNanos,
                                                uint64_t Id) {
  icilk::SpanStore::RetainedSummary S;
  S.DisplayHi = 100 + Id;
  S.DisplayLo = Id;
  S.LocalLo = Id;
  S.EndNanos = EndNanos;
  S.DurationMicros = Micros;
  S.RootLevel = static_cast<uint8_t>(Level);
  return S;
}

std::vector<double> exemplarValues(const icilk::Telemetry &T, unsigned L) {
  std::vector<double> Out;
  for (const auto &E : T.exemplars(L))
    Out.push_back(E.Value);
  return Out;
}

TEST(TelemetryExemplarTest, DecadeSlotsKeepMostRecentAndExpireStale) {
  icilk::RuntimeConfig RC;
  RC.NumWorkers = 1;
  RC.NumLevels = 2;
  icilk::Runtime Rt(RC);
  icilk::TelemetryConfig TC;
  TC.ExemplarSlots = 4; // <10 µs, 10-100 µs, 100 µs-1 ms, >=1 ms
  icilk::Telemetry T(Rt, TC);
  EXPECT_TRUE(T.exemplars(0).empty());

  // Oldest first, one trace per slot: 10 µs opens the second decade and
  // 100 µs the third; 2 s lands in the open-ended last slot; a level past
  // the runtime's files under the top one.
  std::vector<uint64_t> Pins = T.fileExemplars(
      {retainedTrace(0, 0.5, 100, 1), retainedTrace(0, 10, 200, 2),
       retainedTrace(0, 100, 210, 3), retainedTrace(0, 2e6, 300, 4),
       retainedTrace(1, 500, 150, 5), retainedTrace(9, 20, 160, 6)},
      /*CutoffNanos=*/0);
  EXPECT_EQ(std::set<uint64_t>(Pins.begin(), Pins.end()),
            (std::set<uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(exemplarValues(T, 0), (std::vector<double>{0.5, 10, 100, 2e6}));
  EXPECT_EQ(exemplarValues(T, 1), (std::vector<double>{20, 500}));
  std::vector<icilk::Telemetry::Exemplar> Ex = T.exemplars(0);
  ASSERT_EQ(Ex.size(), 4u);
  EXPECT_EQ(Ex[3].TraceHi, 104u);
  EXPECT_EQ(Ex[3].TraceLo, 4u);
  EXPECT_EQ(Ex[3].PinKey, 4u);
  EXPECT_EQ(Ex[3].TimeNanos, 300u);

  // Within one batch and across batches the most recent trace of a decade
  // wins: 99 µs then 42 µs both replace the 10 µs one, and 42 µs stays.
  // A 5 ms trace replaces the 2 s one in the open-ended slot.
  Pins = T.fileExemplars({retainedTrace(0, 99, 390, 7),
                          retainedTrace(0, 5000, 400, 8),
                          retainedTrace(0, 42, 410, 9)},
                         /*CutoffNanos=*/0);
  EXPECT_EQ(exemplarValues(T, 0), (std::vector<double>{0.5, 42, 100, 5000}));
  EXPECT_EQ(T.exemplars(0)[1].TraceLo, 9u);
  EXPECT_EQ(std::set<uint64_t>(Pins.begin(), Pins.end()),
            (std::set<uint64_t>{1, 3, 5, 6, 8, 9}));

  // Expiry drops only slots whose trace ended before the cutoff: the
  // time-100..300 entries go; the one ending at the cutoff and the later
  // one stay, and stay pinned.
  Pins = T.fileExemplars({}, /*CutoffNanos=*/400);
  EXPECT_EQ(exemplarValues(T, 0), (std::vector<double>{42, 5000}));
  EXPECT_TRUE(T.exemplars(1).empty());
  EXPECT_EQ(std::set<uint64_t>(Pins.begin(), Pins.end()),
            (std::set<uint64_t>{8, 9}));
}

TEST(TelemetryExemplarTest, ZeroSlotsStoreNothing) {
  icilk::RuntimeConfig RC;
  RC.NumWorkers = 1;
  icilk::Runtime Rt(RC);
  icilk::TelemetryConfig TC;
  TC.ExemplarSlots = 0;
  icilk::Telemetry T(Rt, TC);
  EXPECT_TRUE(T.fileExemplars({retainedTrace(0, 50, 100, 1)}, 0).empty());
  for (unsigned L = 0; L < RC.NumLevels; ++L)
    EXPECT_TRUE(T.exemplars(L).empty());
}

/// The live test: scrape a job-server run from a client thread while jobs
/// flow, then check monotonicity and that the latency window saw load.
TEST(TelemetryLiveTest, ScrapesDuringJobServerRun) {
  JobServerConfig Config;
  Config.DurationMillis = 900;
  Config.ArrivalIntervalMicros = 2500;
  Config.Rt.NumWorkers = 2;
  Config.Seed = 11;
  Config.TelemetryPort = 0; // ephemeral
  std::atomic<int> Port{-2};
  Config.TelemetryPortOut = &Port;
  MetricsRegistry Metrics;
  Config.Metrics = &Metrics;

  struct Scrape {
    std::map<std::string, double> Series;
    double WindowCount = 0;
  };
  std::vector<Scrape> Scrapes;
  std::string MalformedReply, PortInUseError;
  bool SecondBindFailed = false;

  std::thread Client([&] {
    // Wait for the server inside runJobServer to publish its port.
    while (Port.load(std::memory_order_acquire) == -2)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    int P = Port.load(std::memory_order_acquire);
    ASSERT_GT(P, 0);
    auto Port16 = static_cast<uint16_t>(P);

    for (int I = 0; I < 5; ++I) {
      auto R = http::get(Port16, "/metrics");
      ASSERT_TRUE(R.has_value()) << "scrape " << I << " failed";
      EXPECT_EQ(R->Status, 200);
      EXPECT_NE(R->ContentType.find("text/plain"), std::string::npos);
      Scrape S;
      S.Series = parseExposition(R->Body);

      auto L = http::get(Port16, "/latency.json");
      ASSERT_TRUE(L.has_value());
      std::string Err;
      auto V = json::parse(L->Body, &Err);
      ASSERT_TRUE(V.has_value()) << Err;
      for (const json::Value &Level : V->find("levels")->elements())
        S.WindowCount += Level.find("window_count")->asNumber();
      Scrapes.push_back(std::move(S));
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    }

    // Error paths against the live server: a malformed request must get
    // a 400, and a second server on the same port must fail to start.
    MalformedReply = http::rawRequest(Port16, "garbage\r\n\r\n");
    http::HttpServer Second;
    Second.route("/", [](const http::Request &) { return http::Response{}; });
    SecondBindFailed = !Second.start(Port16, &PortInUseError);
  });

  JobServerReport Report = runJobServer(Config);
  Client.join();

  EXPECT_GT(Report.App.Requests, 0u);
  ASSERT_EQ(Scrapes.size(), 5u);

  // Counters must be monotone across scrapes of a live run.
  for (const char *Counter :
       {"icilk_tasks_executed_total", "icilk_work_nanos_total"}) {
    double Prev = -1;
    for (const Scrape &S : Scrapes) {
      ASSERT_TRUE(S.Series.count(Counter)) << Counter;
      double V = S.Series.at(Counter);
      EXPECT_GE(V, Prev) << Counter << " went backwards";
      Prev = V;
    }
  }
  // The run was live while we scraped: work must have accumulated...
  EXPECT_GT(Scrapes.back().Series.at("icilk_tasks_executed_total"),
            Scrapes.front().Series.at("icilk_tasks_executed_total"));
  // ...and the latency windows must have seen samples under load.
  EXPECT_GT(Scrapes.back().WindowCount, 0.0);
  // Per-level gauges exist for every level.
  for (unsigned L = 0; L < 4; ++L)
    EXPECT_TRUE(Scrapes.back().Series.count(
        "icilk_ready_depth{level=\"" + std::to_string(L) + "\"}"));
  // The registry rode along (live shed counter registers lazily, but the
  // end-of-run counters only land after drain; presence of any sanitized
  // registry series is enough here — jobserver.* names arrive post-run).

  EXPECT_NE(MalformedReply.find("400"), std::string::npos)
      << "got: " << MalformedReply;
  EXPECT_TRUE(SecondBindFailed);
  EXPECT_FALSE(PortInUseError.empty());
}

/// The overload acceptance scrape: drive the job server past saturation
/// with the closed-loop admission controller attached, and watch the shed
/// story appear on the live telemetry surface — admission counter families
/// in /metrics and the "admission" object in /snapshot.json — while the
/// run is still melting down.
TEST(TelemetryLiveTest, OverloadScrapeShowsAdmissionShedding) {
  JobServerConfig Config;
  Config.DurationMillis = 800;
  Config.ArrivalIntervalMicros = 400; // ~2500 jobs/s of 1-7 ms jobs: far
                                      // past saturation on this machine
  Config.Rt.NumWorkers = 2;
  Config.Seed = 23;
  Config.Admission.Enabled = true;
  Config.Admission.Config.ControlIntervalMillis = 5;
  Config.Admission.Config.QueueCap = 16;
  Config.Admission.Config.QueueTimeoutMicros = 30000;
  Config.Admission.Config.PendingHighWatermark = 16;
  Config.Admission.Config.TargetP99Micros = 20000;
  Config.Admission.Config.EpochMillis = 50;
  Config.Admission.Config.WindowEpochs = 3;
  Config.TelemetryPort = 0;
  std::atomic<int> Port{-2};
  Config.TelemetryPortOut = &Port;

  double LiveShed = -1; // first mid-run scrape with a nonzero shed counter
  bool SawAdmissionJson = false;
  double JsonShed = -1;

  std::thread Client([&] {
    while (Port.load(std::memory_order_acquire) == -2)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    int P = Port.load(std::memory_order_acquire);
    ASSERT_GT(P, 0);
    auto Port16 = static_cast<uint16_t>(P);

    // Poll /metrics until shedding shows up live (bounded by run length).
    for (int I = 0; I < 40 && LiveShed <= 0; ++I) {
      auto R = http::get(Port16, "/metrics");
      ASSERT_TRUE(R.has_value());
      auto Series = parseExposition(R->Body);
      ASSERT_TRUE(Series.count("icilk_admission_shed_total"))
          << "attached controller must export its shed counter";
      LiveShed = Series.at("icilk_admission_shed_total");
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
    // The JSON snapshot must carry the same story.
    auto Snap = http::get(Port16, "/snapshot.json");
    ASSERT_TRUE(Snap.has_value());
    std::string Err;
    auto V = json::parse(Snap->Body, &Err);
    ASSERT_TRUE(V.has_value()) << Err;
    const json::Value *Adm = V->find("admission");
    SawAdmissionJson = Adm != nullptr && Adm->isObject();
    if (SawAdmissionJson) {
      JsonShed = Adm->find("shed")->asNumber();
      const json::Value *Lv = Adm->find("levels");
      ASSERT_NE(Lv, nullptr);
      EXPECT_EQ(Lv->size(), 4u);
      EXPECT_TRUE(Lv->at(0).contains("rate_per_sec"));
      EXPECT_TRUE(Lv->at(0).contains("timed_out"));
    }
  });

  JobServerReport Report = runJobServer(Config);
  Client.join();

  EXPECT_GT(LiveShed, 0) << "no shedding was visible on any live scrape";
  EXPECT_TRUE(SawAdmissionJson) << "/snapshot.json lacked the admission "
                                   "object while a controller was attached";
  EXPECT_GT(JsonShed, 0);
  // End-of-run report agrees: load was shed, the top level was protected
  // (matmul jobs, index 0, still completed).
  EXPECT_TRUE(Report.Admission.Attached);
  EXPECT_GT(Report.Admission.Shed, 0u);
  uint64_t TotalShed = 0;
  for (uint64_t S : Report.JobsShed)
    TotalShed += S;
  EXPECT_GT(TotalShed, 0u);
  EXPECT_GT(Report.JobsByType[0], 0u)
      << "overload starved the very level admission control protects";
}

/// The health-plane surface, live: probe /healthz and the 404 path, render
/// /health.json, /profile.json and /profile.folded mid-run, and close the
/// metric→trace loop — every exemplar trace id on /metrics must resolve to
/// a retained trace in /spans.json (exemplar pinning keeps them alive past
/// ring eviction).
TEST(TelemetryLiveTest, HealthEndpointsAndExemplarsResolve) {
  JobServerConfig Config;
  Config.DurationMillis = 1200;
  Config.ArrivalIntervalMicros = 2500;
  Config.Rt.NumWorkers = 2;
  Config.Seed = 7;
  Config.Tracing.Enabled = true;
  Config.Tracing.Config.HeadSampleRate = 1.0; // retain every trace
  Config.TelemetryPort = 0;
  std::atomic<int> Port{-2};
  Config.TelemetryPortOut = &Port;

  bool ExemplarsResolved = false;
  std::size_t ExemplarsSeen = 0;

  std::thread Client([&] {
    while (Port.load(std::memory_order_acquire) == -2)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    int P = Port.load(std::memory_order_acquire);
    ASSERT_GT(P, 0);
    auto Port16 = static_cast<uint16_t>(P);

    // Liveness probe and the unknown-path 404.
    auto Hz = http::get(Port16, "/healthz");
    ASSERT_TRUE(Hz.has_value());
    EXPECT_EQ(Hz->Status, 200);
    EXPECT_EQ(Hz->Body, "ok\n");
    auto Missing = http::get(Port16, "/no-such-endpoint");
    ASSERT_TRUE(Missing.has_value());
    EXPECT_EQ(Missing->Status, 404);

    // The doctor's verdict surface renders mid-run.
    auto H = http::get(Port16, "/health.json");
    ASSERT_TRUE(H.has_value());
    EXPECT_EQ(H->Status, 200);
    std::string Err;
    auto HV = json::parse(H->Body, &Err);
    ASSERT_TRUE(HV.has_value()) << Err;
    EXPECT_EQ(HV->find("schema")->asString(), "icilk-health-v1");
    std::string Status = HV->find("status")->asString();
    EXPECT_TRUE(Status == "ok" || Status == "degraded" ||
                Status == "critical")
        << Status;
    ASSERT_NE(HV->find("workers"), nullptr);
    EXPECT_EQ(HV->find("workers")->size(), 2u);

    // The profiler: JSON and folded text agree on shape.
    auto Pr = http::get(Port16, "/profile.json");
    ASSERT_TRUE(Pr.has_value());
    auto PV = json::parse(Pr->Body, &Err);
    ASSERT_TRUE(PV.has_value()) << Err;
    EXPECT_EQ(PV->find("schema")->asString(), "icilk-health-profile-v1");
    auto Folded = http::get(Port16, "/profile.folded");
    ASSERT_TRUE(Folded.has_value());
    EXPECT_EQ(Folded->Status, 200);
    EXPECT_NE(Folded->ContentType.find("text/plain"), std::string::npos);
    std::istringstream FoldedIn(Folded->Body);
    std::string FoldedLine;
    while (std::getline(FoldedIn, FoldedLine))
      EXPECT_EQ(FoldedLine.rfind("all;", 0), 0u) << FoldedLine;

    // Exemplars: poll /metrics until some appear (the sampler harvests
    // them every 100 ms), then require an attempt where every advertised
    // trace id resolves in /spans.json. Retry the pair a few times: an
    // exemplar can be replaced (and its trace unpinned) between the two
    // fetches.
    for (int Attempt = 0; Attempt < 40 && !ExemplarsResolved; ++Attempt) {
      auto M = http::get(Port16, "/metrics");
      ASSERT_TRUE(M.has_value());
      std::vector<std::string> Ids;
      parseExposition(M->Body, &Ids);
      if (Ids.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        continue;
      }
      ExemplarsSeen = Ids.size();
      auto Sp = http::get(Port16, "/spans.json");
      ASSERT_TRUE(Sp.has_value());
      auto SV = json::parse(Sp->Body, &Err);
      ASSERT_TRUE(SV.has_value()) << Err;
      std::set<std::string> Retained;
      for (const json::Value &T : SV->find("traces")->elements())
        Retained.insert(T.find("trace_id")->asString());
      ExemplarsResolved = true;
      for (const std::string &Id : Ids)
        if (!Retained.count(Id)) {
          ExemplarsResolved = false;
          break;
        }
      if (!ExemplarsResolved)
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  });

  JobServerReport Report = runJobServer(Config);
  Client.join();

  EXPECT_GT(Report.App.Requests, 0u);
  EXPECT_GT(ExemplarsSeen, 0u) << "no exemplars ever appeared on /metrics";
  EXPECT_TRUE(ExemplarsResolved)
      << "an exemplar trace id did not resolve in /spans.json";
}

} // namespace
} // namespace repro::apps
