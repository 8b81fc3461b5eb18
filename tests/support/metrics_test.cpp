//===- tests/support/metrics_test.cpp - Metrics registry -------------------===//

#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace repro {
namespace {

TEST(MetricsTest, CountersAccumulateAndPersist) {
  MetricsRegistry M;
  M.counter("a").add();
  M.counter("a").add(4);
  M.counter("b").set(10);
  auto C = M.counters();
  EXPECT_EQ(C.at("a"), 5u);
  EXPECT_EQ(C.at("b"), 10u);
}

TEST(MetricsTest, CounterHandleIsStable) {
  MetricsRegistry M;
  auto &H = M.counter("hot");
  // Force rehash-ish growth: many registrations after taking the handle.
  for (int I = 0; I < 100; ++I)
    M.counter("c" + std::to_string(I)).add();
  H.add(7);
  EXPECT_EQ(M.counters().at("hot"), 7u);
}

TEST(MetricsTest, ConcurrentCounterAdds) {
  MetricsRegistry M;
  auto &H = M.counter("n");
  constexpr int Threads = 4, PerThread = 10000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&H] {
      for (int I = 0; I < PerThread; ++I)
        H.add();
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(H.value(), static_cast<uint64_t>(Threads) * PerThread);
}

TEST(MetricsTest, GaugesOverwrite) {
  MetricsRegistry M;
  M.setGauge("g", 1.5);
  M.setGauge("g", 2.5);
  EXPECT_EQ(M.gauges().at("g"), 2.5);
}

TEST(MetricsTest, HistogramIsReplacedBySetHistogram) {
  MetricsRegistry M;
  LatencyHistogram H;
  H.record(5);
  M.setHistogram("lat", H);
  H.record(15);
  H.record(95);
  M.setHistogram("lat", H); // a later sample replaces the earlier one
  json::Value J = M.toJson();
  const json::Value *Lat = J.find("histograms")->find("lat");
  ASSERT_NE(Lat, nullptr);
  EXPECT_EQ(Lat->find("count")->asNumber(), 3.0);
  EXPECT_EQ(Lat->find("max")->asNumber(), 95.0);
  EXPECT_NE(M.toString().find("lat: n=3"), std::string::npos);
}

TEST(MetricsTest, ToJsonSchema) {
  MetricsRegistry M;
  M.counter("runtime.tasks").set(3);
  M.setGauge("runtime.outstanding", 0);
  LatencyHistogram H;
  H.record(2.0);
  M.setHistogram("resp", H);
  json::Value J = M.toJson();
  ASSERT_TRUE(J.isObject());
  const json::Value *C = J.find("counters");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->find("runtime.tasks")->asNumber(), 3.0);
  const json::Value *G = J.find("gauges");
  ASSERT_NE(G, nullptr);
  EXPECT_TRUE(G->contains("runtime.outstanding"));
  const json::Value *Hs = J.find("histograms");
  ASSERT_NE(Hs, nullptr);
  const json::Value *R = Hs->find("resp");
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->find("count")->asNumber(), 1.0);
  EXPECT_EQ(R->find("p99")->asNumber(), 2.0);
  // And it parses back from text.
  auto Back = json::parse(J.dump(2));
  ASSERT_TRUE(Back.has_value());
}

TEST(MetricsTest, ToStringMentionsEveryName) {
  MetricsRegistry M;
  M.counter("zebra").add();
  M.setGauge("apple", 1);
  std::string S = M.toString();
  EXPECT_NE(S.find("zebra"), std::string::npos);
  EXPECT_NE(S.find("apple"), std::string::npos);
}

} // namespace
} // namespace repro
