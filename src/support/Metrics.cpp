//===- support/Metrics.cpp - Named counters and latency histograms -----------===//

#include "support/Metrics.h"

#include "support/StringUtils.h"

#include <sstream>

namespace repro {

namespace {

json::Value histogramJson(const LatencyHistogram &H) {
  LatencySummary S = H.summary();
  json::Value Out = json::Value::object();
  Out.set("count", json::Value(static_cast<uint64_t>(S.Count)));
  if (S.Count > 0) {
    Out.set("min", json::Value(S.Min));
    Out.set("max", json::Value(S.Max));
    Out.set("mean", json::Value(S.Mean));
    Out.set("p50", json::Value(S.P50));
    Out.set("p95", json::Value(S.P95));
    Out.set("p99", json::Value(S.P99));
    Out.set("p999", json::Value(S.P999));
  }
  return Out;
}

} // namespace

MetricsRegistry::Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

void MetricsRegistry::setGauge(const std::string &Name, double Value) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Gauges[Name] = Value;
}

void MetricsRegistry::setHistogram(const std::string &Name,
                                   const LatencyHistogram &H) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Histograms.insert_or_assign(Name, H);
}

std::map<std::string, uint64_t> MetricsRegistry::counters() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::map<std::string, uint64_t> Out;
  for (const auto &[Name, C] : Counters)
    Out[Name] = C->value();
  return Out;
}

std::map<std::string, double> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Gauges;
}

json::Value MetricsRegistry::toJson() const {
  std::map<std::string, uint64_t> Cs = counters();
  std::map<std::string, double> Gs = gauges();
  json::Value H = json::Value::object();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const auto &[Name, Histo] : Histograms)
      H.set(Name, histogramJson(Histo));
  }
  json::Value Out = json::Value::object();
  json::Value C = json::Value::object();
  for (const auto &[Name, V] : Cs)
    C.set(Name, json::Value(V));
  Out.set("counters", std::move(C));
  json::Value G = json::Value::object();
  for (const auto &[Name, V] : Gs)
    G.set(Name, json::Value(V));
  Out.set("gauges", std::move(G));
  Out.set("histograms", std::move(H));
  return Out;
}

std::string MetricsRegistry::toString() const {
  std::ostringstream OS;
  for (const auto &[Name, V] : counters())
    OS << Name << " = " << V << "\n";
  for (const auto &[Name, V] : gauges())
    OS << Name << " = " << formatFixed(V, 3) << "\n";
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &[Name, H] : Histograms)
    OS << Name << ": n=" << H.count() << "\n";
  return OS.str();
}

} // namespace repro
