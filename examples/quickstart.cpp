//===- examples/quickstart.cpp - I-Cilk in five minutes ---------------------===//
//
// The minimal tour of the library: declare a priority hierarchy, spawn
// prioritized futures with fcreate, wait with ftouch (statically checked
// against priority inversion), share handles through mutable state, and
// hide I/O latency with io_futures.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
//
// Flags: [--trace=FILE] records the scheduler event ring and writes it as
// Chrome-trace JSON (open in https://ui.perfetto.dev); [--metrics] prints
// the runtime's metrics-registry dump at the end; [--telemetry-port=P]
// serves the live observability surface (/metrics, /health.json,
// /profile.folded, ...) for the run, with
// [--slo=LEVEL:P99_US[:OBJECTIVE],...] declaring latency objectives for
// the health plane's SLO burn-rate engine.
//
//===----------------------------------------------------------------------===//

#include "icilk/Context.h"
#include "icilk/EventRing.h"
#include "icilk/SimIo.h"
#include "icilk/Telemetry.h"
#include "support/ArgParse.h"
#include "support/Metrics.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>

using namespace repro::icilk;

// Priorities are classes; deriving means "strictly higher" (Sec. 4.2 of
// the paper). Background ≺ Interactive.
ICILK_PRIORITY(Background, BasePriority, 0);
ICILK_PRIORITY(Interactive, Background, 1);

int main(int Argc, char **Argv) {
  repro::ArgMap Args = repro::ArgMap::parse(Argc, Argv);
  std::string TracePath = Args.getString("trace", "");
  if (!TracePath.empty())
    trace::enable();
  bool WantMetrics = Args.getBool("metrics");

  RuntimeConfig Config;
  Config.NumWorkers = 4;
  Config.NumLevels = 2; // one scheduler pool per priority level
  Runtime Rt(Config);
  SimIo Io{"io"};

  // 0. (Optional) the live observability surface, health plane included:
  //    curl /health.json for doctor verdicts, /profile.folded for a
  //    flamegraph, /metrics for Prometheus counters with exemplars.
  std::unique_ptr<Telemetry> Live;
  if (int Port = static_cast<int>(Args.getInt("telemetry-port", -1));
      Port >= 0) {
    TelemetryConfig TC;
    TC.Port = static_cast<uint16_t>(Port);
    std::string Spec = Args.getString("slo", "");
    for (std::size_t Pos = 0; Pos < Spec.size();) {
      std::size_t End = std::min(Spec.find(',', Pos), Spec.size());
      SloConfig S;
      int Got = std::sscanf(Spec.substr(Pos, End - Pos).c_str(), "%d:%lf:%lf",
                            &S.Level, &S.P99TargetMicros, &S.Objective);
      if (Got >= 2 && S.Level >= 0 && S.P99TargetMicros > 0)
        TC.Health.Slos.push_back(S);
      Pos = End + 1;
    }
    Live = std::make_unique<Telemetry>(Rt, TC);
    std::string Error;
    if (Live->start(&Error))
      std::printf("0. telemetry live on http://localhost:%u (try "
                  "/health.json)\n",
                  Live->port());
    else
      std::printf("0. telemetry disabled: %s\n", Error.c_str());
  }

  // 1. A basic future: spawn at Interactive, join from outside.
  auto Answer = fcreate<Interactive>(
      Rt, [](Context<Interactive> &) { return 6 * 7; });
  std::printf("1. the answer is %d\n", touchFromOutside(Rt, Answer));

  // 2. Nested parallelism with a legal upward touch: a Background task may
  //    ftouch an Interactive future (low waits for high — fine). The
  //    reverse would not compile:
  //      ERROR: priority inversion on future touch
  auto Pipeline = fcreate<Background>(Rt, [](Context<Background> &Ctx) {
    auto Urgent =
        Ctx.fcreate<Interactive>([](Context<Interactive> &) { return 10; });
    return Ctx.ftouch(Urgent) + 1; // Background ⪯ Interactive: checked at
                                   // compile time
  });
  std::printf("2. pipeline result: %d\n", touchFromOutside(Rt, Pipeline));

  // 3. Futures are first-class: store a handle in shared state, read it
  //    back elsewhere, touch it there (the pattern that needs the paper's
  //    weak edges to reason about).
  std::atomic<const Future<Interactive, int> *> SharedSlot{nullptr};
  auto Producer =
      fcreate<Interactive>(Rt, [](Context<Interactive> &) { return 99; });
  SharedSlot.store(&Producer);
  auto Consumer = fcreate<Background>(Rt, [&](Context<Background> &Ctx) {
    const auto *Handle = SharedSlot.load();
    return Handle ? Ctx.ftouch(*Handle) : -1;
  });
  std::printf("3. through shared state: %d\n", touchFromOutside(Rt, Consumer));

  // 4. Latency-hiding I/O: the worker suspends the waiting task and keeps
  //    running other work while the (simulated) read is in flight.
  auto WithIo = fcreate<Interactive>(Rt, [&Io](Context<Interactive> &Ctx) {
    auto Read = Io.simRead<Interactive>(/*LatencyMicros=*/2000, /*Bytes=*/512);
    long Bytes = Ctx.ftouch(Read);
    return static_cast<int>(Bytes);
  });
  std::printf("4. io_future read %d bytes\n", touchFromOutside(Rt, WithIo));

  // 5. Per-level measurements come for free.
  Rt.drain();
  auto S = Rt.latency(Interactive::Level, LatencyKind::Response).summary();
  std::printf("5. %zu Interactive tasks, mean response %.1f us\n", S.Count,
              S.Mean);

  // 6. The health plane's verdict on the run (always on when telemetry
  //    is; the watcher sampled every worker ~97 times a second).
  if (Live) {
    HealthReport HR = Live->health().report();
    std::printf("6. health: status=%s, %zu verdicts, %llu watcher samples\n",
                HR.Status.c_str(), HR.Verdicts.size(),
                static_cast<unsigned long long>(HR.Samples));
  }

  // 7. The post-mortem surface, on request: --trace for the Perfetto
  //    timeline, --metrics for the counters behind Rt.snapshot().
  if (!TracePath.empty()) {
    trace::disable();
    std::ofstream Out(TracePath);
    if (!Out) {
      std::fprintf(stderr, "cannot write trace to %s\n", TracePath.c_str());
      return 1;
    }
    trace::writeChromeTrace(Out);
    std::printf("7. wrote scheduler trace to %s (open in "
                "https://ui.perfetto.dev)\n",
                TracePath.c_str());
  }
  if (WantMetrics) {
    repro::MetricsRegistry Metrics;
    Rt.sampleMetrics(Metrics);
    std::printf("\nmetrics registry:\n%s", Metrics.toString().c_str());
  }
  return 0;
}
