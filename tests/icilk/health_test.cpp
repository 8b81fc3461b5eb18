//===- tests/icilk/health_test.cpp - Health plane: profiler + doctor --------===//
//
// Covers the always-on health plane (icilk/Health.h): worker status
// publication and seqlock sampling, the wall-clock folded profile, the
// starvation/stall doctor's verdicts (a seeded one-worker starvation must
// be diagnosed within 500 ms; a healthy drained run must stay "ok"), the
// SLO burn-rate engine over a seeded window source, and the steal-locality
// counters. Runs under TSan/ASan via scripts/check.sh.
//
//===----------------------------------------------------------------------===//

#include "icilk/Context.h"
#include "icilk/Health.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

namespace repro::icilk {
namespace {

ICILK_PRIORITY(Lo, BasePriority, 0);
ICILK_PRIORITY(Hi, Lo, 1);

uint64_t millisSince(std::chrono::steady_clock::time_point T0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

bool hasVerdict(const HealthReport &R, const std::string &Kind) {
  for (const HealthVerdict &V : R.Verdicts)
    if (V.Kind == Kind)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Worker status publication (the profiler's sampling surface)
//===----------------------------------------------------------------------===//

TEST(WorkerStatusTest, SampleOutOfRangeReturnsFalse) {
  RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 1;
  Runtime Rt(C);
  WorkerStatus St;
  EXPECT_TRUE(Rt.sampleWorkerStatus(0, St));
  EXPECT_TRUE(Rt.sampleWorkerStatus(1, St));
  EXPECT_FALSE(Rt.sampleWorkerStatus(2, St));
}

TEST(WorkerStatusTest, RunningTaskIsObservable) {
  RuntimeConfig C;
  C.NumWorkers = 1;
  C.NumLevels = 1;
  Runtime Rt(C);
  std::atomic<bool> Entered{false}, Release{false};
  auto F = fcreate<Lo>(Rt, [&](Context<Lo> &) {
    Entered.store(true);
    while (!Release.load())
      std::this_thread::yield();
    return 1;
  });
  while (!Entered.load())
    std::this_thread::yield();
  WorkerStatus St;
  ASSERT_TRUE(Rt.sampleWorkerStatus(0, St));
  EXPECT_EQ(St.State, WorkerState::Running);
  EXPECT_EQ(St.Level, 0);
  EXPECT_GT(St.SinceNanos, 0u);
  Release.store(true);
  EXPECT_EQ(touchFromOutside(Rt, F), 1);
  Rt.drain();
  // After the drain the worker is back to stealing or parked.
  auto Deadline = std::chrono::steady_clock::now();
  bool LeftRunning = false;
  while (millisSince(Deadline) < 2000) {
    ASSERT_TRUE(Rt.sampleWorkerStatus(0, St));
    if (St.State != WorkerState::Running) {
      LeftRunning = true;
      break;
    }
    std::this_thread::yield();
  }
  EXPECT_TRUE(LeftRunning);
  EXPECT_STREQ(workerStateName(WorkerState::InIo), "in-io");
}

//===----------------------------------------------------------------------===//
// The doctor: seeded starvation, stalled worker, healthy run
//===----------------------------------------------------------------------===//

TEST(HealthDoctorTest, SeededStarvationDiagnosedWithin500Millis) {
  RuntimeConfig C;
  C.NumWorkers = 1; // the one worker will be hogged by the Hi spinner
  C.NumLevels = 2;
  Runtime Rt(C);
  HealthConfig HC;
  HC.StarvedAfterMillis = 100;
  Health Doctor(Rt, HC);

  std::atomic<bool> Entered{false}, Release{false};
  auto Spin = fcreate<Hi>(Rt, [&](Context<Hi> &) {
    Entered.store(true);
    while (!Release.load())
      std::this_thread::yield();
  });
  while (!Entered.load())
    std::this_thread::yield();
  // Lo work piles up behind the spinner: pending > 0, zero completions.
  for (int I = 0; I < 4; ++I)
    fcreate<Lo>(Rt, [](Context<Lo> &) {});

  auto T0 = std::chrono::steady_clock::now();
  bool Diagnosed = false;
  while (millisSince(T0) < 500) {
    Doctor.tickForTest();
    HealthReport R = Doctor.report();
    if (hasVerdict(R, "starved")) {
      EXPECT_EQ(R.Status, "critical");
      bool LevelSeen = false;
      for (const HealthVerdict &V : R.Verdicts)
        if (V.Kind == "starved") {
          EXPECT_EQ(V.Level, 0); // the Lo level is the starved one
          EXPECT_GE(V.ForMillis, HC.StarvedAfterMillis);
          EXPECT_NE(V.Detail.find("starved"), std::string::npos);
          LevelSeen = true;
        }
      EXPECT_TRUE(LevelSeen);
      Diagnosed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(Diagnosed) << "no starved verdict within 500 ms";

  Release.store(true);
  touchFromOutside(Rt, Spin);
  Rt.drain();
  // With the queue drained the very next tick clears the verdict.
  Doctor.tickForTest();
  EXPECT_FALSE(hasVerdict(Doctor.report(), "starved"));
}

TEST(HealthDoctorTest, HealthyDrainedRunStaysOk) {
  RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 2;
  Runtime Rt(C);
  for (int I = 0; I < 32; ++I)
    fcreate<Lo>(Rt, [](Context<Lo> &) {});
  Rt.drain();
  Health Doctor(Rt, {});
  Doctor.tickForTest();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Doctor.tickForTest();
  HealthReport R = Doctor.report();
  EXPECT_EQ(R.Status, "ok");
  EXPECT_TRUE(R.Verdicts.empty());
  EXPECT_EQ(R.Samples, 2u);
}

TEST(HealthDoctorTest, StalledTaskGetsCriticalVerdict) {
  RuntimeConfig C;
  C.NumWorkers = 1;
  C.NumLevels = 1;
  Runtime Rt(C);
  HealthConfig HC;
  HC.StalledTaskMillis = 50;
  Health Doctor(Rt, HC);
  std::atomic<bool> Entered{false}, Release{false};
  auto Spin = fcreate<Lo>(Rt, [&](Context<Lo> &) {
    Entered.store(true);
    while (!Release.load())
      std::this_thread::yield();
  });
  while (!Entered.load())
    std::this_thread::yield();

  auto T0 = std::chrono::steady_clock::now();
  bool Diagnosed = false;
  while (millisSince(T0) < 2000) {
    Doctor.tickForTest();
    HealthReport R = Doctor.report();
    for (const HealthVerdict &V : R.Verdicts)
      if (V.Kind == "worker-stalled" && V.Severity == "critical") {
        EXPECT_EQ(V.Worker, 0);
        EXPECT_NE(V.Detail.find("running"), std::string::npos);
        Diagnosed = true;
      }
    if (Diagnosed)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(Diagnosed) << "no worker-stalled verdict";
  Release.store(true);
  touchFromOutside(Rt, Spin);
  Rt.drain();
}

//===----------------------------------------------------------------------===//
// The SLO burn-rate engine over a seeded window source
//===----------------------------------------------------------------------===//

/// A window source whose tails the test scripts directly.
class FakeWindows : public LatencyWindowSource {
public:
  unsigned levels() const override { return 1; }
  LatencyHistogram windowTail(unsigned, unsigned LastEpochs) const override {
    return LastEpochs <= 2 ? Fast : Slow;
  }
  unsigned epochs() const override { return 10; }
  uint64_t epochMillis() const override { return 1000; }

  LatencyHistogram Fast, Slow;
};

TEST(SloBurnTest, BothWindowsBurningRaisesCriticalVerdict) {
  RuntimeConfig C;
  C.NumWorkers = 1;
  C.NumLevels = 1;
  Runtime Rt(C);
  HealthConfig HC;
  HC.Slos.push_back({0, /*P99TargetMicros=*/1000, /*Objective=*/0.99});
  Health Plane(Rt, HC);
  FakeWindows W;
  Plane.trackWindows(&W);

  // All good: everything under target, no burn.
  for (int I = 0; I < 100; ++I) {
    W.Fast.record(100);
    W.Slow.record(100);
  }
  Plane.tickForTest();
  HealthReport R = Plane.report();
  ASSERT_EQ(R.Slo.size(), 1u);
  EXPECT_EQ(R.Slo[0].Level, 0);
  EXPECT_LT(R.Slo[0].FastBurn, 1.0);
  EXPECT_FALSE(hasVerdict(R, "slo-burn"));

  // Tail catastrophe: 10% of fast-window requests over target burns the
  // 1% budget at 10x; the slow window burns at ~5x. Both over threshold.
  for (int I = 0; I < 11; ++I)
    W.Fast.record(5000);
  for (int I = 0; I < 5; ++I)
    W.Slow.record(5000);
  Plane.tickForTest();
  R = Plane.report();
  ASSERT_EQ(R.Slo.size(), 1u);
  EXPECT_GE(R.Slo[0].FastBurn, 2.0);
  EXPECT_GE(R.Slo[0].SlowBurn, 1.0);
  EXPECT_TRUE(hasVerdict(R, "slo-burn"));
  EXPECT_EQ(R.Status, "critical");

  // The JSON surface carries the same story.
  std::string J = Plane.healthJson().dump();
  EXPECT_NE(J.find("slo-burn"), std::string::npos);
  EXPECT_NE(J.find("icilk-health-v1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Profiler output
//===----------------------------------------------------------------------===//

TEST(HealthProfileTest, FoldedStacksHaveWellFormedFrames) {
  RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 2;
  Runtime Rt(C);
  Health Plane(Rt, {});
  for (int Round = 0; Round < 5; ++Round) {
    for (int I = 0; I < 16; ++I)
      fcreate<Lo>(Rt, [](Context<Lo> &) {});
    Plane.tickForTest();
    Rt.drain();
    Plane.tickForTest();
  }
  std::string Folded = Plane.profileFolded();
  ASSERT_FALSE(Folded.empty());
  // Every line: "all;level<L>;<state>[;<kind>] <count>".
  std::size_t Pos = 0;
  while (Pos < Folded.size()) {
    std::size_t End = Folded.find('\n', Pos);
    ASSERT_NE(End, std::string::npos);
    std::string Line = Folded.substr(Pos, End - Pos);
    Pos = End + 1;
    EXPECT_EQ(Line.rfind("all;level", 0), 0u) << Line;
    std::size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos);
    EXPECT_GT(std::stoull(Line.substr(Space + 1)), 0u) << Line;
    bool KnownState = false;
    for (const char *S : {"running", "stealing", "parked", "in-io"})
      if (Line.find(std::string(";") + S) != std::string::npos)
        KnownState = true;
    EXPECT_TRUE(KnownState) << Line;
  }

  json::Value P = Plane.profileJson();
  ASSERT_TRUE(P.isObject());
  EXPECT_EQ(P.find("schema")->asString(), "icilk-health-profile-v1");
  ASSERT_NE(P.find("levels"), nullptr);
  EXPECT_GT(P.find("levels")->size(), 0u);
  ASSERT_NE(P.find("folded"), nullptr);
  EXPECT_GT(P.find("folded")->size(), 0u);
}

TEST(HealthProfileTest, WatcherThreadAccumulatesSamples) {
  RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 1;
  Runtime Rt(C);
  HealthConfig HC;
  HC.SampleHz = 500; // fast, so the test needs only a short nap
  Health Plane(Rt, HC);
  Plane.start();
  for (int I = 0; I < 64; ++I)
    fcreate<Lo>(Rt, [](Context<Lo> &) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
  Rt.drain();
  auto T0 = std::chrono::steady_clock::now();
  while (Plane.samples() < 5 && millisSince(T0) < 2000)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Plane.stop();
  EXPECT_GE(Plane.samples(), 5u);
  EXPECT_EQ(Plane.report().SampleHz, 500);
}

//===----------------------------------------------------------------------===//
// Steal-locality counters
//===----------------------------------------------------------------------===//

TEST(StealLocalityTest, NestedSpawnWorkloadCountsSteals) {
  RuntimeConfig C;
  C.NumWorkers = 4;
  C.NumLevels = 1;
  Runtime Rt(C);
  // Children land on the spawner's own deque, so any other worker that
  // picks one up goes through the steal path and the locality counters.
  for (int Round = 0; Round < 200; ++Round) {
    auto F = fcreate<Lo>(Rt, [](Context<Lo> &Ctx) {
      for (int I = 0; I < 64; ++I)
        Ctx.fcreate<Lo>([](Context<Lo> &) {
          std::this_thread::sleep_for(std::chrono::microseconds(10));
        });
    });
    touchFromOutside(Rt, F);
    Rt.drain();
    RuntimeSnapshot S = Rt.snapshot();
    if (S.StealsSameSocket + S.StealsCrossSocket > 0)
      break;
  }
  RuntimeSnapshot S = Rt.snapshot();
  EXPECT_GT(S.StealsSameSocket + S.StealsCrossSocket, 0u);
  // Snapshot also carries the per-level overflow gauge now (empty rings
  // on a drained runtime).
  ASSERT_EQ(S.InjectionOverflow.size(), 1u);
  EXPECT_EQ(S.InjectionOverflow[0], 0);
}

} // namespace
} // namespace repro::icilk
