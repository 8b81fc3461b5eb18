//===- tests/icilk/runtime_test.cpp - I-Cilk runtime behaviour -------------===//

#include "icilk/Context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace repro::icilk {
namespace {

ICILK_PRIORITY(Bg, BasePriority, 0);
ICILK_PRIORITY(Norm, Bg, 1);
ICILK_PRIORITY(Ui, Norm, 2);
ICILK_PRIORITY(L0, BasePriority, 0);
ICILK_PRIORITY(L1, L0, 1);

RuntimeConfig smallConfig(bool PriorityAware = true) {
  RuntimeConfig C;
  C.NumWorkers = 4;
  C.NumLevels = 3;
  C.PriorityAware = PriorityAware;
  return C;
}

TEST(RuntimeTest, SingleTaskRunsAndReturns) {
  Runtime Rt(smallConfig());
  auto F = fcreate<Ui>(Rt, [](Context<Ui> &) { return 42; });
  EXPECT_EQ(touchFromOutside(Rt, F), 42);
}

TEST(RuntimeTest, VoidBodyYieldsUnitFuture) {
  Runtime Rt(smallConfig());
  std::atomic<int> Ran{0};
  auto F = fcreate<Bg>(Rt, [&](Context<Bg> &) { Ran.store(1); });
  touchFromOutside(Rt, F);
  EXPECT_EQ(Ran.load(), 1);
  EXPECT_TRUE(F.isReady());
}

TEST(RuntimeTest, NestedFcreateAndFtouch) {
  Runtime Rt(smallConfig());
  auto F = fcreate<Norm>(Rt, [](Context<Norm> &Ctx) {
    auto Inner = Ctx.fcreate<Ui>([](Context<Ui> &) { return 21; });
    return 2 * Ctx.ftouch(Inner);
  });
  EXPECT_EQ(touchFromOutside(Rt, F), 42);
}

TEST(RuntimeTest, TouchEqualPriority) {
  Runtime Rt(smallConfig());
  auto F = fcreate<Ui>(Rt, [](Context<Ui> &Ctx) {
    auto Inner = Ctx.fcreate<Ui>([](Context<Ui> &) { return 5; });
    return Ctx.ftouch(Inner) + 1;
  });
  EXPECT_EQ(touchFromOutside(Rt, F), 6);
}

TEST(RuntimeTest, ManyTasksAllComplete) {
  Runtime Rt(smallConfig());
  constexpr int N = 2000;
  std::vector<Future<Norm, int>> Futures;
  Futures.reserve(N);
  for (int I = 0; I < N; ++I)
    Futures.push_back(fcreate<Norm>(Rt, [I](Context<Norm> &) { return I; }));
  long long Sum = 0;
  for (int I = 0; I < N; ++I)
    Sum += touchFromOutside(Rt, Futures[I]);
  EXPECT_EQ(Sum, static_cast<long long>(N) * (N - 1) / 2);
  Rt.drain();
  RuntimeSnapshot S = Rt.snapshot();
  EXPECT_EQ(S.Outstanding, 0);
  EXPECT_GE(S.TasksExecuted, static_cast<uint64_t>(N));
}

TEST(RuntimeTest, RecursiveDivideAndConquer) {
  Runtime Rt(smallConfig());
  // Parallel sum of 1..64 by recursive splitting.
  struct Rec {
    static int sum(Context<Norm> &Ctx, int Lo, int Hi) {
      if (Hi - Lo <= 4) {
        int S = 0;
        for (int I = Lo; I < Hi; ++I)
          S += I;
        return S;
      }
      int Mid = (Lo + Hi) / 2;
      auto Left = Ctx.fcreate<Norm>(
          [Lo, Mid](Context<Norm> &C) { return sum(C, Lo, Mid); });
      int Right = sum(Ctx, Mid, Hi);
      return Ctx.ftouch(Left) + Right;
    }
  };
  auto F = fcreate<Norm>(Rt,
                         [](Context<Norm> &Ctx) { return Rec::sum(Ctx, 1, 65); });
  EXPECT_EQ(touchFromOutside(Rt, F), 64 * 65 / 2);
}

TEST(RuntimeTest, HandlesThroughSharedState) {
  // The paper's email pattern: store a handle in shared state; another
  // thread retrieves and touches it.
  Runtime Rt(smallConfig());
  auto Producer = fcreate<Ui>(Rt, [](Context<Ui> &) { return 7; });
  std::atomic<const Future<Ui, int> *> Slot{&Producer};
  auto Consumer = fcreate<Norm>(Rt, [&](Context<Norm> &Ctx) {
    const Future<Ui, int> *H = Slot.load();
    return Ctx.ftouch(*H) * 10;
  });
  EXPECT_EQ(touchFromOutside(Rt, Consumer), 70);
}

TEST(RuntimeTest, LevelStatsRecorded) {
  Runtime Rt(smallConfig());
  for (int I = 0; I < 10; ++I)
    touchFromOutside(Rt, fcreate<Ui>(Rt, [](Context<Ui> &) { return 1; }));
  Rt.drain();
  EXPECT_EQ(Rt.completed(Ui::Level), 10u);
  EXPECT_EQ(Rt.latency(Ui::Level, LatencyKind::Response).count(), 10u);
  EXPECT_EQ(Rt.completed(Bg::Level), 0u);
}

TEST(RuntimeTest, ObliviousModeStillRunsEverything) {
  Runtime Rt(smallConfig(/*PriorityAware=*/false));
  std::atomic<int> Count{0};
  std::vector<Future<Bg, Unit>> Fs;
  for (int I = 0; I < 200; ++I)
    Fs.push_back(fcreate<Bg>(Rt, [&](Context<Bg> &) { Count.fetch_add(1); }));
  for (auto &F : Fs)
    touchFromOutside(Rt, F);
  EXPECT_EQ(Count.load(), 200);
  // Stats still attributed to the task's level (drain: the bookkeeping
  // runs just after future completion).
  Rt.drain();
  EXPECT_EQ(Rt.completed(Bg::Level), 200u);
}

TEST(RuntimeTest, DrainWaitsForDetachedWork) {
  Runtime Rt(smallConfig());
  std::atomic<int> Done{0};
  for (int I = 0; I < 100; ++I)
    fcreate<Bg>(Rt, [&](Context<Bg> &) { Done.fetch_add(1); });
  Rt.drain();
  EXPECT_EQ(Done.load(), 100);
  EXPECT_EQ(Rt.snapshot().Outstanding, 0);
}

TEST(RuntimeTest, AssignmentCountsCoverAllWorkers) {
  Runtime Rt(smallConfig());
  auto Counts = Rt.snapshot().Assigned;
  EXPECT_EQ(std::accumulate(Counts.begin(), Counts.end(), 0u), 4u);
}

TEST(RuntimeTest, SnapshotIsCoherentAfterDrain) {
  Runtime Rt(smallConfig());
  constexpr int N = 50;
  for (int I = 0; I < N; ++I)
    fcreate<Norm>(Rt, [](Context<Norm> &) {});
  Rt.drain();
  RuntimeSnapshot S = Rt.snapshot();
  EXPECT_EQ(S.Outstanding, 0);
  EXPECT_EQ(S.TasksExecuted, static_cast<uint64_t>(N));
  EXPECT_GT(S.TotalWorkNanos, 0u);
  EXPECT_EQ(S.StallsDetected, 0u);
  ASSERT_EQ(S.Pending.size(), Rt.config().NumLevels);
  ASSERT_EQ(S.Assigned.size(), Rt.config().NumLevels);
  ASSERT_EQ(S.Desires.size(), Rt.config().NumLevels);
  EXPECT_EQ(S.totalPending(), 0);
  // Every worker is assigned somewhere; desires are the master-published
  // values (non-negative by construction).
  EXPECT_EQ(std::accumulate(S.Assigned.begin(), S.Assigned.end(), 0u),
            Rt.config().NumWorkers);
  for (double D : S.Desires)
    EXPECT_GE(D, 0.0);
}

TEST(RuntimeTest, ShutdownIsIdempotent) {
  Runtime Rt(smallConfig());
  Rt.drain();
  Rt.shutdown();
  Rt.shutdown(); // second call is a no-op; destructor will be a third
}

TEST(RuntimeTest, SingleWorkerStillCorrect) {
  RuntimeConfig C;
  C.NumWorkers = 1;
  C.NumLevels = 2;
  Runtime Rt(C);
  auto F = fcreate<L1>(Rt, [](Context<L1> &Ctx) {
    auto A = Ctx.fcreate<L1>([](Context<L1> &) { return 1; });
    auto B = Ctx.fcreate<L1>([](Context<L1> &) { return 2; });
    return Ctx.ftouch(A) + Ctx.ftouch(B);
  });
  EXPECT_EQ(touchFromOutside(Rt, F), 3);
}

TEST(RuntimeTest, PollDoesNotBlock) {
  Runtime Rt(smallConfig());
  auto Gate = std::make_shared<std::atomic<bool>>(false);
  auto Slow = fcreate<Bg>(Rt, [Gate](Context<Bg> &) {
    while (!Gate->load())
      std::this_thread::yield();
    return 1;
  });
  auto Checker = fcreate<Ui>(Rt, [&Slow](Context<Ui> &Ctx) {
    // A high-priority thread may poll a low-priority future (no blocking,
    // no inversion) — only ftouch is restricted.
    return Ctx.poll(Slow) ? 1 : 0;
  });
  int SawReady = touchFromOutside(Rt, Checker);
  EXPECT_TRUE(SawReady == 0 || SawReady == 1);
  Gate->store(true);
  EXPECT_EQ(touchFromOutside(Rt, Slow), 1);
}

} // namespace
} // namespace repro::icilk
