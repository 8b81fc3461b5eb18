//===- tests/icilk/locality_test.cpp - Locality-aware scheduling ------------===//
//
// Covers the locality tentpole: the per-worker next-task slot (hit
// counting, displacement order, the promptness guard that keeps it from
// starving a higher level), affinity hints (honored via mailbox/next-slot
// when the target has room, a parked target included; dropped under
// pressure, an occupied mailbox), batch stealing
// (stealHalf moving several tasks per operation), and the metrics-surface
// plumbing for all the new counters.
//
//===----------------------------------------------------------------------===//

#include "icilk/Context.h"
#include "icilk/Runtime.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace {

using namespace repro;

ICILK_PRIORITY(Lo, icilk::BasePriority, 0);
ICILK_PRIORITY(Hi, Lo, 1);

/// Spins for roughly \p Micros of wall time (tasks that must occupy a
/// worker without suspending).
void spinFor(uint64_t Micros) {
  uint64_t End = repro::nowNanos() + Micros * 1000;
  while (repro::nowNanos() < End)
    ;
}

TEST(LocalityTest, NextSlotServesWorkerLocalSpawns) {
  // A single worker running a parent/child ftouch lap keeps the whole
  // exchange in its next-task slot: the child is spawned into the slot,
  // the suspended parent is resumed into it, and neither placement ever
  // touches a deque or the idle event count.
  icilk::RuntimeConfig C;
  C.NumWorkers = 1;
  C.NumLevels = 1;
  icilk::Runtime Rt(C);
  constexpr int Laps = 100;
  for (int Lap = 0; Lap < Laps; ++Lap) {
    auto F = icilk::fcreate<Lo>(Rt, [](icilk::Context<Lo> &Ctx) {
      auto Inner = Ctx.fcreate<Lo>([](icilk::Context<Lo> &) { return 3; });
      return Ctx.ftouch(Inner);
    });
    EXPECT_EQ(icilk::touchFromOutside(Rt, F), 3);
  }
  Rt.drain();
  auto S = Rt.snapshot();
  // Per lap at least the inner spawn and the parent's resume are slot
  // placements; only the externally submitted outer task must go through
  // the shared queues.
  EXPECT_GE(S.NextSlotHits, static_cast<uint64_t>(2 * Laps));
  EXPECT_EQ(S.TasksExecuted, static_cast<uint64_t>(2 * Laps));
}

TEST(LocalityTest, NextSlotCanBeDisabled) {
  icilk::RuntimeConfig C;
  C.NumWorkers = 1;
  C.NumLevels = 1;
  C.NextSlotEnabled = false;
  icilk::Runtime Rt(C);
  auto F = icilk::fcreate<Lo>(Rt, [](icilk::Context<Lo> &Ctx) {
    auto Inner = Ctx.fcreate<Lo>([](icilk::Context<Lo> &) { return 9; });
    return Ctx.ftouch(Inner);
  });
  EXPECT_EQ(icilk::touchFromOutside(Rt, F), 9);
  Rt.drain();
  EXPECT_EQ(Rt.snapshot().NextSlotHits, 0u);
}

TEST(LocalityTest, SlotDisplacementKeepsTheHigherLevel) {
  // One worker, two levels. A low-priority parent spawns a low child
  // (takes the slot) and then a high child (displaces it: the slot keeps
  // the higher level, the low child spills to the deque). The high child
  // must therefore run before the low one.
  icilk::RuntimeConfig C;
  C.NumWorkers = 1;
  C.NumLevels = 2;
  icilk::Runtime Rt(C);
  std::atomic<int> Order{0};
  std::atomic<int> LowRanAt{-1};
  std::atomic<int> HighRanAt{-1};
  auto F = icilk::fcreate<Lo>(Rt, [&](icilk::Context<Lo> &Ctx) {
    Ctx.fcreate<Lo>([&](icilk::Context<Lo> &) {
      LowRanAt = Order.fetch_add(1);
    });
    Ctx.fcreate<Hi>([&](icilk::Context<Hi> &) {
      HighRanAt = Order.fetch_add(1);
    });
    return 0;
  });
  icilk::touchFromOutside(Rt, F);
  Rt.drain();
  EXPECT_LT(HighRanAt.load(), LowRanAt.load());
}

TEST(LocalityTest, NextSlotNeverStarvesAHigherLevel) {
  // A self-respawning low-priority chain keeps its worker's slot occupied
  // on every lap — without the promptness guard a single-worker runtime
  // would run the whole chain before ever consulting a queue, so a high-
  // priority task submitted mid-chain would wait for all of it. The guard
  // flushes the slot as soon as the high level has pending work, so the
  // high task must complete while the chain is still running.
  icilk::RuntimeConfig C;
  C.NumWorkers = 1;
  C.NumLevels = 2;
  icilk::Runtime Rt(C);
  constexpr int ChainLen = 400;
  std::atomic<int> ChainDone{0};
  std::atomic<int> ChainAtHighRun{-1};
  std::function<void(icilk::Context<Lo> &)> Link =
      [&](icilk::Context<Lo> &Ctx) {
        spinFor(50);
        if (ChainDone.fetch_add(1) + 1 < ChainLen)
          Ctx.fcreate<Lo>([&](icilk::Context<Lo> &C2) { Link(C2); });
      };
  icilk::fcreate<Lo>(Rt, [&](icilk::Context<Lo> &Ctx) { Link(Ctx); });
  // Let the chain get going, then drop the high task in from outside.
  while (ChainDone.load() < 50)
    std::this_thread::yield();
  auto H = icilk::fcreate<Hi>(Rt, [&](icilk::Context<Hi> &) {
    ChainAtHighRun = ChainDone.load();
    return 1;
  });
  EXPECT_EQ(icilk::touchFromOutside(Rt, H), 1);
  Rt.drain();
  ASSERT_EQ(ChainDone.load(), ChainLen);
  ASSERT_GE(ChainAtHighRun.load(), 0);
  // The high task ran strictly before the chain finished — the slot never
  // monopolized the worker. (The chain's tail is ~17 ms of spinning after
  // the submission point; the guard fires within one slot consultation.)
  EXPECT_LT(ChainAtHighRun.load(), ChainLen);
}

TEST(LocalityTest, WorkerAffinityHintLandsOnThatWorker) {
  icilk::RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 1;
  icilk::Runtime Rt(C);
  constexpr int N = 20;
  for (int I = 0; I < N; ++I) {
    icilk::AffinityHint Hint;
    Hint.Worker = 1;
    auto F = icilk::fcreate<Lo>(
        Rt,
        [&Rt](icilk::Context<Lo> &) { return Rt.currentWorkerIndex(); },
        Hint);
    EXPECT_EQ(icilk::touchFromOutside(Rt, F), 1);
  }
  Rt.drain();
  EXPECT_EQ(Rt.snapshot().AffinityHits, static_cast<uint64_t>(N));
}

TEST(LocalityTest, ParkedTargetTakesMailboxDelivery) {
  // Workers park on their first empty scan, so a parked target went idle
  // moments ago: delivery goes into its mailbox and the post-CAS flag
  // re-read wakes it, rather than the hint being dropped.
  icilk::RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 1;
  icilk::Runtime Rt(C);
  // Wait until both workers are parked: ParkedFlag is raised before the
  // parked count goes up, so a count of 2 implies both flags are up.
  while (Rt.snapshot().WorkersParked < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  icilk::AffinityHint Parked;
  Parked.Worker = 1;
  auto F = icilk::fcreate<Lo>(
      Rt, [&Rt](icilk::Context<Lo> &) { return Rt.currentWorkerIndex(); },
      Parked);
  // A lost wakeup strands the task in the box: fail rather than hang.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (!F.isReady() && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::yield();
  ASSERT_TRUE(F.isReady()) << "the parked target was never woken";
  EXPECT_EQ(icilk::touchFromOutside(Rt, F), 1);
  Rt.drain();
  EXPECT_EQ(Rt.snapshot().AffinityHits, 1u);
}

TEST(LocalityTest, AffinityHintDroppedUnderPressureStillRuns) {
  // An occupied mailbox refuses delivery; the task must fall back to the
  // shared queues and still complete (the hint is advice, never a
  // correctness dependency). Same for a hint naming a nonexistent worker
  // or an impossible socket.
  icilk::RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 1;
  icilk::Runtime Rt(C);
  icilk::AffinityHint OnOne;
  OnOne.Worker = 1;
  auto WhereRun = [&Rt](icilk::Context<Lo> &) {
    return Rt.currentWorkerIndex();
  };
  // Pin worker 1 on a blocker (taking it emptied the box), then fill its
  // box: the next hint at worker 1 meets pressure.
  std::atomic<bool> BlockerUp{false};
  std::atomic<bool> Release{false};
  auto Blocker = icilk::fcreate<Lo>(
      Rt,
      [&](icilk::Context<Lo> &) {
        BlockerUp = true;
        while (!Release.load())
          ;
        return 0;
      },
      OnOne);
  while (!BlockerUp.load())
    std::this_thread::yield();
  auto Boxed = icilk::fcreate<Lo>(Rt, WhereRun, OnOne);
  auto Pressured = icilk::fcreate<Lo>(Rt, WhereRun, OnOne);
  EXPECT_EQ(icilk::touchFromOutside(Rt, Pressured), 0);

  icilk::AffinityHint Bad;
  Bad.Worker = 99;
  auto F2 = icilk::fcreate<Lo>(
      Rt, [](icilk::Context<Lo> &) { return 22; }, Bad);
  EXPECT_EQ(icilk::touchFromOutside(Rt, F2), 22);

  icilk::AffinityHint NoSuchSocket;
  NoSuchSocket.Socket = 125;
  auto F3 = icilk::fcreate<Lo>(
      Rt, [](icilk::Context<Lo> &) { return 33; }, NoSuchSocket);
  EXPECT_EQ(icilk::touchFromOutside(Rt, F3), 33);

  Release = true;
  icilk::touchFromOutside(Rt, Blocker);
  EXPECT_EQ(icilk::touchFromOutside(Rt, Boxed), 1);
  Rt.drain();
  // The blocker and the boxed task were delivered; the other three not.
  EXPECT_EQ(Rt.snapshot().AffinityHits, 2u);
}

TEST(LocalityTest, BatchStealMovesMultipleTasksPerOperation) {
  // Worker 1 is pinned on a blocker while worker 0 piles ~63 children
  // into its deque; when the blocker releases, worker 1's first steal
  // sees a deep victim and stealHalf must take a batch, not one task.
  icilk::RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 1;
  icilk::Runtime Rt(C);
  std::atomic<bool> PileReady{false};
  std::atomic<bool> BlockerUp{false};

  icilk::AffinityHint OnOne;
  OnOne.Worker = 1;
  auto Blocker = icilk::fcreate<Lo>(
      Rt,
      [&](icilk::Context<Lo> &) {
        BlockerUp = true;
        while (!PileReady.load())
          ;
        return 0;
      },
      OnOne);
  while (!BlockerUp.load())
    std::this_thread::yield();

  icilk::AffinityHint OnZero;
  OnZero.Worker = 0;
  constexpr int Kids = 64;
  std::atomic<int> KidsRun{0};
  auto Producer = icilk::fcreate<Lo>(
      Rt,
      [&](icilk::Context<Lo> &Ctx) {
        for (int I = 0; I < Kids; ++I)
          Ctx.fcreate<Lo>([&](icilk::Context<Lo> &) {
            spinFor(5);
            KidsRun.fetch_add(1);
          });
        PileReady = true;
        // Keep worker 0 busy until at least one kid has run.  Worker 0 is
        // stuck right here, so any kid that runs was stolen by worker 1 —
        // this handshake works even on a single-core machine, where a fixed
        // spin can elapse before worker 1's thread is ever scheduled.  The
        // deadline is an escape hatch so a stealing bug fails the EXPECTs
        // below instead of wedging the test.
        auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (KidsRun.load() == 0 && std::chrono::steady_clock::now() < Deadline)
          ;
        return 0;
      },
      OnZero);
  icilk::touchFromOutside(Rt, Blocker);
  icilk::touchFromOutside(Rt, Producer);
  Rt.drain();
  EXPECT_EQ(KidsRun.load(), Kids);
  auto S = Rt.snapshot();
  EXPECT_GE(S.BatchSteals, 1u);
  EXPECT_GE(S.BatchStealTasks, 2u);
  EXPECT_GE(S.StealsSameSocket + S.StealsCrossSocket, 1u);
  EXPECT_GE(S.NextSlotHits, 1u);
}

TEST(LocalityTest, SingleStealConfigDegradesToClassicStealing) {
  // StealBatchMax=1 must behave exactly like the pre-batch scheduler: no
  // batch operations ever counted, work still balances.
  icilk::RuntimeConfig C;
  C.NumWorkers = 4;
  C.NumLevels = 1;
  C.StealBatchMax = 1;
  icilk::Runtime Rt(C);
  auto F = icilk::fcreate<Lo>(Rt, [](icilk::Context<Lo> &Ctx) {
    std::vector<icilk::Future<Lo, int>> Fs;
    for (int I = 0; I < 64; ++I)
      Fs.push_back(Ctx.fcreate<Lo>([I](icilk::Context<Lo> &) {
        spinFor(20);
        return I;
      }));
    int Sum = 0;
    for (auto &Child : Fs)
      Sum += Ctx.ftouch(Child);
    return Sum;
  });
  EXPECT_EQ(icilk::touchFromOutside(Rt, F), 64 * 63 / 2);
  Rt.drain();
  EXPECT_EQ(Rt.snapshot().BatchSteals, 0u);
}

TEST(LocalityTest, SampleMetricsExportsLocalityCounters) {
  icilk::RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 1;
  icilk::Runtime Rt(C);
  auto F = icilk::fcreate<Lo>(Rt, [](icilk::Context<Lo> &Ctx) {
    auto Inner = Ctx.fcreate<Lo>([](icilk::Context<Lo> &) { return 1; });
    return Ctx.ftouch(Inner);
  });
  icilk::touchFromOutside(Rt, F);
  Rt.drain();
  MetricsRegistry M;
  Rt.sampleMetrics(M);
  auto S = Rt.snapshot();
  EXPECT_EQ(M.counter("runtime.next_slot_hits").value(), S.NextSlotHits);
  EXPECT_EQ(M.counter("runtime.batch_steals").value(), S.BatchSteals);
  EXPECT_EQ(M.counter("runtime.batch_steal_tasks").value(),
            S.BatchStealTasks);
  EXPECT_EQ(M.counter("runtime.affinity_hits").value(), S.AffinityHits);
  auto Gauges = M.gauges();
  ASSERT_TRUE(Gauges.count("runtime.steal_same_socket_ratio"));
  double Ratio = Gauges["runtime.steal_same_socket_ratio"];
  EXPECT_GE(Ratio, 0.0);
  EXPECT_LE(Ratio, 1.0);
}

} // namespace
