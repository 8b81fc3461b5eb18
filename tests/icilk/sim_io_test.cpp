//===- tests/icilk/sim_io_test.cpp - Simulated latency-hiding I/O ----------===//

#include "icilk/Context.h"
#include "icilk/SimIo.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

namespace repro::icilk {
namespace {

ICILK_PRIORITY(Low, BasePriority, 0);
ICILK_PRIORITY(High, Low, 1);

/// Waits until the I/O thread has counted every op: it completes a
/// future before it counts the op, so a ready future can be uncounted for
/// a moment.
void waitIdle(const SimIo &Io) {
  while (Io.inFlight() > 0)
    std::this_thread::yield();
}

TEST(SimIoTest, CompletesAfterLatency) {
  SimIo Io{"io"};
  auto F = Io.simRead<High>(/*LatencyMicros=*/2000, /*Bytes=*/128);
  EXPECT_FALSE(F.isReady());
  uint64_t Start = repro::nowMicros();
  while (!F.isReady())
    std::this_thread::yield();
  uint64_t Elapsed = repro::nowMicros() - Start;
  EXPECT_GE(Elapsed + 100, 1000u); // roughly the requested latency
  EXPECT_EQ(F.state()->value(), 128);
}

TEST(SimIoTest, CompletesInDeadlineOrder) {
  // The order is observed on the I/O thread itself (completion callbacks
  // run there), so a descheduled test thread cannot change the verdict.
  // A zero-latency timer holds that thread until both callbacks are on.
  SimIo Io{"io"};
  std::atomic<bool> Registered{false};
  Io.submitTimer(0, [&Registered] {
    while (!Registered.load())
      std::this_thread::yield();
  });
  auto Slow = Io.simRead<High>(20000, 1);
  auto Fast = Io.simRead<High>(1000, 2);
  std::mutex OrderMutex;
  std::vector<int> Order;
  auto Note = [&](int Id) {
    return [&, Id] {
      std::lock_guard<std::mutex> Lock(OrderMutex);
      Order.push_back(Id);
    };
  };
  ASSERT_TRUE(Slow.state()->addCallback(Note(1)));
  ASSERT_TRUE(Fast.state()->addCallback(Note(2)));
  Registered.store(true);
  while (Io.completed() < 2)
    std::this_thread::yield();
  std::lock_guard<std::mutex> Lock(OrderMutex);
  EXPECT_EQ(Order, (std::vector<int>{2, 1}));
}

TEST(SimIoTest, ZeroLatencyCompletesPromptly) {
  SimIo Io{"io"};
  auto F = Io.simWrite<Low>(0, 64);
  while (!F.isReady())
    std::this_thread::yield();
  EXPECT_EQ(F.state()->value(), 64);
}

TEST(SimIoTest, ManyConcurrentOps) {
  SimIo Io{"io"};
  std::vector<Future<Low, IoResult>> Fs;
  for (int I = 0; I < 200; ++I)
    Fs.push_back(Io.simRead<Low>(static_cast<uint64_t>(I % 7) * 300, I));
  for (int I = 0; I < 200; ++I) {
    while (!Fs[I].isReady())
      std::this_thread::yield();
    EXPECT_EQ(Fs[I].state()->value(), I);
  }
  waitIdle(Io);
  EXPECT_EQ(Io.completed(), 200u);
}

TEST(SimIoTest, WorkersRunTasksWhileIoPends) {
  // The latency-hiding property: an ftouch on an io_future must not stop
  // other tasks from running on the touching worker.
  RuntimeConfig C;
  C.NumWorkers = 1;
  C.NumLevels = 2;
  Runtime Rt(C);
  SimIo Io{"io"};
  std::atomic<int> Background{0};

  auto Waiter = fcreate<Low>(Rt, [&](Context<Low> &Ctx) {
    auto IoF = Io.simRead<High>(/*LatencyMicros=*/30000, 7);
    for (int I = 0; I < 10; ++I)
      Ctx.fcreate<Low>([&](Context<Low> &) { Background.fetch_add(1); });
    long Bytes = Ctx.ftouch(IoF); // helping runs the 10 tasks meanwhile
    return static_cast<int>(Bytes) + Background.load();
  });
  int Result = touchFromOutside(Rt, Waiter);
  EXPECT_EQ(Result, 17) << "background tasks should finish during the I/O";
}

TEST(SimIoTest, DestructorCompletesPendingOps) {
  Future<Low, IoResult> F;
  {
    SimIo Io{"io"};
    F = Io.simRead<Low>(10'000'000, 5); // 10 s — far beyond the test
  }
  EXPECT_TRUE(F.isReady());
  EXPECT_EQ(F.state()->value(), 5);
}

TEST(SimIoTest, ShutdownWithManyInFlightOpsCompletesAll) {
  // Shutdown with a mix of in-flight ops, including one a task is parked
  // on: every future must be completed (no dangling waiters, no lost
  // wakeups) and the toucher must come back with the value.
  RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 2;
  Runtime Rt(C);
  std::vector<Future<Low, IoResult>> Fs;
  Future<Low, int> Waiter;
  {
    SimIo Io{"io"};
    for (int I = 0; I < 32; ++I)
      Fs.push_back(Io.simRead<Low>(5'000'000 + static_cast<uint64_t>(I), I));
    auto Parked = Io.simRead<High>(5'000'000, 77);
    Waiter = fcreate<Low>(Rt, [Parked](Context<Low> &Ctx) {
      return static_cast<int>(Ctx.ftouch(Parked));
    });
    // Give the task a moment to actually park on the unready io_future.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  } // ~SimIo fires everything early
  for (int I = 0; I < 32; ++I) {
    ASSERT_TRUE(Fs[static_cast<std::size_t>(I)].isReady());
    EXPECT_EQ(Fs[static_cast<std::size_t>(I)].state()->value(), I);
  }
  EXPECT_EQ(touchFromOutside(Rt, Waiter), 77);
}

TEST(SimIoTest, ReadsAndWritesCountedSeparately) {
  SimIo Io{"io"};
  std::vector<Future<Low, IoResult>> Fs;
  for (int I = 0; I < 5; ++I)
    Fs.push_back(Io.simRead<Low>(100, I));
  for (int I = 0; I < 3; ++I)
    Fs.push_back(Io.simWrite<Low>(100, I));
  for (auto &F : Fs)
    while (!F.isReady())
      std::this_thread::yield();
  waitIdle(Io);
  EXPECT_EQ(Io.simReads(), 5u);
  EXPECT_EQ(Io.simWrites(), 3u);
  EXPECT_EQ(Io.completed(), 8u);
}

TEST(SimIoTest, FdOpsCompleteErroneouslyAsUnsupported) {
  // The fd-based half of the Io interface has no meaning in simulation:
  // SimIo must answer promptly with IoErrc::Unsupported, not hang.
  SimIo Io{"io"};
  char Buf[8];
  auto F = Io.read<Low>(/*Fd=*/42, Buf, sizeof Buf);
  while (!F.isReady())
    std::this_thread::yield();
  try {
    (void)F.state()->value();
    FAIL() << "fd read on SimIo must complete erroneously";
  } catch (const IoError &E) {
    EXPECT_EQ(E.code(), IoErrc::Unsupported);
  }
  EXPECT_EQ(Io.faulted(), 1u);
}

TEST(SimIoTest, MetricsUseConstructionPrefix) {
  SimIo Io{"myio"};
  auto F = Io.simRead<Low>(0, 1);
  while (!F.isReady())
    std::this_thread::yield();
  repro::MetricsRegistry M;
  Io.sampleMetrics(M);
  EXPECT_EQ(Io.metricsPrefix(), "myio");
  EXPECT_EQ(M.counter("myio.completed").value(), 1u);
  EXPECT_EQ(M.counter("myio.sim_reads").value(), 1u);
  EXPECT_EQ(M.counter("myio.sim_writes").value(), 0u);
}

TEST(SimIoTest, CountersConsistentUnderConcurrentSubmits) {
  // inFlight()/completed() under concurrent submitters: completed is
  // monotonic, completed + inFlight never exceeds what was submitted, and
  // everything reconciles once the ops drain.
  SimIo Io{"io"};
  constexpr int NumThreads = 4, OpsPerThread = 100;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&Io] {
      for (int I = 0; I < OpsPerThread; ++I)
        (void)Io.simRead<Low>(static_cast<uint64_t>(I % 5) * 200, I);
    });
  uint64_t LastCompleted = 0;
  while (Io.completed() < NumThreads * OpsPerThread) {
    uint64_t Done = Io.completed();
    EXPECT_GE(Done, LastCompleted) << "completed() must be monotonic";
    LastCompleted = Done;
    // Neither counter can exceed the total the threads will ever submit,
    // and their sum never exceeds it either (ops move pending → done).
    EXPECT_LE(Io.completed() + Io.inFlight(),
              static_cast<uint64_t>(NumThreads * OpsPerThread));
    std::this_thread::yield();
  }
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Io.completed(), static_cast<uint64_t>(NumThreads * OpsPerThread));
  EXPECT_EQ(Io.inFlight(), 0u);
}

} // namespace
} // namespace repro::icilk
