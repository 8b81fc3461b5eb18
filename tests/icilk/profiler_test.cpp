//===- tests/icilk/profiler_test.cpp - Response-time attribution -----------===//
//
// The profiler joins the event ring's timeline with the trace recorder's
// structure (shared task ids). These tests pin down the three products on
// small controlled runs: the latency breakdown really partitions the
// measured response, injected inversions are detected *and named*, and
// the Theorem 2.3 bound is evaluated on admissible runs and holds.
//
//===----------------------------------------------------------------------===//

#include "icilk/Context.h"
#include "icilk/SimIo.h"
#include "icilk/Profiler.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace repro::icilk {
namespace {

ICILK_PRIORITY(Bg, BasePriority, 0);
ICILK_PRIORITY(Ui, Bg, 1);

RuntimeConfig twoLevelConfig() {
  RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 2;
  return C;
}

ProfileReport analyzeRun(const TraceRecorder &Tr) {
  ProfilerOptions Opts;
  Opts.NumLevels = 2;
  Opts.NumWorkers = 2;
  return Profiler::analyze(trace::EventLog::instance().snapshot(), Tr, Opts);
}

TEST(ProfilerTest, ComponentsSumToMeasuredResponse) {
  // The components (run/ready/ftouch/io) are computed independently of
  // the response window, so their sum matching the measured response is a
  // real consistency check of the whole replay, not an identity.
  Runtime Rt(twoLevelConfig());
  TraceRecorder Tr;
  Rt.setTrace(&Tr);
  trace::clear();
  trace::enable(1 << 16);
  std::vector<Future<Ui, int>> Fs;
  for (int I = 0; I < 20; ++I)
    Fs.push_back(fcreate<Ui>(Rt, [](Context<Ui> &Ctx) {
      repro::spinFor(300);
      auto Child = Ctx.fcreate<Ui>([](Context<Ui> &) {
        repro::spinFor(200);
        return 1;
      });
      return Ctx.ftouch(Child);
    }));
  for (auto &F : Fs)
    touchFromOutside(Rt, F);
  Rt.drain();
  trace::disable();
  Rt.setTrace(nullptr);

  ProfileReport R = analyzeRun(Tr);
  uint64_t SumResp = 0, SumGap = 0;
  int Checked = 0;
  for (const TaskProfile &P : R.Tasks) {
    if (!P.Complete || P.responseNanos() < 200000)
      continue; // sub-0.2ms responses: inter-event gaps dominate
    uint64_t Resp = P.responseNanos(), Acc = P.accountedNanos();
    SumResp += Resp;
    SumGap += Resp > Acc ? Resp - Acc : Acc - Resp;
    ++Checked;
  }
  ASSERT_GT(Checked, 0);
  EXPECT_LT(static_cast<double>(SumGap), 0.05 * static_cast<double>(SumResp))
      << "accounted components drift from measured responses by over 5%";
}

TEST(ProfilerTest, DetectsAndNamesInjectedInversion) {
  // The one way past the Sec. 4.2 static checks: joining a lower-priority
  // producer through the unchecked external-join escape hatch. The
  // profiler must name both parties, and the run must come out
  // non-admissible for the bound (its lift has an inverted touch edge).
  Runtime Rt(twoLevelConfig());
  TraceRecorder Tr;
  Rt.setTrace(&Tr);
  trace::clear();
  trace::enable(1 << 16);
  // The producer holds off until the victim is at its touch, then works a
  // while longer — the inverted wait happens regardless of which task the
  // scheduler runs first (wall-clock spins alone are racy under slowdown,
  // e.g. TSan builds).
  std::atomic<bool> VictimAtTouch{false};
  auto Producer = fcreate<Bg>(Rt, [&VictimAtTouch](Context<Bg> &) {
    while (!VictimAtTouch.load(std::memory_order_acquire))
      std::this_thread::yield();
    repro::spinFor(2000);
    return 1;
  });
  uint32_t ProducerId = Producer.state()->producerTraceId();
  auto Victim = fcreate<Ui>(Rt, [&](Context<Ui> &) {
    VictimAtTouch.store(true, std::memory_order_release);
    return touchFromOutside(Rt, Producer);
  });
  uint32_t VictimId = Victim.state()->producerTraceId();
  EXPECT_EQ(touchFromOutside(Rt, Victim), 1);
  Rt.drain();
  trace::disable();
  Rt.setTrace(nullptr);

  ProfileReport R = analyzeRun(Tr);
  bool Named = false;
  for (const Inversion &I : R.Inversions)
    if (I.K == Inversion::Kind::FtouchOnLower && I.Victim == VictimId &&
        I.VictimLevel == 1 && I.Culprit == ProducerId && I.CulpritLevel == 0)
      Named = true;
  EXPECT_TRUE(Named) << "injected ftouch-on-lower not detected with both "
                        "parties named";
  EXPECT_FALSE(R.StronglyWellFormed);
  EXPECT_FALSE(R.BoundEvaluated);
}

TEST(ProfilerTest, IoWaitsClassifiedSeparatelyFromFtouchWaits) {
  // A blocked ftouch on an SimIo-backed future is device wait, not a
  // dependence on another task: it must land in IoNanos (and be excluded
  // from the model response the bound is compared against).
  Runtime Rt(twoLevelConfig());
  SimIo Io{"io"};
  TraceRecorder Tr;
  Rt.setTrace(&Tr);
  trace::clear();
  trace::enable(1 << 16);
  auto F = fcreate<Ui>(Rt, [&Io](Context<Ui> &Ctx) {
    auto Op = Io.simRead<Ui>(/*LatencyMicros=*/3000, /*Bytes=*/64);
    return static_cast<int>(Ctx.ftouch(Op));
  });
  uint32_t Id = F.state()->producerTraceId();
  touchFromOutside(Rt, F);
  Rt.drain();
  trace::disable();
  Rt.setTrace(nullptr);

  ProfileReport R = analyzeRun(Tr);
  const TaskProfile *P = nullptr;
  for (const TaskProfile &T : R.Tasks)
    if (T.Id == Id)
      P = &T;
  ASSERT_NE(P, nullptr);
  ASSERT_TRUE(P->Complete);
  EXPECT_GT(P->IoNanos, 2000000u) << "3ms device wait not attributed to io";
  EXPECT_EQ(P->FtouchNanos, 0u);
  EXPECT_LT(P->modelResponseNanos(), P->responseNanos());
}

TEST(ProfilerTest, BoundHoldsOnCleanAdmissibleRun) {
  // A server-shaped run (arrivals spread over time, checked API only):
  // the lift must be strongly well-formed and the measured response must
  // sit under the converted Theorem 2.3 bound at every populated level.
  Runtime Rt(twoLevelConfig());
  std::vector<Future<Bg, int>> Lows;
  std::vector<Future<Ui, int>> Highs;
  auto SpawnWave = [&] {
    Lows.push_back(fcreate<Bg>(Rt, [](Context<Bg> &) {
      repro::spinFor(200);
      return 1;
    }));
    for (int J = 0; J < 3; ++J)
      Highs.push_back(fcreate<Ui>(Rt, [](Context<Ui> &Ctx) {
        auto Child = Ctx.fcreate<Ui>([](Context<Ui> &) {
          repro::spinFor(100);
          return 1;
        });
        repro::spinFor(100);
        return Ctx.ftouch(Child);
      }));
  };
  auto TouchAll = [&] {
    for (auto &F : Highs)
      touchFromOutside(Rt, F);
    for (auto &F : Lows)
      touchFromOutside(Rt, F);
    Rt.drain();
    Highs.clear();
    Lows.clear();
  };
  // The bound speaks about an admissible run, not a saturated one, so
  // waves must arrive slower than the machine drains them. One untraced
  // wave measures that drain time (a sanitizer build can take ten times
  // the plain build's) and sets the spacing; it also warms the fiber
  // stack pool.
  auto Start = std::chrono::steady_clock::now();
  SpawnWave();
  TouchAll();
  auto Interval = std::max<std::chrono::steady_clock::duration>(
      std::chrono::microseconds(700),
      2 * (std::chrono::steady_clock::now() - Start));

  TraceRecorder Tr;
  Rt.setTrace(&Tr);
  trace::clear();
  trace::enable(1 << 16);
  for (int Wave = 0; Wave < 10; ++Wave) {
    SpawnWave();
    std::this_thread::sleep_for(Interval);
  }
  TouchAll();
  trace::disable();
  Rt.setTrace(nullptr);

  ProfileReport R = analyzeRun(Tr);
  ASSERT_TRUE(R.StronglyWellFormed) << R.WellFormedNote;
  ASSERT_TRUE(R.BoundEvaluated);
  EXPECT_GT(R.VertexCostNanos, 0.0);
  for (const LevelBound &B : R.Bounds) {
    if (B.ThreadsEvaluated == 0)
      continue;
    EXPECT_TRUE(B.Holds) << "level " << B.Level << ": measured "
                         << B.WorstMeasuredMicros << "us over bound "
                         << B.BoundMicros << "us";
    EXPECT_GT(B.BoundMicros, 0.0);
  }
}

} // namespace
} // namespace repro::icilk
