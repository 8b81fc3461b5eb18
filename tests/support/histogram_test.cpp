//===- tests/support/histogram_test.cpp - Latency histogram ----------------===//
//
// LatencyHistogram against the exact quantile() of support/Stats, and the
// LatencyWindows ring built on it.
//
//===----------------------------------------------------------------------===//

#include "support/Histogram.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <random>
#include <thread>
#include <vector>

namespace repro {
namespace {

LatencyHistogram histogramOf(const std::vector<double> &Samples) {
  LatencyHistogram H;
  for (double V : Samples)
    H.record(V);
  return H;
}

/// Every checked quantile of \p Samples read from a histogram is within 1%
/// of the exact interpolated one.
void expectQuantilesWithinOnePercent(const std::vector<double> &Samples) {
  LatencyHistogram H = histogramOf(Samples);
  for (double Q : {0.5, 0.95, 0.99, 0.999}) {
    double Exact = quantile(Samples, Q);
    EXPECT_NEAR(H.quantile(Q), Exact, 0.01 * Exact) << "q=" << Q;
  }
}

TEST(LatencyHistogramTest, CountSumMinMaxAreExact) {
  LatencyHistogram H = histogramOf({3, 1000.5, 7.25, 42});
  EXPECT_EQ(H.count(), 4u);
  EXPECT_DOUBLE_EQ(H.sum(), 3 + 1000.5 + 7.25 + 42);
  EXPECT_DOUBLE_EQ(H.min(), 3);
  EXPECT_DOUBLE_EQ(H.max(), 1000.5);
  LatencySummary S = H.summary();
  EXPECT_EQ(S.Count, 4u);
  EXPECT_DOUBLE_EQ(S.Mean, H.sum() / 4);
  EXPECT_DOUBLE_EQ(S.Min, 3);
  EXPECT_DOUBLE_EQ(S.Max, 1000.5);
}

TEST(LatencyHistogramTest, EmptyReadsZero) {
  LatencyHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.quantile(0.99), 0.0);
  EXPECT_EQ(H.fractionAbove(5), 0.0);
  EXPECT_EQ(H.summary().Count, 0u);
  EXPECT_EQ(H.mean(), 0.0);
}

TEST(LatencyHistogramTest, NegativeAndNaNCountAsZero) {
  LatencyHistogram H;
  H.record(-5);
  H.record(std::nan(""));
  EXPECT_EQ(H.count(), 2u);
  EXPECT_EQ(H.sum(), 0.0);
  EXPECT_EQ(H.max(), 0.0);
}

TEST(LatencyHistogramTest, ExponentialQuantilesWithinOnePercent) {
  std::mt19937_64 Gen(1);
  std::exponential_distribution<double> Exp(1.0 / 50000); // mean 50 ms
  std::vector<double> Samples;
  for (int I = 0; I < 100000; ++I)
    Samples.push_back(1 + Exp(Gen));
  expectQuantilesWithinOnePercent(Samples);
}

TEST(LatencyHistogramTest, LogNormalQuantilesWithinOnePercent) {
  // Median 1 ms, σ = 2.5: the checked quantiles span ~1 ms to ~2 s.
  std::mt19937_64 Gen(2);
  std::lognormal_distribution<double> LogNormal(std::log(1000.0), 2.5);
  std::vector<double> Samples;
  for (int I = 0; I < 100000; ++I)
    Samples.push_back(std::max(1.0, LogNormal(Gen)));
  EXPECT_GT(quantile(Samples, 0.999), 1e6);
  expectQuantilesWithinOnePercent(Samples);
}

TEST(LatencyHistogramTest, BimodalQuantilesWithinOnePercent) {
  // 70% fast replies near 200 µs, 30% slow ones near 500 ms: the median
  // sits in the first mode, every tail quantile in the second.
  std::mt19937_64 Gen(3);
  std::uniform_real_distribution<double> Coin(0, 1);
  std::lognormal_distribution<double> Fast(std::log(200.0), 0.1);
  std::lognormal_distribution<double> Slow(std::log(500000.0), 0.3);
  std::vector<double> Samples;
  for (int I = 0; I < 100000; ++I)
    Samples.push_back(Coin(Gen) < 0.7 ? Fast(Gen) : Slow(Gen));
  expectQuantilesWithinOnePercent(Samples);
}

TEST(LatencyHistogramTest, MicrosecondAndHourLatenciesKeepTheirPrecision) {
  std::mt19937_64 Gen(4);
  for (double Base : {1.0, 3.6e9}) { // 1 µs and 1 h
    std::uniform_real_distribution<double> Uniform(Base, 1.5 * Base);
    std::vector<double> Samples;
    for (int I = 0; I < 10000; ++I)
      Samples.push_back(Uniform(Gen));
    expectQuantilesWithinOnePercent(Samples);
  }
  EXPECT_GT(LatencyHistogram::maxTrackedMicros(), 1.5 * 3.6e9);
}

TEST(LatencyHistogramTest, QuantileNeverReadsBelowTheSample) {
  // A point-mass tail reads exactly (the estimate is clamped to max), and
  // a quantile never under-reports the sample it stands for.
  LatencyHistogram H;
  for (int I = 0; I < 98; ++I)
    H.record(1000);
  H.record(250000);
  H.record(250000);
  EXPECT_DOUBLE_EQ(H.quantile(0.99), 250000);
  EXPECT_GE(H.quantile(0.5), 1000);
  EXPECT_LE(H.quantile(0.5), 1000 * 1.0079);
}

TEST(LatencyHistogramTest, MergeEqualsRecordingEverythingInOne) {
  std::mt19937_64 Gen(5);
  std::exponential_distribution<double> Exp(1.0 / 300);
  LatencyHistogram A, B, All;
  for (int I = 0; I < 5000; ++I) {
    double V = Exp(Gen);
    (I % 3 ? A : B).record(V);
    All.record(V);
  }
  LatencyHistogram Merged;
  Merged.merge(A);
  Merged.merge(B);
  EXPECT_EQ(Merged.count(), All.count());
  EXPECT_DOUBLE_EQ(Merged.min(), All.min());
  EXPECT_DOUBLE_EQ(Merged.max(), All.max());
  EXPECT_NEAR(Merged.sum(), All.sum(), 1e-6 * All.sum());
  for (double Q : {0.0, 0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(Merged.quantile(Q), All.quantile(Q)) << "q=" << Q;
}

TEST(LatencyHistogramTest, SubtractLeavesWhatWasRecordedSince) {
  LatencyHistogram H = histogramOf({10, 20, 30});
  LatencyHistogram Snapshot = H;
  H.record(5000);
  H.record(6000);
  H.subtract(Snapshot);
  EXPECT_EQ(H.count(), 2u);
  EXPECT_NEAR(H.sum(), 11000, 1e-9);
  EXPECT_GE(H.min(), 4900);
  EXPECT_DOUBLE_EQ(H.max(), 6000);
  H.subtract(H); // everything gone
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.quantile(0.5), 0.0);
}

TEST(LatencyHistogramTest, FractionAboveCountsTheTail) {
  LatencyHistogram H;
  for (int I = 0; I < 1000; ++I)
    H.record(I + 0.5); // uniform over [0, 1000)
  EXPECT_NEAR(H.fractionAbove(900), 0.10, 0.005);
  EXPECT_NEAR(H.fractionAbove(500), 0.50, 0.005);
  EXPECT_EQ(H.fractionAbove(1000), 0.0);
  EXPECT_EQ(H.fractionAbove(0.1), 1.0);
}

TEST(LatencyWindowsTest, WindowReadsTheLastEpochs) {
  LatencyHistogram Cumulative;
  LatencyWindows W(4, Cumulative);
  Cumulative.record(10); // oldest epoch
  W.rotate(Cumulative);
  Cumulative.record(20);
  W.rotate(Cumulative);
  Cumulative.record(30); // current epoch
  EXPECT_EQ(W.window(Cumulative, 1).count(), 1u); // current only
  EXPECT_EQ(W.window(Cumulative, 2).count(), 2u);
  EXPECT_EQ(W.window(Cumulative, 3).count(), 3u);
  EXPECT_EQ(W.window(Cumulative).count(), 3u);
  EXPECT_EQ(W.window(Cumulative, 100).count(), 3u);
  // The fast window really is the newest data, not a prefix.
  EXPECT_GT(W.window(Cumulative, 1).quantile(0.5), 25.0);
}

TEST(LatencyWindowsTest, RingWrapsAroundAndKeepsExpiring) {
  // Many more rotations than epochs: the window must always hold exactly
  // the last three epochs, and drain fully once recording stops.
  LatencyHistogram Cumulative;
  LatencyWindows W(3, Cumulative);
  for (int Round = 0; Round < 20; ++Round) {
    Cumulative.record(50);
    Cumulative.record(50);
    EXPECT_EQ(W.window(Cumulative).count(),
              static_cast<uint64_t>(2 * std::min(Round + 1, 3)))
        << "round " << Round;
    W.rotate(Cumulative);
  }
  EXPECT_EQ(W.window(Cumulative).count(), 4u);
  for (int I = 0; I < 3; ++I)
    W.rotate(Cumulative);
  EXPECT_EQ(W.window(Cumulative).count(), 0u);
}

TEST(LatencyWindowsTest, LateTickClosesSeveralEpochsAtOnce) {
  LatencyHistogram Cumulative;
  LatencyWindows W(4, Cumulative);
  Cumulative.record(10);
  W.rotate(Cumulative, 3); // three boundaries passed since the last tick
  Cumulative.record(20);
  EXPECT_EQ(W.window(Cumulative, 1).count(), 1u);
  EXPECT_EQ(W.window(Cumulative, 3).count(), 1u); // two empty epochs
  EXPECT_EQ(W.window(Cumulative, 4).count(), 2u);
  W.rotate(Cumulative, 100); // longer than the ring: everything expires
  EXPECT_EQ(W.window(Cumulative).count(), 0u);
}

TEST(LatencyWindowsTest, QuantilesFollowTheWindowNotTheRun) {
  LatencyHistogram Cumulative;
  LatencyWindows W(2, Cumulative);
  for (int I = 0; I < 100; ++I)
    Cumulative.record(10.0); // old regime: fast
  W.rotate(Cumulative);
  W.rotate(Cumulative); // old regime fully expired
  for (int I = 0; I < 100; ++I)
    Cumulative.record(900.0); // new regime: slow
  EXPECT_GT(W.window(Cumulative).quantile(0.5), 800.0);
  EXPECT_LT(Cumulative.quantile(0.25), 20.0);
}

TEST(LatencyWindowsTest, WindowOpensAtItsSnapshot) {
  LatencyHistogram Cumulative = histogramOf({1, 2, 3});
  LatencyWindows W(5, Cumulative); // opened after three samples
  Cumulative.record(4);
  EXPECT_EQ(W.window(Cumulative).count(), 1u);
}

TEST(LatencyWindowsTest, ShardWritersRacingMergeAndWindowReadStayCoherent) {
  // The runtime's pattern: each writer owns one shard, a reader merges
  // the shards and reads windows while a third thread rotates them. The
  // assertions are coherence (merged counts never exceed what was written,
  // quantiles stay inside the recorded range); the TSan leg of
  // scripts/check.sh turns any unsynchronized access into a failure.
  constexpr int Writers = 2;
  LatencyHistogram Shards[Writers];
  std::atomic<uint64_t> Written[Writers] = {};
  std::atomic<bool> Stop{false};
  auto Merged = [&] {
    LatencyHistogram M;
    for (const LatencyHistogram &S : Shards)
      M.merge(S);
    return M;
  };
  LatencyWindows W(3, Merged());
  std::vector<std::thread> Threads;
  for (int I = 0; I < Writers; ++I)
    Threads.emplace_back([&, I] {
      uint64_t N = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        Shards[I].record(40 + I);
        Written[I].store(++N, std::memory_order_release);
      }
    });
  Threads.emplace_back([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      W.rotate(Merged());
      std::this_thread::yield();
    }
  });
  for (int Read = 0; Read < 500; ++Read) {
    LatencyHistogram M = Merged();
    uint64_t Bound = 0;
    for (auto &N : Written)
      Bound += N.load(std::memory_order_acquire) + 1;
    EXPECT_LE(M.count(), Bound);
    LatencyHistogram Win = W.window(M);
    EXPECT_LE(Win.count(), M.count());
    for (const LatencyHistogram *H : {&M, &Win})
      if (H->count() > 0) {
        EXPECT_GE(H->quantile(0.5), 40.0);
        EXPECT_LE(H->quantile(0.5), 41.0 * 1.008);
      }
  }
  Stop.store(true);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Merged().count(), Written[0].load() + Written[1].load());
}

} // namespace
} // namespace repro
