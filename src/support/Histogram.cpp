//===- support/Histogram.cpp - Log-linear latency histogram ---------------===//

#include "support/Histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace repro {

namespace {

constexpr auto Relaxed = std::memory_order_relaxed;

/// std::clamp without its precondition: a histogram read while its writer
/// runs may see min and max from different moments.
double clampTo(double V, double Lo, double Hi) {
  return std::min(std::max(V, Lo), Hi);
}

} // namespace

double LatencyHistogram::maxTrackedMicros() {
  return upperEdge(NumBuckets - 1);
}

std::size_t LatencyHistogram::bucketOf(double Micros) {
  double Units = Micros * UnitsPerMicro;
  if (!(Units >= 1.0)) // below one unit, or NaN
    return 0;
  constexpr double MaxUnits =
      static_cast<double>(uint64_t(1) << (SubBucketBits + Octaves));
  if (Units >= MaxUnits)
    return NumBuckets - 1;
  auto X = static_cast<uint64_t>(Units);
  if (X < SubBuckets)
    return static_cast<std::size_t>(X);
  // X lies in [2^(S+k-1), 2^(S+k)) for octave k >= 1; shifting by k leaves
  // a sub-bucket in [HalfBuckets, SubBuckets).
  unsigned Shift = static_cast<unsigned>(std::bit_width(X)) - SubBucketBits;
  return static_cast<std::size_t>(SubBuckets + (Shift - 1) * HalfBuckets +
                                  ((X >> Shift) - HalfBuckets));
}

double LatencyHistogram::lowerEdge(std::size_t Index) {
  if (Index < SubBuckets)
    return static_cast<double>(Index) / UnitsPerMicro;
  std::size_t Shift = (Index - SubBuckets) / HalfBuckets + 1;
  uint64_t Sub = (Index - SubBuckets) % HalfBuckets + HalfBuckets;
  return static_cast<double>(Sub << Shift) / UnitsPerMicro;
}

double LatencyHistogram::upperEdge(std::size_t Index) {
  if (Index < SubBuckets)
    return static_cast<double>(Index + 1) / UnitsPerMicro;
  std::size_t Shift = (Index - SubBuckets) / HalfBuckets + 1;
  uint64_t Sub = (Index - SubBuckets) % HalfBuckets + HalfBuckets;
  return static_cast<double>((Sub + 1) << Shift) / UnitsPerMicro;
}

LatencyHistogram &LatencyHistogram::operator=(const LatencyHistogram &Other) {
  if (this != &Other) {
    reset();
    merge(Other);
  }
  return *this;
}

void LatencyHistogram::record(double Micros) {
  if (!(Micros >= 0))
    Micros = 0;
  std::atomic<uint64_t> &B = Buckets[bucketOf(Micros)];
  uint64_t N = Count.load(Relaxed);
  // Single writer: load-then-store, no read-modify-write instruction.
  B.store(B.load(Relaxed) + 1, Relaxed);
  Sum.store(Sum.load(Relaxed) + Micros, Relaxed);
  if (N == 0 || Micros < Min.load(Relaxed))
    Min.store(Micros, Relaxed);
  if (N == 0 || Micros > Max.load(Relaxed))
    Max.store(Micros, Relaxed);
  // Release: a reader that acquires this count sees every bucket it covers.
  Count.store(N + 1, std::memory_order_release);
}

void LatencyHistogram::merge(const LatencyHistogram &Other) {
  uint64_t Theirs = Other.count();
  if (Theirs == 0)
    return;
  for (std::size_t I = 0; I < NumBuckets; ++I)
    if (uint64_t C = Other.Buckets[I].load(Relaxed))
      Buckets[I].store(Buckets[I].load(Relaxed) + C, Relaxed);
  uint64_t Mine = Count.load(Relaxed);
  double OMin = Other.min(), OMax = Other.max();
  Min.store(Mine == 0 ? OMin : std::min(min(), OMin), Relaxed);
  Max.store(Mine == 0 ? OMax : std::max(max(), OMax), Relaxed);
  Sum.store(sum() + Other.sum(), Relaxed);
  Count.store(Mine + Theirs, std::memory_order_release);
}

void LatencyHistogram::subtract(const LatencyHistogram &Earlier) {
  if (Earlier.count() == 0)
    return;
  uint64_t Left = 0;
  std::size_t Lowest = NumBuckets, Highest = 0;
  for (std::size_t I = 0; I < NumBuckets; ++I) {
    uint64_t C = Buckets[I].load(Relaxed);
    uint64_t E = Earlier.Buckets[I].load(Relaxed);
    C = C > E ? C - E : 0;
    Buckets[I].store(C, Relaxed);
    if (C) {
      Left += C;
      Lowest = std::min(Lowest, I);
      Highest = I;
    }
  }
  if (Left == 0) {
    reset();
    return;
  }
  Min.store(std::max(min(), lowerEdge(Lowest)), Relaxed);
  Max.store(std::min(max(), upperEdge(Highest)), Relaxed);
  Sum.store(std::max(0.0, sum() - Earlier.sum()), Relaxed);
  Count.store(Left, std::memory_order_release);
}

void LatencyHistogram::reset() {
  for (std::atomic<uint64_t> &B : Buckets)
    B.store(0, Relaxed);
  Sum.store(0, Relaxed);
  Min.store(0, Relaxed);
  Max.store(0, Relaxed);
  Count.store(0, std::memory_order_release);
}

double LatencyHistogram::mean() const {
  uint64_t N = count();
  return N ? sum() / static_cast<double>(N) : 0.0;
}

double LatencyHistogram::quantile(double Q) const {
  uint64_t N = count();
  if (N == 0)
    return 0.0;
  Q = std::clamp(Q, 0.0, 1.0);
  auto Rank = static_cast<uint64_t>(std::ceil(Q * static_cast<double>(N - 1)));
  uint64_t Cum = 0;
  for (std::size_t I = 0; I < NumBuckets; ++I) {
    Cum += Buckets[I].load(Relaxed);
    if (Cum > Rank)
      return clampTo(upperEdge(I), min(), max());
  }
  return max();
}

double LatencyHistogram::fractionAbove(double Micros) const {
  uint64_t N = count();
  if (N == 0 || Micros >= max())
    return 0.0;
  if (Micros < min())
    return 1.0;
  std::size_t Own = bucketOf(Micros);
  double Above = 0;
  for (std::size_t I = Own + 1; I < NumBuckets; ++I)
    Above += static_cast<double>(Buckets[I].load(Relaxed));
  double Lo = lowerEdge(Own), Hi = upperEdge(Own);
  double Past = std::clamp((Hi - Micros) / (Hi - Lo), 0.0, 1.0);
  Above += static_cast<double>(Buckets[Own].load(Relaxed)) * Past;
  return std::min(1.0, Above / static_cast<double>(N));
}

LatencySummary LatencyHistogram::summary() const {
  LatencySummary S;
  S.Count = count();
  if (S.Count == 0)
    return S;
  S.Mean = mean();
  S.Min = min();
  S.Max = max();
  S.P50 = quantile(0.50);
  S.P95 = quantile(0.95);
  S.P99 = quantile(0.99);
  S.P999 = quantile(0.999);
  double Var = 0;
  for (std::size_t I = 0; I < NumBuckets; ++I)
    if (uint64_t C = Buckets[I].load(Relaxed)) {
      double Mid = clampTo((lowerEdge(I) + upperEdge(I)) / 2, S.Min, S.Max);
      Var += static_cast<double>(C) * (Mid - S.Mean) * (Mid - S.Mean);
    }
  S.StdDev = std::sqrt(Var / static_cast<double>(S.Count));
  return S;
}

LatencyWindows::LatencyWindows(unsigned Epochs,
                               const LatencyHistogram &Opened)
    : Marks(std::max(1u, Epochs)) {
  Marks[0] = Opened;
}

void LatencyWindows::rotate(const LatencyHistogram &Now,
                            uint64_t Boundaries) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (uint64_t I = 0; I < std::min<uint64_t>(Boundaries, Marks.size());
       ++I) {
    Newest = (Newest + 1) % Marks.size();
    Marks[Newest] = Now;
    Filled = std::min(Filled + 1, Marks.size());
  }
}

LatencyHistogram LatencyWindows::window(const LatencyHistogram &Now,
                                        unsigned LastEpochs) const {
  LatencyHistogram Out(Now);
  std::lock_guard<std::mutex> Lock(Mutex);
  std::size_t K = LastEpochs ? LastEpochs : Marks.size();
  K = std::clamp<std::size_t>(K, 1, Filled);
  Out.subtract(Marks[(Newest + Marks.size() - (K - 1)) % Marks.size()]);
  return Out;
}

} // namespace repro
