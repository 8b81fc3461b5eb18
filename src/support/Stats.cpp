//===- support/Stats.cpp - Latency sample statistics ----------------------===//

#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace repro {

double quantileSorted(const std::vector<double> &Sorted, double Q) {
  assert(Q >= 0.0 && Q <= 1.0 && "quantile must be in [0,1]");
  if (Sorted.empty())
    return 0.0;
  if (Sorted.size() == 1)
    return Sorted.front();
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] * (1.0 - Frac) + Sorted[Hi] * Frac;
}

double quantile(std::vector<double> Samples, double Q) {
  std::sort(Samples.begin(), Samples.end());
  return quantileSorted(Samples, Q);
}

LatencySummary summarize(std::vector<double> Samples) {
  LatencySummary S;
  S.Count = Samples.size();
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  S.Min = Samples.front();
  S.Max = Samples.back();
  double Sum = 0.0;
  for (double V : Samples)
    Sum += V;
  S.Mean = Sum / static_cast<double>(S.Count);
  double Var = 0.0;
  for (double V : Samples)
    Var += (V - S.Mean) * (V - S.Mean);
  S.StdDev = std::sqrt(Var / static_cast<double>(S.Count));
  S.P50 = quantileSorted(Samples, 0.50);
  S.P95 = quantileSorted(Samples, 0.95);
  S.P99 = quantileSorted(Samples, 0.99);
  S.P999 = quantileSorted(Samples, 0.999);
  return S;
}

std::string toString(const LatencySummary &S) {
  std::ostringstream OS;
  OS << "n=" << S.Count << " mean=" << S.Mean << " p50=" << S.P50
     << " p95=" << S.P95 << " p99=" << S.P99 << " p999=" << S.P999
     << " min=" << S.Min
     << " max=" << S.Max;
  return OS.str();
}

} // namespace repro
