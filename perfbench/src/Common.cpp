//===- perfbench/src/Common.cpp - Benchmark-side helpers -------------------===//

#include "Common.h"

#include "support/Timer.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

uint64_t nowNs() { return repro::nowNanos(); }

uint64_t spanEpochNs() { return repro::traceEpochNanos(); }

void spinUntilNs(uint64_t DeadlineNs) {
  while (nowNs() < DeadlineNs) {
  }
}

uint64_t SeededRng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

double SeededRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t SeededRng::below(uint64_t Bound) {
  return static_cast<uint64_t>(uniform() * static_cast<double>(Bound)) %
         Bound;
}

double SeededRng::exponential(double Mean) {
  return -Mean * std::log1p(-uniform());
}

uint64_t mix64(uint64_t A, uint64_t B) {
  uint64_t S = A ^ (B * 0xd6e8feb86659fd93ULL);
  SeededRng R(S);
  return R.next();
}

namespace {
/// 1-based nearest rank of percentile \p P among \p N samples (the epsilon
/// keeps 99% of 1000 at rank 990 despite 0.99 not being exact in binary).
std::size_t nearestRank(double P, std::size_t N) {
  double Rank = std::ceil(P / 100.0 * static_cast<double>(N) - 1e-9);
  return Rank < 1 ? 1 : std::min(N, static_cast<std::size_t>(Rank));
}
} // namespace

double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  return Values[nearestRank(P, Values.size()) - 1];
}

double highestSupportedPercentile(std::size_t N) {
  static const double Candidates[] = {99.99, 99.9, 99, 95, 90, 75, 50};
  for (double P : Candidates)
    if (N > 0 && N - nearestRank(P, N) >= 10)
      return P;
  return 0;
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  std::size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

double windowedPercentile(const std::vector<std::vector<double>> &Windows,
                          double P) {
  std::vector<double> PerWindow;
  for (const std::vector<double> &W : Windows)
    PerWindow.push_back(percentile(W, P));
  return median(std::move(PerWindow));
}

ProcCounters sampleProc() {
  struct rusage Ru {};
  getrusage(RUSAGE_SELF, &Ru);
  ProcCounters C;
  C.CpuSeconds = static_cast<double>(Ru.ru_utime.tv_sec + Ru.ru_stime.tv_sec) +
                 static_cast<double>(Ru.ru_utime.tv_usec + Ru.ru_stime.tv_usec) /
                     1e6;
  C.ContextSwitches = static_cast<uint64_t>(Ru.ru_nvcsw + Ru.ru_nivcsw);
  C.Allocations = allocationCount();
  C.PeakRssMb = static_cast<double>(Ru.ru_maxrss) / 1024.0;
  return C;
}

double threadCpuSeconds() {
  struct timespec Ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) / 1e9;
}

void RunOutcome::fail(const std::string &Why) {
  Correct = false;
  note("CHECK FAILED: " + Why);
}

std::string RunOutcome::resultJson() const {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : Metrics) {
    char Num[64];
    double V = std::isfinite(M.Value) ? M.Value : 0.0;
    std::snprintf(Num, sizeof Num, "%.17g", V);
    if (!First)
      Out += ", ";
    First = false;
    Out += "\"" + M.Name + "\": {\"value\": " + Num + ", \"unit\": \"" +
           M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

void noteTails(RunOutcome &Out, const std::map<std::string, double> &Tails) {
  std::string Line = "tails, no bound (us):";
  for (const auto &[Name, Value] : Tails)
    Line += " " + Name + "=" + std::to_string(Value);
  Out.note(Line);
}

double setupSeconds(RunOutcome &Out, const std::vector<double> &Repetitions) {
  std::string Line = "set-up repetitions (s):";
  for (double S : Repetitions)
    Line += " " + std::to_string(S);
  Out.note(Line);
  return median(Repetitions);
}

double checkGenerator(const std::vector<double> &LateUs, std::size_t Sent,
                      std::size_t Scheduled, double BoundUs, RunOutcome &Out) {
  double LateP99 = percentile(LateUs, 99);
  Out.note("generator: scheduled " + std::to_string(Scheduled) + ", sent " +
           std::to_string(Sent) + ", lateness p99 " + std::to_string(LateP99) +
           " us (bound " + std::to_string(BoundUs) + ")");
  if (Sent != Scheduled)
    Out.fail("generator sent " + std::to_string(Sent) + " of " +
             std::to_string(Scheduled) + " scheduled operations");
  if (LateP99 > BoundUs)
    Out.fail("INVALID RUN: generator fell behind its schedule");
  return LateP99;
}

} // namespace perfbench
