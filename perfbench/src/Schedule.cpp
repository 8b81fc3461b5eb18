//===- perfbench/src/Schedule.cpp - Workloads and seeded schedules ---------===//

#include "Schedule.h"

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// Rates were picked once from a sweep on a 4-vCPU x86-64 VM with 2 runtime
// workers and are never recalibrated. proxy-hit runs where its median was
// steadiest across seeds (at lower rates it swings with how replies and
// ACKs coalesce); proxy-miss at 1000 connections/s, so each window holds
// over a thousand misses; jobs-mixed at about half the rate (1000-1300
// jobs/s) past which Smith-Waterman latency grows without bound.
const WorkloadSpec Workloads[] = {
    {"proxy-hit", WorkloadKind::ProxyHit, 3000, 4, 64, 0, {}},
    {"proxy-miss", WorkloadKind::ProxyMiss, 1000, 4, 64, 0.25, {}},
    {"jobs-mixed", WorkloadKind::JobsMixed, 500, 0, 0, 0,
     {0.4, 0.1, 0.1, 0.4}},
};

} // namespace

const WorkloadSpec *findWorkload(const std::string &Name) {
  for (const WorkloadSpec &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

std::vector<Arrival> makeSchedule(const WorkloadSpec &W, uint64_t Seed,
                                  double Seconds) {
  // One stream per decision, so e.g. the URL sequence does not shift when
  // the arrival process draws differently.
  SeededRng Times(mix64(Seed, 1)), Picks(mix64(Seed, 2)), Ids(mix64(Seed, 3));
  const double MeanGapNs = 1e9 / W.RatePerSec;
  const double HorizonNs = Seconds * 1e9;
  double MixTotal = W.Mix[0] + W.Mix[1] + W.Mix[2] + W.Mix[3];
  std::vector<Arrival> Out;
  Out.reserve(static_cast<std::size_t>(W.RatePerSec * Seconds * 1.1) + 16);
  double T = 0;
  uint32_t Misses = 0;
  for (;;) {
    T += Times.exponential(MeanGapNs);
    if (T >= HorizonNs)
      break;
    Arrival A;
    A.AtNs = static_cast<uint64_t>(T);
    A.RequestId = Ids.next();
    switch (W.Kind) {
    case WorkloadKind::ProxyHit:
      A.Conn = static_cast<uint32_t>(Picks.below(W.Connections));
      A.Key = static_cast<uint32_t>(Picks.below(W.HotKeys));
      break;
    case WorkloadKind::ProxyMiss:
      A.Miss = Picks.uniform() < W.MissShare;
      A.Key = A.Miss ? Misses++
                     : static_cast<uint32_t>(Picks.below(W.HotKeys));
      break;
    case WorkloadKind::JobsMixed: {
      double Roll = Picks.uniform() * MixTotal;
      A.JobType = 3;
      for (uint8_t Ty = 0; Ty < 3; ++Ty) {
        if (Roll < W.Mix[Ty]) {
          A.JobType = Ty;
          break;
        }
        Roll -= W.Mix[Ty];
      }
      break;
    }
    }
    Out.push_back(A);
  }
  return Out;
}

std::size_t windowCount(double Seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(Seconds / WindowSeconds)));
}

std::size_t windowIndex(uint64_t AtNs, double Seconds) {
  std::size_t N = windowCount(Seconds);
  auto I = static_cast<std::size_t>(static_cast<double>(AtNs) /
                                    (Seconds * 1e9) * static_cast<double>(N));
  return std::min(I, N - 1);
}

std::string hotKey(uint32_t Index) { return "h" + std::to_string(Index); }

std::string missKey(uint64_t Seed, uint32_t Ordinal) {
  return "m" + hex16(Seed) + "-" + std::to_string(Ordinal);
}

std::string objectTarget(const std::string &Key) { return "/obj?k=" + Key; }

std::string objectBody(uint64_t Seed, const std::string &Key) {
  uint64_t H = Seed;
  for (char C : Key)
    H = mix64(H, static_cast<unsigned char>(C));
  SeededRng R(H);
  static const char Alphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::size_t Len = 200 + R.below(1800);
  std::string Body(Len, ' ');
  for (char &C : Body)
    C = Alphabet[R.below(sizeof Alphabet - 1)];
  return Body;
}

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", static_cast<unsigned long long>(V));
  return std::string(Buf, 16);
}

} // namespace perfbench
