//===- perfbench/src/JobsBench.cpp - The job server under open-loop load ---===//
//
// The jobs-mixed workload: one generator thread offers seeded Poisson
// arrivals of the four job types to apps::JobServerEngine (no sockets, no
// admission control). Job latencies are the engine's own arrival ->
// completion times, where arrival is the offer() the generator makes at
// the scheduled instant; how late the generator made it is reported and
// bounded separately.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "apps/JobServer.h"
#include "icilk/EventRing.h"
#include "icilk/Profiler.h"
#include "icilk/Trace.h"

#include <algorithm>
#include <cmath>
#include <memory>

namespace perfbench {

namespace {

using repro::apps::JobServerConfig;
using repro::apps::JobServerEngine;
using repro::apps::JobServerReport;
using repro::icilk::RuntimeSnapshot;

const char *const TypeNames[] = {"matmul", "fib", "sort", "sw"};

/// Jobs of each type run (and drained) during set-up: they fault in the
/// kernels' memory and fill the runtime's stack and task pools.
constexpr unsigned WarmJobsPerType = 4;

JobServerConfig engineConfig(uint64_t Seed,
                             repro::icilk::TraceRecorder *Recorder) {
  JobServerConfig C;
  C.Rt.NumWorkers = 2;
  C.Rt.NumLevels = 4;
  C.Seed = Seed;
  C.Trace = Recorder;
  return C;
}

void warmUp(JobServerEngine &E) {
  for (unsigned I = 0; I < WarmJobsPerType; ++I)
    for (std::size_t Ty = 0; Ty < 4; ++Ty)
      E.offer(Ty);
  E.drain();
}

struct JobWindow {
  std::vector<double> LateUs;
  uint64_t Offered = 0; ///< window arrivals, warm-up excluded
  uint64_t Refused = 0; ///< offer() returned false
  double GeneratorCpuSeconds = 0;
  ProcCounters Before, After;
  RuntimeSnapshot SnapBefore, SnapAfter;
  JobServerReport Report;
};

/// Offers \p Arrivals on their schedule, then drains the engine.
JobWindow runWindow(JobServerEngine &E, const std::vector<Arrival> &Arrivals) {
  JobWindow R;
  R.LateUs.reserve(Arrivals.size());
  uint64_t T0 = nowNs() + 2'000'000;
  R.Before = sampleProc();
  R.SnapBefore = E.runtime().snapshot();
  double Cpu0 = threadCpuSeconds();
  for (const Arrival &A : Arrivals) {
    uint64_t Due = T0 + A.AtNs;
    spinUntilNs(Due);
    R.LateUs.push_back(static_cast<double>(nowNs() - Due) / 1000.0);
    ++R.Offered;
    if (!E.offer(A.JobType))
      ++R.Refused;
  }
  R.GeneratorCpuSeconds = threadCpuSeconds() - Cpu0;
  E.drain();
  uint64_t WallNs = nowNs() - T0;
  R.After = sampleProc();
  R.SnapAfter = E.runtime().snapshot();
  R.Report = E.report(static_cast<double>(WallNs) / 1e6);
  return R;
}

/// The arrivals of \p Sched in [FromNs, ToNs), rebased to start at 0.
std::vector<Arrival> slice(const std::vector<Arrival> &Sched, uint64_t FromNs,
                           uint64_t ToNs) {
  std::vector<Arrival> Out;
  for (Arrival A : Sched)
    if (A.AtNs >= FromNs && A.AtNs < ToNs) {
      A.AtNs -= FromNs;
      Out.push_back(A);
    }
  return Out;
}

/// completed + shed == offered for every type, nothing left outstanding.
void checkJobs(const JobWindow &R, const std::vector<Arrival> &Arrivals,
               RunOutcome &Out) {
  uint64_t Offered[4] = {};
  for (const Arrival &A : Arrivals)
    ++Offered[A.JobType];
  for (std::size_t Ty = 0; Ty < 4; ++Ty) {
    uint64_t Want = Offered[Ty] + WarmJobsPerType;
    uint64_t Got = R.Report.JobsByType[Ty] + R.Report.JobsShed[Ty];
    if (Got != Want)
      Out.fail(std::string(TypeNames[Ty]) + ": completed + shed = " +
               std::to_string(Got) + ", offered " + std::to_string(Want));
  }
  if (R.SnapAfter.Outstanding != 0)
    Out.fail("Outstanding = " + std::to_string(R.SnapAfter.Outstanding) +
             " after drain");
}

/// Sums over the windows of a run: counts, CPU and scheduler counters.
struct Totals {
  std::vector<double> LateUs;
  uint64_t Offered = 0, Failed = 0, Completed = 0;
  double ServerCpuSeconds = 0;
  uint64_t ContextSwitches = 0, Allocations = 0;
  uint64_t Tasks = 0, Inversions = 0, Steals = 0, BatchStealTasks = 0,
           NextSlotHits = 0, StacksCreated = 0, StacksReused = 0;
  double PeakRssMb = 0;

  void add(const JobWindow &R) {
    LateUs.insert(LateUs.end(), R.LateUs.begin(), R.LateUs.end());
    Offered += R.Offered;
    for (std::size_t Ty = 0; Ty < 4; ++Ty) {
      Failed += R.Report.JobsShed[Ty];
      Completed += R.Report.JobsByType[Ty] - WarmJobsPerType;
    }
    Failed += R.Refused;
    ServerCpuSeconds += (R.After.CpuSeconds - R.Before.CpuSeconds) -
                        R.GeneratorCpuSeconds;
    ContextSwitches += R.After.ContextSwitches - R.Before.ContextSwitches;
    Allocations += R.After.Allocations - R.Before.Allocations;
    const RuntimeSnapshot &A = R.SnapBefore, &B = R.SnapAfter;
    Tasks += B.TasksExecuted - A.TasksExecuted;
    Inversions += B.FtouchInversions - A.FtouchInversions;
    Steals += (B.StealsSameSocket + B.StealsCrossSocket) -
              (A.StealsSameSocket + A.StealsCrossSocket);
    BatchStealTasks += B.BatchStealTasks - A.BatchStealTasks;
    NextSlotHits += B.NextSlotHits - A.NextSlotHits;
    StacksCreated += B.PoolStacksCreated - A.PoolStacksCreated;
    StacksReused += B.PoolStacksReused - A.PoolStacksReused;
    PeakRssMb = std::max(PeakRssMb, R.After.PeakRssMb);
  }
};

/// Runs \p Sched split at \p Cuts (nanosecond offsets, ascending, the last
/// one the horizon), each piece on a fresh warmed-up engine; \p First, when
/// given, is used for the first piece instead.
std::vector<JobWindow> runPieces(const std::vector<Arrival> &Sched,
                                 const std::vector<uint64_t> &Cuts,
                                 uint64_t Seed, RunOutcome &Out, Totals &T,
                                 std::unique_ptr<JobServerEngine> First = {}) {
  std::vector<JobWindow> Pieces;
  uint64_t From = 0;
  for (uint64_t To : Cuts) {
    std::unique_ptr<JobServerEngine> E = std::move(First);
    if (!E) {
      E = std::make_unique<JobServerEngine>(engineConfig(Seed, nullptr));
      warmUp(*E);
    }
    std::vector<Arrival> Arrivals = slice(Sched, From, To);
    Pieces.push_back(runWindow(*E, Arrivals));
    checkJobs(Pieces.back(), Arrivals, Out);
    T.add(Pieces.back());
    From = To;
  }
  return Pieces;
}

} // namespace

WorkloadResult runJobsWorkload(const RunArgs &Args) {
  const WorkloadSpec &W = *Args.Workload;
  WorkloadResult Res;
  RunOutcome &Out = Res.Outcome;
  auto Ns = [](double Seconds) { return static_cast<uint64_t>(Seconds * 1e9); };

  if (!Args.Trace) {
    std::vector<double> SetupSeconds;
    std::unique_ptr<JobServerEngine> E;
    std::vector<Arrival> Sched;
    for (int Rep = 0; Rep < SetupRepetitions; ++Rep) {
      E.reset();
      uint64_t Start = nowNs();
      E = std::make_unique<JobServerEngine>(engineConfig(Args.Seed, nullptr));
      Sched = makeSchedule(W, Args.Seed, Args.Seconds);
      warmUp(*E);
      SetupSeconds.push_back(static_cast<double>(nowNs() - Start) / 1e9);
    }
    // The engine reports latency summaries only, so each window of the
    // schedule runs on its own engine (the first on the set-up one).
    std::vector<uint64_t> Cuts;
    std::size_t Windows = windowCount(Args.Seconds);
    for (std::size_t I = 1; I <= Windows; ++I)
      Cuts.push_back(Ns(Args.Seconds * static_cast<double>(I) /
                        static_cast<double>(Windows)));
    Totals T;
    std::vector<JobWindow> Pieces =
        runPieces(Sched, Cuts, Args.Seed, Out, T, std::move(E));
    Res.Values["bench.gen_late_p99_us"] =
        checkGenerator(T.LateUs, T.Offered, Sched.size(), GenLateBoundUs, Out);
    Out.Attempted = Sched.size();
    Out.Failed = T.Failed;
    std::vector<double> TopP50, TopP95, TopP99, LowP50, LowP95, LowP99;
    std::size_t LeastTop = SIZE_MAX, LeastLow = SIZE_MAX;
    std::string Line = "windows matmul p50/p95/p99, sw p50/p95/p99 (us):";
    for (const JobWindow &P : Pieces) {
      const auto &Top = P.Report.JobResponse[0], &Low = P.Report.JobResponse[3];
      Line += " " + std::to_string(Top.P50).substr(0, 7) + "/" +
              std::to_string(Top.P95).substr(0, 7) + "/" +
              std::to_string(Top.P99).substr(0, 7) + "," +
              std::to_string(Low.P50).substr(0, 7) + "/" +
              std::to_string(Low.P95).substr(0, 7) + "/" +
              std::to_string(Low.P99).substr(0, 7);
      TopP50.push_back(Top.P50);
      TopP95.push_back(Top.P95);
      TopP99.push_back(Top.P99);
      LowP50.push_back(Low.P50);
      LowP95.push_back(Low.P95);
      LowP99.push_back(Low.P99);
      LeastTop = std::min(LeastTop, Top.Count);
      LeastLow = std::min(LeastLow, Low.Count);
    }
    Out.note(Line);
    Out.note(std::to_string(Pieces.size()) + " windows; fewest matmul jobs " +
             std::to_string(LeastTop) + " (highest supported percentile p" +
             std::to_string(highestSupportedPercentile(LeastTop)).substr(0, 5) +
             "), fewest sw jobs " + std::to_string(LeastLow) + " (p" +
             std::to_string(highestSupportedPercentile(LeastLow)).substr(0, 5) +
             ")");
    Res.Values["setup_s"] = setupSeconds(Out, SetupSeconds);
    Res.Values["p50_us"] = median(TopP50);
    Res.Values["low_p50_us"] = median(LowP50);
    noteTails(Out, {{"tail.p95_us", median(TopP95)},
                    {"tail.p99_us", median(TopP99)},
                    {"tail.low_p95_us", median(LowP95)},
                    {"tail.low_p99_us", median(LowP99)}});
    Res.Values["cpu_us_per_op"] =
        ratio(T.ServerCpuSeconds * 1e6, static_cast<double>(T.Completed));
    Res.Values["peak_rss_mb"] = T.PeakRssMb;
    return Res;
  }

  // Phase A: untraced, the first half of the schedule — exact counters and
  // kernel compute times. It is cut where the traced phase will stop, so
  // its first piece is the overhead ratio's untraced twin.
  double Half = Args.Seconds / 2;
  double TracedSeconds = std::min(Half, TracedSecondsCap);
  std::vector<Arrival> Sched = makeSchedule(W, Args.Seed, Half);
  Totals T;
  std::vector<uint64_t> Cuts{Ns(TracedSeconds)};
  if (Half > TracedSeconds)
    Cuts.push_back(Ns(Half));
  std::vector<JobWindow> Pieces = runPieces(Sched, Cuts, Args.Seed, Out, T);
  Res.Values["bench.gen_late_p99_us"] =
      checkGenerator(T.LateUs, T.Offered, Sched.size(), GenLateBoundUs, Out);
  Out.Attempted += Sched.size();
  Out.Failed += T.Failed;
  double UntracedP50 = Pieces.front().Report.JobResponse[0].P50;
  double Ops = static_cast<double>(T.Completed);
  Res.Values["rt.tasks_per_op"] = ratio(static_cast<double>(T.Tasks), Ops);
  Res.Values["rt.ctx_switches_per_op"] =
      ratio(static_cast<double>(T.ContextSwitches), Ops);
  Res.Values["rt.inversions"] = static_cast<double>(T.Inversions);
  Res.Values["conc.steals_per_op"] = ratio(static_cast<double>(T.Steals), Ops);
  Res.Values["conc.batch_steal_tasks_per_op"] =
      ratio(static_cast<double>(T.BatchStealTasks), Ops);
  Res.Values["conc.next_slot_hits_per_task"] =
      ratio(static_cast<double>(T.NextSlotHits), static_cast<double>(T.Tasks));
  Res.Values["conc.stack_reuse_ratio"] =
      ratio(static_cast<double>(T.StacksReused),
            static_cast<double>(T.StacksReused + T.StacksCreated));
  Res.Values["proc.allocs_per_op"] =
      ratio(static_cast<double>(T.Allocations), Ops);
  const JobServerReport &Longest = Pieces.back().Report;
  for (std::size_t Ty = 0; Ty < 4; ++Ty)
    Res.Values[std::string("kernels.compute_us.") + TypeNames[Ty] + ".p50"] =
        Longest.JobCompute[Ty].P50;
  Res.Values["tail.p95_us"] = Longest.JobResponse[0].P95;
  Res.Values["tail.p99_us"] = Longest.JobResponse[0].P99;
  Res.Values["tail.low_p95_us"] = Longest.JobResponse[3].P95;
  Res.Values["tail.low_p99_us"] = Longest.JobResponse[3].P99;

  // Phase B: the first TracedSeconds again, with the structural recorder
  // and the scheduler event ring attached, fed to the profiler.
  std::vector<Arrival> Traced = slice(Sched, 0, Ns(TracedSeconds));
  repro::icilk::TraceRecorder Recorder;
  repro::icilk::trace::enable(1 << 19);
  JobWindow R;
  {
    JobServerEngine E(engineConfig(Args.Seed, &Recorder));
    warmUp(E);
    R = runWindow(E, Traced);
  }
  repro::icilk::trace::disable();
  checkJobs(R, Traced, Out);
  Totals TracedTotals;
  TracedTotals.add(R);
  Out.Attempted += Traced.size();
  Out.Failed += TracedTotals.Failed;
  repro::icilk::ProfilerOptions Opts;
  Opts.NumLevels = 4;
  Opts.NumWorkers = 2;
  Opts.MaxBoundVertices = 1 << 20;
  repro::icilk::ProfileReport P = repro::icilk::Profiler::analyze(
      repro::icilk::trace::EventLog::instance().snapshot(), Recorder, Opts);
  double Response = 0, Gap = 0;
  std::size_t Complete = 0;
  for (const repro::icilk::TaskProfile &T : P.Tasks) {
    if (!T.Complete)
      continue;
    ++Complete;
    double Resp = static_cast<double>(T.responseNanos());
    Response += Resp;
    Gap += std::abs(Resp - static_cast<double>(T.accountedNanos()));
  }
  for (const repro::icilk::LevelBlame &L : P.Levels) {
    std::string Lv = ".L" + std::to_string(L.Level);
    double N = static_cast<double>(L.Completed);
    Res.Values["rt.ready_us" + Lv] = ratio(L.ReadyNanos / 1000.0, N);
    Res.Values["rt.run_us" + Lv] = ratio(L.RunNanos / 1000.0, N);
    Res.Values["rt.ftouch_us" + Lv] = ratio(L.FtouchNanos / 1000.0, N);
  }
  for (const repro::icilk::LevelBound &B : P.Bounds)
    Res.Values["rt.bound_holds.L" + std::to_string(B.Level)] =
        P.BoundEvaluated && B.ThreadsEvaluated > 0 && B.Holds ? 1 : 0;
  Res.Values["trace.overhead_ratio"] =
      ratio(R.Report.JobResponse[0].P50, UntracedP50);
  Res.Values["trace.unaccounted_ratio"] = ratio(Gap, Response);
  Res.Values["trace.requests_covered"] =
      ratio(static_cast<double>(Complete), static_cast<double>(P.Tasks.size()));
  Res.Values["spans.dropped"] =
      static_cast<double>(P.DroppedEvents + P.IncompleteTasks);
  Out.note("traced phase: " + std::to_string(Traced.size()) + " jobs, " +
           std::to_string(P.Tasks.size()) + " tasks profiled, bound " +
           (P.BoundEvaluated ? "evaluated" : "not evaluated: " +
                                                 P.WellFormedNote));
  return Res;
}

} // namespace perfbench
