//===- tests/apps/robustness_test.cpp - Failure-mode app tests -------------===//
//
// The applications under adverse conditions: the proxy under injected I/O
// faults (retries must mask them), the job server under ~2x overload with
// admission control (high-priority latency must survive), and the email
// client with a flaky SMTP path (send failures surfaced, never lost).
//
// Everything here runs on small worker pools and sub-second durations, and
// asserts structural properties with generous margins — the CI box has one
// core and noisy neighbours.
//
//===----------------------------------------------------------------------===//

#include "apps/Email.h"
#include "apps/JobServer.h"
#include "apps/Proxy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

namespace repro::apps {
namespace {

//===----------------------------------------------------------------------===//
// Proxy under fault injection
//===----------------------------------------------------------------------===//

ProxyConfig faultyProxy(double FailProb) {
  ProxyConfig C;
  C.Connections = 8;
  C.DurationMillis = 300;
  C.RequestIntervalMicros = 4000;
  C.FetchLatencyMeanMicros = 1000;
  C.Rt.NumWorkers = 4;
  C.Faults.FailProb = FailProb;
  C.FaultSeed = 42;
  return C;
}

TEST(ProxyRobustnessTest, RetriesMaskInjectedFailures) {
  // The acceptance scenario: 5% of upstream reads fail; with up to 3
  // retries per op the workload still completes every request (the chance
  // of 4 consecutive injected failures on one op is ~6e-6).
  ProxyReport R = runProxy(faultyProxy(0.05));
  EXPECT_GT(R.App.Requests, 20u);
  EXPECT_GT(R.InjectedFaults, 0u) << "the plan never fired — test is vacuous";
  EXPECT_GT(R.Retries, 0u) << "failures happened but nothing retried";
  EXPECT_EQ(R.FailedRequests, 0u) << "a request was abandoned despite retries";
  // Every request still produced an end-to-end latency sample.
  EXPECT_EQ(R.App.EndToEnd.Count, R.App.Requests);
}

TEST(ProxyRobustnessTest, ExhaustedRetriesAreCountedNotLost) {
  // With every op failing, requests are abandoned — but each one is still
  // counted and still gets a latency sample (the error reply has latency
  // too). Nothing hangs, nothing is silently dropped.
  ProxyConfig C = faultyProxy(1.0);
  C.DurationMillis = 150;
  C.MaxIoRetries = 1;
  C.RetryBaseDelayMicros = 100;
  C.RetryCapDelayMicros = 400;
  ProxyReport R = runProxy(C);
  EXPECT_GT(R.App.Requests, 5u);
  EXPECT_GT(R.FailedRequests, 0u);
  EXPECT_EQ(R.App.EndToEnd.Count, R.App.Requests);
  EXPECT_EQ(R.CacheHits + R.CacheMisses, R.App.Requests);
}

TEST(ProxyRobustnessTest, FaultPlanSeedIsReproducible) {
  // Same seed, same config: the injected-fault and retry counters must
  // agree exactly across runs (scheduling may differ, but the number of
  // I/O submissions is workload-determined and the plan is draw-ordered).
  ProxyConfig C = faultyProxy(0.08);
  C.DurationMillis = 200;
  ProxyReport A = runProxy(C);
  ProxyReport B = runProxy(C);
  EXPECT_EQ(A.App.Requests, B.App.Requests);
  // Submission *order* can vary run to run, but with the same request
  // stream the total number of fault-plan draws — and hence roughly the
  // injected count — is stable. Exact equality holds for Requests; for
  // injections allow the small wiggle that reordered draws can cause.
  uint64_t Lo = std::min(A.InjectedFaults, B.InjectedFaults);
  uint64_t Hi = std::max(A.InjectedFaults, B.InjectedFaults);
  EXPECT_GT(Lo, 0u);
  EXPECT_LE(Hi - Lo, Hi / 2 + 5) << "fault counts wildly diverged";
}

//===----------------------------------------------------------------------===//
// Proxy request deadlines (overall per-request budget)
//===----------------------------------------------------------------------===//

TEST(ProxyRobustnessTest, DeadlineBoundsSlowFetchWaits) {
  // Fault-free but slow origin: fetches take ~10x the request deadline, so
  // most requests are abandoned by the deadline touch (ftouchFor returns
  // nullopt) rather than waiting out the full fetch. Every request is
  // still counted and still gets an end-to-end latency sample.
  ProxyConfig C;
  C.Connections = 8;
  C.DurationMillis = 250;
  C.RequestIntervalMicros = 4000;
  C.FetchLatencyMeanMicros = 20000;
  C.RequestDeadlineMicros = 2000;
  C.Rt.NumWorkers = 4;
  ProxyReport R = runProxy(C);
  EXPECT_GT(R.App.Requests, 10u);
  EXPECT_GT(R.DeadlineAbandoned, 0u) << "no wait was ever cut short";
  EXPECT_GT(R.FailedRequests, 0u) << "abandoned requests must be counted";
  EXPECT_EQ(R.App.EndToEnd.Count, R.App.Requests);
}

TEST(ProxyRobustnessTest, ExpiredDeadlineNeverResubmits) {
  // The retry-vs-deadline interaction: every op fails, retries are
  // allowed, but the backoff delay (jittered into [base/2, base], base
  // 20 ms) always lands past the 1.5 ms request deadline — so after the
  // first failure the request must be abandoned, never re-submitted. A
  // single retry happening is a regression (a retry scheduled past the
  // deadline wastes an admitted slot under overload, exactly what the
  // deadline exists to prevent).
  ProxyConfig C;
  C.Connections = 8;
  C.DurationMillis = 200;
  C.RequestIntervalMicros = 4000;
  C.FetchLatencyMeanMicros = 500;
  C.Faults.FailProb = 1.0;
  C.FaultSeed = 7;
  C.MaxIoRetries = 5;
  C.RetryBaseDelayMicros = 20000;
  C.RetryCapDelayMicros = 20000;
  C.RequestDeadlineMicros = 1500;
  C.Rt.NumWorkers = 4;
  ProxyReport R = runProxy(C);
  EXPECT_GT(R.App.Requests, 5u);
  EXPECT_GT(R.InjectedFaults, 0u) << "the plan never fired — test is vacuous";
  EXPECT_EQ(R.Retries, 0u)
      << "a retry was scheduled past the request deadline";
  EXPECT_GT(R.DeadlineAbandoned, 0u);
  EXPECT_EQ(R.App.EndToEnd.Count, R.App.Requests);
}

//===----------------------------------------------------------------------===//
// Job server under overload with admission control
//===----------------------------------------------------------------------===//

JobServerConfig overloadJobs() {
  // Default job sizes (~1-7 ms each).
  JobServerConfig C;
  C.DurationMillis = 600;
  C.Rt.NumWorkers = 4;
  return C;
}

/// overloadJobs() with matmul — the costliest job and the one never shed —
/// at a tenth of the arrivals: at a quarter of a 2x overload it alone
/// would need about three quarters of the host, and its latency would then
/// measure spare capacity rather than priority scheduling.
JobServerConfig sheddingJobs() {
  JobServerConfig C = overloadJobs();
  C.Mix = {0.1, 0.3, 0.3, 0.3};
  return C;
}

TEST(JobServerRobustnessTest, SheddingPreservesHighPriorityLatency) {
  // Uncontended baseline, then ~2x overload with shedding: low-priority
  // jobs are shed (and counted), and matmul — the highest priority, never
  // shed — keeps a p99 within 2x of uncontended (plus a floor for 1-core
  // scheduling jitter).
  JobServerConfig Base = sheddingJobs();
  Base.ArrivalIntervalMicros = 20000; // light load
  JobServerReport RBase = runJobServer(Base);
  ASSERT_GT(RBase.App.Requests, 0u);

  // Twice what this host serves: the baseline's busy time per job, spread
  // over the cores the workers can actually run on.
  double BusyMicros = RBase.App.UtilizationApprox * RBase.App.WallMillis *
                      1000.0 * Base.Rt.NumWorkers;
  double PerJobMicros = BusyMicros / static_cast<double>(RBase.App.Requests);
  unsigned Cores = std::min(Base.Rt.NumWorkers,
                            std::max(1u, std::thread::hardware_concurrency()));
  JobServerConfig Over = sheddingJobs();
  Over.ArrivalIntervalMicros = PerJobMicros / (2.0 * Cores);
  Over.Shedding = true;
  Over.ShedMaxLevel = 2;   // shed sw, sort, fib; matmul always admitted
  Over.ShedQueueDepth = 8; // engage early on the small pool
  JobServerReport ROver = runJobServer(Over);

  uint64_t TotalShed = 0;
  for (std::size_t T = 0; T < 4; ++T)
    TotalShed += ROver.JobsShed[T];
  EXPECT_GT(TotalShed, 0u) << "overload never engaged the shedder (arrivals "
                           << "every " << Over.ArrivalIntervalMicros << " us)";
  EXPECT_EQ(ROver.JobsShed[0], 0u) << "matmul (never sheddable) was shed";

  ASSERT_GT(RBase.JobsByType[0], 0u);
  ASSERT_GT(ROver.JobsByType[0], 0u);
  double BaseP99 = RBase.JobResponse[0].P99;
  double OverP99 = ROver.JobResponse[0].P99;
  // The acceptance bound: within 2x of uncontended, with a 30 ms floor —
  // a single preemption on the 1-core CI box costs ~10 ms by itself.
  EXPECT_LE(OverP99, std::max(2.0 * BaseP99, 30000.0))
      << "base p99 " << BaseP99 << "us, overloaded p99 " << OverP99 << "us";
}

TEST(JobServerRobustnessTest, SheddingOffMeansNothingShed) {
  JobServerConfig C = overloadJobs();
  C.ArrivalIntervalMicros = 5000;
  C.DurationMillis = 300;
  ASSERT_FALSE(C.Shedding);
  JobServerReport R = runJobServer(C);
  for (std::size_t T = 0; T < 4; ++T)
    EXPECT_EQ(R.JobsShed[T], 0u) << "type " << T;
}

TEST(JobServerRobustnessTest, ShedJobsAreNotCounted) {
  // Shed arrivals must not appear in JobsByType or anywhere in the
  // latency summaries — they were rejected, not served slowly.
  JobServerConfig C = overloadJobs();
  C.ArrivalIntervalMicros = 3000;
  C.DurationMillis = 400;
  C.Shedding = true;
  C.ShedMaxLevel = 3; // every type sheddable, maximizing shed volume
  C.ShedQueueDepth = 2;
  JobServerReport R = runJobServer(C);
  for (std::size_t T = 0; T < 4; ++T)
    EXPECT_EQ(R.JobResponse[T].Count, R.JobsByType[T]) << "type " << T;
}

//===----------------------------------------------------------------------===//
// Email client with failing sends
//===----------------------------------------------------------------------===//

TEST(EmailRobustnessTest, SendFailuresAreSurfacedAndConserved) {
  EmailConfig C;
  C.Users = 6;
  C.EmailsPerUser = 6;
  C.EmailBytes = 2048;
  C.DurationMillis = 300;
  C.RequestIntervalMicros = 5000;
  C.CheckPeriodMicros = 8000;
  C.Rt.NumWorkers = 4;
  C.Faults.FailProb = 0.6; // flaky SMTP/printer path
  C.SendRetries = 1;
  EmailReport R = runEmail(C);
  EXPECT_GT(R.App.Requests, 20u);
  EXPECT_GT(R.SendFailures, 0u) << "0.6 failure rate never beat one retry?";
  EXPECT_GT(R.Retries, 0u);
  // Conservation under failure: every request ends in exactly one bucket —
  // sent, send-failed, sorted, printed, or print-failed. Nothing vanishes.
  EXPECT_EQ(R.Sends + R.SendFailures + R.Sorts + R.Prints + R.PrintFailures,
            R.App.Requests);
}

TEST(EmailRobustnessTest, FaultFreeRunHasNoFailures) {
  EmailConfig C;
  C.Users = 4;
  C.EmailsPerUser = 4;
  C.DurationMillis = 200;
  C.RequestIntervalMicros = 5000;
  C.Rt.NumWorkers = 4;
  EmailReport R = runEmail(C);
  EXPECT_EQ(R.SendFailures, 0u);
  EXPECT_EQ(R.PrintFailures, 0u);
  EXPECT_EQ(R.Retries, 0u);
  EXPECT_EQ(R.Sends + R.Sorts + R.Prints, R.App.Requests);
}

} // namespace
} // namespace repro::apps
