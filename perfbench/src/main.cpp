//===- perfbench/src/main.cpp - End-to-end benchmark entry point -----------===//
//
// perfbench_e2e --workload <proxy-hit|proxy-miss|jobs-mixed> --seed <n>
//               --seconds <s> --trace <0|1> [--rate <per-second>]
//
// --rate overrides the workload's fixed arrival rate; it exists for the
// sweeps that pick those rates and is never passed by a measured run.
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// a separate run that yields the per-layer metrics (an untraced phase for
// exact counters, then a traced phase). Human-readable notes go first; the
// last line of standard output is the JSON result. Exits nonzero when any
// correctness check fails.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

using namespace perfbench;

namespace {

struct MetricName {
  const char *Name;
  const char *Unit;
};

// Must list exactly the metrics of BENCHMARK.json, in the same order.
const MetricName EndToEnd[] = {
    {"setup_s", "s"},        {"p50_us", "us"},      {"low_p50_us", "us"},
    {"cpu_us_per_op", "us"}, {"peak_rss_mb", "MB"},
};

const MetricName PerLayer[] = {
    {"realproxy.handler_self_us.p50", "us"},
    {"realproxy.handler_self_us.p99", "us"},
    {"realproxy.cache_hit_ratio", "ratio"},
    {"realproxy.accept_to_handler_us.p50", "us"},
    {"reactor.read_us.p50", "us"},
    {"reactor.write_us.p50", "us"},
    {"reactor.connect_us.p50", "us"},
    {"reactor.ops_per_req", "count"},
    {"reactor.loop_wakeups_per_req", "count"},
    {"admission.span_us.p50", "us"},
    {"admission.queue_delay_p99_us", "us"},
    {"admission.shed", "count"},
    {"rt.ready_us.L0", "us"},
    {"rt.ready_us.L1", "us"},
    {"rt.ready_us.L2", "us"},
    {"rt.ready_us.L3", "us"},
    {"rt.run_us.L0", "us"},
    {"rt.run_us.L1", "us"},
    {"rt.run_us.L2", "us"},
    {"rt.run_us.L3", "us"},
    {"rt.ftouch_us.L0", "us"},
    {"rt.ftouch_us.L1", "us"},
    {"rt.ftouch_us.L2", "us"},
    {"rt.ftouch_us.L3", "us"},
    {"rt.tasks_per_op", "count"},
    {"rt.ctx_switches_per_op", "count"},
    {"rt.inversions", "count"},
    {"rt.bound_holds.L0", "bool"},
    {"rt.bound_holds.L1", "bool"},
    {"rt.bound_holds.L2", "bool"},
    {"rt.bound_holds.L3", "bool"},
    {"conc.steals_per_op", "count"},
    {"conc.batch_steal_tasks_per_op", "count"},
    {"conc.next_slot_hits_per_task", "count"},
    {"conc.stack_reuse_ratio", "ratio"},
    {"kernels.compute_us.matmul.p50", "us"},
    {"kernels.compute_us.fib.p50", "us"},
    {"kernels.compute_us.sort.p50", "us"},
    {"kernels.compute_us.sw.p50", "us"},
    {"origin.service_us.p50", "us"},
    {"origin.busy_ratio", "ratio"},
    {"proc.allocs_per_op", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.unaccounted_ratio", "ratio"},
    {"trace.requests_covered", "ratio"},
    {"spans.dropped", "count"},
    {"bench.gen_late_p99_us", "us"},
    {"tail.p95_us", "us"},
    {"tail.p99_us", "us"},
    {"tail.low_p95_us", "us"},
    {"tail.low_p99_us", "us"},
};

[[noreturn]] void usage(const char *Why) {
  std::cerr << "perfbench_e2e: " << Why
            << "\nusage: perfbench_e2e --workload <proxy-hit|proxy-miss|"
               "jobs-mixed> --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs Args;
  std::string Workload;
  double Rate = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Key).c_str());
    std::string Val = Argv[++I];
    if (Key == "--workload")
      Workload = Val;
    else if (Key == "--seed")
      Args.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      Args.Seconds = std::strtod(Val.c_str(), nullptr);
    else if (Key == "--trace")
      Args.Trace = Val == "1";
    else if (Key == "--rate")
      Rate = std::strtod(Val.c_str(), nullptr);
    else
      usage(("unknown option " + Key).c_str());
  }
  Args.Workload = findWorkload(Workload);
  if (!Args.Workload)
    usage(("unknown workload '" + Workload + "'").c_str());
  WorkloadSpec Swept;
  if (Rate > 0) {
    Swept = *Args.Workload;
    Swept.RatePerSec = Rate;
    Args.Workload = &Swept;
  }
  if (!(Args.Seconds > 0 && Args.Seconds <= 120))
    usage("--seconds must be in (0, 120]");
  repro::setLogThreshold(repro::LogLevel::Warn);

  WorkloadResult Res = Args.Workload->Kind == WorkloadKind::JobsMixed
                           ? runJobsWorkload(Args)
                           : runProxyWorkload(Args);
  RunOutcome &Out = Res.Outcome;
  if (Out.Failed > 0)
    Out.fail(std::to_string(Out.Failed) + " of " +
             std::to_string(Out.Attempted) + " operations failed");
  std::vector<std::string> Idle;
  const MetricName *Begin =
      Args.Trace ? std::begin(PerLayer) : std::begin(EndToEnd);
  const MetricName *End = Args.Trace ? std::end(PerLayer) : std::end(EndToEnd);
  for (const MetricName *M = Begin; M != End; ++M) {
    auto It = Res.Values.find(M->Name);
    if (It == Res.Values.end())
      Idle.push_back(M->Name);
    Out.add(M->Name, It == Res.Values.end() ? 0.0 : It->second, M->Unit);
  }
  std::cout << "workload " << Args.Workload->Name << " seed " << Args.Seed
            << " seconds " << Args.Seconds << " trace " << Args.Trace << "\n";
  for (const std::string &N : Out.Notes)
    std::cout << "  " << N << "\n";
  if (!Idle.empty()) {
    std::cout << "  layers idle or not measured on this workload (reported "
                 "as 0):";
    for (const std::string &N : Idle)
      std::cout << " " << N;
    std::cout << "\n";
  }
  for (const Metric &M : Out.Metrics)
    std::cout << "  " << M.Name << " = " << M.Value << " " << M.Unit << "\n";
  std::cout << Out.resultJson() << std::endl;
  return Out.Correct ? 0 : 1;
}
