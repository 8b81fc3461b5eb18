//===- bench/micro_runtime.cpp - Supporting microbenchmarks (E9) ------------===//
//
// google-benchmark microbenchmarks of the building blocks: fcreate/ftouch
// round trips, suspension cost, the concurrency substrate (deque, MPMC
// queue, hash map), Huffman throughput, and the λ⁴ᵢ abstract machine's
// step rate. These put numbers behind the runtime the figures run on.
//
//===----------------------------------------------------------------------===//

#include "apps/AppCommon.h"
#include "apps/Huffman.h"
#include "conc/ChaseLevDeque.h"
#include "conc/ConcurrentHashMap.h"
#include "conc/MpmcQueue.h"
#include "icilk/Context.h"
#include "icilk/Health.h"
#include "icilk/SpanStore.h"
#include "lambda4i/Machine.h"
#include "lambda4i/Parser.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <thread>

namespace {

using namespace repro;

ICILK_PRIORITY(Lo, icilk::BasePriority, 0);
ICILK_PRIORITY(Hi, Lo, 1);

void BM_FcreateFtouchRoundTrip(benchmark::State &State) {
  icilk::RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 2;
  icilk::Runtime Rt(C);
  for (auto _ : State) {
    auto F = icilk::fcreate<Hi>(Rt, [](icilk::Context<Hi> &) { return 1; });
    benchmark::DoNotOptimize(icilk::touchFromOutside(Rt, F));
  }
}
BENCHMARK(BM_FcreateFtouchRoundTrip);

void BM_NestedTouchWithSuspension(benchmark::State &State) {
  icilk::RuntimeConfig C;
  C.NumWorkers = 1; // force the outer task to suspend
  C.NumLevels = 1;
  icilk::Runtime Rt(C);
  for (auto _ : State) {
    auto F = icilk::fcreate<Lo>(Rt, [](icilk::Context<Lo> &Ctx) {
      auto Inner =
          Ctx.fcreate<Lo>([](icilk::Context<Lo> &) { return 2; });
      return Ctx.ftouch(Inner);
    });
    benchmark::DoNotOptimize(icilk::touchFromOutside(Rt, F));
  }
}
BENCHMARK(BM_NestedTouchWithSuspension);

void BM_SpawnBurst(benchmark::State &State) {
  icilk::RuntimeConfig C;
  C.NumWorkers = 4;
  C.NumLevels = 1;
  icilk::Runtime Rt(C);
  const int Burst = static_cast<int>(State.range(0));
  for (auto _ : State) {
    for (int I = 0; I < Burst; ++I)
      icilk::fcreate<Lo>(Rt, [](icilk::Context<Lo> &) {});
    Rt.drain();
  }
  State.SetItemsProcessed(State.iterations() * Burst);
}
BENCHMARK(BM_SpawnBurst)->Arg(64)->Arg(512);

// The slab path in isolation: one worker spawning from inside the runtime
// (worker-local Task cache + stack pool, no injection queue), a burst
// sized so every object beyond the first lap is a recycled one. Watches
// the cost of allocTask + reset + pooled-stack dispatch, which is what
// the pooled-hot-path work optimizes.
void BM_TaskPoolSpawn(benchmark::State &State) {
  icilk::RuntimeConfig C;
  C.NumWorkers = 1;
  C.NumLevels = 1;
  icilk::Runtime Rt(C);
  constexpr int Burst = 32;
  for (auto _ : State) {
    auto F = icilk::fcreate<Lo>(Rt, [](icilk::Context<Lo> &Ctx) {
      for (int I = 0; I < Burst; ++I)
        Ctx.fcreate<Lo>([](icilk::Context<Lo> &) {});
    });
    icilk::touchFromOutside(Rt, F);
    Rt.drain();
  }
  State.SetItemsProcessed(State.iterations() * (Burst + 1));
}
BENCHMARK(BM_TaskPoolSpawn);

// Request-tracing overhead on the spawn path. Arg 0: no SpanStore
// attached — the per-spawn cost is one relaxed atomic load returning
// null (this must stay inside BM_SpawnBurst's tolerance band). Arg 1: a
// store attached with a 1% head-sampling rate and an active root span,
// so every fcreate copies the 32-byte context and each iteration pays
// one startTrace/finishTrace — the per-request, not per-task, cost.
void BM_SpanOverhead(benchmark::State &State) {
  icilk::RuntimeConfig C;
  C.NumWorkers = 4;
  C.NumLevels = 1;
  icilk::Runtime Rt(C);
  std::unique_ptr<icilk::SpanStore> Store;
  if (State.range(0)) {
    icilk::SpanStoreConfig SC;
    SC.HeadSampleRate = 0.01;
    Store = std::make_unique<icilk::SpanStore>(SC);
    Rt.setSpans(Store.get());
  }
  const int Burst = 64;
  for (auto _ : State) {
    icilk::SpanContext Root;
    if (Store)
      Root = Store->startTrace("request", 0);
    icilk::span::Scope Sc(Root);
    for (int I = 0; I < Burst; ++I)
      icilk::fcreate<Lo>(Rt, [](icilk::Context<Lo> &) {});
    Rt.drain();
    if (Store)
      Store->finishTrace(Root);
  }
  State.SetItemsProcessed(State.iterations() * Burst);
}
BENCHMARK(BM_SpanOverhead)->Arg(0)->Arg(1);

// Health-plane overhead on the scheduling hot path. Arg 0: no watcher —
// the workers still publish their seqlock status lines at every state
// transition, so this measures the always-on publication cost against
// BM_SpawnBurst/512's shape. Arg 1: the 97 Hz watcher thread running
// with a SpanStore attached (1% head rate, one trace per iteration), so
// worker status sampling, folded-profile aggregation, and the doctor all
// run concurrently with the burst. Measured on a 4-vCPU 2.1 GHz Xeon VM,
// Arg 1 / Arg 0 is 0.96 in wall time (medians of 20 repetitions).
void BM_HealthOverhead(benchmark::State &State) {
  icilk::RuntimeConfig C;
  C.NumWorkers = 4;
  C.NumLevels = 1;
  icilk::Runtime Rt(C);
  std::unique_ptr<icilk::SpanStore> Store;
  std::unique_ptr<icilk::Health> Plane;
  if (State.range(0)) {
    icilk::SpanStoreConfig SC;
    SC.HeadSampleRate = 0.01;
    Store = std::make_unique<icilk::SpanStore>(SC);
    Rt.setSpans(Store.get());
    Plane = std::make_unique<icilk::Health>(Rt);
    Plane->trackSpans(Store.get());
    Plane->start();
  }
  const int Burst = 512;
  for (auto _ : State) {
    icilk::SpanContext Root;
    if (Store)
      Root = Store->startTrace("request", 0);
    icilk::span::Scope Sc(Root);
    for (int I = 0; I < Burst; ++I)
      icilk::fcreate<Lo>(Rt, [](icilk::Context<Lo> &) {});
    Rt.drain();
    if (Store)
      Store->finishTrace(Root);
  }
  State.SetItemsProcessed(State.iterations() * Burst);
}
BENCHMARK(BM_HealthOverhead)->Arg(0)->Arg(1);

// Steal-pressure stress: a deep *unbalanced* spawn tree (one long spine,
// short side branches) whose every internal node touches both children.
// The spine keeps one worker busy while the side branches land in its
// deque, so the other workers live off steals; the touches force constant
// suspension/resumption across workers. This is the shape batch stealing
// and the next-task slot exist for — the gate for the locality-aware
// scheduler refactor.
int stealChurn(icilk::Context<Lo> &Ctx, int Depth) {
  if (Depth <= 0)
    return 1;
  // Unbalanced: the left child carries the full remaining depth - 1, the
  // right child only a stub — a pathological DAG for plain work-first
  // scheduling.
  auto Spine = Ctx.fcreate<Lo>(
      [Depth](icilk::Context<Lo> &C) { return stealChurn(C, Depth - 1); });
  auto Stub = Ctx.fcreate<Lo>(
      [](icilk::Context<Lo> &C) { return stealChurn(C, 0); });
  return Ctx.ftouch(Spine) + Ctx.ftouch(Stub);
}

// Arg(0) pins the pre-refactor behavior (no next-task slot, classic
// one-task steals); Arg(1) is the locality-aware scheduler. Keeping both
// in the same binary makes the A/B apples-to-apples on whatever machine
// runs the gate — the locality win is the /1-vs-/0 ratio, not a
// cross-run diff that shared-runner noise can swallow.
void BM_StealChurn(benchmark::State &State) {
  icilk::RuntimeConfig C;
  C.NumWorkers = 4;
  C.NumLevels = 1;
  C.NextSlotEnabled = State.range(0) != 0;
  C.StealBatchMax = State.range(0) != 0 ? 16 : 1;
  icilk::Runtime Rt(C);
  const int Depth = 64;
  for (auto _ : State) {
    auto F = icilk::fcreate<Lo>(
        Rt, [Depth](icilk::Context<Lo> &Ctx) { return stealChurn(Ctx, Depth); });
    benchmark::DoNotOptimize(icilk::touchFromOutside(Rt, F));
    Rt.drain();
  }
  // Each depth level spawns a spine and a stub: 2*Depth + 1 tasks a lap.
  State.SetItemsProcessed(State.iterations() * (2 * Depth + 1));
}
BENCHMARK(BM_StealChurn)->Arg(0)->Arg(1);

// Parent/child ping-pong entirely inside the runtime: a task fcreates one
// child and immediately ftouches it, in a tight loop. The child's working
// set is the parent's still-hot cache line, so this is the round trip the
// per-worker LIFO next-task slot accelerates (the child runs on the
// parent's worker without a deque push/steal cycle).
// Arg(0) disables the slot (pre-refactor deque round trip), Arg(1)
// enables it — same A/B rationale as BM_StealChurn above.
void BM_NextSlotPingPong(benchmark::State &State) {
  icilk::RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 1;
  C.NextSlotEnabled = State.range(0) != 0;
  icilk::Runtime Rt(C);
  constexpr int Laps = 64;
  for (auto _ : State) {
    auto F = icilk::fcreate<Lo>(Rt, [](icilk::Context<Lo> &Ctx) {
      int Sum = 0;
      for (int I = 0; I < Laps; ++I) {
        auto Child =
            Ctx.fcreate<Lo>([I](icilk::Context<Lo> &) { return I; });
        Sum += Ctx.ftouch(Child);
      }
      return Sum;
    });
    benchmark::DoNotOptimize(icilk::touchFromOutside(Rt, F));
    Rt.drain();
  }
  State.SetItemsProcessed(State.iterations() * Laps);
}
BENCHMARK(BM_NextSlotPingPong)->Arg(0)->Arg(1);

// Wakeup latency of a parked runtime: both workers are asleep on the idle
// event count when each submission arrives, so every iteration pays the
// full futex-wake + reschedule path that replaced the old always-spinning
// workers. The parked precondition is established outside the timed
// region.
void BM_ParkedWakeup(benchmark::State &State) {
  icilk::RuntimeConfig C;
  C.NumWorkers = 2;
  C.NumLevels = 1;
  icilk::Runtime Rt(C);
  for (auto _ : State) {
    State.PauseTiming();
    while (Rt.snapshot().WorkersParked < C.NumWorkers)
      std::this_thread::yield();
    State.ResumeTiming();
    auto F = icilk::fcreate<Lo>(Rt, [](icilk::Context<Lo> &) { return 1; });
    benchmark::DoNotOptimize(icilk::touchFromOutside(Rt, F));
  }
}
BENCHMARK(BM_ParkedWakeup);

void BM_DequePushPop(benchmark::State &State) {
  conc::ChaseLevDeque<int> D;
  for (auto _ : State) {
    D.push(1);
    benchmark::DoNotOptimize(D.pop());
  }
}
BENCHMARK(BM_DequePushPop);

void BM_MpmcPushPop(benchmark::State &State) {
  conc::MpmcQueue<int> Q(1024);
  for (auto _ : State) {
    Q.tryPush(1);
    benchmark::DoNotOptimize(Q.tryPop());
  }
}
BENCHMARK(BM_MpmcPushPop);

void BM_HashMapGetHit(benchmark::State &State) {
  conc::ConcurrentHashMap<int, int> M;
  for (int I = 0; I < 1024; ++I)
    M.put(I, I);
  int Key = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(M.get(Key));
    Key = (Key + 7) & 1023;
  }
}
BENCHMARK(BM_HashMapGetHit);

void BM_HuffmanCompress(benchmark::State &State) {
  Rng R(3);
  std::string Text = apps::randomText(16384, R);
  for (auto _ : State)
    benchmark::DoNotOptimize(apps::huffmanCompress(Text));
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Text.size()));
}
BENCHMARK(BM_HuffmanCompress);

void BM_HuffmanRoundTrip(benchmark::State &State) {
  Rng R(3);
  std::string Text = apps::randomText(16384, R);
  for (auto _ : State) {
    auto Blob = apps::huffmanCompress(Text);
    benchmark::DoNotOptimize(apps::huffmanDecompress(Blob));
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Text.size()));
}
BENCHMARK(BM_HuffmanRoundTrip);

void BM_Lambda4iMachineSteps(benchmark::State &State) {
  const char *Src = R"(
priority p;
fun sum (n : nat) : nat = ifz n then 0 else m. n + sum m;
main at p {
  a <- fcreate [p; nat] { ret (sum 30) };
  b <- fcreate [p; nat] { ret (sum 30) };
  x <- ftouch a;
  y <- ftouch b;
  ret x + y
})";
  auto Parsed = lambda4i::parseProgram(Src);
  uint64_t Steps = 0;
  for (auto _ : State) {
    lambda4i::MachineConfig C;
    C.P = 2;
    auto R = lambda4i::runProgram(Parsed.Prog, C);
    Steps += R.Steps;
    benchmark::DoNotOptimize(R.Ok);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Steps));
  State.SetLabel("items = machine parallel steps");
}
BENCHMARK(BM_Lambda4iMachineSteps);

} // namespace

BENCHMARK_MAIN();
