//===- icilk/Health.cpp - Always-on runtime health plane -------------------===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "icilk/Health.h"

#include "icilk/SpanStore.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

namespace repro::icilk {

namespace {

/// Bounded memo size for span-id → task-kind lookups; past this the memo
/// is dropped wholesale (ids are short-lived, staleness is harmless).
constexpr std::size_t KindMemoCap = 1024;

std::string formatMillis(uint64_t Millis) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%llu ms",
                static_cast<unsigned long long>(Millis));
  return Buf;
}

} // namespace

Health::Health(Runtime &R, HealthConfig C) : Rt(R), Config(std::move(C)) {
  if (Config.SampleHz <= 0)
    Config.SampleHz = 97.0;
  unsigned Levels = Rt.config().NumLevels;
  StateNanos.assign(Levels + 1, {});
  Starve.assign(Levels, {});
  LastStatus.assign(Rt.config().NumWorkers, {});
}

Health::~Health() { stop(); }

void Health::start() {
  {
    std::lock_guard<std::mutex> Lock(WatcherMutex);
    if (Started)
      return;
    Started = true;
    StopWatcher = false;
  }
  Watcher = std::thread([this] { watcherLoop(); });
}

void Health::stop() {
  {
    std::lock_guard<std::mutex> Lock(WatcherMutex);
    if (!Started)
      return;
    Started = false;
    StopWatcher = true;
  }
  WatcherCv.notify_all();
  if (Watcher.joinable())
    Watcher.join();
}

void Health::trackSpans(SpanStore *Store) {
  Spans.store(Store, std::memory_order_release);
}

void Health::trackWindows(const LatencyWindowSource *Source) {
  Windows.store(Source, std::memory_order_release);
}

uint64_t Health::samples() const {
  std::lock_guard<std::mutex> Lock(StateMutex);
  return SampleCount;
}

void Health::tickForTest() { tick(repro::nowNanos()); }

void Health::watcherLoop() {
  const auto Period = std::chrono::nanoseconds(
      static_cast<uint64_t>(1e9 / Config.SampleHz));
  std::unique_lock<std::mutex> Lock(WatcherMutex);
  while (!StopWatcher) {
    Lock.unlock();
    tick(repro::nowNanos());
    Lock.lock();
    WatcherCv.wait_for(Lock, Period, [this] { return StopWatcher; });
  }
}

std::string Health::taskKind(uint64_t SpanTraceLo) {
  if (SpanTraceLo == 0)
    return {};
  auto It = KindMemo.find(SpanTraceLo);
  if (It != KindMemo.end())
    return It->second;
  SpanStore *SS = Spans.load(std::memory_order_acquire);
  if (!SS)
    return {};
  std::string Name = SS->activeRootName(SpanTraceLo);
  if (Name.empty())
    Name = "untraced";
  if (KindMemo.size() >= KindMemoCap)
    KindMemo.clear();
  KindMemo.emplace(SpanTraceLo, Name);
  return Name;
}

void Health::noteFolded(const std::string &Key, uint64_t Count) {
  auto It = Folded.find(Key);
  if (It != Folded.end()) {
    It->second += Count;
    return;
  }
  if (Folded.size() >= Config.MaxFoldedEntries) {
    Folded["all;other"] += Count;
    return;
  }
  Folded.emplace(Key, Count);
}

void Health::tick(uint64_t NowNanos) {
  RuntimeSnapshot Snap = Rt.snapshot();
  unsigned Levels = Rt.config().NumLevels;
  unsigned NumWorkers = Rt.config().NumWorkers;

  int64_t TotalPending = 0;
  for (int64_t P : Snap.Pending)
    TotalPending += P;

  std::lock_guard<std::mutex> Lock(StateMutex);
  uint64_t Dt = LastTickNanos ? NowNanos - LastTickNanos : 0;
  LastTickNanos = NowNanos;
  ++SampleCount;

  // --- Profiler: sample every worker's status line, attribute the tick
  // interval to its (level, state) cell and folded stack.
  std::vector<HealthVerdict> Fresh;
  for (unsigned W = 0; W < NumWorkers; ++W) {
    WorkerStatus St;
    if (!Rt.sampleWorkerStatus(W, St))
      break;
    LastStatus[W] = St;
    unsigned L = std::min<unsigned>(St.Level, Levels);
    unsigned SIdx = static_cast<unsigned>(St.State) & 3u;
    if (Dt)
      StateNanos[L][SIdx] += Dt;
    std::string Key = "all;level" + std::to_string(L) + ";" +
                      workerStateName(St.State);
    if ((St.State == WorkerState::Running || St.State == WorkerState::InIo) &&
        St.SpanTraceLo) {
      std::string Kind = taskKind(St.SpanTraceLo);
      if (!Kind.empty())
        Key += ";" + Kind;
    }
    noteFolded(Key, 1);

    // Doctor: stalled workers. SinceNanos is the worker's own transition
    // stamp; a sampler/worker clock skew cannot occur (same clock), but a
    // status published *after* our NowNanos read would underflow — clamp.
    uint64_t HeldNanos = NowNanos > St.SinceNanos ? NowNanos - St.SinceNanos : 0;
    uint64_t HeldMillis = HeldNanos / 1000000;
    if (St.State == WorkerState::Running &&
        HeldMillis >= Config.StalledTaskMillis) {
      HealthVerdict V;
      V.Kind = "worker-stalled";
      V.Severity = "critical";
      V.Worker = static_cast<int>(W);
      V.Level = St.Level;
      V.ForMillis = HeldMillis;
      std::ostringstream D;
      D << "worker " << W << " stalled in state running for "
        << formatMillis(HeldMillis) << " (task ring id " << St.TaskRingId
        << ", level " << unsigned(St.Level) << ")";
      V.Detail = D.str();
      Fresh.push_back(std::move(V));
    } else if (St.State == WorkerState::Stealing && TotalPending > 0 &&
               HeldMillis >= Config.StalledStealMillis) {
      HealthVerdict V;
      V.Kind = "worker-stalled";
      V.Severity = "warn";
      V.Worker = static_cast<int>(W);
      V.ForMillis = HeldMillis;
      std::ostringstream D;
      D << "worker " << W << " stalled in state stealing for "
        << formatMillis(HeldMillis) << " while " << TotalPending
        << " tasks are pending";
      // Steal locality tells degraded-scan from no-work-at-all: a thief
      // spinning with a healthy same-socket ratio is scanning queues that
      // really are empty; a collapsing ratio says the work sits across
      // the interconnect (tier policy, affinity hints, or the master's
      // partition are fighting the victim scan).
      uint64_t Steals = Snap.StealsSameSocket + Snap.StealsCrossSocket;
      if (Steals > 0) {
        D << "; steal locality "
          << (Snap.StealsSameSocket * 100 / Steals) << "% same-socket ("
          << Snap.StealsSameSocket << " same, " << Snap.StealsCrossSocket
          << " cross)";
      }
      V.Detail = D.str();
      Fresh.push_back(std::move(V));
    }
  }

  // --- Doctor: per-level starvation. A level is starved when it has had
  // pending work *and no completions* continuously for StarvedAfterMillis.
  // Completion progress (not worker assignment) is the test: the master
  // may well assign a worker to a level whose queue it never reaches.
  for (unsigned L = 0; L < Levels && L < Snap.Pending.size(); ++L) {
    uint64_t Completed = Rt.completed(L);
    StarveEpisode &E = Starve[L];
    if (Snap.Pending[L] <= 0) {
      E.Open = false;
      continue;
    }
    if (!E.Open || Completed != E.CompletedAtStart) {
      E.Open = true;
      E.StartNanos = NowNanos;
      E.CompletedAtStart = Completed;
      continue;
    }
    uint64_t HeldMillis = (NowNanos - E.StartNanos) / 1000000;
    if (HeldMillis >= Config.StarvedAfterMillis) {
      HealthVerdict V;
      V.Kind = "starved";
      V.Severity = "critical";
      V.Level = static_cast<int>(L);
      V.ForMillis = HeldMillis;
      std::ostringstream D;
      D << "level " << L << " starved: " << Snap.Pending[L]
        << " pending, zero completions for " << formatMillis(HeldMillis)
        << " (desire=" << (L < Snap.Desires.size() ? Snap.Desires[L] : 0)
        << ", assigned=" << (L < Snap.Assigned.size() ? Snap.Assigned[L] : 0)
        << ")";
      V.Detail = D.str();
      Fresh.push_back(std::move(V));
    }
  }

  // --- Doctor: injection-ring watermark. Full-spin deltas mean external
  // submitters are hitting a full ring right now; a nonzero overflow list
  // means one overflowed and has not drained. Held for ShedHoldMillis so
  // bursts between polls stay visible.
  uint64_t SpinDelta = Snap.InjectionFullSpins - LastInjectionFullSpins;
  LastInjectionFullSpins = Snap.InjectionFullSpins;
  int RingLevel = -1;
  for (unsigned L = 0; L < Snap.InjectionOverflow.size(); ++L)
    if (Snap.InjectionOverflow[L] > 0)
      RingLevel = static_cast<int>(L);
  if (SpinDelta > 0 || RingLevel >= 0) {
    LastRingSeenNanos = NowNanos;
    LastRingLevel = RingLevel;
  }
  if (LastRingSeenNanos &&
      (NowNanos - LastRingSeenNanos) / 1000000 < Config.ShedHoldMillis) {
    HealthVerdict V;
    V.Kind = "ring-watermark";
    V.Severity = "warn";
    V.Level = LastRingLevel;
    V.ForMillis = (NowNanos - LastRingSeenNanos) / 1000000;
    std::ostringstream D;
    D << "injection ring at watermark: full-spin submissions observed";
    if (LastRingLevel >= 0)
      D << ", level " << LastRingLevel << " overflow list non-empty";
    V.Detail = D.str();
    Fresh.push_back(std::move(V));
  }

  // --- Doctor: admission controller verdicts (when one is attached).
  if (Snap.Admission.Attached) {
    uint64_t ShedDelta = Snap.Admission.Shed - LastShed;
    LastShed = Snap.Admission.Shed;
    if (ShedDelta > 0) {
      LastShedSeenNanos = NowNanos;
      LastShedDelta = ShedDelta;
    }
    if (LastShedSeenNanos &&
        (NowNanos - LastShedSeenNanos) / 1000000 < Config.ShedHoldMillis) {
      HealthVerdict V;
      V.Kind = "shed";
      V.Severity = "warn";
      V.ForMillis = (NowNanos - LastShedSeenNanos) / 1000000;
      std::ostringstream D;
      D << "admission shedding load: " << LastShedDelta
        << " requests shed in the last burst (total "
        << Snap.Admission.Shed << ")";
      V.Detail = D.str();
      Fresh.push_back(std::move(V));
    }
    for (unsigned L = 0; L < Snap.Admission.Levels.size(); ++L) {
      const AdmissionLevelSample &AL = Snap.Admission.Levels[L];
      if (AL.ClampedForMicros > Config.ClampAlarmMillis * 1000 &&
          AL.RatePerSec > 0 &&
          AL.RatePerSec < AL.ObservedOfferRatePerSec) {
        HealthVerdict V;
        V.Kind = "admission-clamped";
        V.Severity = "warn";
        V.Level = static_cast<int>(L);
        V.ForMillis = AL.ClampedForMicros / 1000;
        std::ostringstream D;
        D << "admission clamped level " << L << " to " << AL.RatePerSec
          << "/s, below its offered " << AL.ObservedOfferRatePerSec
          << "/s, for " << formatMillis(AL.ClampedForMicros / 1000);
        V.Detail = D.str();
        Fresh.push_back(std::move(V));
      }
    }
  }

  // --- SLO burn-rate engine: page only when both windows burn.
  for (const SloBurnSample &S : evaluateSlos()) {
    if (S.FastBurn >= Config.FastBurnThreshold &&
        S.SlowBurn >= Config.SlowBurnThreshold) {
      HealthVerdict V;
      V.Kind = "slo-burn";
      V.Severity = "critical";
      V.Level = S.Level;
      std::ostringstream D;
      D << "SLO burn on level " << S.Level << ": fast-window burn "
        << S.FastBurn << "x, slow-window burn " << S.SlowBurn
        << "x against p99 target " << S.TargetMicros << " us (objective "
        << S.Objective << ")";
      V.Detail = D.str();
      Fresh.push_back(std::move(V));
    }
  }

  Verdicts = std::move(Fresh);
}

std::vector<SloBurnSample> Health::evaluateSlos() const {
  std::vector<SloBurnSample> Out;
  const LatencyWindowSource *Src = Windows.load(std::memory_order_acquire);
  if (!Src || Config.Slos.empty())
    return Out;
  unsigned Levels = Src->levels();
  unsigned SlowEpochs =
      Config.SloSlowEpochs ? Config.SloSlowEpochs : Src->epochs();
  for (const SloConfig &S : Config.Slos) {
    if (S.Level < 0 || static_cast<unsigned>(S.Level) >= Levels ||
        S.P99TargetMicros <= 0)
      continue;
    double Budget = 1.0 - S.Objective;
    if (Budget <= 0)
      continue;
    LatencyHistogram Fast =
        Src->windowTail(static_cast<unsigned>(S.Level), Config.SloFastEpochs);
    LatencyHistogram Slow =
        Src->windowTail(static_cast<unsigned>(S.Level), SlowEpochs);
    SloBurnSample B;
    B.Level = S.Level;
    B.TargetMicros = S.P99TargetMicros;
    B.Objective = S.Objective;
    B.FastCount = Fast.count();
    B.SlowCount = Slow.count();
    B.FastBurn = Fast.fractionAbove(S.P99TargetMicros) / Budget;
    B.SlowBurn = Slow.fractionAbove(S.P99TargetMicros) / Budget;
    Out.push_back(B);
  }
  return Out;
}

HealthReport Health::report() const {
  HealthReport R;
  R.SampleHz = Config.SampleHz;
  R.Slo = evaluateSlos();
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    R.Verdicts = Verdicts;
    R.Workers = LastStatus;
    R.Samples = SampleCount;
  }
  bool Critical = false, Any = false;
  for (const HealthVerdict &V : R.Verdicts) {
    Any = true;
    Critical |= V.Severity == "critical";
  }
  R.Status = Critical ? "critical" : Any ? "degraded" : "ok";
  return R;
}

json::Value Health::healthJson() const {
  HealthReport R = report();
  json::Value Out = json::Value::object();
  Out.set("schema", json::Value("icilk-health-v1"));
  Out.set("status", json::Value(R.Status));
  Out.set("sample_hz", json::Value(R.SampleHz));
  Out.set("samples", json::Value(R.Samples));
  json::Value Vs = json::Value::array();
  for (const HealthVerdict &V : R.Verdicts) {
    json::Value J = json::Value::object();
    J.set("kind", json::Value(V.Kind));
    J.set("severity", json::Value(V.Severity));
    J.set("detail", json::Value(V.Detail));
    if (V.Level >= 0)
      J.set("level", json::Value(V.Level));
    if (V.Worker >= 0)
      J.set("worker", json::Value(V.Worker));
    J.set("for_millis", json::Value(V.ForMillis));
    Vs.push(std::move(J));
  }
  Out.set("verdicts", std::move(Vs));
  json::Value Slos = json::Value::array();
  for (const SloBurnSample &S : R.Slo) {
    json::Value J = json::Value::object();
    J.set("level", json::Value(S.Level));
    J.set("p99_target_micros", json::Value(S.TargetMicros));
    J.set("objective", json::Value(S.Objective));
    J.set("fast_burn", json::Value(S.FastBurn));
    J.set("slow_burn", json::Value(S.SlowBurn));
    J.set("fast_count", json::Value(S.FastCount));
    J.set("slow_count", json::Value(S.SlowCount));
    Slos.push(std::move(J));
  }
  Out.set("slo", std::move(Slos));
  json::Value Ws = json::Value::array();
  for (unsigned W = 0; W < R.Workers.size(); ++W) {
    const WorkerStatus &St = R.Workers[W];
    json::Value J = json::Value::object();
    J.set("worker", json::Value(uint64_t(W)));
    J.set("state", json::Value(workerStateName(St.State)));
    J.set("level", json::Value(uint64_t(St.Level)));
    if (St.TaskRingId)
      J.set("task_ring_id", json::Value(uint64_t(St.TaskRingId)));
    if (St.SpanTraceLo)
      J.set("span_trace_lo", json::Value(St.SpanTraceLo));
    J.set("since_nanos", json::Value(St.SinceNanos));
    Ws.push(std::move(J));
  }
  Out.set("workers", std::move(Ws));
  return Out;
}

json::Value Health::profileJson() const {
  json::Value Out = json::Value::object();
  Out.set("schema", json::Value("icilk-health-profile-v1"));
  Out.set("sample_hz", json::Value(Config.SampleHz));
  std::lock_guard<std::mutex> Lock(StateMutex);
  Out.set("samples", json::Value(SampleCount));
  json::Value Ls = json::Value::array();
  for (unsigned L = 0; L < StateNanos.size(); ++L) {
    // The extra trailing row collects samples whose level was out of
    // range; skip it when (as always in practice) it is empty.
    bool Empty = true;
    for (uint64_t N : StateNanos[L])
      Empty &= N == 0;
    if (L + 1 == StateNanos.size() && Empty)
      continue;
    json::Value J = json::Value::object();
    J.set("level", json::Value(uint64_t(L)));
    json::Value States = json::Value::object();
    for (unsigned S = 0; S < 4; ++S)
      States.set(workerStateName(static_cast<WorkerState>(S)),
                 json::Value(StateNanos[L][S]));
    J.set("state_nanos", std::move(States));
    Ls.push(std::move(J));
  }
  Out.set("levels", std::move(Ls));
  json::Value Fs = json::Value::array();
  for (const auto &[Stack, Count] : Folded) {
    json::Value J = json::Value::object();
    J.set("stack", json::Value(Stack));
    J.set("count", json::Value(Count));
    Fs.push(std::move(J));
  }
  Out.set("folded", std::move(Fs));
  return Out;
}

std::string Health::profileFolded() const {
  std::lock_guard<std::mutex> Lock(StateMutex);
  std::string Out;
  for (const auto &[Stack, Count] : Folded) {
    Out += Stack;
    Out += ' ';
    Out += std::to_string(Count);
    Out += '\n';
  }
  return Out;
}

} // namespace repro::icilk
