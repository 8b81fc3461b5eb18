//===- icilk/Admission.cpp - Closed-loop overload admission control ---------===//

#include "icilk/Admission.h"

#include "icilk/SimIo.h"
#include "icilk/SpanStore.h"
#include "support/Logging.h"
#include "support/Timer.h"

#include <algorithm>

namespace repro::icilk {

AdmissionController::AdmissionController(Runtime &Rt, AdmissionConfig Cfg,
                                         icilk::Io *IoIn)
    : Rt(Rt), Config(std::move(Cfg)), Io(IoIn) {
  if (!Io) {
    // A private timer backend just for queue-timeout sweeps; the sim
    // backend is the cheapest thing with a deadline heap.
    OwnedIo = std::make_unique<SimIo>("admission.io");
    Io = OwnedIo.get();
  }
  const unsigned NumLevels = Rt.config().NumLevels;
  Levels.resize(NumLevels);
  for (Level &L : Levels) {
    L.RatePerSec = Config.InitialRatePerSec;
    L.Tokens = Config.BurstTokens;
  }
  WindowP99.assign(NumLevels, 0.0);
  WindowCount.assign(NumLevels, 0);
  for (unsigned L = 0; L < NumLevels; ++L)
    Windows.push_back(std::make_unique<repro::LatencyWindows>(
        Config.WindowEpochs, Rt.latency(L, LatencyKind::Response)));
  LastRefillMicros = repro::nowMicros();
  LastRotateMicros = LastRefillMicros;
  LastInjectionSpins = Rt.snapshot().InjectionFullSpins;
  Gate = std::make_shared<SweepGate>();
  Gate->Owner = this;
  Rt.setAdmission(this);
  Controller = std::thread([this] { controllerLoop(); });
}

AdmissionController::~AdmissionController() {
  // Detach from the runtime first: after this line no new snapshot()
  // embeds this controller's counters. A reader already inside
  // sampleAdmission() is not fenced off — the owner must stop its stats
  // readers (a Telemetry's health watcher, say) before destroying us.
  if (Rt.admission() == this)
    Rt.setAdmission(nullptr);
  // Close the sweep gate before anything else dies: a queue-timeout sweep
  // still sitting on the deadline heap (ours or a borrowed service's)
  // becomes a no-op instead of a use-after-free.
  {
    std::lock_guard<std::mutex> Lock(Gate->M);
    Gate->Owner = nullptr;
  }
  stop();
  OwnedIo.reset(); // joins the private timer thread, if any
}

void AdmissionController::stop() {
  {
    std::lock_guard<std::mutex> Lock(ControllerMutex);
    if (StopFlag)
      return;
    StopFlag = true;
  }
  ControllerCv.notify_all();
  if (Controller.joinable())
    Controller.join();
  // Shed whatever is still queued: the submit callbacks must never run
  // once the controller stopped (their captures may be going away).
  std::lock_guard<std::mutex> Lock(Mutex);
  SpanStore *Spans = Rt.spans();
  for (Level &L : Levels) {
    L.Rejected += L.Queue.size();
    if (Spans)
      for (const Entry &E : L.Queue)
        if (E.Span.valid()) {
          Spans->addEvent(E.Span, SpanEventKind::Reject, E.OriginalLevel,
                          E.Level);
          Spans->noteFlags(E.Span, TfShed);
        }
    L.Queue.clear();
  }
  QuiesceCv.notify_all();
}

bool AdmissionController::takeTokenLocked(Level &L) {
  if (L.RatePerSec <= 0)
    return true; // unlimited
  if (L.Tokens >= 1.0) {
    L.Tokens -= 1.0;
    return true;
  }
  return false;
}

AdmitResult AdmissionController::offer(unsigned LevelIdx, SubmitFn Submit) {
  if (LevelIdx >= Levels.size())
    LevelIdx = static_cast<unsigned>(Levels.size()) - 1;
  uint64_t Now = repro::nowMicros();
  // The offering thread's active span, if any: every decision below is
  // recorded on it (Arg0 = offered level, Arg1 = level it runs at).
  SpanContext Span = span::current();
  SpanStore *Spans = Span.valid() ? Rt.spans() : nullptr;
  bool Stopped;
  {
    std::lock_guard<std::mutex> Lock(ControllerMutex);
    Stopped = StopFlag;
  }
  if (Stopped) {
    // Fail open: a stopped controller must not strand the workload.
    Submit(LevelIdx);
    return AdmitResult::Admitted;
  }

  std::unique_lock<std::mutex> Lock(Mutex);
  Level &L = Levels[LevelIdx];
  ++L.Offered;
  ++L.OfferedThisTick;

  // Fast path: nothing queued ahead and a token available — submit inline
  // on the offering thread, no queue latency at all.
  if (L.Queue.empty() && takeTokenLocked(L)) {
    ++L.Admitted;
    Lock.unlock();
    if (Spans)
      Spans->addEvent(Span, SpanEventKind::Admit, LevelIdx, LevelIdx);
    Submit(LevelIdx);
    return AdmitResult::Admitted;
  }

  auto enqueueAt = [&](unsigned At, unsigned Original) {
    Entry E;
    E.Submit = std::move(Submit);
    E.Level = At;
    E.OriginalLevel = Original;
    E.EnqueuedMicros = Now;
    E.DeadlineMicros =
        Config.QueueTimeoutMicros ? Now + Config.QueueTimeoutMicros : 0;
    E.Span = Span;
    Levels[At].Queue.push_back(std::move(E));
    armTimeoutSweepLocked(Now);
  };

  if (L.Queue.size() < Config.QueueCap) {
    enqueueAt(LevelIdx, LevelIdx);
    Lock.unlock();
    if (Spans)
      Spans->addEvent(Span, SpanEventKind::Enqueue, LevelIdx, LevelIdx);
    return AdmitResult::Enqueued;
  }

  // Queue full: degrade downward to the first level with room (the
  // request is still served, at background urgency), else reject.
  if (Config.AllowDegrade) {
    for (unsigned Down = LevelIdx; Down-- > 0;) {
      if (Levels[Down].Queue.size() < Config.QueueCap) {
        ++L.Degraded;
        // A degraded arrival may even go straight through if the lower
        // level is idle — it still counts as Degraded for the caller.
        if (Levels[Down].Queue.empty() && takeTokenLocked(Levels[Down])) {
          ++Levels[Down].Admitted;
          Lock.unlock();
          if (Spans) {
            Spans->addEvent(Span, SpanEventKind::Degrade, LevelIdx, Down);
            Spans->noteFlags(Span, TfDegraded);
          }
          Submit(Down);
          return AdmitResult::Degraded;
        }
        enqueueAt(Down, LevelIdx);
        Lock.unlock();
        if (Spans) {
          Spans->addEvent(Span, SpanEventKind::Degrade, LevelIdx, Down);
          Spans->noteFlags(Span, TfDegraded);
        }
        return AdmitResult::Degraded;
      }
    }
  }
  ++L.Rejected;
  Lock.unlock();
  if (Spans) {
    Spans->addEvent(Span, SpanEventKind::Reject, LevelIdx, LevelIdx);
    Spans->noteFlags(Span, TfShed);
  }
  return AdmitResult::Rejected;
}

void AdmissionController::armTimeoutSweepLocked(uint64_t NowMicros) {
  if (!Config.QueueTimeoutMicros)
    return;
  uint64_t Earliest = 0;
  for (const Level &L : Levels)
    if (!L.Queue.empty()) {
      uint64_t D = L.Queue.front().DeadlineMicros;
      if (D && (!Earliest || D < Earliest))
        Earliest = D;
    }
  if (!Earliest)
    return;
  if (ArmedSweepMicros && ArmedSweepMicros <= Earliest)
    return; // an armed sweep already fires in time
  ArmedSweepMicros = Earliest;
  uint64_t Delay = Earliest > NowMicros ? Earliest - NowMicros : 1;
  // The sweep rides the IoService deadline heap; the gate makes a sweep
  // that outlives the controller harmless.
  std::shared_ptr<SweepGate> G = Gate;
  Io->submitTimer(Delay, [G] {
    std::lock_guard<std::mutex> Lock(G->M);
    if (G->Owner)
      G->Owner->onSweepTimer();
  });
}

void AdmissionController::onSweepTimer() {
  uint64_t Now = repro::nowMicros();
  bool AllEmpty;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ArmedSweepMicros = 0;
    sweepTimeoutsLocked(Now);
    armTimeoutSweepLocked(Now);
    AllEmpty = true;
    for (const Level &L : Levels)
      AllEmpty = AllEmpty && L.Queue.empty();
  }
  if (AllEmpty)
    QuiesceCv.notify_all();
}

std::size_t AdmissionController::sweepTimeoutsLocked(uint64_t NowMicros) {
  std::size_t Expired = 0;
  SpanStore *Spans = Rt.spans();
  for (Level &L : Levels) {
    while (!L.Queue.empty() && L.Queue.front().DeadlineMicros &&
           L.Queue.front().DeadlineMicros <= NowMicros) {
      ++L.TimedOut;
      ++Expired;
      const Entry &E = L.Queue.front();
      if (Spans && E.Span.valid()) {
        Spans->addEvent(E.Span, SpanEventKind::QueueTimeout, E.OriginalLevel,
                        E.Level);
        Spans->noteFlags(E.Span, TfShed);
      }
      L.Queue.pop_front();
    }
  }
  return Expired;
}

std::vector<AdmissionController::Entry>
AdmissionController::drainLocked(uint64_t NowMicros) {
  std::vector<Entry> Out;
  for (std::size_t I = Levels.size(); I-- > 0;) { // highest level first
    Level &L = Levels[I];
    while (!L.Queue.empty() && takeTokenLocked(L)) {
      Entry E = std::move(L.Queue.front());
      L.Queue.pop_front();
      if (E.DeadlineMicros && E.DeadlineMicros <= NowMicros) {
        ++L.TimedOut; // expired between sweeps; shed, do not submit
        if (E.Span.valid())
          if (SpanStore *Spans = Rt.spans()) {
            Spans->addEvent(E.Span, SpanEventKind::QueueTimeout,
                            E.OriginalLevel, E.Level);
            Spans->noteFlags(E.Span, TfShed);
          }
        continue;
      }
      ++L.Admitted;
      QueueDelay.record(static_cast<double>(NowMicros - E.EnqueuedMicros));
      Out.push_back(std::move(E));
    }
  }
  return Out;
}

void AdmissionController::readWindows() {
  uint64_t Now = repro::nowMicros();
  const uint64_t EpochMicros = Config.EpochMillis * 1000;
  uint64_t Passed = (Now - LastRotateMicros) / EpochMicros;
  LastRotateMicros += Passed * EpochMicros;
  std::vector<double> P99(Levels.size(), 0.0);
  std::vector<uint64_t> Count(Levels.size(), 0);
  for (unsigned L = 0; L < Levels.size(); ++L) {
    repro::LatencyHistogram Cumulative = Rt.latency(L, LatencyKind::Response);
    if (Passed)
      Windows[L]->rotate(Cumulative, Passed);
    repro::LatencyHistogram W = Windows[L]->window(Cumulative);
    P99[L] = W.quantile(0.99);
    Count[L] = W.count();
  }
  std::lock_guard<std::mutex> Lock(Mutex);
  WindowP99 = std::move(P99);
  WindowCount = std::move(Count);
}

void AdmissionController::adaptLocked(uint64_t InjectionDelta,
                                      int64_t TotalPending,
                                      uint64_t NowMicros) {
  // The protected level: the highest level currently seeing traffic. The
  // controller never clamps it — its responsiveness is what everything
  // below is sacrificed for.
  unsigned Top = 0;
  for (unsigned L = 0; L < Levels.size(); ++L)
    if (WindowCount[L] > 0 || !Levels[L].Queue.empty() ||
        Levels[L].OfferedThisTick > 0)
      Top = L;

  bool Overloaded = InjectionDelta > 0 ||
                    TotalPending > Config.PendingHighWatermark ||
                    WindowP99[Top] > Config.TargetP99Micros;

  if (Overloaded) {
    HealthyStreak = 0;
    // Deepen the clamp by one level per tick (never into Top), and keep
    // tightening the levels already clamped.
    if (ClampDepth < Top)
      ++ClampDepth;
    for (unsigned L = 0; L < ClampDepth; ++L) {
      Level &Lv = Levels[L];
      if (Lv.RatePerSec <= 0) {
        double Anchor = std::max(Lv.ObservedOfferRate, Config.MinRatePerSec);
        Lv.RatePerSec =
            std::max(Config.MinRatePerSec, Anchor * Config.FirstClampFactor);
        Lv.Tokens = std::min(Lv.Tokens, Config.BurstTokens);
        Lv.ClampedSinceMicros = NowMicros;
      } else {
        if (Lv.ClampedSinceMicros == 0)
          Lv.ClampedSinceMicros = NowMicros; // config-seeded rate tightened
                                             // by the controller: the clamp
                                             // episode starts now
        Lv.RatePerSec =
            std::max(Config.MinRatePerSec, Lv.RatePerSec * Config.Decrease);
      }
    }
    return;
  }

  if (++HealthyStreak < Config.HealthyTicks)
    return;
  // Recover: widen every clamped level; unclamp (from the highest clamped
  // level down) once its rate comfortably exceeds what is being offered —
  // there is nothing left to shed there.
  for (unsigned L = 0; L < ClampDepth; ++L) {
    Level &Lv = Levels[L];
    if (Lv.RatePerSec > 0)
      Lv.RatePerSec *= Config.Increase;
  }
  while (ClampDepth > 0) {
    Level &Lv = Levels[ClampDepth - 1];
    if (Lv.RatePerSec > 0 &&
        Lv.RatePerSec < 2.0 * std::max(Lv.ObservedOfferRate,
                                       Config.MinRatePerSec))
      break;
    Lv.RatePerSec = Config.InitialRatePerSec;
    Lv.ClampedSinceMicros = 0;
    --ClampDepth;
  }
}

void AdmissionController::tick() {
  // Inputs gathered with no lock held: snapshot() calls back into
  // sampleAdmission(), which takes Mutex.
  readWindows();
  RuntimeSnapshot S = Rt.snapshot();
  uint64_t InjectionDelta = S.InjectionFullSpins - LastInjectionSpins;
  LastInjectionSpins = S.InjectionFullSpins;

  uint64_t Now = repro::nowMicros();
  std::vector<Entry> Ready;
  bool AllEmpty;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    double Dt =
        static_cast<double>(Now - LastRefillMicros) / 1e6;
    LastRefillMicros = Now;
    for (Level &L : Levels) {
      if (L.RatePerSec > 0)
        L.Tokens =
            std::min(Config.BurstTokens, L.Tokens + L.RatePerSec * Dt);
      // Offer-rate EMA over the tick, the anchor for first clamps.
      double TickRate = Dt > 0 ? static_cast<double>(L.OfferedThisTick) / Dt
                               : 0.0;
      L.ObservedOfferRate = 0.7 * L.ObservedOfferRate + 0.3 * TickRate;
    }
    adaptLocked(InjectionDelta, S.totalPending(), Now);
    // Reset only after adaptation: OfferedThisTick is one of its
    // top-level-detection signals.
    for (Level &L : Levels)
      L.OfferedThisTick = 0;
    sweepTimeoutsLocked(Now);
    Ready = drainLocked(Now);
    armTimeoutSweepLocked(Now);
    AllEmpty = true;
    for (const Level &L : Levels)
      AllEmpty = AllEmpty && L.Queue.empty();
  }
  for (Entry &E : Ready) {
    if (E.Span.valid())
      if (SpanStore *Spans = Rt.spans())
        Spans->addEvent(E.Span, SpanEventKind::Admit, E.OriginalLevel,
                        E.Level);
    E.Submit(E.Level);
  }
  if (AllEmpty)
    QuiesceCv.notify_all();
}

void AdmissionController::controllerLoop() {
  std::unique_lock<std::mutex> Lock(ControllerMutex);
  while (!StopFlag) {
    ControllerCv.wait_for(Lock,
                          std::chrono::milliseconds(Config.ControlIntervalMillis),
                          [this] { return StopFlag; });
    if (StopFlag)
      return;
    Lock.unlock();
    tick();
    Lock.lock();
  }
}

bool AdmissionController::quiesce() {
  std::unique_lock<std::mutex> Lock(Mutex);
  return QuiesceCv.wait_for(Lock, std::chrono::seconds(10), [this] {
    for (const Level &L : Levels)
      if (!L.Queue.empty())
        return false;
    return true;
  });
}

AdmissionSample AdmissionController::sampleAdmission() const {
  AdmissionSample S;
  S.Attached = true;
  uint64_t Now = repro::nowMicros();
  std::lock_guard<std::mutex> Lock(Mutex);
  S.QueueDelayCount = QueueDelay.count();
  S.QueueDelayP99Micros = QueueDelay.quantile(0.99);
  S.Levels.reserve(Levels.size());
  for (unsigned L = 0; L < Levels.size(); ++L) {
    const Level &Lv = Levels[L];
    AdmissionLevelSample LS;
    LS.Offered = Lv.Offered;
    LS.Admitted = Lv.Admitted;
    LS.Degraded = Lv.Degraded;
    LS.Rejected = Lv.Rejected;
    LS.TimedOut = Lv.TimedOut;
    LS.Queued = static_cast<int64_t>(Lv.Queue.size());
    LS.RatePerSec = Lv.RatePerSec;
    LS.WindowP99Micros = WindowP99[L];
    LS.ObservedOfferRatePerSec = Lv.ObservedOfferRate;
    LS.ClampedForMicros =
        Lv.ClampedSinceMicros > 0 && Now > Lv.ClampedSinceMicros
            ? Now - Lv.ClampedSinceMicros
            : 0;
    S.Shed += Lv.Rejected + Lv.TimedOut;
    if (Lv.RatePerSec > 0)
      ++S.ClampedLevels;
    S.Levels.push_back(LS);
  }
  return S;
}

} // namespace repro::icilk
