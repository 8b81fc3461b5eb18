//===- apps/Email.cpp - The multi-user email-client case study ---------------===//

#include "apps/Email.h"

#include "apps/Huffman.h"
#include "conc/Backoff.h"
#include "icilk/SimIo.h"
#include "support/Logging.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

namespace repro::apps {

namespace {

using icilk::Context;
using WorkState = icilk::FutureState<int>;
using WorkStatePtr = std::shared_ptr<WorkState>;

/// One stored email. Body/Blob are protected not by a lock but by the
/// slot protocol: every mutator first exchanges its own handle into Slot
/// and ftouches the previous occupant, so accesses are serialized by the
/// future chain (the paper's compress/print pseudo-code).
struct Email {
  std::string Body;
  HuffmanBlob Blob;
  /// Atomic only for the check loop's unsynchronized scan; mutations are
  /// serialized by the slot protocol.
  std::atomic<int> State{Decompressed};
  std::size_t OriginalBytes = 0;
  std::atomic<std::shared_ptr<WorkState>> Slot{nullptr};
};

struct Mailbox {
  std::vector<std::unique_ptr<Email>> Emails;
  std::mutex SortMutex;                 ///< guards SortedIndex rebuilds
  std::vector<std::size_t> SortedIndex; ///< rebuilt by sort requests
  std::atomic<uint64_t> SortEpoch{0};
};

struct EmailServer {
  explicit EmailServer(const EmailConfig &Config)
      : Config(Config), Rt(Config.Rt) {
    if (Config.Faults.enabled()) {
      Faults = std::make_shared<icilk::FaultPlan>(Config.FaultSeed,
                                                  Config.Faults);
      Io.setFaultPlan(Faults);
    }
    Rt.setTrace(Config.Trace); // before the first spawn, so ids line up
    if (Config.Admission.Enabled)
      Admission = std::make_unique<icilk::AdmissionController>(
          Rt, Config.Admission.Config, &Io);
  }

  /// Records one request's arrival → final reply time.
  void noteEndToEnd(uint64_t ArrivalMicros) {
    double Micros = static_cast<double>(repro::nowMicros() - ArrivalMicros);
    std::lock_guard<std::mutex> Lock(EndToEndMutex);
    EndToEnd.record(Micros);
  }

  const EmailConfig &Config;
  icilk::Runtime Rt;
  icilk::SimIo Io{"email.io"};
  std::shared_ptr<icilk::FaultPlan> Faults;
  std::vector<Mailbox> Boxes;
  std::mutex EndToEndMutex; ///< guards EndToEnd
  repro::LatencyHistogram EndToEnd;
  std::atomic<uint64_t> Sends{0}, Sorts{0}, Prints{0}, Compressions{0};
  std::atomic<uint64_t> SlotConflicts{0}, BytesSaved{0}, Requests{0};
  std::atomic<uint64_t> SendFailures{0}, PrintFailures{0}, Retries{0};
  std::atomic<bool> StopCheck{false};
  /// Declared last: destroyed before Rt and Io, while both still live.
  std::unique_ptr<icilk::AdmissionController> Admission;
};

/// Touches the previous slot occupant's future, tolerating an erroneous
/// completion: a failed print must not poison the next print/compress of
/// the same email, so on error the email's stored state is the truth.
int touchSlotPrev(EmailServer &S, Context<EmailWork> &Ctx, Email &E,
                  const WorkStatePtr &Prev) {
  if (!Prev->isReady())
    S.SlotConflicts.fetch_add(1, std::memory_order_relaxed);
  // The handle reached us through the slot — untracked mutable state — so
  // the structural trace cannot see how we came to know about its
  // producer. Reify the flow as a happens-before note (the runtime
  // analogue of the calculus's weak edges, see Trace.h) or the lifted
  // graph fails the knows-about condition of Definition 4.
  if (icilk::TraceRecorder *Tr = Ctx.runtime().trace())
    if (Prev->producerTraceId() != 0)
      if (icilk::Task *Cur = icilk::Task::current())
        Tr->noteHappensBefore(Prev->producerTraceId(), Cur->traceId());
  try {
    return Ctx.ftouch(icilk::Future<EmailWork, int>(Prev));
  } catch (const icilk::IoError &) {
    return E.State.load(std::memory_order_relaxed);
  }
}

/// The paper's compress function: exchange own handle into the slot, wait
/// out any in-flight print/compress, then compress if still needed.
int compressEmail(EmailServer &S, Context<EmailWork> &Ctx, Email &E,
                  const icilk::Future<EmailWork, int> &Self) {
  WorkStatePtr Prev = E.Slot.exchange(Self.state());
  int State = Prev ? touchSlotPrev(S, Ctx, E, Prev)
                   : E.State.load(std::memory_order_relaxed);
  if (State == Decompressed && !E.Body.empty()) {
    E.Blob = huffmanCompress(E.Body);
    if (E.Blob.compressedBytes() < E.Body.size())
      S.BytesSaved.fetch_add(E.Body.size() - E.Blob.compressedBytes(),
                             std::memory_order_relaxed);
    E.Body.clear();
    E.State.store(Compressed, std::memory_order_relaxed);
    S.Compressions.fetch_add(1, std::memory_order_relaxed);
  }
  return Compressed;
}

/// Print: same slot protocol; decompresses a copy for the printer without
/// changing the stored state.
int printEmail(EmailServer &S, Context<EmailWork> &Ctx, Email &E,
               const icilk::Future<EmailWork, int> &Self) {
  WorkStatePtr Prev = E.Slot.exchange(Self.state());
  int State = E.State.load(std::memory_order_relaxed);
  if (Prev)
    State = touchSlotPrev(S, Ctx, E, Prev);
  std::string PageData;
  if (State == Compressed) {
    auto Restored = huffmanDecompress(E.Blob);
    PageData = Restored ? std::move(*Restored) : std::string();
  } else {
    PageData = E.Body;
  }
  auto Printer = S.Io.simWrite<EmailWork>(S.Config.PrinterLatencyMicros,
                                       static_cast<long>(PageData.size()));
  try {
    Ctx.ftouch(Printer);
    S.Prints.fetch_add(1, std::memory_order_relaxed);
  } catch (const icilk::IoError &E2) {
    S.PrintFailures.fetch_add(1, std::memory_order_relaxed);
    repro::log(repro::LogLevel::Warn) << "print failed: " << E2.what();
  }
  return State; // printing leaves the email's state unchanged
}

/// Send (EmailSend): reads only immutable metadata plus a network write.
/// A failed wire write is retried with jittered backoff; a send that still
/// fails is *surfaced* — counted, logged — rather than silently dropped.
void sendEmail(EmailServer &S, Context<EmailSend> &Ctx, Mailbox &Box,
               std::size_t Index, uint64_t ArrivalMicros) {
  const Email &E = *Box.Emails[Index];
  conc::RetryBackoff Backoff(S.Config.RetryBaseDelayMicros,
                             /*CapMicros=*/S.Config.SendLatencyMicros * 4,
                             /*Seed=*/ArrivalMicros ^ Index);
  for (unsigned Attempt = 0;; ++Attempt) {
    auto Wire = S.Io.simWrite<EmailSend>(S.Config.SendLatencyMicros,
                                      static_cast<long>(E.OriginalBytes));
    try {
      Ctx.ftouch(Wire);
      S.Sends.fetch_add(1, std::memory_order_relaxed);
      break;
    } catch (const icilk::IoError &E2) {
      if (Attempt >= S.Config.SendRetries) {
        S.SendFailures.fetch_add(1, std::memory_order_relaxed);
        repro::log(repro::LogLevel::Warn)
            << "send failed after " << Attempt << " retries: " << E2.what();
        break;
      }
      S.Retries.fetch_add(1, std::memory_order_relaxed);
      Ctx.ftouch(S.Io.sleepFor<EmailSend>(Backoff.nextDelayMicros()));
    }
  }
  repro::spinFor(60); // envelope bookkeeping
  S.noteEndToEnd(ArrivalMicros);
}

/// Sort (EmailSort): rebuilds the mailbox index ordered by size.
void sortMailbox(EmailServer &S, Context<EmailSort> &, Mailbox &Box,
                 uint64_t ArrivalMicros) {
  std::vector<std::size_t> Index(Box.Emails.size());
  for (std::size_t I = 0; I < Index.size(); ++I)
    Index[I] = I;
  std::sort(Index.begin(), Index.end(), [&Box](std::size_t A, std::size_t B) {
    return Box.Emails[A]->OriginalBytes < Box.Emails[B]->OriginalBytes;
  });
  repro::spinFor(40 * Box.Emails.size()); // comparison-heavy rendering
  {
    std::lock_guard<std::mutex> Lock(Box.SortMutex);
    Box.SortedIndex = std::move(Index);
  }
  Box.SortEpoch.fetch_add(1, std::memory_order_release);
  S.Sorts.fetch_add(1, std::memory_order_relaxed);
  S.noteEndToEnd(ArrivalMicros);
}

/// Background check (EmailCheck): periodically fires compression of the
/// largest uncompressed emails.
void checkLoop(EmailServer &S, Context<EmailCheck> &Ctx, repro::Rng Rng) {
  if (S.StopCheck.load(std::memory_order_acquire))
    return;
  // A pure timer: never fault-injected, so the check loop survives any plan.
  Ctx.ftouch(S.Io.sleepFor<EmailCheck>(S.Config.CheckPeriodMicros));
  // Pick a user and compress a batch of their uncompressed emails.
  Mailbox &Box = S.Boxes[Rng.nextBelow(S.Boxes.size())];
  unsigned Fired = 0;
  for (auto &EPtr : Box.Emails) {
    Email &E = *EPtr;
    if (E.State.load(std::memory_order_relaxed) == Compressed)
      continue;
    icilk::fcreateSelf<EmailWork, int>(
        S.Rt, [&S, &E](Context<EmailWork> &C,
                       const icilk::Future<EmailWork, int> &Self) {
          return compressEmail(S, C, E, Self);
        });
    if (++Fired >= S.Config.CompressBatch)
      break;
  }
  if (!S.StopCheck.load(std::memory_order_acquire))
    Ctx.fcreate<EmailCheck>([&S, Rng](Context<EmailCheck> &C) mutable {
      checkLoop(S, C, Rng.split());
    });
}

/// Event loop: dispatches one user request. Normally runs at EmailLoop;
/// an admission-degraded arrival runs the same body at EmailSend (its
/// send delegate is then a same-level fcreate, which the Touch rule
/// allows — only waiting *upward* is an inversion).
template <typename Prio>
void handleRequest(EmailServer &S, Context<Prio> &Ctx, std::size_t User,
                   unsigned Kind, std::size_t EmailIndex,
                   uint64_t ArrivalMicros) {
  S.Requests.fetch_add(1, std::memory_order_relaxed);
  repro::spinFor(S.Config.HandleComputeMicros);
  Mailbox &Box = S.Boxes[User];
  switch (Kind % 3) {
  case 0: // send
    Ctx.template fcreate<EmailSend>(
        [&S, &Box, EmailIndex, ArrivalMicros](Context<EmailSend> &C) {
          sendEmail(S, C, Box, EmailIndex, ArrivalMicros);
        });
    break;
  case 1: // sort
    Ctx.template fcreate<EmailSort>(
        [&S, &Box, ArrivalMicros](Context<EmailSort> &C) {
          sortMailbox(S, C, Box, ArrivalMicros);
        });
    break;
  default: { // print
    Email &E = *Box.Emails[EmailIndex];
    icilk::fcreateSelf<EmailWork, int>(
        S.Rt, [&S, &E, ArrivalMicros](Context<EmailWork> &C,
                                      const icilk::Future<EmailWork, int> &Self) {
          int State = printEmail(S, C, E, Self);
          S.noteEndToEnd(ArrivalMicros);
          return State;
        });
    break;
  }
  }
}

} // namespace

EmailReport runEmail(const EmailConfig &Config) {
  EmailServer S(Config);
  TelemetryScope Telemetry(S.Rt, Config.TelemetryPort, Config.TelemetryPortOut,
                           Config.Metrics, &S.Io, Config.Slos);
  repro::Rng DriverRng(Config.Seed);

  // Populate mailboxes (EmailMain would do this at startup).
  S.Boxes = std::vector<Mailbox>(Config.Users);
  {
    repro::Rng ContentRng = DriverRng.split();
    for (Mailbox &Box : S.Boxes)
      for (unsigned I = 0; I < Config.EmailsPerUser; ++I) {
        auto E = std::make_unique<Email>();
        E->Body = randomText(
            Config.EmailBytes / 2 +
                ContentRng.nextBelow(Config.EmailBytes), // varied sizes
            ContentRng);
        E->OriginalBytes = E->Body.size();
        Box.Emails.push_back(std::move(E));
      }
  }

  // Background check loop.
  icilk::fcreate<EmailCheck>(S.Rt, [&S, R = DriverRng.split()](
                                       Context<EmailCheck> &C) mutable {
    checkLoop(S, C, R.split());
  });

  // Drive user requests.
  uint64_t Epoch = repro::nowMicros();
  uint64_t Horizon = Config.DurationMillis * 1000;
  PoissonArrivals Arrivals(Config.Users, Config.RequestIntervalMicros,
                           DriverRng);
  repro::Rng PickRng = DriverRng.split();
  while (true) {
    auto Ev = Arrivals.next();
    if (Ev.AtMicros >= Horizon)
      break;
    sleepUntilMicros(Epoch, Ev.AtMicros);
    std::size_t User = Ev.Source;
    auto Kind = static_cast<unsigned>(PickRng.nextBelow(3));
    std::size_t EmailIndex = PickRng.nextBelow(Config.EmailsPerUser);
    uint64_t Arrival = repro::nowMicros();
    auto SubmitLoop = [&S, User, Kind, EmailIndex, Arrival](unsigned Level) {
      // Level 5 (requested) runs the event loop proper; any degraded
      // level runs the same body at send urgency.
      if (Level >= 5)
        icilk::fcreate<EmailLoop>(
            S.Rt,
            [&S, User, Kind, EmailIndex, Arrival](Context<EmailLoop> &C) {
              handleRequest(S, C, User, Kind, EmailIndex, Arrival);
            });
      else
        icilk::fcreate<EmailSend>(
            S.Rt,
            [&S, User, Kind, EmailIndex, Arrival](Context<EmailSend> &C) {
              handleRequest(S, C, User, Kind, EmailIndex, Arrival);
            });
    };
    if (S.Admission)
      S.Admission->offer(5, SubmitLoop);
    else
      SubmitLoop(5);
  }

  S.StopCheck.store(true, std::memory_order_release);
  if (S.Admission)
    S.Admission->quiesce();
  S.Rt.drain();
  // EmailMain: shutdown pass.
  auto Shutdown = icilk::fcreate<EmailMain>(S.Rt, [&S](Context<EmailMain> &) {
    repro::spinFor(300);
    return static_cast<int>(S.Compressions.load());
  });
  icilk::touchFromOutside(S.Rt, Shutdown);
  S.Rt.drain();

  double WallMillis = static_cast<double>(repro::nowMicros() - Epoch) / 1000.0;
  EmailReport Report;
  Report.App = collectReport(
      S.Rt, {"main", "check", "work", "sort", "send", "loop"}, WallMillis);
  {
    std::lock_guard<std::mutex> Lock(S.EndToEndMutex);
    Report.App.EndToEnd = S.EndToEnd.summary();
  }
  Report.App.Requests = S.Requests.load();
  Report.Sends = S.Sends.load();
  Report.Sorts = S.Sorts.load();
  Report.Prints = S.Prints.load();
  Report.Compressions = S.Compressions.load();
  Report.SlotConflicts = S.SlotConflicts.load();
  Report.BytesSaved = S.BytesSaved.load();
  Report.SendFailures = S.SendFailures.load();
  Report.PrintFailures = S.PrintFailures.load();
  Report.Retries = S.Retries.load();
  if (S.Admission)
    Report.Admission = S.Admission->sampleAdmission();
  if (repro::MetricsRegistry *M = Config.Metrics) {
    sampleAppMetrics(M, S.Rt, &S.Io, Report.App, "email");
    M->counter("email.admission.shed").set(Report.Admission.Shed);
    M->counter("email.sends").set(Report.Sends);
    M->counter("email.sorts").set(Report.Sorts);
    M->counter("email.prints").set(Report.Prints);
    M->counter("email.compressions").set(Report.Compressions);
    M->counter("email.slot_conflicts").set(Report.SlotConflicts);
    M->counter("email.bytes_saved").set(Report.BytesSaved);
    M->counter("email.send_failures").set(Report.SendFailures);
    M->counter("email.retries").set(Report.Retries);
  }
  return Report;
}

} // namespace repro::apps
