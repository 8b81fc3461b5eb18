//===- conc/Backoff.h - Exponential backoff for spin loops ------*- C++ -*-===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#ifndef REPRO_CONC_BACKOFF_H
#define REPRO_CONC_BACKOFF_H

#include <cstdint>
#include <thread>

namespace repro::conc {

/// Exponential backoff: spin a growing number of pause iterations, then
/// start yielding to the OS. Used by retry loops in the lock-free
/// structures and by the short waits around them (a future's spinlock, a
/// full injection ring, drain). Idle workers never spin: they park.
class Backoff {
public:
  /// One wait, longer than the last (up to a yield).
  void pause() {
    if (Spins <= MaxSpins) {
      for (uint32_t I = 0; I < Spins; ++I)
        cpuRelax();
      Spins *= 2;
    } else {
      std::this_thread::yield();
    }
  }

  /// Resets to the shortest wait.
  void reset() { Spins = 1; }

  /// True once pause() has escalated to yielding.
  bool isYielding() const { return Spins > MaxSpins; }

private:
  static void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }

  static constexpr uint32_t MaxSpins = 1024;
  uint32_t Spins = 1;
};

/// Capped exponential backoff *delays* with jitter, for retry loops that
/// wait out failures measured in microseconds-to-milliseconds (I/O
/// retries) rather than spin on a cache line. Produces base·2^(n-1) for
/// the n-th retry, capped, with each delay jittered uniformly in
/// [delay/2, delay] (decorrelates retry storms after a correlated
/// failure). Deterministic per seed; holds no clock — the caller sleeps
/// however fits its context (e.g. an IoService timer future, so a worker
/// is never parked).
class RetryBackoff {
public:
  RetryBackoff(uint64_t BaseMicros, uint64_t CapMicros, uint64_t Seed = 1)
      : BaseMicros(BaseMicros ? BaseMicros : 1),
        CapMicros(CapMicros), JitterState(Seed | 1) {}

  /// Delay before the next retry; grows exponentially per call.
  uint64_t nextDelayMicros() {
    uint64_t Delay = BaseMicros;
    for (unsigned I = 0; I < Attempts && Delay < CapMicros; ++I)
      Delay *= 2;
    Delay = Delay < CapMicros ? Delay : CapMicros;
    ++Attempts;
    // xorshift64* jitter — self-contained so conc stays dependency-free.
    JitterState ^= JitterState >> 12;
    JitterState ^= JitterState << 25;
    JitterState ^= JitterState >> 27;
    uint64_t R = JitterState * 0x2545F4914F6CDD1DULL;
    return Delay / 2 + R % (Delay / 2 + 1);
  }

  /// Retries drawn so far.
  unsigned attempts() const { return Attempts; }

  void reset() { Attempts = 0; }

private:
  uint64_t BaseMicros;
  uint64_t CapMicros;
  uint64_t JitterState;
  unsigned Attempts = 0;
};

} // namespace repro::conc

#endif // REPRO_CONC_BACKOFF_H
