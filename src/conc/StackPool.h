//===- conc/StackPool.h - Pooled fixed-size fiber stacks --------*- C++ -*-===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// Every first dispatch of a fiber-backed task needs a stack. Allocating
// one per task is the single most expensive step of the spawn hot path:
// `std::make_unique<char[]>` value-initializes, so the old runtime paid a
// 256 KiB memset (1 MiB under TSan) per task on top of the allocation
// itself. This pool allocates a stack once (`new char[]`, deliberately
// uninitialized — a fresh fiber never reads its stack before writing) and
// recycles it:
//
//  * acquire/release go through a small per-worker cache first — no
//    synchronization at all on the common same-worker churn path;
//  * a mutex-guarded global list handles cross-worker frees (a task can
//    finish on a different worker than it started on) and refills caches
//    that run dry — the cold path, and its memory is the stacks alone;
//  * under AddressSanitizer the free-listed bytes are poisoned, so a
//    dangling fiber pointer into a recycled stack trips ASan instead of
//    silently reading a stranger's frames.
//
// The pool does not touch ThreadSanitizer fiber handles: those belong to
// the task layer, which destroys its __tsan fiber on recycle and creates a
// fresh one per first dispatch (see icilk/Task).
//
//===----------------------------------------------------------------------===//

#ifndef REPRO_CONC_STACKPOOL_H
#define REPRO_CONC_STACKPOOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define REPRO_STACKPOOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define REPRO_STACKPOOL_ASAN 1
#endif
#endif
#ifndef REPRO_STACKPOOL_ASAN
#define REPRO_STACKPOOL_ASAN 0
#endif

#if REPRO_STACKPOOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace repro::conc {

class StackPool {
public:
  /// Per-owner-thread free list. The owning thread touches it without any
  /// synchronization; hand it to acquire/release only from that thread.
  struct LocalCache {
    std::vector<char *> Stacks;
  };

  /// \p StackBytes is fixed for the pool's lifetime; \p LocalCapacity
  /// bounds each per-thread cache (excess frees overflow to the global
  /// list, where any thread can pick them up).
  explicit StackPool(std::size_t StackBytes, std::size_t LocalCapacity = 8)
      : Bytes(StackBytes), LocalCap(LocalCapacity) {}

  ~StackPool() {
    for (char *S : Free) {
      unpoison(S);
      delete[] S;
    }
  }

  StackPool(const StackPool &) = delete;
  StackPool &operator=(const StackPool &) = delete;

  std::size_t stackBytes() const { return Bytes; }

  /// Hands out a stack: local cache, then global overflow, then a fresh
  /// allocation (cold path; the memory is NOT zeroed — fibers write before
  /// they read).
  char *acquire(LocalCache *Local) {
    if (Local && !Local->Stacks.empty()) {
      char *S = Local->Stacks.back();
      Local->Stacks.pop_back();
      Reused.fetch_add(1, std::memory_order_relaxed);
      unpoison(S);
      return S;
    }
    if (char *S = popFree()) {
      Reused.fetch_add(1, std::memory_order_relaxed);
      unpoison(S);
      return S;
    }
    Created.fetch_add(1, std::memory_order_relaxed);
    return new char[Bytes];
  }

  /// Returns a stack to the pool: local cache while it has room, global
  /// overflow otherwise.
  void release(LocalCache *Local, char *Stack) {
    poison(Stack);
    if (Local && Local->Stacks.size() < LocalCap) {
      Local->Stacks.push_back(Stack);
      return;
    }
    std::lock_guard<std::mutex> Lock(FreeMutex);
    Free.push_back(Stack);
  }

  /// Cross-thread free with no cache at hand (task teardown outside any
  /// worker, e.g. shutdown draining suspended tasks).
  void releaseToGlobal(char *Stack) { release(nullptr, Stack); }

  /// Moves a dying thread's cached stacks to the global list.
  void drainLocal(LocalCache &Local) {
    std::lock_guard<std::mutex> Lock(FreeMutex);
    // Already poisoned by release().
    Free.insert(Free.end(), Local.Stacks.begin(), Local.Stacks.end());
    Local.Stacks.clear();
  }

  /// Stacks allocated fresh / handed out from a free list since birth.
  uint64_t created() const { return Created.load(std::memory_order_relaxed); }
  uint64_t reused() const { return Reused.load(std::memory_order_relaxed); }

private:
  char *popFree() {
    std::lock_guard<std::mutex> Lock(FreeMutex);
    if (Free.empty())
      return nullptr;
    char *S = Free.back();
    Free.pop_back();
    return S;
  }

  void poison(char *S) {
#if REPRO_STACKPOOL_ASAN
    ASAN_POISON_MEMORY_REGION(S, Bytes);
#else
    (void)S;
#endif
  }
  void unpoison(char *S) {
#if REPRO_STACKPOOL_ASAN
    ASAN_UNPOISON_MEMORY_REGION(S, Bytes);
#else
    (void)S;
#endif
  }

  const std::size_t Bytes;
  const std::size_t LocalCap;
  std::mutex FreeMutex;
  std::vector<char *> Free; ///< guarded by FreeMutex
  std::atomic<uint64_t> Created{0};
  std::atomic<uint64_t> Reused{0};
};

} // namespace repro::conc

#endif // REPRO_CONC_STACKPOOL_H
