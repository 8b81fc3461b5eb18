//===- perfbench/src/AllocCounter.cpp - Counting global operator new ------===//
//
// Replaces the global allocation functions of the benchmark binary so every
// heap allocation in the process (library, runtime and benchmark alike) is
// counted. The count is exact; allocations per operation are reported as
// `proc.allocs_per_op`.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> Allocations{0};

void *countedAlloc(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *countedAlignedAlloc(std::size_t Size, std::align_val_t Align) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t A = static_cast<std::size_t>(Align);
  if (A < sizeof(void *))
    A = sizeof(void *);
  void *P = nullptr;
  if (posix_memalign(&P, A, Size ? Size : 1) == 0)
    return P;
  throw std::bad_alloc();
}
} // namespace

uint64_t perfbench::allocationCount() {
  return Allocations.load(std::memory_order_relaxed);
}

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new(std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, Align);
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, Align);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
