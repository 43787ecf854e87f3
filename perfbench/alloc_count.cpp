// alloc_count.cpp -- a counting global operator new, linked into the
// benchmark binary only.  wire.allocs_per_frame reads the counter around the
// codec replay; nothing else in the binary depends on it.
#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc_count.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

namespace pb {
std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace pb

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return operator new(n); }

// The nothrow forms too (std::stable_sort's temporary buffer uses them), so
// every allocation and its release go through the same malloc/free pair.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
