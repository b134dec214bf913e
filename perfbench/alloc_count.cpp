#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::array<std::atomic<std::uint64_t>, kLayerCount> g_allocs{};
std::array<std::atomic<std::uint64_t>, kLayerCount> g_bytes{};
thread_local Layer t_layer = Layer::kPowerapi;

inline void record(std::size_t bytes) noexcept {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  const auto layer = static_cast<std::size_t>(t_layer);
  g_allocs[layer].fetch_add(1, std::memory_order_relaxed);
  g_bytes[layer].fetch_add(bytes, std::memory_order_relaxed);
}

void* allocate(std::size_t bytes) {
  record(bytes);
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_aligned(std::size_t bytes, std::align_val_t align) {
  record(bytes);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((bytes == 0 ? 1 : bytes) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void set_alloc_counting(bool on) noexcept { g_counting.store(on, std::memory_order_relaxed); }

AllocTally alloc_tally() noexcept {
  AllocTally tally;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    tally.allocs[i] = g_allocs[i].load(std::memory_order_relaxed);
    tally.bytes[i] = g_bytes[i].load(std::memory_order_relaxed);
  }
  return tally;
}

Layer current_layer() noexcept { return t_layer; }
void set_current_layer(Layer layer) noexcept { t_layer = layer; }

}  // namespace perfbench

void* operator new(std::size_t bytes) { return perfbench::allocate(bytes); }
void* operator new[](std::size_t bytes) { return perfbench::allocate(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(bytes);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t bytes, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(bytes);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t bytes, std::align_val_t align) {
  return perfbench::allocate_aligned(bytes, align);
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  return perfbench::allocate_aligned(bytes, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
