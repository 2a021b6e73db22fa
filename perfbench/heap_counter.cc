// Replaced global allocation functions: counted while the harness arms the
// counter, otherwise the same malloc/free the default implementation uses.
// Kept in their own file so no other code of the harness sees their bodies.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace perfbench {
namespace {
bool g_new_armed = false;
uint64_t g_new_count = 0;
}  // namespace

void ArmNewCounter(bool on) { g_new_armed = on; }
uint64_t NewCount() { return g_new_count; }

}  // namespace perfbench

void* operator new(std::size_t n) {
  if (perfbench::g_new_armed) ++perfbench::g_new_count;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
