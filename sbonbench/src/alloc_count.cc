// Counting replacement of the global allocation functions. Linked only into
// the benchmark binary; the library itself is unchanged.

#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace sbonbench {
uint64_t g_alloc_count = 0;
}  // namespace sbonbench

// gcc pairs the malloc/free inside these replacements with inlined callers'
// new/delete and reports a spurious mismatch; the replacement set is
// complete and consistent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++sbonbench::g_alloc_count;
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
