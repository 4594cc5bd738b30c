#ifndef SBONBENCH_ALLOC_COUNT_H_
#define SBONBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace sbonbench {

/// Heap allocations made by the process so far: every global operator new
/// of the benchmark binary bumps it (alloc_count.cc). The benchmark drives
/// the library from one thread, so a difference across a call is exactly
/// the allocations that call made.
extern uint64_t g_alloc_count;

}  // namespace sbonbench

#endif  // SBONBENCH_ALLOC_COUNT_H_
