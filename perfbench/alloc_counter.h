// Heap-allocation counting for the per-call allocation metrics. The
// counting global operator new/delete live in alloc_counter.cc, which only
// the benchmark executables link; counting is off until enabled, so the
// end-to-end runs pay one relaxed load per allocation.
#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t allocations = 0;
  uint64_t bytes = 0;
};

/// Starts or stops counting. Every thread's allocations are counted while
/// enabled, so enable it only while one request is in flight.
void SetAllocCounting(bool enabled);

/// Totals counted so far (two relaxed loads: cheap enough for every call).
AllocCounts ReadAllocCounts();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
