// The traced run: per-layer metrics. The benchmark times its own calls into
// each module's public functions (recording a span per call) and reads the
// program's public counters; nothing inside the program is instrumented.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "runner.h"
#include "workload.h"

namespace perfbench {

/// Runs `workload` once with the benchmark's spans on and returns every
/// per-layer metric. Exact-count metrics (allocations, *_per_call counts,
/// model.elapsed_us_mean) come from one single-client pass over the first
/// stream and repeat exactly for a seed; timings come from `seconds` of
/// traffic. The spans are written to `spans_path` (tab-separated) at the end.
Metrics RunLayers(const WorkloadConfig& workload, uint64_t seed,
                  double seconds, const std::string& spans_path,
                  RunTally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
