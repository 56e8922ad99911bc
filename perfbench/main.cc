// perfbench: wall-clock benchmark of fedflow's federated calls.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// --trace 0 runs the end-to-end measurement, --trace 1 the traced run that
// reports per-layer metrics (spans written to --spans). Every metric is
// printed as "name value unit"; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every operation succeeded and passed its output check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "layers.h"
#include "runner.h"
#include "workload.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\nworkloads:",
               message);
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() &&
         std::isfinite(*out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_path;
  double seed = -1;
  double seconds = -1;
  double trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else if (flag == "--seed") {
      ok = ParseNumber(value, &seed) && seed >= 0 && seed == std::floor(seed);
    } else if (flag == "--seconds") {
      ok = ParseNumber(value, &seconds) && seconds > 0 && seconds <= 600;
    } else if (flag == "--trace") {
      ok = ParseNumber(value, &trace) && (trace == 0 || trace == 1);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (!ok) return Usage(("bad value for " + flag + ": " + value).c_str());
  }
  if (workload_name.empty() || seed < 0 || seconds < 0 || trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  fedflow::Result<perfbench::WorkloadConfig> workload =
      perfbench::FindWorkload(workload_name);
  if (!workload.ok()) return Usage(workload.status().ToString().c_str());
  if (spans_path.empty()) spans_path = "perfbench-spans-" + workload_name + ".tsv";

  const uint64_t seed_value = static_cast<uint64_t>(seed);
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              workload_name.c_str(), static_cast<unsigned long long>(seed_value),
              seconds, static_cast<int>(trace));
  perfbench::PinToOneCpu();
  perfbench::RunTally tally;
  perfbench::Metrics metrics =
      trace == 1 ? perfbench::RunLayers(*workload, seed_value, seconds,
                                        spans_path, &tally)
                 : perfbench::RunEndToEnd(*workload, seed_value, seconds,
                                          &tally);

  const int64_t attempted = tally.attempted.load();
  const int64_t failed = tally.failed.load();
  const bool correct = failed == 0 && attempted > 0 && !metrics.empty();
  if (!tally.first_error.empty()) {
    std::fprintf(stderr, "first failure: %s\n", tally.first_error.c_str());
  }
  for (const perfbench::Metric& m : metrics) {
    std::printf("  %-40s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
