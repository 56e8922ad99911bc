// The benchmark's workloads and its seeded request generator. The program
// under test only ever sees the generated calls: every argument is drawn
// from names and numbers that exist in the workload's generated scenario.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "appsys/dataset.h"
#include "common/result.h"
#include "common/value.h"
#include "federation/controller_pool.h"

namespace perfbench {

/// One federated call the benchmark issues.
struct Request {
  std::string function;
  std::vector<fedflow::Value> args;
  bool write = false;  ///< a ProcureComponent saga write
};

/// What a workload's request stream is made of.
enum class Mix {
  kFig5Reads,     ///< the Fig. 5 read functions
  kBulkJoin,      ///< GetSubCompDiscounts at high-fan-out discount levels
  kReadsWrites,   ///< Fig. 5 reads plus 10% ProcureComponent writes
};

/// How a workload draws scenario names and numbers.
enum class ArgSkew {
  kUniform,  ///< every supplier / component equally likely
  kZipf,     ///< rank-skewed (s = 1) over the scenario's order
};

/// One benchmark workload: scenario shape, deployment and traffic mix.
struct WorkloadConfig {
  std::string name;
  fedflow::appsys::ScenarioConfig scenario;
  /// Closed-loop client threads (each waits for its reply before the next
  /// request). With more than one, each client is its own tenant.
  int clients = 1;
  fedflow::federation::ControllerPoolOptions pool;
  bool caching = false;
  /// Server tracer on; after every call the spans are exported as Chrome
  /// JSON and the tracer is reset (an always-on per-flow exporter).
  bool server_tracer = false;
  Mix mix = Mix::kFig5Reads;
  ArgSkew skew = ArgSkew::kUniform;
  /// Federated functions registered on every server.
  std::vector<std::string> functions;
  /// Requests per client stream; the closed loop cycles through it.
  size_t stream_length = 0;
};

/// Workload names in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// The named workload; NotFound for an unknown name.
fedflow::Result<WorkloadConfig> FindWorkload(const std::string& name);

/// The request stream of client `client`: `workload.stream_length` requests
/// generated from `seed` alone. Reads come in blocks holding every read
/// function of the mix once (the Fig. 1 function BuySuppComp twice), so the
/// function mix is exact whatever the seed; the seed shuffles each block and
/// draws every argument.
std::vector<Request> GenerateStream(const WorkloadConfig& workload,
                                    const fedflow::appsys::Scenario& scenario,
                                    uint64_t seed, int client);

/// "SELECT * FROM TABLE (f(args...)) AS R" — the statement the integration
/// server runs for a federated call.
std::string CallSql(const Request& request);

/// Canonical one-line rendering of a request ("f(1, 'x')").
std::string RequestKey(const Request& request);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
