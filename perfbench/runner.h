// Set-up, closed-loop clients and output checks shared by the end-to-end run
// and the traced (per-layer) run.
#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "appsys/dataset.h"
#include "common/table.h"
#include "federation/integration_server.h"
#include "federation/spec.h"
#include "workload.h"

namespace perfbench {

using fedflow::federation::IntegrationServer;

inline constexpr int kNumArchs = 3;

/// Metric-name suffix of architecture index `arch` ("wfms", "udtf",
/// "java_udtf").
const char* ArchKey(int arch);

/// The sample-scenario spec of a federated function, by name.
fedflow::Result<fedflow::federation::FederatedFunctionSpec> SpecByName(
    const std::string& name);

/// One named metric with its unit, in output order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Writes one client committed on one server: what the post-run check
/// compares against the stores and the saga counters.
struct WriteLedger {
  int64_t commits = 0;
  /// (supplier no, component no) -> amount reserved.
  std::map<std::pair<int32_t, int32_t>, int64_t> reserved;

  void Merge(const WriteLedger& other);
};

/// Outcome of one operation.
struct OpResult {
  bool correct = false;  ///< the call succeeded and passed its output check
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  fedflow::VDuration elapsed_us = 0;  ///< virtual elapsed time of the call
  bool cache_hit = false;             ///< served at the model's cache_hit_us
  size_t server_spans = 0;            ///< server spans exported (tracer on)
  /// Heap allocations between start_ns and end_ns, while counting is on.
  AllocCounts allocs;
  int64_t export_start_ns = 0;
  int64_t export_end_ns = 0;
  std::string error;
};

/// Counters over a whole run: what the result line reports as attempted /
/// failed, plus the first error for the log.
struct RunTally {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> admission_retries{0};
  std::mutex mu;
  std::string first_error;

  void Record(const OpResult& op);
  void Fail(const std::string& error);
};

/// A workload's three servers (one per architecture), its request streams
/// and the expected result of every read request.
struct Deployment {
  WorkloadConfig workload;
  fedflow::appsys::Scenario scenario;
  std::vector<std::unique_ptr<IntegrationServer>> servers;  ///< by arch
  std::vector<std::vector<Request>> streams;                ///< by client
  /// Expected result of every read, by client and stream position (null for
  /// writes).
  std::vector<std::vector<std::shared_ptr<const fedflow::Table>>> expected;
  std::vector<WriteLedger> ledgers;  ///< by arch: every write committed
  std::map<std::string, int32_t> supplier_no;  ///< supplier name -> number

  std::string Tenant(int client) const;
};

/// Wall time of each RegisterFederatedFunction, by arch (µs).
using RegisterTimes = std::vector<std::vector<double>>;

/// Set-up as setup_s measures it: scenario generation, server creation,
/// registration (lint, plan, dataflow) and warm-up to hot controllers on all
/// three servers. `register_us` (optional) receives per-call registration
/// times.
fedflow::Status SetUp(const WorkloadConfig& workload, uint64_t seed,
                      Deployment* out, RegisterTimes* register_us = nullptr);

/// Computes every read request's result once, on the first server's untimed
/// functional path.
fedflow::Status ComputeExpected(Deployment* d);

/// Runs stream position `pos` of `client` on server `arch` and checks the
/// result. With `server_tracer`, the server's spans are exported and reset
/// inside the timed region. Committed writes go to `ledger`.
OpResult RunOp(Deployment& d, int arch, int client, size_t pos,
               bool server_tracer, WriteLedger* ledger, RunTally* tally);

/// Restricts this thread, and every thread it creates afterwards, to the
/// last CPU it may run on. The WfMS engine's worker threads then wake on
/// the caller's core. Wake-ups across the virtual CPUs of a shared machine
/// wait for the hypervisor: spread over three CPUs, fleet_rw lost up to 28%
/// of its CPU time to steal and its p99 moved 2x between runs.
void PinToOneCpu();

/// Runs fn(client) on `clients` threads (inline for one) and waits for all.
/// Clients sharing the CPU call YieldToOtherClients() after each reply.
void RunClients(int clients, const std::function<void(int)>& fn);

/// Lets the other clients on the CPU run (no-op with one client), so that
/// clients interleave call by call rather than by scheduler time slice.
void YieldToOtherClients(int clients);

/// Checks the stores of every server against the committed writes: open
/// orders == saga.commit == writes, reserved amounts == written amounts, no
/// saga aborted. Mismatches are recorded as failures in `tally`.
void CheckWrites(Deployment& d, RunTally* tally);

/// Nearest-rank median of `values` (0 when empty).
double Median(std::vector<double> values);

/// The end-to-end run: several set-ups (setup_s is their median), then
/// `seconds` of closed-loop traffic interleaved over the three servers.
Metrics RunEndToEnd(const WorkloadConfig& workload, uint64_t seed,
                    double seconds, RunTally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
