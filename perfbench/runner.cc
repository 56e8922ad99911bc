#include "runner.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "appsys/purchasing.h"
#include "appsys/stockkeeping.h"
#include "common/rng.h"
#include "common/strings.h"
#include "federation/sample_scenario.h"
#include "obs/export.h"
#include "spans.h"

namespace perfbench {

using fedflow::Result;
using fedflow::Status;
using fedflow::Table;
using fedflow::Value;
using fedflow::federation::Architecture;
using fedflow::federation::ControllerPool;
using fedflow::federation::FederatedFunctionSpec;

namespace {

/// Rounds the measured seconds are split into; each round runs every
/// architecture once, so slow drift of the machine hits all three alike.
/// The reported percentiles are the medians of the rounds' percentiles: a
/// burst of interference from other tenants of the machine that inflates
/// one round's tail does not move them.
constexpr int kRounds = 5;
/// Each architecture runs at least this many calls per round, so a round's
/// p95 has at least 50 samples beyond it.
constexpr size_t kMinSamples = 1000;
/// Latency samples kept per architecture and client in a round. Beyond it a
/// uniform reservoir sample is kept, so the benchmark's own memory (and with
/// it peak_rss_mb) does not grow with throughput.
constexpr size_t kReservoirSize = 1 << 16;
/// Calls per function and controller that make the controller hot, and the
/// fixed seed their arguments are drawn with.
constexpr int kWarmupCalls = 3;
constexpr uint64_t kWarmupSeed = 0;

Architecture ArchAt(int arch) {
  static const Architecture kArchs[kNumArchs] = {
      Architecture::kWfms, Architecture::kUdtf, Architecture::kJavaUdtf};
  return kArchs[arch];
}

/// Nearest-rank percentile (permille of 1000) of `values`; sorts in place.
double Percentile(std::vector<double>& values, int permille) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(static_cast<double>(permille) / 1000.0 *
                static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

Result<IntegrationServer::TimedResult> Call(IntegrationServer& server,
                                            const std::string& tenant,
                                            const Request& request,
                                            RunTally* tally) {
  // Admission control may refuse a flow while the pool is exhausted; a
  // closed-loop client retries (counted) instead of failing.
  for (int attempt = 0;; ++attempt) {
    Result<IntegrationServer::TimedResult> result =
        server.CallFederatedFor(tenant, request.function, request.args);
    if (result.ok() ||
        result.status().code() != fedflow::StatusCode::kUnavailable ||
        attempt == 1000) {
      return result;
    }
    if (tally != nullptr) tally->admission_retries.fetch_add(1);
    std::this_thread::yield();
  }
}

/// Checks a ProcureComponent acknowledgement and books it in `ledger`.
bool BookWrite(const Deployment& d, const Request& request, const Table& table,
               WriteLedger* ledger, std::string* error) {
  const int32_t amount = request.args[2].AsInt();
  auto column = table.schema().IndexOf("Reserved");
  Result<int64_t> reserved =
      table.num_rows() == 1 && column.has_value()
          ? table.rows()[0][*column].ToInt64()
          : Result<int64_t>(Status::Internal("no Reserved value"));
  if (!reserved.ok() || *reserved < amount) {
    *error = "bad write acknowledgement for " + RequestKey(request) + ": " +
             table.ToString();
    return false;
  }
  auto supplier = d.supplier_no.find(request.args[0].AsVarchar());
  if (supplier == d.supplier_no.end()) {
    *error = "write for unknown supplier " + RequestKey(request);
    return false;
  }
  ledger->commits += 1;
  ledger->reserved[{supplier->second, request.args[1].AsInt()}] += amount;
  return true;
}

Status WarmUp(Deployment& d, int arch, const std::vector<Request>& calls) {
  IntegrationServer& server = *d.servers[arch];
  // Hold every controller the pool may create at once, so each of them is
  // created and made hot for every function.
  std::vector<ControllerPool::Lease> leases;
  for (size_t i = 0; i < d.workload.pool.max_size; ++i) {
    FEDFLOW_ASSIGN_OR_RETURN(ControllerPool::Lease lease,
                             server.controller_pool().Checkout("warmup", ""));
    leases.push_back(std::move(lease));
  }
  for (const std::string& function : d.workload.functions) {
    auto it = std::find_if(calls.begin(), calls.end(), [&](const Request& r) {
      return r.function == function;
    });
    if (it == calls.end()) {
      return Status::Internal("stream lacks a call of " + function);
    }
    for (const ControllerPool::Lease& lease : leases) {
      for (int k = 0; k < kWarmupCalls; ++k) {
        FEDFLOW_ASSIGN_OR_RETURN(
            IntegrationServer::TimedResult result,
            server.CallFederatedOnLease(lease, "warmup", it->function,
                                        it->args));
        if (it->write) {
          std::string error;
          if (!BookWrite(d, *it, result.table, &d.ledgers[arch], &error)) {
            return Status::Internal(error);
          }
        }
      }
    }
  }
  return Status::OK();
}

/// Uniform reservoir sample of a stream of values (algorithm R). The storage
/// is allocated and touched up front.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed)
      : values_(capacity, 0.0), rng_(seed) {}

  void Add(double value) {
    if (seen_ < values_.size()) {
      values_[seen_] = value;
    } else {
      const uint64_t slot = rng_.Next() % (seen_ + 1);
      if (slot < values_.size()) values_[slot] = value;
    }
    ++seen_;
  }

  void Clear() { seen_ = 0; }

  std::vector<double> values() const {
    return std::vector<double>(
        values_.begin(),
        values_.begin() + static_cast<std::ptrdiff_t>(
                              std::min<uint64_t>(seen_, values_.size())));
  }

 private:
  std::vector<double> values_;
  fedflow::Rng rng_;
  uint64_t seen_ = 0;
};

}  // namespace

const char* ArchKey(int arch) {
  static const char* kKeys[kNumArchs] = {"wfms", "udtf", "java_udtf"};
  return kKeys[arch];
}

Result<FederatedFunctionSpec> SpecByName(const std::string& name) {
  std::vector<FederatedFunctionSpec> specs =
      fedflow::federation::SampleSpecs();
  specs.push_back(fedflow::federation::ProcureComponentSpec());
  for (FederatedFunctionSpec& spec : specs) {
    if (spec.name == name) return std::move(spec);
  }
  return Status::NotFound("no sample spec named " + name);
}

void WriteLedger::Merge(const WriteLedger& other) {
  commits += other.commits;
  for (const auto& [key, amount] : other.reserved) reserved[key] += amount;
}

void RunTally::Record(const OpResult& op) {
  attempted.fetch_add(1);
  if (!op.correct) Fail(op.error);
}

void RunTally::Fail(const std::string& error) {
  failed.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu);
  if (first_error.empty()) first_error = error;
}

std::string Deployment::Tenant(int client) const {
  return workload.clients > 1 ? "t" + std::to_string(client) : "default";
}

Status SetUp(const WorkloadConfig& workload, uint64_t seed, Deployment* out,
             RegisterTimes* register_us) {
  Deployment& d = *out;
  d.workload = workload;
  d.scenario = fedflow::appsys::GenerateScenario(workload.scenario);
  d.streams.clear();
  for (int c = 0; c < workload.clients; ++c) {
    d.streams.push_back(GenerateStream(workload, d.scenario, seed, c));
  }
  d.supplier_no.clear();
  for (const fedflow::appsys::SupplierRecord& s : d.scenario.suppliers) {
    d.supplier_no[s.name] = s.supplier_no;
  }
  // The warm-up calls do not depend on the seed, so neither does set-up.
  const std::vector<Request> warmup =
      GenerateStream(workload, d.scenario, kWarmupSeed, 0);
  d.servers.clear();
  d.ledgers.assign(kNumArchs, WriteLedger{});
  if (register_us != nullptr) register_us->assign(kNumArchs, {});
  for (int arch = 0; arch < kNumArchs; ++arch) {
    FEDFLOW_ASSIGN_OR_RETURN(
        std::unique_ptr<IntegrationServer> server,
        IntegrationServer::Create(ArchAt(arch), d.scenario, {},
                                  workload.pool));
    server->set_caching_enabled(workload.caching);
    if (workload.server_tracer) server->tracer().Enable();
    for (const std::string& function : workload.functions) {
      FEDFLOW_ASSIGN_OR_RETURN(FederatedFunctionSpec spec,
                               SpecByName(function));
      const int64_t start = NowNs();
      FEDFLOW_RETURN_NOT_OK(server->RegisterFederatedFunction(spec));
      if (register_us != nullptr) {
        (*register_us)[arch].push_back(
            static_cast<double>(NowNs() - start) / 1e3);
      }
    }
    d.servers.push_back(std::move(server));
    FEDFLOW_RETURN_NOT_OK(WarmUp(d, arch, warmup));
    if (workload.server_tracer) d.servers[arch]->tracer().Reset();
  }
  return Status::OK();
}

Status ComputeExpected(Deployment* d) {
  std::map<std::string, std::shared_ptr<const Table>> by_key;
  d->expected.assign(d->streams.size(), {});
  for (size_t c = 0; c < d->streams.size(); ++c) {
    for (const Request& request : d->streams[c]) {
      std::shared_ptr<const Table> table;
      if (!request.write) {
        std::shared_ptr<const Table>& slot = by_key[RequestKey(request)];
        if (slot == nullptr) {
          FEDFLOW_ASSIGN_OR_RETURN(Table result,
                                   d->servers[0]->Query(CallSql(request)));
          slot = std::make_shared<const Table>(std::move(result));
        }
        table = slot;
      }
      d->expected[c].push_back(std::move(table));
    }
  }
  return Status::OK();
}

OpResult RunOp(Deployment& d, int arch, int client, size_t pos,
               bool server_tracer, WriteLedger* ledger, RunTally* tally) {
  const Request& request = d.streams[client][pos];
  IntegrationServer& server = *d.servers[arch];
  OpResult op;
  const AllocCounts allocs_before = ReadAllocCounts();
  op.start_ns = NowNs();
  Result<IntegrationServer::TimedResult> result =
      Call(server, d.Tenant(client), request, tally);
  if (server_tracer) {
    op.export_start_ns = NowNs();
    std::vector<fedflow::obs::Span> spans = server.tracer().Snapshot();
    op.server_spans = spans.size();
    std::string json = fedflow::obs::ChromeTraceJson(spans);
    server.tracer().Reset();
    op.export_end_ns = NowNs();
    if (json.empty()) op.error = "empty trace export";
  }
  op.end_ns = NowNs();
  const AllocCounts allocs_after = ReadAllocCounts();
  op.allocs.allocations = allocs_after.allocations - allocs_before.allocations;
  op.allocs.bytes = allocs_after.bytes - allocs_before.bytes;
  if (!result.ok()) {
    op.error = RequestKey(request) + " on " + ArchKey(arch) + ": " +
               result.status().ToString();
    return op;
  }
  op.elapsed_us = result->elapsed_us;
  op.cache_hit = d.workload.caching &&
                 result->elapsed_us == server.model().cache_hit_us;
  if (request.write) {
    op.correct = BookWrite(d, request, result->table, ledger, &op.error);
  } else if (result->table == *d.expected[client][pos] ||
             Table::SameRowsAnyOrder(result->table,
                                     *d.expected[client][pos])) {
    // Row order is unspecified without ORDER BY; the architectures' join
    // lowerings emit the same rows in different orders.
    op.correct = op.error.empty();
  } else {
    op.error = RequestKey(request) + " on " + ArchKey(arch) +
               " returned\n" + result->table.ToString() + "expected\n" +
               d.expected[client][pos]->ToString();
  }
  return op;
}

void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    CPU_SET(cpu, &chosen);
    sched_setaffinity(0, sizeof(chosen), &chosen);
    return;
  }
}

void RunClients(int clients, const std::function<void(int)>& fn) {
  if (clients == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) threads.emplace_back(fn, c);
  for (std::thread& t : threads) t.join();
}

void YieldToOtherClients(int clients) {
  if (clients > 1) std::this_thread::yield();
}

void CheckWrites(Deployment& d, RunTally* tally) {
  if (d.workload.mix != Mix::kReadsWrites) return;
  for (int arch = 0; arch < kNumArchs; ++arch) {
    IntegrationServer& server = *d.servers[arch];
    const WriteLedger& ledger = d.ledgers[arch];
    const std::string where = std::string(" on ") + ArchKey(arch);
    auto purchasing = server.systems().Get("purchasing");
    auto stock = server.systems().Get("stock");
    const auto* orders =
        purchasing.ok()
            ? dynamic_cast<const fedflow::appsys::PurchasingSystem*>(*purchasing)
            : nullptr;
    const auto* reservations =
        stock.ok()
            ? dynamic_cast<const fedflow::appsys::StockKeepingSystem*>(*stock)
            : nullptr;
    if (orders == nullptr || reservations == nullptr) {
      tally->Fail("purchasing/stock systems missing" + where);
      continue;
    }
    const int64_t commits =
        static_cast<int64_t>(server.metrics().counter("saga.commit"));
    if (orders->open_order_count() != ledger.commits ||
        commits != ledger.commits) {
      tally->Fail("orders placed " +
                  std::to_string(orders->open_order_count()) +
                  ", saga.commit " + std::to_string(commits) +
                  ", committed writes " + std::to_string(ledger.commits) +
                  where);
    }
    if (server.metrics().counter("saga.abort") != 0) {
      tally->Fail("saga aborted" + where);
    }
    for (const auto& [key, amount] : ledger.reserved) {
      if (reservations->reserved(key.first, key.second) != amount) {
        tally->Fail("reserved " + std::to_string(reservations->reserved(
                                      key.first, key.second)) +
                    " != written " + std::to_string(amount) + " for (" +
                    std::to_string(key.first) + ", " +
                    std::to_string(key.second) + ")" + where);
      }
    }
  }
}

double Median(std::vector<double> values) { return Percentile(values, 500); }

Metrics RunEndToEnd(const WorkloadConfig& workload, uint64_t seed,
                    double seconds, RunTally* tally) {
  Metrics metrics;
  // setup_s samples are taken before the traffic and after every slice of
  // it, so that they see the machine at as many moments as the calls do.
  std::vector<double> setup_s;
  const auto timed_setup = [&](Deployment* target) {
    const int64_t start = NowNs();
    Status status = SetUp(workload, seed, target);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!status.ok()) tally->Fail("set-up: " + status.ToString());
    return status.ok();
  };
  Deployment d;
  if (!timed_setup(&d)) return metrics;
  if (Status status = ComputeExpected(&d); !status.ok()) {
    tally->Fail("expected results: " + status.ToString());
    return metrics;
  }

  struct ArchStats {
    std::vector<Reservoir> latency_us;  ///< by client, of the current round
    std::vector<double> p50_by_round;
    std::vector<double> p95_by_round;
    int64_t ops = 0;
    int64_t wall_ns = 0;
  };
  std::vector<ArchStats> stats(kNumArchs);
  for (int arch = 0; arch < kNumArchs; ++arch) {
    for (int c = 0; c < workload.clients; ++c) {
      stats[arch].latency_us.emplace_back(
          kReservoirSize, seed * kNumArchs * 64 + arch * 64 + c);
    }
  }
  // cursor[arch][client]: every server replays the same streams in order.
  std::vector<std::vector<size_t>> cursor(
      kNumArchs, std::vector<size_t>(workload.clients, 0));
  // One round of one architecture: at least slice_ns and kMinSamples calls.
  const auto run_slice = [&](int arch, int64_t slice_ns) {
    ArchStats& s = stats[arch];
    std::vector<WriteLedger> ledgers(workload.clients);
    std::atomic<int64_t> ops{0};
    const int64_t start = NowNs();
    const int64_t deadline = start + slice_ns;
    RunClients(workload.clients, [&](int client) {
      const size_t length = d.streams[client].size();
      size_t& pos = cursor[arch][client];
      Reservoir& samples = s.latency_us[client];
      do {
        OpResult op = RunOp(d, arch, client, pos, workload.server_tracer,
                            &ledgers[client], tally);
        pos = (pos + 1) % length;
        tally->Record(op);
        samples.Add(static_cast<double>(op.end_ns - op.start_ns) / 1e3);
        ops.fetch_add(1);
        YieldToOtherClients(workload.clients);
      } while (NowNs() < deadline ||
               ops.load() < static_cast<int64_t>(kMinSamples));
    });
    s.wall_ns += NowNs() - start;
    s.ops += ops.load();
    std::vector<double> latency;
    for (int c = 0; c < workload.clients; ++c) {
      d.ledgers[arch].Merge(ledgers[c]);
      const std::vector<double> kept = s.latency_us[c].values();
      latency.insert(latency.end(), kept.begin(), kept.end());
      s.latency_us[c].Clear();
    }
    s.p50_by_round.push_back(Percentile(latency, 500));
    s.p95_by_round.push_back(Percentile(latency, 950));
  };
  const int64_t slice_ns =
      static_cast<int64_t>(seconds * 1e9 / (kRounds * kNumArchs));
  for (int round = 0; round < kRounds; ++round) {
    for (int arch = 0; arch < kNumArchs; ++arch) {
      run_slice(arch, slice_ns);
      Deployment spare;
      if (!timed_setup(&spare)) return metrics;
    }
  }
  CheckWrites(d, tally);

  for (int arch = 0; arch < kNumArchs; ++arch) {
    const ArchStats& s = stats[arch];
    const std::string key = ArchKey(arch);
    std::printf("  samples.%-31s %16lld ops in %d rounds\n", key.c_str(),
                static_cast<long long>(s.ops), kRounds);
    metrics.push_back({"call_us_p50." + key, Median(s.p50_by_round), "us"});
    metrics.push_back({"call_us_p95." + key, Median(s.p95_by_round), "us"});
    metrics.push_back({"ops_per_s." + key,
                       static_cast<double>(s.ops) * 1e9 /
                           static_cast<double>(s.wall_ns),
                       "1/s"});
  }
  std::fprintf(stderr, "setup_s samples:");
  for (double v : setup_s) std::fprintf(stderr, " %.4f", v);
  std::fprintf(stderr, "\n");
  metrics.push_back({"setup_s", Median(setup_s), "s"});
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  metrics.push_back(
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"});
  const int64_t attempted = tally->attempted.load();
  metrics.push_back(
      {"ok_op_ratio",
       attempted == 0 ? 0.0
                      : static_cast<double>(attempted - tally->failed.load()) /
                            static_cast<double>(attempted),
       "ratio"});
  return metrics;
}

}  // namespace perfbench
