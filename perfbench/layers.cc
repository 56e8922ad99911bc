#include "layers.h"

#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "common/codec.h"
#include "common/strings.h"
#include "plan/optimizer.h"
#include "spans.h"
#include "sql/parser.h"

namespace perfbench {

using fedflow::Result;
using fedflow::Status;
using fedflow::Table;
using fedflow::Value;
using fedflow::federation::FederatedFunctionSpec;
using fedflow::federation::SpecArg;

namespace {

/// Phases of the traced run (the `phase` of every span).
enum Phase : uint8_t {
  kPhaseCount,      ///< single-client exact-count pass (no spans)
  kPhaseSpans,      ///< the workload; every other call gets a root span
  kPhaseAltTracer,  ///< server tracer flipped relative to the workload
  kPhaseContention, ///< each call followed by pool and metrics probes
  kPhaseProbes,     ///< single client; each read re-run layer by layer
  kNumPhases,
};
const std::vector<std::string> kPhaseNames = {
    "count", "spans", "alt_tracer", "contention", "probes"};
/// The timed phases run in this many interleaved rounds, so that phases
/// compared with each other see the machine at the same moments.
constexpr int kRounds = 4;
/// Spans kept per phase and architecture (shared among rounds and clients).
constexpr size_t kSpansPerPhase = 16384;
/// MetricsRegistry::Inc calls per obs.metrics_inc span.
constexpr int kIncBatch = 64;
/// BuildPlan repetitions per spec for plan.build_us.
constexpr int kPlanRepeats = 10;

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

int64_t LocalCallCount(const IntegrationServer& server) {
  int64_t total = 0;
  for (const std::string& name : server.systems().Names()) {
    auto system = server.systems().Get(name);
    if (!system.ok()) continue;
    for (const auto& [function, count] : (*system)->FunctionCallCounts()) {
      total += count;
    }
  }
  return total;
}

/// Exact counts of the single-client pass on one server.
struct CountTotals {
  int64_t calls = 0;
  uint64_t allocations = 0;
  uint64_t alloc_bytes = 0;
  int64_t compiles = 0;
  int64_t elapsed_us = 0;
  int64_t server_spans = 0;
  std::map<std::string, uint64_t> counters;  ///< deltas of the names below
  int64_t local_calls = 0;
};
const char* const kCountedMetrics[] = {
    "wfms.activities",          "wfms.checkpoints",
    "pipeline.rows_emitted",    "pipeline.batches_emitted",
    "pipeline.columnar_batches"};

/// Counter deltas over the spans phase on one server.
struct PhaseCounters {
  int64_t writes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;
  uint64_t aborts = 0;
  int64_t hot_checkouts = 0;
  int64_t checkouts = 0;
};

struct CounterSnapshot {
  uint64_t hits, misses, invalidations, aborts;
  int64_t hot, total;
};

CounterSnapshot TakeSnapshot(IntegrationServer& server) {
  const fedflow::obs::MetricsRegistry& m = server.metrics();
  fedflow::sim::WarmPool::Stats pool = server.controller_pool().pool().stats();
  return CounterSnapshot{m.counter("cache.result.hit"),
                       m.counter("cache.result.miss"),
                       m.counter("cache.result.invalidation"),
                       m.counter("saga.abort"), pool.hot_checkouts,
                       pool.cold_checkouts + pool.warm_checkouts +
                           pool.hot_checkouts};
}

/// Re-runs the local calls of one federated request directly against the
/// application systems, resolving every argument from the spec, and
/// round-trips each result through the RMI codec. Spans go to `shard` when
/// it is set.
Status ProbeLocalCalls(const IntegrationServer& server,
                       const FederatedFunctionSpec& spec,
                       const Request& request, SpanShard* shard,
                       uint64_t parent, uint64_t request_id, int64_t* rows,
                       int64_t* bytes) {
  FEDFLOW_ASSIGN_OR_RETURN(std::vector<size_t> order,
                           fedflow::federation::TopologicalCallOrder(spec));
  std::map<std::string, Table> outputs;
  for (size_t index : order) {
    const fedflow::federation::SpecCall& call = spec.calls[index];
    std::vector<Value> args;
    bool resolved = true;
    for (const SpecArg& arg : call.args) {
      switch (arg.kind) {
        case SpecArg::Kind::kConstant:
          args.push_back(arg.constant);
          break;
        case SpecArg::Kind::kParam: {
          size_t p = 0;
          while (p < spec.params.size() &&
                 !fedflow::EqualsIgnoreCase(spec.params[p].name, arg.param)) {
            ++p;
          }
          if (p == spec.params.size()) {
            return Status::Internal("unbound parameter " + arg.param);
          }
          args.push_back(request.args[p]);
          break;
        }
        case SpecArg::Kind::kNodeColumn: {
          // A dependency that returned no row leaves its consumers unrun,
          // exactly as in the federated call.
          auto it = outputs.find(arg.node);
          std::optional<size_t> column;
          if (it != outputs.end()) column = it->second.schema().IndexOf(arg.column);
          if (it == outputs.end() || it->second.empty() || !column) {
            resolved = false;
          } else {
            args.push_back(it->second.rows()[0][*column]);
          }
          break;
        }
      }
    }
    if (!resolved) continue;
    FEDFLOW_ASSIGN_OR_RETURN(fedflow::appsys::AppSystem * system,
                             server.systems().Get(call.system));
    const int64_t call_start = NowNs();
    FEDFLOW_ASSIGN_OR_RETURN(fedflow::appsys::AppSystem::CallResult result,
                             system->Call(call.function, args));
    const int64_t call_end = NowNs();
    fedflow::ByteWriter writer;
    writer.PutTable(result.table);
    fedflow::ByteReader reader(writer.buffer());
    Result<Table> decoded = reader.GetTable();
    const int64_t marshal_end = NowNs();
    if (!decoded.ok() || !(*decoded == result.table)) {
      return Status::Internal("codec round trip changed " + call.function);
    }
    if (shard != nullptr) {
      shard->Add(SpanName::kLocalCall, parent, request_id, call_start,
                 call_end);
      shard->Add(SpanName::kMarshal, parent, request_id, call_end,
                 marshal_end);
    }
    *rows += static_cast<int64_t>(result.table.num_rows());
    *bytes += static_cast<int64_t>(writer.size());
    outputs[call.id] = std::move(result.table);
  }
  return Status::OK();
}

class LayerRun {
 public:
  LayerRun(const WorkloadConfig& workload, uint64_t seed, double seconds,
           RunTally* tally)
      : workload_(workload),
        seed_(seed),
        slice_ns_(static_cast<int64_t>(
            seconds * 1e9 / (kRounds * (kNumPhases - 1) * kNumArchs))),
        tally_(tally),
        counts_(kNumArchs),
        counters_(kNumArchs),
        untraced_us_(kNumArchs) {}

  Metrics Run(const std::string& spans_path);

 private:
  Status SetUpAll();
  void CountPass(int arch);
  void TimedPhase(int arch, Phase phase);
  /// The per-request probes of the probes phase (reads only).
  void Probe(int arch, size_t pos, SpanShard& shard, uint64_t parent,
             uint64_t request_id);
  Metrics Collect();

  void ProbeFail(const std::string& what) { tally_->Fail(what); }

  WorkloadConfig workload_;
  uint64_t seed_;
  int64_t slice_ns_;
  RunTally* tally_;
  Deployment d_;
  RegisterTimes register_us_;
  std::vector<double> plan_build_us_;
  std::map<std::string, FederatedFunctionSpec> specs_;
  std::vector<std::string> sql_;  ///< call statement per client-0 position
  std::vector<CountTotals> counts_;
  int64_t probe_reads_ = 0;
  int64_t probe_rows_ = 0;
  int64_t probe_bytes_ = 0;
  std::vector<PhaseCounters> counters_;
  /// Spans-phase calls timed without a span, by arch.
  std::vector<std::vector<double>> untraced_us_;
  std::vector<std::vector<size_t>> cursor_;
  std::atomic<uint64_t> next_request_{1};
  SpanLog log_;
};

Status LayerRun::SetUpAll() {
  FEDFLOW_RETURN_NOT_OK(SetUp(workload_, seed_, &d_, &register_us_));
  FEDFLOW_RETURN_NOT_OK(ComputeExpected(&d_));
  for (const std::string& function : workload_.functions) {
    FEDFLOW_ASSIGN_OR_RETURN(specs_[function], SpecByName(function));
  }
  for (const Request& request : d_.streams[0]) sql_.push_back(CallSql(request));
  cursor_.assign(kNumArchs, std::vector<size_t>(workload_.clients, 0));
  // plan.build_us: the planner alone, per spec, on the first server's
  // systems and cost model.
  IntegrationServer& server = *d_.servers[0];
  for (const auto& [name, spec] : specs_) {
    for (int i = 0; i < kPlanRepeats; ++i) {
      const int64_t start = NowNs();
      Result<fedflow::plan::FedPlan> plan =
          fedflow::plan::BuildPlan(spec, server.systems(), server.model());
      const int64_t end = NowNs();
      if (!plan.ok()) return plan.status();
      plan_build_us_.push_back(static_cast<double>(end - start) / 1e3);
    }
  }
  return Status::OK();
}

void LayerRun::CountPass(int arch) {
  IntegrationServer& server = *d_.servers[arch];
  CountTotals& totals = counts_[arch];
  std::map<std::string, uint64_t> before;
  for (const char* name : kCountedMetrics) {
    before[name] = server.metrics().counter(name);
  }
  const int64_t local_before = LocalCallCount(server);
  for (size_t pos = 0; pos < d_.streams[0].size(); ++pos) {
    const int64_t p0 = fedflow::plan::BuildPlanInvocations();
    SetAllocCounting(true);
    OpResult op = RunOp(d_, arch, 0, pos, workload_.server_tracer,
                        &d_.ledgers[arch], tally_);
    SetAllocCounting(false);
    totals.compiles += fedflow::plan::BuildPlanInvocations() - p0;
    totals.allocations += op.allocs.allocations;
    totals.alloc_bytes += op.allocs.bytes;
    totals.elapsed_us += op.elapsed_us;
    totals.server_spans += static_cast<int64_t>(op.server_spans);
    totals.calls += 1;
    tally_->Record(op);
  }
  for (const char* name : kCountedMetrics) {
    totals.counters[name] = server.metrics().counter(name) - before[name];
  }
  totals.local_calls = LocalCallCount(server) - local_before;
  if (!workload_.server_tracer) {
    // Spans per call: one more pass with the server tracer on.
    totals.server_spans = 0;
    server.tracer().Enable();
    for (size_t pos = 0; pos < d_.streams[0].size(); ++pos) {
      OpResult op = RunOp(d_, arch, 0, pos, true, &d_.ledgers[arch], tally_);
      totals.server_spans += static_cast<int64_t>(op.server_spans);
      tally_->Record(op);
    }
    server.tracer().Disable();
    server.tracer().Reset();
  }
}

void LayerRun::Probe(int arch, size_t pos, SpanShard& shard, uint64_t parent,
                     uint64_t request_id) {
  IntegrationServer& server = *d_.servers[arch];
  const Request& request = d_.streams[0][pos];
  const std::string& sql = sql_[pos];

  int64_t start = NowNs();
  Result<fedflow::sql::Statement> parsed = fedflow::sql::Parse(sql);
  shard.Add(SpanName::kSqlParse, parent, request_id, start, NowNs());
  if (!parsed.ok()) ProbeFail("parse " + sql + ": " + parsed.status().ToString());

  start = NowNs();
  Result<Table> executed = server.Query(sql);
  shard.Add(SpanName::kFdbsExecute, parent, request_id, start, NowNs());
  if (!executed.ok() ||
      !Table::SameRowsAnyOrder(*executed, *d_.expected[0][pos])) {
    ProbeFail("functional path of " + RequestKey(request) + " on " +
              ArchKey(arch) + " disagrees with the expected result");
  }

  if (server.engine() != nullptr) {
    start = NowNs();
    Result<fedflow::wfms::ProcessResult> run = server.engine()->Run(
        request.function, request.args, server.program_invoker());
    shard.Add(SpanName::kWfmsRun, parent, request_id, start, NowNs());
    if (!run.ok()) {
      ProbeFail("process " + RequestKey(request) + ": " + run.status().ToString());
    }
  }

  int64_t rows = 0;
  int64_t bytes = 0;
  Status local = ProbeLocalCalls(server, specs_.at(request.function), request,
                                 &shard, parent, request_id, &rows, &bytes);
  if (!local.ok()) ProbeFail("local calls of " + RequestKey(request) + ": " +
                             local.ToString());
}

void LayerRun::TimedPhase(int arch, Phase phase) {
  IntegrationServer& server = *d_.servers[arch];
  bool tracer = workload_.server_tracer;
  if (phase == kPhaseAltTracer) {
    tracer = !tracer;
    if (tracer) {
      server.tracer().Enable();
    } else {
      server.tracer().Disable();
    }
  }
  const int clients = phase == kPhaseProbes ? 1 : workload_.clients;
  std::vector<std::vector<double>> samples(clients);
  std::vector<WriteLedger> ledgers(clients);
  std::vector<int64_t> writes(clients, 0);
  const CounterSnapshot before = TakeSnapshot(server);
  const int64_t deadline = NowNs() + slice_ns_;
  RunClients(clients, [&](int client) {
    SpanShard shard(static_cast<uint8_t>(arch), phase, log_.NextIdBase(),
                    kSpansPerPhase / static_cast<size_t>(kRounds * clients));
    const size_t length = d_.streams[client].size();
    size_t& pos = cursor_[arch][client];
    size_t traced_calls = 0;
    do {
      const Request& request = d_.streams[client][pos];
      const uint64_t request_id = next_request_.fetch_add(1);
      OpResult op = RunOp(d_, arch, client, pos, tracer, &ledgers[client],
                          tally_);
      tally_->Record(op);
      writes[client] += request.write ? 1 : 0;
      // Every other spans-phase call is timed without a span: the two halves
      // give the benchmark's own tracing overhead.
      const bool untraced =
          phase == kPhaseSpans && samples[client].size() < traced_calls;
      if (untraced) {
        samples[client].push_back(
            static_cast<double>(op.end_ns - op.start_ns) / 1e3);
      } else if (!shard.full()) {
        const uint8_t flags =
            (request.write ? kSpanWrite : 0) | (op.cache_hit ? kSpanCacheHit : 0);
        const uint64_t root = shard.Add(SpanName::kCall, 0, request_id,
                                        op.start_ns, op.end_ns, flags);
        ++traced_calls;
        if (tracer) {
          shard.Add(SpanName::kExport, root, request_id, op.export_start_ns,
                    op.export_end_ns);
        }
        if (phase == kPhaseContention) {
          int64_t start = NowNs();
          Result<fedflow::federation::ControllerPool::Lease> lease =
              server.controller_pool().Checkout(d_.Tenant(client),
                                                request.function);
          if (lease.ok()) lease->Release();
          shard.Add(SpanName::kLease, root, request_id, start, NowNs());
          if (!lease.ok()) tally_->admission_retries.fetch_add(1);
          start = NowNs();
          for (int i = 0; i < kIncBatch; ++i) {
            server.metrics().Inc("perfbench.probe");
          }
          shard.Add(SpanName::kMetricsInc, root, request_id, start, NowNs());
        } else if (phase == kPhaseProbes && !request.write) {
          Probe(arch, pos, shard, root, request_id);
        }
      }
      pos = (pos + 1) % length;
      YieldToOtherClients(clients);
    } while (NowNs() < deadline);
    log_.Merge(shard);
  });
  for (int c = 0; c < clients; ++c) d_.ledgers[arch].Merge(ledgers[c]);
  if (phase == kPhaseAltTracer) {
    if (workload_.server_tracer) {
      server.tracer().Enable();
    } else {
      server.tracer().Disable();
    }
    server.tracer().Reset();
  }
  if (phase == kPhaseSpans) {
    const CounterSnapshot after = TakeSnapshot(server);
    PhaseCounters& p = counters_[arch];
    for (int c = 0; c < clients; ++c) {
      p.writes += writes[c];
      untraced_us_[arch].insert(untraced_us_[arch].end(), samples[c].begin(),
                                samples[c].end());
    }
    p.hits += after.hits - before.hits;
    p.misses += after.misses - before.misses;
    p.invalidations += after.invalidations - before.invalidations;
    p.aborts += after.aborts - before.aborts;
    p.hot_checkouts += after.hot - before.hot;
    p.checkouts += after.total - before.total;
  }
}

Metrics LayerRun::Run(const std::string& spans_path) {
  if (Status status = SetUpAll(); !status.ok()) {
    tally_->Fail("set-up: " + status.ToString());
    return {};
  }
  for (int arch = 0; arch < kNumArchs; ++arch) CountPass(arch);
  // Bytes and rows of the local calls behind the first stream's reads.
  for (const Request& request : d_.streams[0]) {
    if (request.write) continue;
    probe_reads_ += 1;
    Status status = ProbeLocalCalls(*d_.servers[0], specs_.at(request.function),
                                    request, nullptr, 0, 0, &probe_rows_,
                                    &probe_bytes_);
    if (!status.ok()) ProbeFail(status.ToString());
  }
  for (int round = 0; round < kRounds; ++round) {
    for (Phase phase :
         {kPhaseSpans, kPhaseAltTracer, kPhaseContention, kPhaseProbes}) {
      for (int arch = 0; arch < kNumArchs; ++arch) TimedPhase(arch, phase);
    }
  }
  CheckWrites(d_, tally_);
  Metrics metrics = Collect();
  std::vector<std::string> arch_names;
  for (int arch = 0; arch < kNumArchs; ++arch) arch_names.push_back(ArchKey(arch));
  if (!log_.WriteTsv(spans_path, arch_names, kPhaseNames)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
  } else {
    std::fprintf(stderr, "%zu spans written to %s\n", log_.size(),
                 spans_path.c_str());
  }
  return metrics;
}

Metrics LayerRun::Collect() {
  Metrics m;
  const auto add = [&](const std::string& name, double value,
                       const char* unit) { m.push_back({name, value, unit}); };
  const auto median = [&](SpanName name, int arch, int phase,
                          uint8_t mask = 0, uint8_t value = 0) {
    return Median(log_.Micros(name, arch, phase, mask, value));
  };
  const int traced_phase =
      workload_.server_tracer ? kPhaseSpans : kPhaseAltTracer;
  const int untraced_phase =
      workload_.server_tracer ? kPhaseAltTracer : kPhaseSpans;
  for (int arch = 0; arch < kNumArchs; ++arch) {
    const std::string a = std::string(".") + ArchKey(arch);
    const CountTotals& c = counts_[arch];
    const PhaseCounters& p = counters_[arch];
    const double calls = static_cast<double>(c.calls);
    const double call_us = median(SpanName::kCall, arch, kPhaseSpans);
    add("federation.call_us" + a, call_us, "us");
    add("federation.allocs_per_call" + a,
        Ratio(static_cast<double>(c.allocations), calls), "count");
    add("federation.alloc_bytes_per_call" + a,
        Ratio(static_cast<double>(c.alloc_bytes), calls), "bytes");
    add("plan.compiles_per_call" + a,
        Ratio(static_cast<double>(c.compiles), calls), "count");
    add("analysis.register_us" + a, Median(register_us_[arch]), "us");
    add("fdbs.execute_us" + a, median(SpanName::kFdbsExecute, arch, -1), "us");
    add("fdbs.rows_emitted_per_call" + a,
        Ratio(static_cast<double>(c.counters.at("pipeline.rows_emitted")),
              calls),
        "count");
    add("fdbs.columnar_batch_ratio" + a,
        Ratio(static_cast<double>(c.counters.at("pipeline.columnar_batches")),
              static_cast<double>(c.counters.at("pipeline.batches_emitted"))),
        "ratio");
    add("appsys.local_calls_per_call" + a,
        Ratio(static_cast<double>(c.local_calls), calls), "count");
    add("cache.hit_ratio" + a,
        Ratio(static_cast<double>(p.hits),
              static_cast<double>(p.hits + p.misses)),
        "ratio");
    add("cache.invalidations_per_write" + a,
        Ratio(static_cast<double>(p.invalidations),
              static_cast<double>(p.writes)),
        "count");
    add("cache.hit_call_us" + a,
        median(SpanName::kCall, arch, kPhaseSpans, kSpanCacheHit,
               kSpanCacheHit),
        "us");
    add("txn.write_call_us_p50" + a,
        median(SpanName::kCall, arch, kPhaseSpans, kSpanWrite, kSpanWrite),
        "us");
    add("txn.aborts_per_write" + a,
        Ratio(static_cast<double>(p.aborts), static_cast<double>(p.writes)),
        "count");
    add("sim.hot_checkout_ratio" + a,
        Ratio(static_cast<double>(p.hot_checkouts),
              static_cast<double>(p.checkouts)),
        "ratio");
    add("obs.spans_per_call" + a,
        Ratio(static_cast<double>(c.server_spans), calls), "count");
    add("obs.export_us" + a, median(SpanName::kExport, arch, -1), "us");
    add("obs.trace_overhead_ratio" + a,
        Ratio(median(SpanName::kCall, arch, traced_phase),
              median(SpanName::kCall, arch, untraced_phase)),
        "ratio");
    add("model.elapsed_us_mean" + a,
        Ratio(static_cast<double>(c.elapsed_us), calls), "us");
    add("bench.trace_overhead_ratio" + a,
        Ratio(call_us, Median(untraced_us_[arch])), "ratio");
  }
  const CountTotals& wfms = counts_[0];
  const double wfms_calls = static_cast<double>(wfms.calls);
  add("sql.parse_us", median(SpanName::kSqlParse, -1, -1), "us");
  add("plan.build_us", Median(plan_build_us_), "us");
  add("wfms.run_us", median(SpanName::kWfmsRun, 0, -1), "us");
  add("wfms.activities_per_call",
      Ratio(static_cast<double>(wfms.counters.at("wfms.activities")),
            wfms_calls),
      "count");
  add("wfms.checkpoints_per_call",
      Ratio(static_cast<double>(wfms.counters.at("wfms.checkpoints")),
            wfms_calls),
      "count");
  add("appsys.local_call_us", median(SpanName::kLocalCall, -1, -1), "us");
  add("appsys.rows_per_call",
      Ratio(static_cast<double>(probe_rows_), static_cast<double>(probe_reads_)),
      "count");
  add("codec.marshal_us", median(SpanName::kMarshal, -1, -1), "us");
  add("codec.bytes_per_call",
      Ratio(static_cast<double>(probe_bytes_),
            static_cast<double>(probe_reads_)),
      "bytes");
  add("sim.lease_us", median(SpanName::kLease, -1, -1), "us");
  add("sim.admission_retries",
      static_cast<double>(tally_->admission_retries.load()), "count");
  add("obs.metrics_inc_us", median(SpanName::kMetricsInc, -1, -1) / kIncBatch,
      "us");
  return m;
}

}  // namespace

Metrics RunLayers(const WorkloadConfig& workload, uint64_t seed,
                  double seconds, const std::string& spans_path,
                  RunTally* tally) {
  LayerRun run(workload, seed, seconds, tally);
  return run.Run(spans_path);
}

}  // namespace perfbench
