#include "federation/udtf_coupling.h"

#include <memory>
#include <sstream>

#include "cache/cache_key.h"
#include "cache/result_cache.h"
#include "common/strings.h"
#include "fdbs/sql_function.h"
#include "federation/binding.h"
#include "federation/classify.h"
#include "obs/trace.h"
#include "plan/lower_sql.h"
#include "sim/flow_state.h"
#include "sim/rmi.h"
#include "sql/parser.h"
#include "txn/saga.h"

namespace fedflow::federation {

namespace {

/// An Access UDTF: bridges one local function into the FDBS. Each invocation
/// models the paper's fenced-UDTF path: prepare the UDTF process, RMI to the
/// controller, controller dispatch into the application system, RMI return,
/// finish the UDTF.
class AccessUdtf : public fdbs::TableFunction {
 public:
  AccessUdtf(std::string system, const appsys::AppSystem* app,
             const appsys::LocalFunction& fn, Controller* controller,
             const sim::LatencyModel* model, sim::FaultInjector* faults)
      : system_(std::move(system)),
        app_(app),
        name_(fn.name),
        params_(fn.params),
        schema_(fn.result_schema),
        controller_(controller),
        model_(model),
        faults_(faults),
        rmi_(model, faults) {}

  const std::string& name() const override { return name_; }
  const std::vector<Column>& params() const override { return params_; }
  const Schema& result_schema() const override { return schema_; }

  Result<Table> Invoke(const std::vector<Value>& args,
                       fdbs::ExecContext& ctx) override {
    SimClock* clock = ctx.clock;
    obs::SpanScope span(ctx.trace, "audtf:" + name_, obs::Layer::kCoupling);
    span.SetAttribute("system", system_);
    txn::SagaExec* saga = ctx.flow != nullptr ? ctx.flow->saga : nullptr;
    if (saga != nullptr) {
      if (const txn::SagaStep* step = saga->WriteStepFor(system_, name_)) {
        return InvokeSagaWrite(*step, saga, args, ctx, span);
      }
    }
    // Opt-in memoization of the local call: a resident entry at the system's
    // current data version skips the whole fenced-UDTF + RMI + dispatch path.
    const bool memoize = ctx.use_result_cache && ctx.result_cache != nullptr &&
                         app_ != nullptr;
    cache::ResultCache::Key key;
    if (memoize) {
      key.scope = system_;
      key.function = name_;
      key.args = cache::FingerprintArgs(args);
      key.version = std::to_string(app_->data_version());
      if (clock != nullptr) {
        clock->Charge(sim::steps::kCacheProbe, model_->cache_probe_us);
      }
      Table resident(schema_);
      if (ctx.result_cache->Lookup(key, &resident)) {
        span.SetAttribute("cache", "hit");
        if (saga != nullptr) RecordCapture(saga, resident);
        return resident;
      }
      span.SetAttribute("cache", "miss");
    }
    const VDuration uncached_start = clock != nullptr ? clock->now() : 0;
    if (clock != nullptr) {
      clock->Charge(sim::steps::kUdtfPrepareA,
                    model_->udtf_prepare_a_us + model_->controller_attach_us);
    }
    Controller::DispatchResult dispatched;
    sim::RmiChannel::CallCosts costs;
    obs::TraceSession* trace = ctx.trace;
    Controller* controller = FlowController(ctx);
    auto handler = [this, controller, &dispatched, trace](
                       const std::string& fn,
                       const std::vector<Value>& remote_args) -> Result<Table> {
      // Runs under the serve-side RMI span: the local-function execution
      // inside the application system gets its own appsys-layer span.
      obs::SpanScope local(trace, "local:" + fn, obs::Layer::kAppsys);
      local.SetAttribute("system", system_);
      Result<Controller::DispatchResult> d =
          controller->Dispatch(system_, fn, remote_args);
      if (!d.ok()) {
        local.SetStatus(d.status());
        return d.status();
      }
      dispatched = std::move(*d);
      return dispatched.table;
    };
    Result<Table> out = rmi_.Invoke(name_, args, handler, &costs, ctx.trace);
    if (!out.ok()) {
      span.SetStatus(out.status());
      // A failed call is not free: the request leg was spent and the error
      // response still travels back (satellite fix for rmi cost accounting).
      if (clock != nullptr) {
        clock->Charge(sim::steps::kUdtfRmiCalls, costs.call_us);
        clock->Charge(sim::steps::kUdtfRmiReturns, costs.return_us);
      }
      return out.status();
    }
    if (clock != nullptr) {
      clock->Charge(sim::steps::kUdtfRmiCalls, costs.call_us);
      clock->Charge(sim::steps::kUdtfControllerRuns,
                    dispatched.dispatch_cost_us);
      clock->Charge(sim::steps::kUdtfProcessActivities, dispatched.app_cost_us);
      clock->Charge(sim::steps::kUdtfFinishA,
                    model_->udtf_finish_a_us + model_->controller_return_us);
      clock->Charge(sim::steps::kUdtfRmiReturns, costs.return_us);
    }
    if (memoize) {
      cache::ResultCache::Entry entry;
      entry.table = *out;
      entry.saved_cost_us =
          clock != nullptr ? clock->now() - uncached_start : 0;
      if (ctx.flow != nullptr) {
        entry.slot = ctx.flow->slot;
        entry.tenant = ctx.flow->tenant;
      }
      // The store may have moved under this call (key.version is stale then);
      // Insert keyed by the version read before the call keeps such an entry
      // unreachable for future lookups, which re-stamp the current version.
      ctx.result_cache->Insert(key, std::move(entry));
    }
    if (saga != nullptr) RecordCapture(saga, *out);
    return out;
  }

  /// Streaming A-UDTF invocation: the dispatch into the application system
  /// still happens eagerly (the remote side computes its full result), but
  /// the RMI return leg is chunked — each pulled batch charges its share of
  /// the wire cost, and a fully drained stream charges exactly what Invoke
  /// charges.
  Result<fedflow::RowSourcePtr> InvokeStream(const std::vector<Value>& args,
                                             fdbs::ExecContext& ctx,
                                             size_t batch_size) override {
    txn::SagaExec* saga = ctx.flow != nullptr ? ctx.flow->saga : nullptr;
    const bool saga_step =
        saga != nullptr && (saga->WriteStepFor(system_, name_) != nullptr ||
                            !saga->CaptureNodeFor(system_, name_).empty());
    if (saga_step || (ctx.use_result_cache && ctx.result_cache != nullptr &&
                      app_ != nullptr)) {
      // Memoization wants the materialized table anyway, and a fully drained
      // stream charges exactly what Invoke charges — so the cached path runs
      // eagerly and streams the result out of the (possibly resident) table.
      // Saga write and capture steps take the same route: the dedup ledger
      // and undo-arg capture need the materialized acknowledgement.
      FEDFLOW_ASSIGN_OR_RETURN(Table out, Invoke(args, ctx));
      return fedflow::MakeTableSource(std::move(out), batch_size);
    }
    SimClock* clock = ctx.clock;
    obs::SpanScope span(ctx.trace, "audtf:" + name_, obs::Layer::kCoupling);
    span.SetAttribute("system", system_);
    span.SetAttribute("streaming", "true");
    if (clock != nullptr) {
      clock->Charge(sim::steps::kUdtfPrepareA,
                    model_->udtf_prepare_a_us + model_->controller_attach_us);
    }
    Controller::DispatchResult dispatched;
    obs::TraceSession* trace = ctx.trace;
    Controller* controller = FlowController(ctx);
    auto handler = [this, controller, &dispatched, trace](
                       const std::string& fn,
                       const std::vector<Value>& remote_args) -> Result<Table> {
      obs::SpanScope local(trace, "local:" + fn, obs::Layer::kAppsys);
      local.SetAttribute("system", system_);
      Result<Controller::DispatchResult> d =
          controller->Dispatch(system_, fn, remote_args);
      if (!d.ok()) {
        local.SetStatus(d.status());
        return d.status();
      }
      dispatched = std::move(*d);
      return dispatched.table;
    };
    sim::RmiChannel::CallCosts costs;
    sim::RmiChannel::ChunkCostFn on_chunk;
    if (clock != nullptr) {
      on_chunk = [clock](VDuration cost) {
        clock->Charge(sim::steps::kUdtfRmiReturns, cost);
      };
    }
    Result<fedflow::RowSourcePtr> source =
        rmi_.InvokeStreaming(name_, args, handler, batch_size, &costs,
                             std::move(on_chunk), ctx.trace);
    if (!source.ok()) {
      span.SetStatus(source.status());
      if (clock != nullptr) {
        clock->Charge(sim::steps::kUdtfRmiCalls, costs.call_us);
        clock->Charge(sim::steps::kUdtfRmiReturns, costs.return_us);
      }
      return source.status();
    }
    if (clock != nullptr) {
      clock->Charge(sim::steps::kUdtfRmiCalls, costs.call_us);
      clock->Charge(sim::steps::kUdtfControllerRuns,
                    dispatched.dispatch_cost_us);
      clock->Charge(sim::steps::kUdtfProcessActivities, dispatched.app_cost_us);
      clock->Charge(sim::steps::kUdtfFinishA,
                    model_->udtf_finish_a_us + model_->controller_return_us);
      // Register the RMI-returns step at its usual breakdown position; the
      // actual cost arrives per chunk as the stream is drained.
      clock->ChargeWork(sim::steps::kUdtfRmiReturns, 0);
    }
    return source;
  }

 private:
  /// Records the output of a capture-source node (one whose result feeds a
  /// compensation argument of a later write) for undo-arg resolution.
  void RecordCapture(txn::SagaExec* saga, const Table& out) const {
    std::string node = saga->CaptureNodeFor(system_, name_);
    if (!node.empty()) saga->RecordOutput(node, out);
  }

  /// The saga write path of this A-UDTF. It differs from the read path in
  /// four ways: the call is never memoized (a write must reach the store);
  /// the idempotency key is marshalled with the RMI request as an extra
  /// VARCHAR argument, so its bytes are charged at real wire cost; a
  /// duplicate key is answered from the dedup ledger without re-dispatching
  /// into the application system; and the fault consultation happens AFTER
  /// the local call applied — an injected fault models the acknowledgement
  /// getting lost on the return leg, which is exactly the case the ledger
  /// exists for. The member rmi_ consults faults BEFORE its handler runs, so
  /// this path uses a fault-free channel and consults the injector by hand.
  Result<Table> InvokeSagaWrite(const txn::SagaStep& step, txn::SagaExec* saga,
                                const std::vector<Value>& args,
                                fdbs::ExecContext& ctx, obs::SpanScope& span) {
    SimClock* clock = ctx.clock;
    span.SetAttribute("saga.step", step.node);
    const std::string key = saga->IdempotencyKey(step);
    std::vector<Value> wire_args = args;
    wire_args.push_back(Value::Varchar(key));
    if (clock != nullptr) {
      clock->Charge(sim::steps::kUdtfPrepareA,
                    model_->udtf_prepare_a_us + model_->controller_attach_us);
    }
    sim::RmiChannel channel(model_, nullptr);
    sim::RmiChannel::CallCosts costs;
    obs::TraceSession* trace = ctx.trace;

    // Duplicate key: a previous attempt applied this write but its response
    // was lost. Replay the recorded acknowledgement; the store does not run
    // the local function again.
    std::optional<Table> recorded = saga->DedupLookup(step);
    if (recorded.has_value()) {
      span.SetAttribute("saga.dedup", "hit");
      auto replay = [this, clock, &recorded](
                        const std::string&,
                        const std::vector<Value>&) -> Result<Table> {
        if (clock != nullptr) {
          clock->Charge(sim::steps::kSagaDedup, model_->txn_dedup_us);
        }
        return *recorded;
      };
      Result<Table> out =
          channel.Invoke(name_, wire_args, replay, &costs, trace);
      if (clock != nullptr) {
        clock->Charge(sim::steps::kUdtfRmiCalls, costs.call_us);
        clock->Charge(sim::steps::kUdtfFinishA,
                      model_->udtf_finish_a_us + model_->controller_return_us);
        clock->Charge(sim::steps::kUdtfRmiReturns, costs.return_us);
      }
      return out;
    }

    Controller::DispatchResult dispatched;
    Controller* controller = FlowController(ctx);
    sim::FaultInjector* faults =
        ctx.flow != nullptr ? ctx.flow->faults : faults_;
    VDuration spike_us = 0;
    auto handler = [this, controller, saga, &step, &key, &dispatched,
                    &spike_us, trace, faults](
                       const std::string& fn,
                       const std::vector<Value>& remote_args) -> Result<Table> {
      obs::SpanScope local(trace, "local:" + fn, obs::Layer::kAppsys);
      local.SetAttribute("system", system_);
      local.SetAttribute("saga.step", step.node);
      // The idempotency key rides last in the request; strip it before the
      // dispatch into the application system.
      std::vector<Value> call_args(remote_args.begin(),
                                   remote_args.end() - 1);
      Result<Controller::DispatchResult> d =
          controller->Dispatch(system_, fn, call_args);
      if (!d.ok()) {
        local.SetStatus(d.status());
        return d.status();
      }
      dispatched = std::move(*d);
      // The write is applied from here on: ledger + saga log first, THEN the
      // fault consultation — a fault loses the acknowledgement after the
      // store committed, never before.
      Status ledger = saga->RecordApplied(step, dispatched.table);
      if (!ledger.ok()) {
        local.SetStatus(ledger);
        return ledger;
      }
      sim::FaultInjector::Decision decision;
      if (faults != nullptr) decision = faults->Consult(fn);
      spike_us = decision.extra_latency_us;
      if (decision.fault != sim::FaultInjector::Fault::kNone) {
        Status lost =
            Status::Unavailable("saga: acknowledgement of applied write " +
                                fn + " lost on the return leg");
        local.AddEvent("write applied", "ack recorded under " + key);
        local.SetStatus(lost);
        return lost;
      }
      return dispatched.table;
    };
    Result<Table> out = channel.Invoke(name_, wire_args, handler, &costs,
                                       trace);
    if (!out.ok()) {
      span.SetStatus(out.status());
      // The request leg, the dispatch, and the applied local work were all
      // spent before the failure; only the finish step is saved.
      if (clock != nullptr) {
        clock->Charge(sim::steps::kUdtfRmiCalls, costs.call_us);
        clock->Charge(sim::steps::kUdtfControllerRuns,
                      dispatched.dispatch_cost_us);
        clock->Charge(sim::steps::kUdtfProcessActivities,
                      dispatched.app_cost_us + spike_us);
        clock->Charge(sim::steps::kUdtfRmiReturns, costs.return_us);
      }
      return out.status();
    }
    if (clock != nullptr) {
      clock->Charge(sim::steps::kUdtfRmiCalls, costs.call_us);
      clock->Charge(sim::steps::kUdtfControllerRuns,
                    dispatched.dispatch_cost_us);
      clock->Charge(sim::steps::kUdtfProcessActivities,
                    dispatched.app_cost_us + spike_us);
      clock->Charge(sim::steps::kUdtfFinishA,
                    model_->udtf_finish_a_us + model_->controller_return_us);
      clock->Charge(sim::steps::kUdtfRmiReturns, costs.return_us);
    }
    return out;
  }

  /// The controller this invocation dispatches through: the flow's leased
  /// controller under pooled execution, else the coupling's construction-time
  /// controller (single-flow mode — bit-identical legacy behavior).
  Controller* FlowController(const fdbs::ExecContext& ctx) const {
    if (ctx.flow != nullptr && ctx.flow->controller != nullptr) {
      return ctx.flow->controller;
    }
    return controller_;
  }

  std::string system_;
  const appsys::AppSystem* app_;
  std::string name_;
  std::vector<Column> params_;
  Schema schema_;
  Controller* controller_;
  const sim::LatencyModel* model_;
  sim::FaultInjector* faults_;
  sim::RmiChannel rmi_;
};

/// Decorates the SQL-bodied I-UDTF with start/finish and warm-up costs.
class InstrumentedIUdtf : public fdbs::TableFunction {
 public:
  InstrumentedIUdtf(std::shared_ptr<fdbs::TableFunction> inner,
                    const sim::LatencyModel* model, sim::SystemState* state,
                    const sim::RetryPolicy* retry)
      : inner_(std::move(inner)), model_(model), state_(state),
        retry_(retry) {}

  const std::string& name() const override { return inner_->name(); }
  const std::vector<Column>& params() const override {
    return inner_->params();
  }
  const Schema& result_schema() const override {
    return inner_->result_schema();
  }

  Result<Table> Invoke(const std::vector<Value>& args,
                       fdbs::ExecContext& ctx) override {
    SimClock* clock = ctx.clock;
    sim::SystemState* state = FlowLedger(ctx);
    obs::SpanScope span(ctx.trace, "iudtf:" + name(), obs::Layer::kCoupling);
    if (clock != nullptr && state != nullptr) {
      switch (state->QueryWarmth(name())) {
        case sim::SystemState::Warmth::kCold:
          clock->Charge(sim::steps::kWarmup, model_->cold_infrastructure_us +
                                                 model_->first_run_function_us);
          break;
        case sim::SystemState::Warmth::kWarm:
          clock->Charge(sim::steps::kWarmup, model_->first_run_function_us);
          break;
        case sim::SystemState::Warmth::kHot:
          break;
      }
    }
    // Statement-level retry: the I-UDTF holds no state between attempts, so
    // a retriable failure restarts the WHOLE body statement — every lateral
    // A-UDTF reference runs (and charges) again. This is the architectural
    // price the fault/recovery experiment measures.
    sim::RetryLoop retry(retry_, clock, ctx.metrics, name());
    while (true) {
      if (clock != nullptr) {
        clock->Charge(sim::steps::kUdtfStartI, model_->udtf_start_i_us);
      }
      Result<Table> out = inner_->Invoke(args, ctx);
      if (out.ok()) {
        if (clock != nullptr) {
          clock->Charge(sim::steps::kUdtfFinishI, model_->udtf_finish_i_us);
        }
        if (state != nullptr) state->MarkRun(name());
        return out;
      }
      if (!retry.ShouldRetry(out.status())) {
        span.SetStatus(out.status());
        return out.status();
      }
      span.AddEvent("retrying statement", out.status().message());
      FEDFLOW_RETURN_NOT_OK(retry.Backoff());
    }
  }

  /// Streaming I-UDTF invocation: charges warm-up and start/finish exactly
  /// as Invoke (clock charges are order-independent), then passes the
  /// inner function's stream through untouched.
  Result<fedflow::RowSourcePtr> InvokeStream(const std::vector<Value>& args,
                                             fdbs::ExecContext& ctx,
                                             size_t batch_size) override {
    SimClock* clock = ctx.clock;
    sim::SystemState* state = FlowLedger(ctx);
    obs::SpanScope span(ctx.trace, "iudtf:" + name(), obs::Layer::kCoupling);
    span.SetAttribute("streaming", "true");
    if (clock != nullptr && state != nullptr) {
      switch (state->QueryWarmth(name())) {
        case sim::SystemState::Warmth::kCold:
          clock->Charge(sim::steps::kWarmup, model_->cold_infrastructure_us +
                                                 model_->first_run_function_us);
          break;
        case sim::SystemState::Warmth::kWarm:
          clock->Charge(sim::steps::kWarmup, model_->first_run_function_us);
          break;
        case sim::SystemState::Warmth::kHot:
          break;
      }
    }
    // Same statement-level retry as Invoke; only the eager part of the inner
    // execution can fail here (stream construction), and it restarts whole.
    sim::RetryLoop retry(retry_, clock, ctx.metrics, name());
    while (true) {
      if (clock != nullptr) {
        clock->Charge(sim::steps::kUdtfStartI, model_->udtf_start_i_us);
      }
      Result<fedflow::RowSourcePtr> source =
          inner_->InvokeStream(args, ctx, batch_size);
      if (source.ok()) {
        if (clock != nullptr) {
          clock->Charge(sim::steps::kUdtfFinishI, model_->udtf_finish_i_us);
        }
        if (state != nullptr) state->MarkRun(name());
        return source;
      }
      if (!retry.ShouldRetry(source.status())) {
        span.SetStatus(source.status());
        return source.status();
      }
      span.AddEvent("retrying statement", source.status().message());
      FEDFLOW_RETURN_NOT_OK(retry.Backoff());
    }
  }

 private:
  /// The warmth ledger this invocation charges against: the flow's leased
  /// controller's ledger under pooled execution, else the construction-time
  /// global state (single-flow mode).
  sim::SystemState* FlowLedger(const fdbs::ExecContext& ctx) const {
    if (ctx.flow != nullptr && ctx.flow->warmth != nullptr) {
      return ctx.flow->warmth;
    }
    return state_;
  }

  std::shared_ptr<fdbs::TableFunction> inner_;
  const sim::LatencyModel* model_;
  sim::SystemState* state_;
  const sim::RetryPolicy* retry_;
};

}  // namespace

Status UdtfCoupling::RegisterAccessUdtfs() {
  for (const std::string& sys_name : systems_->Names()) {
    FEDFLOW_ASSIGN_OR_RETURN(appsys::AppSystem * sys, systems_->Get(sys_name));
    for (const std::string& fn_name : sys->FunctionNames()) {
      FEDFLOW_ASSIGN_OR_RETURN(const appsys::LocalFunction* fn,
                               sys->GetFunction(fn_name));
      FEDFLOW_RETURN_NOT_OK(db_->catalog().RegisterTableFunction(
          std::make_shared<AccessUdtf>(sys_name, sys, *fn, controller_, model_,
                                       faults_)));
    }
  }
  return Status::OK();
}

Result<std::string> UdtfCoupling::CompileIUdtfSql(
    const FederatedFunctionSpec& spec,
    const plan::PlanOptions& options) const {
  FEDFLOW_ASSIGN_OR_RETURN(plan::FedPlan fed_plan,
                           plan::BuildPlan(spec, *systems_, *model_, options));
  return CompileIUdtfSql(spec, fed_plan);
}

Result<std::string> UdtfCoupling::CompileIUdtfSql(
    const FederatedFunctionSpec& spec, const plan::FedPlan& fed_plan) const {
  if (!UdtfSupports(fed_plan.mapping_case)) {
    return Status::Unsupported(
        std::string("the enhanced SQL UDTF architecture cannot express the ") +
        MappingCaseName(fed_plan.mapping_case) +
        " case (no loop/control structures in a single SQL statement)");
  }

  const Schema& returns = fed_plan.result_schema;
  std::ostringstream sql;
  sql << "CREATE FUNCTION " << spec.name << " (";
  for (size_t i = 0; i < spec.params.size(); ++i) {
    if (i > 0) sql << ", ";
    sql << spec.params[i].name << " " << DataTypeName(spec.params[i].type);
  }
  sql << ")\nRETURNS TABLE (";
  for (size_t i = 0; i < returns.num_columns(); ++i) {
    if (i > 0) sql << ", ";
    sql << returns.column(i).name << " "
        << DataTypeName(returns.column(i).type);
  }
  sql << ")\nLANGUAGE SQL RETURN\n";
  // DB2 style: the body references the function's own parameters as
  // FunctionName.ParamName.
  FEDFLOW_ASSIGN_OR_RETURN(std::string select,
                           plan::RenderSelectSql(fed_plan, spec.name));
  sql << select;
  return sql.str();
}

Result<std::string> UdtfCoupling::CompilePsmSql(
    const FederatedFunctionSpec& spec,
    const plan::PlanOptions& options) const {
  // Compile the plan of the spec as declared — the loop stays in the IR
  // (RenderSelectSql renders the body graph), so no loop-stripped spec copy
  // is needed.
  FEDFLOW_ASSIGN_OR_RETURN(plan::FedPlan fed_plan,
                           plan::BuildPlan(spec, *systems_, *model_, options));
  return CompilePsmSql(spec, fed_plan);
}

Result<std::string> UdtfCoupling::CompilePsmSql(
    const FederatedFunctionSpec& spec, const plan::FedPlan& fed_plan) const {
  if (fed_plan.mapping_case == MappingCase::kGeneral) {
    return Status::Unsupported(
        "a stored procedure still implements ONE federated function; the "
        "general case needs a shared mapping artifact");
  }

  // The body's SELECT, with parameters (and ITERATION, when looping)
  // referenced as ProcName.X — PSM variables resolve the same way.
  FEDFLOW_ASSIGN_OR_RETURN(std::string select,
                           plan::RenderSelectSql(fed_plan, spec.name));

  std::ostringstream sql;
  sql << "CREATE PROCEDURE " << spec.name << " (";
  for (size_t i = 0; i < spec.params.size(); ++i) {
    if (i > 0) sql << ", ";
    sql << spec.params[i].name << " " << DataTypeName(spec.params[i].type);
  }
  sql << ")\nBEGIN\n";
  if (spec.loop.enabled) {
    sql << "  DECLARE ITERATION INT;\n"
        << "  SET ITERATION = 0;\n"
        << "  WHILE ITERATION < " << spec.name << "." << spec.loop.count_param
        << " DO\n"
        << "    SET ITERATION = ITERATION + 1;\n"
        << "    EMIT " << select << ";\n"
        << "  END WHILE;\n";
  } else {
    sql << "  RETURN " << select << ";\n";
  }
  sql << "END";
  return sql.str();
}

Status UdtfCoupling::RegisterPsmProcedure(const FederatedFunctionSpec& spec) {
  FEDFLOW_ASSIGN_OR_RETURN(std::string sql, CompilePsmSql(spec));
  FEDFLOW_ASSIGN_OR_RETURN(Table ignored, db_->Execute(sql));
  (void)ignored;
  return Status::OK();
}

Status UdtfCoupling::RegisterFederatedFunction(
    const FederatedFunctionSpec& spec, const plan::PlanOptions& options) {
  FEDFLOW_ASSIGN_OR_RETURN(plan::FedPlan fed_plan,
                           plan::BuildPlan(spec, *systems_, *model_, options));
  return RegisterFederatedFunction(spec, fed_plan);
}

Status UdtfCoupling::RegisterFederatedFunction(
    const FederatedFunctionSpec& spec, const plan::FedPlan& fed_plan) {
  FEDFLOW_ASSIGN_OR_RETURN(std::string sql, CompileIUdtfSql(spec, fed_plan));
  // Dogfood: parse the generated SQL with our own parser.
  FEDFLOW_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  if (stmt.kind != sql::StatementKind::kCreateFunction) {
    return Status::Internal("generated I-UDTF SQL did not parse as "
                            "CREATE FUNCTION");
  }
  auto def = std::make_shared<sql::CreateFunctionStmt>();
  def->name = stmt.create_function->name;
  def->params = stmt.create_function->params;
  def->returns = stmt.create_function->returns;
  def->body = std::move(stmt.create_function->body);
  auto inner = std::make_shared<fdbs::SqlTableFunction>(std::move(def));
  return db_->catalog().RegisterTableFunction(std::make_shared<InstrumentedIUdtf>(
      std::move(inner), model_, state_, retry_));
}

}  // namespace fedflow::federation
