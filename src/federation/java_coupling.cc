#include "federation/java_coupling.h"

#include <memory>
#include <optional>

#include "fdbs/procedural_function.h"
#include "obs/trace.h"
#include "plan/lower_sql.h"
#include "sim/flow_state.h"
#include "sql/parser.h"

namespace fedflow::federation {

bool JavaUdtfSupports(MappingCase c) { return c != MappingCase::kGeneral; }

Status JavaUdtfCoupling::RegisterFederatedFunction(
    const FederatedFunctionSpec& spec, const plan::PlanOptions& options) {
  // Compile + optimize the plan ONCE at registration; the procedural body
  // interprets the captured plan directly.
  FEDFLOW_ASSIGN_OR_RETURN(plan::FedPlan fed_plan,
                           plan::BuildPlan(spec, *systems_, *model_, options));
  return RegisterFederatedFunction(
      spec, std::make_shared<const plan::FedPlan>(std::move(fed_plan)));
}

Status JavaUdtfCoupling::RegisterFederatedFunction(
    const FederatedFunctionSpec& spec,
    std::shared_ptr<const plan::FedPlan> fed_plan) {
  if (!JavaUdtfSupports(fed_plan->mapping_case)) {
    return Status::Unsupported(
        std::string("the Java UDTF architecture cannot express the ") +
        MappingCaseName(fed_plan->mapping_case) + " case");
  }
  Schema returns = fed_plan->result_schema;
  // The JDBC prepared statement: the lowered SELECT is rendered and parsed
  // once, here; each call binds its arguments (and ITERATION) to the
  // "Spec.Param" references instead of re-rendering SQL text.
  FEDFLOW_ASSIGN_OR_RETURN(std::string select,
                           plan::RenderSelectSql(*fed_plan, fed_plan->name));
  FEDFLOW_ASSIGN_OR_RETURN(sql::SelectStmt parsed, sql::ParseSelect(select));
  auto prepared = std::make_shared<const sql::SelectStmt>(std::move(parsed));

  fdbs::ProceduralBody body =
      [plan = std::move(fed_plan), prepared, returns](
          const std::vector<Value>& args,
          fdbs::SqlClient* client) -> Result<Table> {
    const plan::FedPlan& fed_plan = *plan;
    fdbs::ParamScope bound;
    bound.function_name = fed_plan.name;
    for (size_t i = 0; i < fed_plan.params.size(); ++i) {
      bound.params.emplace_back(fed_plan.params[i].name, args[i]);
    }
    if (!fed_plan.loop.enabled) return client->Query(*prepared, bound);

    // Cyclic case: client-side do-until loop, one statement per iteration.
    int64_t limit = 0;
    if (std::optional<Value> count =
            bound.Lookup("", fed_plan.loop.count_param)) {
      FEDFLOW_ASSIGN_OR_RETURN(limit, count->ToInt64());
    }
    bound.params.emplace_back("ITERATION", Value::Null());
    Table all(returns);
    int32_t iteration = 0;
    do {
      bound.params.back().second = Value::Int(++iteration);
      FEDFLOW_ASSIGN_OR_RETURN(Table chunk, client->Query(*prepared, bound));
      if (!fed_plan.loop.union_all) all = Table(returns);  // keep last only
      for (Row& r : chunk.mutable_rows()) {
        FEDFLOW_RETURN_NOT_OK(all.AppendRow(std::move(r)));
      }
    } while (iteration < limit);
    return all;
  };

  auto fn = std::make_shared<fdbs::ProceduralTableFunction>(
      spec.name, spec.params, returns, std::move(body),
      model_->jdbc_statement_us);

  // Decorate with start/finish + warm-up costs and the statement-level
  // retry, mirroring the SQL I-UDTF.
  class Decorated : public fdbs::TableFunction {
   public:
    Decorated(std::shared_ptr<fdbs::TableFunction> inner,
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
      // Per-flow warmth ledger with single-flow fallback (ExecContext::flow).
      sim::SystemState* state =
          ctx.flow != nullptr && ctx.flow->warmth != nullptr ? ctx.flow->warmth
                                                             : state_;
      obs::SpanScope span(ctx.trace, "java-iudtf:" + name(),
                          obs::Layer::kCoupling);
      if (clock != nullptr && state != nullptr) {
        switch (state->QueryWarmth(name())) {
          case sim::SystemState::Warmth::kCold:
            clock->Charge(sim::steps::kWarmup,
                          model_->cold_infrastructure_us +
                              model_->first_run_function_us);
            break;
          case sim::SystemState::Warmth::kWarm:
            clock->Charge(sim::steps::kWarmup,
                          model_->first_run_function_us);
            break;
          case sim::SystemState::Warmth::kHot:
            break;
        }
      }
      // Statement-level retry: the procedural body holds no state between
      // attempts, so a retriable failure re-interprets the WHOLE plan —
      // every statement it issues runs (and charges) again. Saga write
      // steps survive the restart through the dedup ledger.
      sim::RetryLoop retry(retry_, clock, ctx.metrics, name());
      while (true) {
        if (clock != nullptr) {
          clock->Charge(sim::steps::kJavaStartI, model_->java_iudtf_start_us);
        }
        Result<Table> out = inner_->Invoke(args, ctx);
        if (out.ok()) {
          if (clock != nullptr) {
            clock->Charge(sim::steps::kJavaFinishI,
                          model_->java_iudtf_finish_us);
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

   private:
    std::shared_ptr<fdbs::TableFunction> inner_;
    const sim::LatencyModel* model_;
    sim::SystemState* state_;
    const sim::RetryPolicy* retry_;
  };

  return db_->catalog().RegisterTableFunction(
      std::make_shared<Decorated>(std::move(fn), model_, state_, retry_));
}

}  // namespace fedflow::federation
