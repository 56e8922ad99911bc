#include "fdbs/procedural_function.h"

#include "fdbs/database.h"

namespace fedflow::fdbs {

Result<ExecContext> SqlClient::NextStatement() {
  ++statements_;
  if (ctx_->clock != nullptr && overhead_us_ > 0) {
    ctx_->clock->Charge("JDBC calls", overhead_us_);
  }
  ExecContext inner = *ctx_;
  inner.depth = ctx_->depth + 1;
  if (inner.depth >= ExecContext::kMaxDepth) {
    return Status::ExecutionError("maximum UDTF nesting depth exceeded");
  }
  return inner;
}

Result<Table> SqlClient::Query(const std::string& sql) {
  FEDFLOW_ASSIGN_OR_RETURN(ExecContext inner, NextStatement());
  return db_->Execute(sql, inner);
}

Result<Table> SqlClient::Query(const sql::SelectStmt& prepared,
                               const ParamScope& params) {
  FEDFLOW_ASSIGN_OR_RETURN(ExecContext inner, NextStatement());
  return db_->ExecuteSelect(prepared, inner, &params);
}

Result<Table> ProceduralTableFunction::Invoke(const std::vector<Value>& args,
                                              ExecContext& ctx) {
  if (ctx.db == nullptr) {
    return Status::Internal("procedural function invoked without a database");
  }
  if (args.size() != params_.size()) {
    return Status::InvalidArgument(name_ + " expects " +
                                   std::to_string(params_.size()) +
                                   " argument(s)");
  }
  FEDFLOW_ASSIGN_OR_RETURN(std::vector<Value> coerced, CoerceArgs(args));
  SqlClient client(ctx.db, &ctx, overhead_us_);
  FEDFLOW_ASSIGN_OR_RETURN(Table raw, body_(coerced, &client));
  Table out(schema_);
  for (Row& r : raw.mutable_rows()) {
    FEDFLOW_RETURN_NOT_OK(out.AppendRow(std::move(r)));
  }
  return out;
}

}  // namespace fedflow::fdbs
