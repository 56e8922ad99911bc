#include "plan/lower_sql.h"

#include <sstream>

#include "sql/ast.h"

namespace fedflow::plan {

using federation::SpecArg;
using federation::SpecJoin;
using federation::SpecOutput;

std::string RenderPlanArg(const SpecArg& arg,
                          const std::string& param_qualifier) {
  switch (arg.kind) {
    case SpecArg::Kind::kConstant:
      return sql::LiteralExpr(arg.constant).ToSql();
    case SpecArg::Kind::kParam:
      return param_qualifier + "." + arg.param;
    case SpecArg::Kind::kNodeColumn:
      return arg.node + "." + arg.column;
  }
  return "?";
}

const char* SqlCastFunctionName(DataType t) {
  switch (t) {
    case DataType::kInt:
      return "INT";
    case DataType::kBigInt:
      return "BIGINT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kVarchar:
      return "VARCHAR";
    case DataType::kNull:
    case DataType::kBool:
      return nullptr;  // no SQL cast function for these targets
  }
  return nullptr;
}

Result<std::string> RenderSelectSql(const FedPlan& plan,
                                    const std::string& param_qualifier) {
  std::ostringstream sql;
  sql << "SELECT ";
  for (size_t i = 0; i < plan.outputs.size(); ++i) {
    if (i > 0) sql << ", ";
    const SpecOutput& out = plan.outputs[i];
    std::string ref = out.node + "." + out.column;
    if (out.cast_to != DataType::kNull) {
      const char* cast = SqlCastFunctionName(out.cast_to);
      if (cast == nullptr) {
        return Status::Unsupported("no SQL cast function for target type");
      }
      sql << cast << "(" << ref << ")";
    } else {
      sql << ref;
    }
    sql << " AS " << out.name;
  }
  sql << "\nFROM ";
  for (size_t k = 0; k < plan.order.size(); ++k) {
    if (k > 0) sql << ",\n     ";
    const PlanCall& call = plan.calls[plan.order[k]];
    sql << "TABLE (" << call.function << "(";
    for (size_t a = 0; a < call.args.size(); ++a) {
      if (a > 0) sql << ", ";
      sql << RenderPlanArg(call.args[a], param_qualifier);
    }
    sql << ")) AS " << call.id;
  }
  if (!plan.joins.empty()) {
    sql << "\nWHERE ";
    for (size_t j = 0; j < plan.joins.size(); ++j) {
      if (j > 0) sql << " AND ";
      const SpecJoin& join = plan.joins[j];
      sql << join.left_node << "." << join.left_column << "="
          << join.right_node << "." << join.right_column;
    }
  }
  return sql.str();
}

}  // namespace fedflow::plan
