// SQL lowering of the plan IR: renders the body SELECT of a federated
// function — outputs with casts, lateral TABLE(...) references in plan
// order, join predicates. Shared by the SQL I-UDTF compiler, the PSM
// compiler and the Java/procedural coupling. All three render parameters
// (and ITERATION) DB2-style as "SpecName.Param" and render the text once, at
// registration; the Java coupling parses it once into a prepared statement
// whose parameters are bound per call. For a passthrough plan the rendered
// text is byte-identical to the legacy BuildSpecSelectSql output.
#ifndef FEDFLOW_PLAN_LOWER_SQL_H_
#define FEDFLOW_PLAN_LOWER_SQL_H_

#include <string>

#include "common/result.h"
#include "plan/fed_plan.h"

namespace fedflow::plan {

/// Renders one call argument: constants as SQL literals, node columns as
/// "Node.Column", parameters as "<param_qualifier>.Param".
std::string RenderPlanArg(const federation::SpecArg& arg,
                          const std::string& param_qualifier);

/// Name of the SQL cast function for a target type; null when SQL has none.
const char* SqlCastFunctionName(DataType t);

/// Renders the plan's body SELECT with parameters qualified by
/// `param_qualifier`. Looping plans render their body graph, referencing the
/// iteration counter as "<param_qualifier>.ITERATION".
Result<std::string> RenderSelectSql(const FedPlan& plan,
                                    const std::string& param_qualifier);

}  // namespace fedflow::plan

#endif  // FEDFLOW_PLAN_LOWER_SQL_H_
