// The enhanced Java UDTF architecture (paper §2): A-UDTFs as in the SQL UDTF
// architecture, but the Integration UDTF is implemented in a host language
// ("Java" in the paper; C++ here) issuing JDBC-style statements against the
// FDBS. This lifts the one-SQL-statement restriction: the body may issue as
// many statements as needed and use control structures — so, unlike the SQL
// variant, it CAN express the cyclic case with a client-side do-until loop.
#ifndef FEDFLOW_FEDERATION_JAVA_COUPLING_H_
#define FEDFLOW_FEDERATION_JAVA_COUPLING_H_

#include <memory>

#include "appsys/registry.h"
#include "fdbs/database.h"
#include "federation/classify.h"
#include "federation/spec.h"
#include "plan/optimizer.h"
#include "sim/fault.h"
#include "sim/latency.h"
#include "sim/system_state.h"

namespace fedflow::federation {

/// True when the Java UDTF architecture can express this case (everything
/// except the general case, which needs one artifact covering several
/// federated functions).
bool JavaUdtfSupports(MappingCase c);

/// Wires Java-style procedural I-UDTFs into an FDBS. A-UDTF registration is
/// shared with UdtfCoupling (both variants sit on the same access layer).
class JavaUdtfCoupling {
 public:
  /// `retry` (optional) is the deployment's statement-level retry policy:
  /// like the SQL I-UDTF, the procedural body holds no state between
  /// attempts, so a retriable failure restarts the whole interpretation.
  JavaUdtfCoupling(fdbs::Database* db,
                   const appsys::AppSystemRegistry* systems,
                   const sim::LatencyModel* model, sim::SystemState* state,
                   const sim::RetryPolicy* retry = nullptr)
      : db_(db), systems_(systems), model_(model), state_(state),
        retry_(retry) {}

  /// Compiles the spec into the federated plan (plan/fed_plan.h) and
  /// registers a procedural I-UDTF interpreting it. The body interprets the
  /// mapping: non-cyclic plans issue the same single SELECT the SQL I-UDTF
  /// would contain; cyclic plans run a client-side do-until loop issuing one
  /// statement per iteration and unioning the results. That SELECT is a
  /// prepared statement, parsed once here with its parameters (and
  /// ITERATION) bound per execution. Optimizer passes are opt-in via
  /// `options` and shape the captured plan once, at registration.
  Status RegisterFederatedFunction(const FederatedFunctionSpec& spec,
                                   const plan::PlanOptions& options = {});

  /// Registers from an already-built plan without recompiling. The body
  /// shares ownership of `fed_plan` — under the server's plan cache, the
  /// interpreter and fedplan EXPLAIN read the same instance.
  Status RegisterFederatedFunction(
      const FederatedFunctionSpec& spec,
      std::shared_ptr<const plan::FedPlan> fed_plan);

 private:
  fdbs::Database* db_;
  const appsys::AppSystemRegistry* systems_;
  const sim::LatencyModel* model_;
  sim::SystemState* state_;
  const sim::RetryPolicy* retry_;
};

}  // namespace fedflow::federation

#endif  // FEDFLOW_FEDERATION_JAVA_COUPLING_H_
