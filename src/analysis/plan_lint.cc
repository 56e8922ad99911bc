#include "analysis/plan_lint.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/dag.h"
#include "common/strings.h"
#include "federation/classify.h"
#include "plan/fed_plan.h"
#include "plan/lower_sql.h"
#include "plan/lower_wfms.h"
#include "sql/parser.h"

namespace fedflow::analysis {

namespace {

void Add(std::vector<Diagnostic>* out, const char* code, std::string location,
         std::string message, std::string note = "") {
  Diagnostic d;
  d.severity = Severity::kError;
  d.code = code;
  d.location = std::move(location);
  d.message = std::move(message);
  d.note = std::move(note);
  out->push_back(std::move(d));
}

std::string Joined(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  std::string s;
  for (const std::string& n : names) {
    if (!s.empty()) s += ", ";
    s += n;
  }
  return s;
}

/// The process level holding the program activities (the loop lowering nests
/// them one block down).
const wfms::ProcessDefinition* CallGraphLevel(
    const wfms::ProcessDefinition& def) {
  for (const wfms::ActivityDef& a : def.activities) {
    if (a.kind == wfms::ActivityKind::kProgram) return &def;
  }
  for (const wfms::ActivityDef& a : def.activities) {
    if (a.kind == wfms::ActivityKind::kBlock && a.sub != nullptr) {
      const wfms::ProcessDefinition* inner = CallGraphLevel(*a.sub);
      if (inner != nullptr) return inner;
    }
  }
  return nullptr;
}

/// "SYSTEM.FUNCTION" multiset of the plan's call nodes.
std::vector<std::string> PlanCallSet(const plan::FedPlan& fed_plan) {
  std::vector<std::string> calls;
  for (const plan::PlanCall& c : fed_plan.calls) {
    calls.push_back(ToUpper(c.system) + "." + ToUpper(c.function));
  }
  return calls;
}

void CheckProcessLowering(const plan::FedPlan& fed_plan,
                          const std::string& where,
                          std::vector<Diagnostic>* out) {
  Result<plan::LoweredProcess> lowered = plan::LowerToProcess(fed_plan);
  if (!lowered.ok()) {
    Add(out, kPlanCompileFailed, where,
        "WfMS lowering failed: " + lowered.status().message());
    return;
  }
  const wfms::ProcessDefinition* level = CallGraphLevel(lowered->process);
  if (level == nullptr) {
    Add(out, kPlanCallSetMismatch, where,
        "WfMS lowering contains no program activities");
    return;
  }

  // Call-set agreement: the program activities must be exactly the plan's
  // call nodes (same multiset of local functions, same node ids).
  std::vector<std::string> got;
  std::vector<std::string> got_ids;
  for (const wfms::ActivityDef& a : level->activities) {
    if (a.kind != wfms::ActivityKind::kProgram) continue;
    got.push_back(ToUpper(a.system) + "." + ToUpper(a.function));
    got_ids.push_back(ToUpper(a.name));
  }
  std::vector<std::string> want = PlanCallSet(fed_plan);
  std::vector<std::string> want_ids;
  for (const plan::PlanCall& c : fed_plan.calls) {
    want_ids.push_back(ToUpper(c.id));
  }
  if (Joined(got) != Joined(want) || Joined(got_ids) != Joined(want_ids)) {
    Add(out, kPlanCallSetMismatch, where,
        "WfMS lowering calls {" + Joined(got) + "} but the plan calls {" +
            Joined(want) + "}");
    return;
  }

  // Ordering agreement: every plan constraint (data dep or sequencing edge)
  // must be realized as connector reachability in the process graph.
  std::vector<size_t> act_of(fed_plan.calls.size(), 0);
  for (size_t i = 0; i < fed_plan.calls.size(); ++i) {
    for (size_t a = 0; a < level->activities.size(); ++a) {
      if (EqualsIgnoreCase(level->activities[a].name, fed_plan.calls[i].id)) {
        act_of[i] = a;
      }
    }
  }
  std::vector<std::vector<size_t>> succ(level->activities.size());
  for (const wfms::ControlConnector& c : level->connectors) {
    size_t from = level->activities.size();
    size_t to = level->activities.size();
    for (size_t a = 0; a < level->activities.size(); ++a) {
      if (EqualsIgnoreCase(level->activities[a].name, c.from)) from = a;
      if (EqualsIgnoreCase(level->activities[a].name, c.to)) to = a;
    }
    if (from < succ.size() && to < succ.size()) succ[from].push_back(to);
  }
  std::vector<std::vector<bool>> reach = dag::Reachability(succ);
  auto check_edge = [&](size_t from, size_t to, const char* why) {
    if (!reach[act_of[from]][act_of[to]]) {
      Add(out, kPlanOrderingViolation,
          where + "/edge:" + fed_plan.calls[from].id + "->" +
              fed_plan.calls[to].id,
          std::string("WfMS lowering has no control path enforcing the ") +
              why + " " + fed_plan.calls[from].id + " -> " +
              fed_plan.calls[to].id);
    }
  };
  for (size_t i = 0; i < fed_plan.calls.size(); ++i) {
    for (size_t d : fed_plan.calls[i].data_deps) {
      check_edge(d, i, "data dependency");
    }
  }
  for (const auto& [from, to] : fed_plan.sequencing_edges) {
    check_edge(from, to, "sequencing edge");
  }
}

void CheckSqlLowering(const plan::FedPlan& fed_plan, const std::string& where,
                      std::vector<Diagnostic>* out) {
  Result<std::string> select = plan::RenderSelectSql(fed_plan, fed_plan.name);
  if (!select.ok()) {
    Add(out, kPlanCompileFailed, where,
        "SQL lowering failed: " + select.status().message());
    return;
  }
  Result<sql::Statement> parsed = sql::Parse(*select);
  if (!parsed.ok() || parsed->kind != sql::StatementKind::kSelect ||
      parsed->select == nullptr) {
    Add(out, kPlanCompileFailed, where,
        "SQL lowering did not parse as a SELECT" +
            (parsed.ok() ? std::string()
                         : ": " + parsed.status().message()));
    return;
  }
  const sql::SelectStmt& stmt = *parsed->select;

  // Call-set agreement: the lateral chain must reference exactly the plan's
  // local functions, one TABLE(...) item per call node.
  std::vector<std::string> got_fns;
  std::vector<std::string> got_ids;
  std::vector<size_t> lateral_pos(fed_plan.calls.size(),
                                  fed_plan.calls.size());
  for (size_t k = 0; k < stmt.from.size(); ++k) {
    const sql::TableRef& ref = stmt.from[k];
    if (ref.kind != sql::TableRefKind::kTableFunction) {
      Add(out, kPlanCallSetMismatch, where,
          "SQL lowering references base table " + ref.name +
              " (only A-UDTF lateral references are expected)");
      continue;
    }
    got_fns.push_back(ToUpper(ref.name));
    got_ids.push_back(ToUpper(ref.alias));
    for (size_t i = 0; i < fed_plan.calls.size(); ++i) {
      if (EqualsIgnoreCase(fed_plan.calls[i].id, ref.alias)) {
        lateral_pos[i] = k;
      }
    }
  }
  std::vector<std::string> want_fns;
  std::vector<std::string> want_ids;
  for (const plan::PlanCall& c : fed_plan.calls) {
    want_fns.push_back(ToUpper(c.function));
    want_ids.push_back(ToUpper(c.id));
  }
  if (Joined(got_fns) != Joined(want_fns) ||
      Joined(got_ids) != Joined(want_ids)) {
    Add(out, kPlanCallSetMismatch, where,
        "SQL lowering references {" + Joined(got_fns) +
            "} but the plan calls {" + Joined(want_fns) + "}");
    return;
  }

  // Ordering agreement: DB2's lateral correlation only sees columns of FROM
  // items to the LEFT, so every plan constraint must hold positionally.
  auto check_edge = [&](size_t from, size_t to, const char* why) {
    if (lateral_pos[from] >= lateral_pos[to]) {
      Add(out, kPlanOrderingViolation,
          where + "/edge:" + fed_plan.calls[from].id + "->" +
              fed_plan.calls[to].id,
          std::string("SQL lowering places ") + fed_plan.calls[to].id +
              " at or before " + fed_plan.calls[from].id +
              " in the lateral chain, violating the " + why);
    }
  };
  for (size_t i = 0; i < fed_plan.calls.size(); ++i) {
    for (size_t d : fed_plan.calls[i].data_deps) {
      check_edge(d, i, "data dependency");
    }
  }
  for (const auto& [from, to] : fed_plan.sequencing_edges) {
    check_edge(from, to, "sequencing edge");
  }
}

void CheckPredicates(const plan::FedPlan& fed_plan, const std::string& where,
                     std::vector<Diagnostic>* out) {
  std::vector<size_t> position(fed_plan.calls.size(), 0);
  for (size_t k = 0; k < fed_plan.order.size(); ++k) {
    position[fed_plan.order[k]] = k;
  }
  for (size_t c = 0; c < fed_plan.calls.size(); ++c) {
    for (const std::string& pred : fed_plan.calls[c].predicates) {
      // Conjunct text is "L.lc=R.rc"; both sides must be bound at the sink.
      size_t eq = pred.find('=');
      size_t ldot = pred.find('.');
      size_t rdot = pred.find('.', eq == std::string::npos ? 0 : eq);
      if (eq == std::string::npos || ldot == std::string::npos ||
          rdot == std::string::npos || ldot >= eq) {
        Add(out, kPlanPredicateMisplaced, where + "/call:" +
            fed_plan.calls[c].id,
            "unparseable sunk predicate '" + pred + "'");
        continue;
      }
      std::string left_node = pred.substr(0, ldot);
      std::string right_node = pred.substr(eq + 1, rdot - eq - 1);
      for (const std::string& node : {left_node, right_node}) {
        Result<size_t> idx = fed_plan.CallIndex(node);
        if (!idx.ok()) {
          Add(out, kPlanPredicateMisplaced,
              where + "/call:" + fed_plan.calls[c].id,
              "sunk predicate '" + pred + "' references unknown call node " +
                  node);
          continue;
        }
        if (position[*idx] > position[c]) {
          Add(out, kPlanPredicateMisplaced,
              where + "/call:" + fed_plan.calls[c].id,
              "sunk predicate '" + pred + "' is placed on " +
                  fed_plan.calls[c].id + " before its side " + node +
                  " is bound in the lateral order");
        }
      }
    }
  }
}

}  // namespace

std::vector<Diagnostic> LintPlan(const federation::FederatedFunctionSpec& spec,
                                 const appsys::AppSystemRegistry& systems,
                                 const sim::LatencyModel& model,
                                 const plan::PlanOptions& options,
                                 const plan::FedPlan* prebuilt) {
  std::vector<Diagnostic> out;
  const std::string where = "plan:" + spec.name;

  std::optional<plan::FedPlan> compiled;
  if (prebuilt == nullptr) {
    Result<plan::FedPlan> built = plan::BuildPlan(spec, systems, model, options);
    if (!built.ok()) {
      Add(&out, kPlanCompileFailed, where,
          "plan compilation failed: " + built.status().message());
      return out;
    }
    compiled = std::move(*built);
  }
  const plan::FedPlan& fed_plan = prebuilt != nullptr ? *prebuilt : *compiled;

  // Classification agreement: the spec-level classifier, the plan's recorded
  // case and the IR-shape classifier must coincide.
  Result<federation::MappingCase> spec_case = federation::ClassifySpec(spec);
  if (spec_case.ok() && *spec_case != fed_plan.mapping_case) {
    Add(&out, kPlanClassificationDrift, where,
        std::string("spec classifies as ") +
            federation::MappingCaseName(*spec_case) +
            " but the plan records " +
            federation::MappingCaseName(fed_plan.mapping_case));
  }
  federation::MappingCase ir_case = plan::ClassifyPlan(fed_plan);
  if (ir_case != fed_plan.mapping_case) {
    Add(&out, kPlanClassificationDrift, where,
        std::string("plan IR shape classifies as ") +
            federation::MappingCaseName(ir_case) + " but the plan records " +
            federation::MappingCaseName(fed_plan.mapping_case));
  }

  // Lowerings: every architecture that supports this mapping case must agree
  // with the plan. The WfMS lowering always exists; the SQL lowering only
  // for cases expressible as one statement.
  CheckProcessLowering(fed_plan, where, &out);
  if (federation::UdtfSupports(fed_plan.mapping_case)) {
    CheckSqlLowering(fed_plan, where, &out);
  }
  CheckPredicates(fed_plan, where, &out);
  return out;
}

std::vector<Diagnostic> LintPoolConfig(
    const federation::FederatedFunctionSpec& spec,
    const plan::PlanOptions& options, size_t controller_pool_size) {
  std::vector<Diagnostic> out;
  if (!options.parallelize || controller_pool_size > 1) return out;
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.code = kPlanPoolSerialized;
  d.location = "spec:" + spec.name;
  d.message =
      "PlanOptions.parallelize is requested but the controller pool holds a "
      "single controller: parallel stages all dispatch through it and "
      "serialize";
  d.note =
      "size the pool to the plan's parallel width "
      "(ControllerPoolOptions.max_size > 1) or drop the parallelize pass";
  out.push_back(std::move(d));
  return out;
}

}  // namespace fedflow::analysis
