// IntegrationServer facade behavior across the three architectures,
// including the federated-call path: arguments travel as typed values bound
// into an AST (bit-exact, never rendered to SQL text), no SQL is parsed per
// call, and a function name is only ever a catalog key.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "federation/sample_scenario.h"
#include "sql/parser.h"

namespace fedflow::federation {
namespace {

TEST(ServerTest, ArchitectureNamesStable) {
  EXPECT_STREQ(ArchitectureName(Architecture::kWfms), "WfMS approach");
  EXPECT_STREQ(ArchitectureName(Architecture::kUdtf), "UDTF approach");
  EXPECT_STREQ(ArchitectureName(Architecture::kJavaUdtf),
               "Java UDTF approach");
}

TEST(ServerTest, EngineOnlyPresentUnderWfms) {
  auto wfms = MakeSampleServer(Architecture::kWfms);
  auto udtf = MakeSampleServer(Architecture::kUdtf);
  ASSERT_TRUE(wfms.ok() && udtf.ok());
  EXPECT_NE((*wfms)->engine(), nullptr);
  EXPECT_NE((*wfms)->program_invoker(), nullptr);
  EXPECT_EQ((*udtf)->engine(), nullptr);
  EXPECT_EQ((*udtf)->program_invoker(), nullptr);
}

TEST(ServerTest, QueryTimedOnPlainSqlChargesNothing) {
  auto server = MakeSampleServer(Architecture::kUdtf);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Query("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE((*server)->Query("INSERT INTO t VALUES (1)").ok());
  auto timed = (*server)->QueryTimed("SELECT * FROM t");
  ASSERT_TRUE(timed.ok());
  // Local-only SQL crosses no modeled boundary: zero virtual time.
  EXPECT_EQ(timed->elapsed_us, 0);
}

TEST(ServerTest, CallFederatedQuotesStringArguments) {
  auto server = MakeSampleServer(Architecture::kUdtf);
  ASSERT_TRUE(server.ok());
  // A string argument containing a quote must reach the function intact.
  auto r = (*server)->CallFederated("GibKompNr",
                                    {Value::Varchar("o'brien pad")});
  ASSERT_TRUE(r.ok()) << r.status();  // unknown component: empty result
  EXPECT_EQ(r->table.num_rows(), 0u);
}

TEST(ServerTest, RebootResetsWarmth) {
  auto server = MakeSampleServer(Architecture::kUdtf);
  ASSERT_TRUE(server.ok());
  (void)(*server)->CallFederated("GibKompNr", {Value::Varchar("brakepad")});
  EXPECT_EQ((*server)->state().QueryWarmth("GibKompNr"),
            sim::SystemState::Warmth::kHot);
  (*server)->Reboot();
  EXPECT_EQ((*server)->state().QueryWarmth("GibKompNr"),
            sim::SystemState::Warmth::kCold);
  EXPECT_TRUE((*server)->controller().started());
}

TEST(ServerTest, RegisteringUnsupportedSpecFailsCleanly) {
  appsys::Scenario scenario = appsys::GenerateScenario({});
  auto server = IntegrationServer::Create(Architecture::kUdtf, scenario);
  ASSERT_TRUE(server.ok());
  auto st = (*server)->RegisterFederatedFunction(AllCompNamesSpec());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnsupported);
}

TEST(ServerTest, UnknownSystemInSpecFails) {
  appsys::Scenario scenario = appsys::GenerateScenario({});
  auto server = IntegrationServer::Create(Architecture::kWfms, scenario);
  ASSERT_TRUE(server.ok());
  FederatedFunctionSpec spec = GibKompNrSpec();
  spec.calls[0].system = "sap_r3";
  auto st = (*server)->RegisterFederatedFunction(spec);
  ASSERT_FALSE(st.ok());
  // The fedlint gate rejects the spec before any coupling sees it.
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("fedlint"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("FF005"), std::string::npos) << st.message();
}

TEST(ServerTest, ScenarioConfigScalesLoopExperiment) {
  // Bigger component catalog => longer AllCompNames loops still work.
  auto server = MakeSampleServer(Architecture::kWfms, {8, 120, 42});
  ASSERT_TRUE(server.ok());
  auto r = (*server)->CallFederated("AllCompNames", {Value::Int(100)});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->table.num_rows(), 100u);
}

TEST(ServerTest, WarmthReportedOnTimedCalls) {
  auto server = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(server.ok());
  auto first = (*server)->CallFederated("GetSuppQual",
                                        {Value::Varchar("Stark")});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->warmth, sim::SystemState::Warmth::kCold);
  auto second = (*server)->CallFederated("GetSuppQual",
                                         {Value::Varchar("Stark")});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->warmth, sim::SystemState::Warmth::kHot);
}

TEST(ServerTest, UnknownInputsDivergenceDocumented) {
  // Known behavioral difference (see EXPERIMENTS.md): unknown supplier name
  // yields an empty table through the UDTF lateral join but a failed process
  // through the WfMS (scalar input from an empty predecessor output).
  auto udtf = MakeSampleServer(Architecture::kUdtf);
  auto wfms = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(udtf.ok() && wfms.ok());
  auto u = (*udtf)->CallFederated("GetSuppQual", {Value::Varchar("Ghost")});
  ASSERT_TRUE(u.ok()) << u.status();
  EXPECT_EQ(u->table.num_rows(), 0u);
  auto w = (*wfms)->CallFederated("GetSuppQual", {Value::Varchar("Ghost")});
  EXPECT_FALSE(w.ok());
}

class CallPathTest : public ::testing::TestWithParam<Architecture> {
 protected:
  void SetUp() override {
    auto server = MakeSampleServer(GetParam());
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
    // One SQL echo function per declarable type, created through the
    // server's own SQL surface.
    for (const char* ddl : {
             "CREATE FUNCTION EchoB (X BOOLEAN) RETURNS TABLE (X BOOLEAN) "
             "LANGUAGE SQL RETURN SELECT EchoB.X",
             "CREATE FUNCTION EchoI (X INT) RETURNS TABLE (X INT) "
             "LANGUAGE SQL RETURN SELECT EchoI.X",
             "CREATE FUNCTION EchoL (X BIGINT) RETURNS TABLE (X BIGINT) "
             "LANGUAGE SQL RETURN SELECT EchoL.X",
             "CREATE FUNCTION EchoD (X DOUBLE) RETURNS TABLE (X DOUBLE) "
             "LANGUAGE SQL RETURN SELECT EchoD.X",
             "CREATE FUNCTION EchoS (X VARCHAR) RETURNS TABLE (X VARCHAR) "
             "LANGUAGE SQL RETURN SELECT EchoS.X"}) {
      ASSERT_TRUE(server_->Query(ddl).ok()) << ddl;
    }
  }

  /// SQL parses one federated call performs.
  int64_t ParsesPerCall(const std::string& name,
                        const std::vector<Value>& args) {
    const int64_t before = sql::ParseInvocations();
    auto result = server_->CallFederated(name, args);
    EXPECT_TRUE(result.ok()) << name << ": " << result.status();
    return sql::ParseInvocations() - before;
  }

  std::map<std::string, int64_t> AllFunctionCallCounts() {
    std::map<std::string, int64_t> counts;
    for (const std::string& name : server_->systems().Names()) {
      auto sys = server_->systems().Get(name);
      EXPECT_TRUE(sys.ok());
      for (const auto& [fn, n] : (*sys)->FunctionCallCounts()) {
        counts[name + "." + fn] = n;
      }
    }
    return counts;
  }

  std::unique_ptr<IntegrationServer> server_;
};

INSTANTIATE_TEST_SUITE_P(AllArchitectures, CallPathTest,
                         ::testing::Values(Architecture::kWfms,
                                           Architecture::kUdtf,
                                           Architecture::kJavaUdtf));

/// Same type and, for DOUBLE, the same bit pattern (0.0 vs -0.0 differ).
bool BitExact(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kDouble) {
    return std::bit_cast<uint64_t>(a.AsDouble()) ==
           std::bit_cast<uint64_t>(b.AsDouble());
  }
  return a == b;
}

/// Type and full-precision rendering (DOUBLE as a hex float).
std::string Describe(const Value& v) {
  std::ostringstream os;
  os << DataTypeName(v.type()) << " ";
  if (v.type() == DataType::kDouble) {
    os << std::hexfloat << v.AsDouble();
  } else {
    os << v;
  }
  return os.str();
}

TEST_P(CallPathTest, ArgumentsRoundTripBitExactly) {
  const std::vector<std::pair<std::string, Value>> cases = {
      {"EchoD", Value::Double(1e-7)},
      {"EchoD", Value::Double(0.1234567891)},
      {"EchoD", Value::Double(std::numeric_limits<double>::max())},
      {"EchoD", Value::Double(-std::numeric_limits<double>::max())},
      {"EchoD", Value::Double(std::numeric_limits<double>::denorm_min())},
      {"EchoL", Value::BigInt(std::numeric_limits<int64_t>::min())},
      {"EchoL", Value::BigInt(std::numeric_limits<int64_t>::max())},
      {"EchoI", Value::Int(std::numeric_limits<int32_t>::min())},
      {"EchoI", Value::Int(std::numeric_limits<int32_t>::max())},
      {"EchoS", Value::Varchar("it's (x)) AS R, 'y'")},
      {"EchoB", Value::Bool(true)},
      {"EchoB", Value::Null()},
      {"EchoI", Value::Null()},
      {"EchoL", Value::Null()},
      {"EchoD", Value::Null()},
      {"EchoS", Value::Null()},
  };
  for (const auto& [fn, arg] : cases) {
    auto result = server_->CallFederated(fn, {arg});
    ASSERT_TRUE(result.ok()) << fn << "(" << arg << "): " << result.status();
    ASSERT_EQ(result->table.num_rows(), 1u) << fn << "(" << arg << ")";
    const Value& got = result->table.rows()[0][0];
    EXPECT_TRUE(BitExact(got, arg)) << fn << ": sent " << Describe(arg)
                                    << ", received " << Describe(got);
  }
}

TEST_P(CallPathTest, NonIdentifierNameIsNotFoundAndInvokesNothing) {
  server_->tracer().Enable();
  const std::map<std::string, int64_t> counts_before = AllFunctionCallCounts();
  for (const char* name : {"EchoB(1)) AS Q, TABLE (EchoB",
                           "GibKompNr('brakepad')) AS Q, TABLE (GibKompNr"}) {
    auto result = server_->CallFederated(name, {Value::Int(5)});
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound)
        << result.status();
  }
  EXPECT_EQ(AllFunctionCallCounts(), counts_before);
  // The executor opens one "lateral:" span per table-function invocation.
  for (const obs::Span& span : server_->tracer().Snapshot()) {
    EXPECT_NE(span.name.rfind("lateral:", 0), 0u) << span.name;
  }
}

TEST_P(CallPathTest, ColdAndHotCallsParseNoSql) {
  EXPECT_EQ(ParsesPerCall("GetSuppQual", {Value::Varchar("Stark")}), 0);
  EXPECT_EQ(ParsesPerCall("GetSuppQual", {Value::Varchar("Stark")}), 0);
  EXPECT_EQ(ParsesPerCall("EchoD", {Value::Double(0.5)}), 0);
}

TEST_P(CallPathTest, SagaWriteParsesNoSql) {
  ASSERT_TRUE(
      server_->RegisterFederatedFunction(ProcureComponentSpec()).ok());
  EXPECT_EQ(ParsesPerCall("ProcureComponent",
                          {Value::Varchar("Stark"), Value::Int(17),
                           Value::Int(5)}),
            0);
}

TEST_P(CallPathTest, ResultCacheHitParsesNoSql) {
  server_->set_caching_enabled(true);
  EXPECT_EQ(ParsesPerCall("GetSuppQual", {Value::Varchar("Stark")}), 0);
  const uint64_t hits_before = server_->metrics().counter("cache.result.hit");
  EXPECT_EQ(ParsesPerCall("GetSuppQual", {Value::Varchar("Stark")}), 0);
  EXPECT_GT(server_->metrics().counter("cache.result.hit"), hits_before);
}

TEST(ServerTest, LoopingCallParsesNoSqlPerIteration) {
  // The SQL I-UDTF cannot express the cyclic case; the Java I-UDTF runs one
  // prepared statement per iteration, re-binding ITERATION.
  for (Architecture arch : {Architecture::kWfms, Architecture::kJavaUdtf}) {
    auto server = MakeSampleServer(arch);
    ASSERT_TRUE(server.ok()) << server.status();
    for (int call = 0; call < 2; ++call) {
      const int64_t before = sql::ParseInvocations();
      auto result = (*server)->CallFederated("AllCompNames", {Value::Int(5)});
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->table.num_rows(), 5u);
      EXPECT_EQ(sql::ParseInvocations() - before, 0)
          << ArchitectureName(arch);
    }
  }
}

TEST_P(CallPathTest, RegistrationParsesOnlyTheLintLoweringAndOneIUdtf) {
  // fedlint parses the SQL lowering once under every architecture; the SQL
  // and Java I-UDTFs each parse their generated SQL exactly once more.
  const int64_t before = sql::ParseInvocations();
  FederatedFunctionSpec spec = GetSuppQualSpec();
  spec.name = "GetSuppQual2";
  ASSERT_TRUE(server_->RegisterFederatedFunction(spec).ok());
  EXPECT_EQ(sql::ParseInvocations() - before,
            GetParam() == Architecture::kWfms ? 1 : 2);
}

}  // namespace
}  // namespace fedflow::federation
