// Tests of the PSM path in the UDTF coupling: stored procedures DO express
// the cyclic case (control structures), but remain CALL-only — exactly the
// trade-off the paper's §2/§3 describe.
#include <gtest/gtest.h>

#include "appsys/pdm.h"
#include "appsys/purchasing.h"
#include "appsys/stockkeeping.h"
#include "federation/sample_scenario.h"
#include "federation/udtf_coupling.h"
#include "sql/parser.h"

namespace fedflow::federation {
namespace {

class PsmCouplingTest : public ::testing::Test {
 protected:
  PsmCouplingTest()
      : scenario_(appsys::GenerateScenario({})),
        controller_(&systems_, &model_),
        udtf_(&db_, &systems_, &controller_, &model_, &state_) {
    (void)systems_.Add(std::make_shared<appsys::StockKeepingSystem>(scenario_));
    (void)systems_.Add(std::make_shared<appsys::PurchasingSystem>(scenario_));
    (void)systems_.Add(std::make_shared<appsys::PdmSystem>(scenario_));
    controller_.Start();
    EXPECT_TRUE(udtf_.RegisterAccessUdtfs().ok());
  }

  appsys::Scenario scenario_;
  appsys::AppSystemRegistry systems_;
  sim::LatencyModel model_;
  sim::SystemState state_;
  fdbs::Database db_;
  Controller controller_;
  UdtfCoupling udtf_;
};

TEST_F(PsmCouplingTest, GeneratedPsmForCyclicSpecParsesAndRuns) {
  auto sql = udtf_.CompilePsmSql(AllCompNamesSpec());
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("CREATE PROCEDURE AllCompNames (MaxNo INT)"),
            std::string::npos);
  EXPECT_NE(sql->find("WHILE ITERATION < AllCompNames.MaxNo DO"),
            std::string::npos);
  EXPECT_NE(sql->find("EMIT SELECT"), std::string::npos);

  // Registration parses the generated procedure once; the loop then runs
  // the parsed body, never re-parsing per iteration (the CALL text is the
  // only parse at call time).
  int64_t parses = sql::ParseInvocations();
  ASSERT_TRUE(udtf_.RegisterPsmProcedure(AllCompNamesSpec()).ok());
  EXPECT_EQ(sql::ParseInvocations() - parses, 1);
  parses = sql::ParseInvocations();
  auto result = db_.Execute("CALL AllCompNames(5)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(sql::ParseInvocations() - parses, 1);
  ASSERT_EQ(result->num_rows(), 5u);
  EXPECT_EQ(result->rows()[0][0].AsVarchar(), "comp_1");
  EXPECT_EQ(result->rows()[4][0].AsVarchar(), "comp_5");
}

TEST_F(PsmCouplingTest, PsmProcedureNotReferencableInFrom) {
  ASSERT_TRUE(udtf_.RegisterPsmProcedure(AllCompNamesSpec()).ok());
  // The paper: "a user is not able to reference a stored procedure ... in a
  // select statement. Hence, such a mechanism cannot be combined with
  // references to other federated functions or tables."
  auto r = db_.Execute(
      "SELECT * FROM TABLE (AllCompNames(3)) AS A");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(PsmCouplingTest, NonCyclicSpecCompilesToReturnSelect) {
  auto sql = udtf_.CompilePsmSql(GetSuppQualSpec());
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("RETURN SELECT"), std::string::npos);
  EXPECT_EQ(sql->find("WHILE"), std::string::npos);

  ASSERT_TRUE(udtf_.RegisterPsmProcedure(GetSuppQualSpec()).ok());
  auto result = db_.Execute("CALL GetSuppQual('Stark')");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->rows()[0][0].AsInt(), 9);
}

TEST_F(PsmCouplingTest, PsmAgreesWithIUdtfOnSharedCases) {
  ASSERT_TRUE(udtf_.RegisterFederatedFunction(BuySuppCompSpec()).ok());
  // Procedures and functions live in different namespaces, so the same
  // federated function can exist in both shapes.
  ASSERT_TRUE(udtf_.RegisterPsmProcedure(BuySuppCompSpec()).ok());
  auto via_function = db_.Execute(
      "SELECT * FROM TABLE (BuySuppComp(1234, 'brakepad')) AS B");
  auto via_call = db_.Execute("CALL BuySuppComp(1234, 'brakepad')");
  ASSERT_TRUE(via_function.ok()) << via_function.status();
  ASSERT_TRUE(via_call.ok()) << via_call.status();
  ASSERT_EQ(via_call->num_rows(), 1u);
  EXPECT_EQ(via_function->rows()[0][0].AsVarchar(),
            via_call->rows()[0][0].AsVarchar());
}

TEST_F(PsmCouplingTest, GeneralCaseStillUnsupported) {
  auto sql = udtf_.CompilePsmSql(AllCompNamesSpec());
  ASSERT_TRUE(sql.ok());
  // The general-case rejection is at the set level; single specs compile.
  FederatedFunctionSpec spec = GibKompNrSpec();
  EXPECT_TRUE(udtf_.CompilePsmSql(spec).ok());
}

TEST_F(PsmCouplingTest, PsmLoopAgreesWithWfmsLoop) {
  ASSERT_TRUE(udtf_.RegisterPsmProcedure(AllCompNamesSpec()).ok());
  auto wfms = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(wfms.ok());
  auto via_wfms = (*wfms)->CallFederated("AllCompNames", {Value::Int(7)});
  ASSERT_TRUE(via_wfms.ok());
  auto via_psm = db_.Execute("CALL AllCompNames(7)");
  ASSERT_TRUE(via_psm.ok());
  EXPECT_TRUE(Table::SameRowsAnyOrder(via_wfms->table, *via_psm));
}

}  // namespace
}  // namespace fedflow::federation
