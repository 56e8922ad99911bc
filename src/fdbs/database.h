// The FDBS facade: parse + execute SQL statements against a catalog.
#ifndef FEDFLOW_FDBS_DATABASE_H_
#define FEDFLOW_FDBS_DATABASE_H_

#include <string>

#include "common/result.h"
#include "common/table.h"
#include "fdbs/catalog.h"
#include "fdbs/eval.h"
#include "fdbs/exec_context.h"
#include "sql/ast.h"

namespace fedflow::fdbs {

/// An in-memory federated database system. Base tables hold local data; table
/// functions (UDTFs) are its only window onto non-SQL sources — exactly the
/// integration-server role the paper assigns to the FDBS.
class Database {
 public:
  /// Creates a database with the built-in scalar functions registered
  /// (casts, string and numeric helpers).
  Database();

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Parses and executes one statement. DDL/DML return an empty table.
  Result<Table> Execute(const std::string& statement);

  /// Same, but under an explicit execution context (virtual clock etc.).
  Result<Table> Execute(const std::string& statement, ExecContext& ctx);

  /// Executes an already-parsed statement (no SQL text involved). A CREATE
  /// FUNCTION/PROCEDURE moves its body out of `stmt` into the catalog.
  Result<Table> Execute(const sql::Statement& stmt, ExecContext& ctx);

  /// Executes an already-parsed SELECT. `params` supplies the enclosing SQL
  /// function's parameters (for I-UDTF bodies); may be null.
  Result<Table> ExecuteSelect(const sql::SelectStmt& stmt, ExecContext& ctx,
                              const ParamScope* params = nullptr);

 private:
  Catalog catalog_;
};

}  // namespace fedflow::fdbs

#endif  // FEDFLOW_FDBS_DATABASE_H_
