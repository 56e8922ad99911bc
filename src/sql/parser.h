// Recursive-descent parser for the fedflow SQL subset.
#ifndef FEDFLOW_SQL_PARSER_H_
#define FEDFLOW_SQL_PARSER_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "sql/ast.h"

namespace fedflow::sql {

/// Parses a single SQL statement (an optional trailing ';' is allowed).
/// Returns InvalidArgument with offset information on syntax errors.
Result<Statement> Parse(const std::string& input);

/// Parses a statement that must be a SELECT.
Result<SelectStmt> ParseSelect(const std::string& input);

/// Parses a bare scalar expression (used by tests and the workflow
/// transition-condition language, which reuses SQL expression syntax).
Result<ExprPtr> ParseExpression(const std::string& input);

/// Process-wide count of Parse/ParseSelect/ParseExpression invocations. The
/// call-path tests diff this around federated calls to pin "no SQL text is
/// parsed per call".
int64_t ParseInvocations();

}  // namespace fedflow::sql

#endif  // FEDFLOW_SQL_PARSER_H_
