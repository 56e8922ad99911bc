#include "sql/parser.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "sql/lexer.h"

namespace fedflow::sql {

namespace {

template <typename T, typename... Args>
ExprPtr MakeExpr(Args&&... args) {
  return std::make_shared<T>(std::forward<Args>(args)...);
}

/// Token-cursor parser. All Parse* methods return Result and never consume
/// past a failure point deterministically (errors abort the whole parse).
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    Statement stmt;
    if (PeekKeyword("SELECT")) {
      FEDFLOW_ASSIGN_OR_RETURN(SelectStmt sel, ParseSelectStmt());
      stmt.kind = StatementKind::kSelect;
      stmt.select = std::make_unique<SelectStmt>(std::move(sel));
    } else if (PeekKeyword("CREATE")) {
      Advance();
      if (PeekKeyword("TABLE")) {
        Advance();
        FEDFLOW_ASSIGN_OR_RETURN(CreateTableStmt ct, ParseCreateTableTail());
        stmt.kind = StatementKind::kCreateTable;
        stmt.create_table = std::make_unique<CreateTableStmt>(std::move(ct));
      } else if (PeekKeyword("FUNCTION")) {
        Advance();
        FEDFLOW_ASSIGN_OR_RETURN(CreateFunctionStmt cf,
                                 ParseCreateFunctionTail());
        stmt.kind = StatementKind::kCreateFunction;
        stmt.create_function =
            std::make_unique<CreateFunctionStmt>(std::move(cf));
      } else if (PeekKeyword("PROCEDURE")) {
        Advance();
        FEDFLOW_ASSIGN_OR_RETURN(CreateProcedureStmt cp,
                                 ParseCreateProcedureTail());
        stmt.kind = StatementKind::kCreateProcedure;
        stmt.create_procedure =
            std::make_unique<CreateProcedureStmt>(std::move(cp));
      } else {
        return Error("expected TABLE, FUNCTION or PROCEDURE after CREATE");
      }
    } else if (PeekKeyword("INSERT")) {
      Advance();
      FEDFLOW_ASSIGN_OR_RETURN(InsertStmt ins, ParseInsertTail());
      stmt.kind = StatementKind::kInsert;
      stmt.insert = std::make_unique<InsertStmt>(std::move(ins));
    } else if (PeekKeyword("UPDATE")) {
      Advance();
      UpdateStmt upd;
      FEDFLOW_ASSIGN_OR_RETURN(upd.table, ExpectIdentifier());
      FEDFLOW_RETURN_NOT_OK(ExpectKeyword("SET"));
      while (true) {
        std::pair<std::string, ExprPtr> assignment;
        FEDFLOW_ASSIGN_OR_RETURN(assignment.first, ExpectIdentifier());
        FEDFLOW_RETURN_NOT_OK(ExpectSymbol("="));
        FEDFLOW_ASSIGN_OR_RETURN(assignment.second, ParseExpr());
        upd.assignments.push_back(std::move(assignment));
        if (!ConsumeSymbol(",")) break;
      }
      if (ConsumeKeyword("WHERE")) {
        FEDFLOW_ASSIGN_OR_RETURN(upd.where, ParseExpr());
      }
      stmt.kind = StatementKind::kUpdate;
      stmt.update = std::make_unique<UpdateStmt>(std::move(upd));
    } else if (PeekKeyword("DELETE")) {
      Advance();
      DeleteStmt del;
      FEDFLOW_RETURN_NOT_OK(ExpectKeyword("FROM"));
      FEDFLOW_ASSIGN_OR_RETURN(del.table, ExpectIdentifier());
      if (ConsumeKeyword("WHERE")) {
        FEDFLOW_ASSIGN_OR_RETURN(del.where, ParseExpr());
      }
      stmt.kind = StatementKind::kDelete;
      stmt.del = std::make_unique<DeleteStmt>(std::move(del));
    } else if (PeekKeyword("CALL")) {
      Advance();
      CallStmt call;
      FEDFLOW_ASSIGN_OR_RETURN(call.name, ExpectIdentifier());
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol("("));
      if (!PeekSymbol(")")) {
        while (true) {
          FEDFLOW_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          call.args.push_back(std::move(arg));
          if (!ConsumeSymbol(",")) break;
        }
      }
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol(")"));
      stmt.kind = StatementKind::kCall;
      stmt.call = std::make_unique<CallStmt>(std::move(call));
    } else if (PeekKeyword("DROP")) {
      Advance();
      DropStmt drop;
      if (PeekKeyword("TABLE")) {
        drop.is_function = false;
      } else if (PeekKeyword("FUNCTION")) {
        drop.is_function = true;
      } else if (PeekKeyword("PROCEDURE")) {
        drop.is_procedure = true;
      } else {
        return Error("expected TABLE, FUNCTION or PROCEDURE after DROP");
      }
      Advance();
      FEDFLOW_ASSIGN_OR_RETURN(drop.name, ExpectIdentifier());
      stmt.kind = StatementKind::kDrop;
      stmt.drop = std::make_unique<DropStmt>(std::move(drop));
    } else {
      return Error("expected SELECT, CREATE, INSERT, UPDATE, DELETE, CALL or DROP");
    }
    ConsumeSymbol(";");
    if (!AtEnd()) return Error("trailing tokens after statement");
    return stmt;
  }

  Result<SelectStmt> ParseSelectOnly() {
    FEDFLOW_ASSIGN_OR_RETURN(SelectStmt sel, ParseSelectStmt());
    ConsumeSymbol(";");
    if (!AtEnd()) return Error<SelectStmt>("trailing tokens after SELECT");
    return sel;
  }

  Result<ExprPtr> ParseExpressionOnly() {
    FEDFLOW_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (!AtEnd()) return Error<ExprPtr>("trailing tokens after expression");
    return e;
  }

 private:
  // --- token helpers -------------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    if (i >= tokens_.size()) i = tokens_.size() - 1;
    return tokens_[i];
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }

  bool PeekKeyword(const std::string& kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdentifier && EqualsIgnoreCase(t.text, kw);
  }
  bool ConsumeKeyword(const std::string& kw) {
    if (PeekKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!ConsumeKeyword(kw)) return ErrorStatus("expected " + kw);
    return Status::OK();
  }
  bool PeekSymbol(const std::string& s, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kSymbol && t.text == s;
  }
  bool ConsumeSymbol(const std::string& s) {
    if (PeekSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectSymbol(const std::string& s) {
    if (!ConsumeSymbol(s)) return ErrorStatus("expected '" + s + "'");
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier() {
    const Token& t = Peek();
    if (t.type != TokenType::kIdentifier) {
      return ErrorStatus("expected identifier");
    }
    std::string name = t.text;
    Advance();
    return name;
  }

  Status ErrorStatus(const std::string& msg) const {
    return Status::InvalidArgument(msg + " at offset " +
                                   std::to_string(Peek().offset) + " (near '" +
                                   Peek().text + "')");
  }
  template <typename T = Statement>
  Result<T> Error(const std::string& msg) const {
    return ErrorStatus(msg);
  }

  static bool IsReserved(const std::string& word) {
    static const char* kReserved[] = {
        "SELECT", "FROM",  "WHERE",  "GROUP", "BY",    "HAVING", "ORDER",
        "ASC",    "DESC",  "LIMIT",  "AS",    "TABLE", "AND",    "OR",
        "NOT",    "NULL",  "TRUE",   "FALSE", "IS",    "VALUES", "INTO",
        "CREATE", "INSERT", "DROP",  "FUNCTION", "RETURNS", "LANGUAGE",
        "RETURN", "SQL",   "PROCEDURE", "CALL", "BEGIN", "END", "DECLARE",
        "SET",    "IF",    "THEN",   "ELSE",  "WHILE", "DO",    "EMIT",
        "CASE",   "WHEN",  "IN",     "BETWEEN", "LIKE", "DISTINCT",
        "UPDATE", "DELETE",
    };
    for (const char* kw : kReserved) {
      if (EqualsIgnoreCase(word, kw)) return true;
    }
    return false;
  }

  // --- statements ----------------------------------------------------------
  Result<SelectStmt> ParseSelectStmt() {
    FEDFLOW_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    SelectStmt sel;
    if (ConsumeKeyword("DISTINCT")) sel.distinct = true;
    // Select list.
    while (true) {
      SelectItem item;
      if (PeekSymbol("*")) {
        Advance();
        item.is_star = true;
      } else if (Peek().type == TokenType::kIdentifier &&
                 PeekSymbol(".", 1) && PeekSymbol("*", 2)) {
        item.is_star = true;
        item.star_qualifier = Peek().text;
        Advance();
        Advance();
        Advance();
      } else {
        FEDFLOW_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("AS")) {
          FEDFLOW_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
        } else if (Peek().type == TokenType::kIdentifier &&
                   !IsReserved(Peek().text)) {
          item.alias = Peek().text;
          Advance();
        }
      }
      sel.items.push_back(std::move(item));
      if (!ConsumeSymbol(",")) break;
    }
    // FROM.
    if (ConsumeKeyword("FROM")) {
      while (true) {
        FEDFLOW_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
        sel.from.push_back(std::move(ref));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (ConsumeKeyword("WHERE")) {
      FEDFLOW_ASSIGN_OR_RETURN(sel.where, ParseExpr());
    }
    if (PeekKeyword("GROUP")) {
      Advance();
      FEDFLOW_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        FEDFLOW_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        sel.group_by.push_back(std::move(e));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (ConsumeKeyword("HAVING")) {
      FEDFLOW_ASSIGN_OR_RETURN(sel.having, ParseExpr());
    }
    if (PeekKeyword("ORDER")) {
      Advance();
      FEDFLOW_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        OrderItem item;
        FEDFLOW_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("DESC")) {
          item.ascending = false;
        } else {
          ConsumeKeyword("ASC");
        }
        sel.order_by.push_back(std::move(item));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (ConsumeKeyword("LIMIT")) {
      const Token& t = Peek();
      if (t.type != TokenType::kIntLiteral) {
        return Error<SelectStmt>("expected integer after LIMIT");
      }
      sel.limit = std::strtoll(t.text.c_str(), nullptr, 10);
      Advance();
    }
    return sel;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    if (PeekKeyword("TABLE")) {
      // TABLE ( func(args) ) AS alias — DB2 table-function reference.
      Advance();
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol("("));
      FEDFLOW_ASSIGN_OR_RETURN(ref.name, ExpectIdentifier());
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol("("));
      if (!PeekSymbol(")")) {
        while (true) {
          FEDFLOW_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          ref.args.push_back(std::move(arg));
          if (!ConsumeSymbol(",")) break;
        }
      }
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol(")"));
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol(")"));
      // DB2 makes the correlation name mandatory for table functions.
      FEDFLOW_RETURN_NOT_OK(ExpectKeyword("AS"));
      FEDFLOW_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier());
      ref.kind = TableRefKind::kTableFunction;
      return ref;
    }
    ref.kind = TableRefKind::kBaseTable;
    FEDFLOW_ASSIGN_OR_RETURN(ref.name, ExpectIdentifier());
    if (ConsumeKeyword("AS")) {
      FEDFLOW_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier());
    } else if (Peek().type == TokenType::kIdentifier &&
               !IsReserved(Peek().text)) {
      ref.alias = Peek().text;
      Advance();
    }
    return ref;
  }

  Result<CreateTableStmt> ParseCreateTableTail() {
    CreateTableStmt ct;
    FEDFLOW_ASSIGN_OR_RETURN(ct.name, ExpectIdentifier());
    FEDFLOW_RETURN_NOT_OK(ExpectSymbol("("));
    FEDFLOW_ASSIGN_OR_RETURN(std::vector<Column> cols, ParseColumnList());
    FEDFLOW_RETURN_NOT_OK(ExpectSymbol(")"));
    ct.schema = Schema(std::move(cols));
    return ct;
  }

  Result<std::vector<Column>> ParseColumnList() {
    std::vector<Column> cols;
    while (true) {
      Column col;
      FEDFLOW_ASSIGN_OR_RETURN(col.name, ExpectIdentifier());
      FEDFLOW_ASSIGN_OR_RETURN(std::string type_name, ExpectIdentifier());
      FEDFLOW_ASSIGN_OR_RETURN(col.type, DataTypeFromName(type_name));
      // Optional length suffix, e.g. VARCHAR(20); accepted and ignored.
      if (ConsumeSymbol("(")) {
        if (Peek().type != TokenType::kIntLiteral) {
          return Error<std::vector<Column>>("expected length");
        }
        Advance();
        FEDFLOW_RETURN_NOT_OK(ExpectSymbol(")"));
      }
      cols.push_back(std::move(col));
      if (!ConsumeSymbol(",")) break;
    }
    return cols;
  }

  Result<InsertStmt> ParseInsertTail() {
    InsertStmt ins;
    FEDFLOW_RETURN_NOT_OK(ExpectKeyword("INTO"));
    FEDFLOW_ASSIGN_OR_RETURN(ins.table, ExpectIdentifier());
    if (PeekKeyword("SELECT")) {
      FEDFLOW_ASSIGN_OR_RETURN(SelectStmt sel, ParseSelectStmt());
      ins.select = std::make_unique<SelectStmt>(std::move(sel));
      return ins;
    }
    FEDFLOW_RETURN_NOT_OK(ExpectKeyword("VALUES"));
    while (true) {
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<ExprPtr> row;
      while (true) {
        FEDFLOW_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
        if (!ConsumeSymbol(",")) break;
      }
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol(")"));
      ins.rows.push_back(std::move(row));
      if (!ConsumeSymbol(",")) break;
    }
    return ins;
  }

  Result<CreateFunctionStmt> ParseCreateFunctionTail() {
    CreateFunctionStmt cf;
    FEDFLOW_ASSIGN_OR_RETURN(cf.name, ExpectIdentifier());
    FEDFLOW_RETURN_NOT_OK(ExpectSymbol("("));
    if (!PeekSymbol(")")) {
      FEDFLOW_ASSIGN_OR_RETURN(cf.params, ParseColumnList());
    }
    FEDFLOW_RETURN_NOT_OK(ExpectSymbol(")"));
    FEDFLOW_RETURN_NOT_OK(ExpectKeyword("RETURNS"));
    FEDFLOW_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    FEDFLOW_RETURN_NOT_OK(ExpectSymbol("("));
    FEDFLOW_ASSIGN_OR_RETURN(std::vector<Column> ret_cols, ParseColumnList());
    FEDFLOW_RETURN_NOT_OK(ExpectSymbol(")"));
    cf.returns = Schema(std::move(ret_cols));
    FEDFLOW_RETURN_NOT_OK(ExpectKeyword("LANGUAGE"));
    FEDFLOW_RETURN_NOT_OK(ExpectKeyword("SQL"));
    FEDFLOW_RETURN_NOT_OK(ExpectKeyword("RETURN"));
    FEDFLOW_ASSIGN_OR_RETURN(SelectStmt body, ParseSelectStmt());
    cf.body = std::make_unique<SelectStmt>(std::move(body));
    return cf;
  }

  Result<CreateProcedureStmt> ParseCreateProcedureTail() {
    CreateProcedureStmt cp;
    FEDFLOW_ASSIGN_OR_RETURN(cp.name, ExpectIdentifier());
    FEDFLOW_RETURN_NOT_OK(ExpectSymbol("("));
    if (!PeekSymbol(")")) {
      FEDFLOW_ASSIGN_OR_RETURN(cp.params, ParseColumnList());
    }
    FEDFLOW_RETURN_NOT_OK(ExpectSymbol(")"));
    FEDFLOW_RETURN_NOT_OK(ExpectKeyword("BEGIN"));
    FEDFLOW_ASSIGN_OR_RETURN(cp.body, ParsePsmStatements());
    FEDFLOW_RETURN_NOT_OK(ExpectKeyword("END"));
    return cp;
  }

  /// Parses PSM statements until (not consuming) END or ELSE.
  Result<std::vector<PsmStatement>> ParsePsmStatements() {
    std::vector<PsmStatement> stmts;
    while (!PeekKeyword("END") && !PeekKeyword("ELSE") && !AtEnd()) {
      FEDFLOW_ASSIGN_OR_RETURN(PsmStatement stmt, ParsePsmStatement());
      stmts.push_back(std::move(stmt));
    }
    return stmts;
  }

  Result<PsmStatement> ParsePsmStatement() {
    PsmStatement stmt;
    if (ConsumeKeyword("DECLARE")) {
      stmt.kind = PsmStatement::Kind::kDeclare;
      FEDFLOW_ASSIGN_OR_RETURN(stmt.var, ExpectIdentifier());
      FEDFLOW_ASSIGN_OR_RETURN(std::string type_name, ExpectIdentifier());
      FEDFLOW_ASSIGN_OR_RETURN(stmt.var_type, DataTypeFromName(type_name));
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol(";"));
      return stmt;
    }
    if (ConsumeKeyword("SET")) {
      stmt.kind = PsmStatement::Kind::kSet;
      FEDFLOW_ASSIGN_OR_RETURN(stmt.var, ExpectIdentifier());
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol("="));
      FEDFLOW_ASSIGN_OR_RETURN(stmt.expr, ParseExpr());
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol(";"));
      return stmt;
    }
    if (ConsumeKeyword("IF")) {
      stmt.kind = PsmStatement::Kind::kIf;
      FEDFLOW_ASSIGN_OR_RETURN(stmt.expr, ParseExpr());
      FEDFLOW_RETURN_NOT_OK(ExpectKeyword("THEN"));
      FEDFLOW_ASSIGN_OR_RETURN(stmt.then_branch, ParsePsmStatements());
      if (ConsumeKeyword("ELSE")) {
        FEDFLOW_ASSIGN_OR_RETURN(stmt.else_branch, ParsePsmStatements());
      }
      FEDFLOW_RETURN_NOT_OK(ExpectKeyword("END"));
      FEDFLOW_RETURN_NOT_OK(ExpectKeyword("IF"));
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol(";"));
      return stmt;
    }
    if (ConsumeKeyword("WHILE")) {
      stmt.kind = PsmStatement::Kind::kWhile;
      FEDFLOW_ASSIGN_OR_RETURN(stmt.expr, ParseExpr());
      FEDFLOW_RETURN_NOT_OK(ExpectKeyword("DO"));
      FEDFLOW_ASSIGN_OR_RETURN(stmt.then_branch, ParsePsmStatements());
      FEDFLOW_RETURN_NOT_OK(ExpectKeyword("END"));
      FEDFLOW_RETURN_NOT_OK(ExpectKeyword("WHILE"));
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol(";"));
      return stmt;
    }
    if (ConsumeKeyword("RETURN")) {
      stmt.kind = PsmStatement::Kind::kReturn;
      FEDFLOW_ASSIGN_OR_RETURN(SelectStmt sel, ParseSelectStmt());
      stmt.select = std::make_unique<SelectStmt>(std::move(sel));
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol(";"));
      return stmt;
    }
    if (ConsumeKeyword("EMIT")) {
      stmt.kind = PsmStatement::Kind::kEmit;
      FEDFLOW_ASSIGN_OR_RETURN(SelectStmt sel, ParseSelectStmt());
      stmt.select = std::make_unique<SelectStmt>(std::move(sel));
      FEDFLOW_RETURN_NOT_OK(ExpectSymbol(";"));
      return stmt;
    }
    return Error<PsmStatement>(
        "expected DECLARE, SET, IF, WHILE, RETURN or EMIT");
  }

  // --- expressions, by precedence -----------------------------------------
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    FEDFLOW_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (ConsumeKeyword("OR")) {
      FEDFLOW_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = std::make_shared<BinaryExpr>(BinaryOp::kOr, std::move(left),
                                          std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    FEDFLOW_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (ConsumeKeyword("AND")) {
      FEDFLOW_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = std::make_shared<BinaryExpr>(BinaryOp::kAnd, std::move(left),
                                          std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      FEDFLOW_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
      return MakeExpr<UnaryExpr>(UnaryOp::kNot, std::move(inner));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    FEDFLOW_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    // IS [NOT] NULL postfix.
    if (PeekKeyword("IS")) {
      Advance();
      bool negated = ConsumeKeyword("NOT");
      FEDFLOW_RETURN_NOT_OK(ExpectKeyword("NULL"));
      return MakeExpr<UnaryExpr>(
          negated ? UnaryOp::kIsNotNull : UnaryOp::kIsNull, std::move(left));
    }
    // [NOT] IN / BETWEEN / LIKE postfixes.
    {
      bool negated = false;
      if (PeekKeyword("NOT") &&
          (PeekKeyword("IN", 1) || PeekKeyword("BETWEEN", 1) ||
           PeekKeyword("LIKE", 1))) {
        Advance();
        negated = true;
      }
      if (ConsumeKeyword("IN")) {
        // Desugared to an OR chain of equalities (NULL semantics preserved).
        FEDFLOW_RETURN_NOT_OK(ExpectSymbol("("));
        ExprPtr chain;
        while (true) {
          FEDFLOW_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
          ExprPtr eq = std::make_shared<BinaryExpr>(BinaryOp::kEq, left,
                                                    std::move(item));
          chain = chain == nullptr
                      ? std::move(eq)
                      : std::make_shared<BinaryExpr>(
                            BinaryOp::kOr, std::move(chain), std::move(eq));
          if (!ConsumeSymbol(",")) break;
        }
        FEDFLOW_RETURN_NOT_OK(ExpectSymbol(")"));
        if (negated) {
          return MakeExpr<UnaryExpr>(UnaryOp::kNot, std::move(chain));
        }
        return chain;
      }
      if (ConsumeKeyword("BETWEEN")) {
        // Desugared to x >= lo AND x <= hi.
        FEDFLOW_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
        FEDFLOW_RETURN_NOT_OK(ExpectKeyword("AND"));
        FEDFLOW_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
        ExprPtr both = std::make_shared<BinaryExpr>(
            BinaryOp::kAnd,
            std::make_shared<BinaryExpr>(BinaryOp::kGe, left, std::move(lo)),
            std::make_shared<BinaryExpr>(BinaryOp::kLe, left, std::move(hi)));
        if (negated) {
          return MakeExpr<UnaryExpr>(UnaryOp::kNot, std::move(both));
        }
        return both;
      }
      if (ConsumeKeyword("LIKE")) {
        FEDFLOW_ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
        ExprPtr like = std::make_shared<BinaryExpr>(
            BinaryOp::kLike, std::move(left), std::move(pattern));
        if (negated) {
          return MakeExpr<UnaryExpr>(UnaryOp::kNot, std::move(like));
        }
        return like;
      }
      if (negated) return Error<ExprPtr>("dangling NOT");
    }
    struct OpMap {
      const char* sym;
      BinaryOp op;
    };
    static const OpMap kOps[] = {
        {"<>", BinaryOp::kNe}, {"!=", BinaryOp::kNe}, {"<=", BinaryOp::kLe},
        {">=", BinaryOp::kGe}, {"=", BinaryOp::kEq},  {"<", BinaryOp::kLt},
        {">", BinaryOp::kGt},
    };
    for (const OpMap& m : kOps) {
      if (PeekSymbol(m.sym)) {
        Advance();
        FEDFLOW_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return MakeExpr<BinaryExpr>(m.op, std::move(left),
                                            std::move(right));
      }
    }
    return left;
  }

  Result<ExprPtr> ParseAdditive() {
    FEDFLOW_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (true) {
      BinaryOp op;
      if (PeekSymbol("+")) {
        op = BinaryOp::kAdd;
      } else if (PeekSymbol("-")) {
        op = BinaryOp::kSub;
      } else if (PeekSymbol("||")) {
        op = BinaryOp::kConcat;
      } else {
        break;
      }
      Advance();
      FEDFLOW_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      left = std::make_shared<BinaryExpr>(op, std::move(left),
                                          std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseMultiplicative() {
    FEDFLOW_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (true) {
      BinaryOp op;
      if (PeekSymbol("*")) {
        op = BinaryOp::kMul;
      } else if (PeekSymbol("/")) {
        op = BinaryOp::kDiv;
      } else if (PeekSymbol("%")) {
        op = BinaryOp::kMod;
      } else {
        break;
      }
      Advance();
      FEDFLOW_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      left = std::make_shared<BinaryExpr>(op, std::move(left),
                                          std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseUnary() {
    if (ConsumeSymbol("-")) {
      FEDFLOW_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
      return MakeExpr<UnaryExpr>(UnaryOp::kNeg, std::move(inner));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIntLiteral: {
        int64_t v = std::strtoll(t.text.c_str(), nullptr, 10);
        Advance();
        if (v >= INT32_MIN && v <= INT32_MAX) {
          return MakeExpr<LiteralExpr>(
              Value::Int(static_cast<int32_t>(v)));
        }
        return MakeExpr<LiteralExpr>(Value::BigInt(v));
      }
      case TokenType::kDoubleLiteral: {
        double v = std::strtod(t.text.c_str(), nullptr);
        Advance();
        return MakeExpr<LiteralExpr>(Value::Double(v));
      }
      case TokenType::kStringLiteral: {
        std::string s = t.text;
        Advance();
        return MakeExpr<LiteralExpr>(Value::Varchar(std::move(s)));
      }
      case TokenType::kSymbol:
        if (t.text == "(") {
          Advance();
          FEDFLOW_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          FEDFLOW_RETURN_NOT_OK(ExpectSymbol(")"));
          return inner;
        }
        return Error<ExprPtr>("unexpected symbol in expression");
      case TokenType::kIdentifier: {
        if (EqualsIgnoreCase(t.text, "NULL")) {
          Advance();
          return MakeExpr<LiteralExpr>(Value::Null());
        }
        if (EqualsIgnoreCase(t.text, "TRUE")) {
          Advance();
          return MakeExpr<LiteralExpr>(Value::Bool(true));
        }
        if (EqualsIgnoreCase(t.text, "FALSE")) {
          Advance();
          return MakeExpr<LiteralExpr>(Value::Bool(false));
        }
        if (EqualsIgnoreCase(t.text, "CASE")) {
          Advance();
          // Simple form (CASE x WHEN v ...) desugars to the searched form.
          ExprPtr subject;
          if (!PeekKeyword("WHEN")) {
            FEDFLOW_ASSIGN_OR_RETURN(subject, ParseExpr());
          }
          std::vector<CaseExpr::Branch> branches;
          while (ConsumeKeyword("WHEN")) {
            FEDFLOW_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
            if (subject != nullptr) {
              cond = std::make_shared<BinaryExpr>(BinaryOp::kEq, subject,
                                                  std::move(cond));
            }
            FEDFLOW_RETURN_NOT_OK(ExpectKeyword("THEN"));
            FEDFLOW_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
            branches.push_back(
                CaseExpr::Branch{std::move(cond), std::move(value)});
          }
          if (branches.empty()) {
            return Error<ExprPtr>("CASE needs at least one WHEN");
          }
          ExprPtr else_value;
          if (ConsumeKeyword("ELSE")) {
            FEDFLOW_ASSIGN_OR_RETURN(else_value, ParseExpr());
          }
          FEDFLOW_RETURN_NOT_OK(ExpectKeyword("END"));
          return MakeExpr<CaseExpr>(std::move(branches),
                                    std::move(else_value));
        }
        std::string first = t.text;
        Advance();
        if (PeekSymbol("(")) {
          // Function call.
          Advance();
          std::vector<ExprPtr> args;
          bool star_arg = false;
          if (PeekSymbol("*")) {
            Advance();
            star_arg = true;
          } else if (!PeekSymbol(")")) {
            while (true) {
              FEDFLOW_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
              args.push_back(std::move(arg));
              if (!ConsumeSymbol(",")) break;
            }
          }
          FEDFLOW_RETURN_NOT_OK(ExpectSymbol(")"));
          return MakeExpr<FunctionCallExpr>(std::move(first),
                                                    std::move(args), star_arg);
        }
        if (ConsumeSymbol(".")) {
          FEDFLOW_ASSIGN_OR_RETURN(std::string second, ExpectIdentifier());
          return MakeExpr<ColumnRefExpr>(std::move(first),
                                                 std::move(second));
        }
        return MakeExpr<ColumnRefExpr>("", std::move(first));
      }
      case TokenType::kEnd:
        return Error<ExprPtr>("unexpected end of input in expression");
    }
    return Error<ExprPtr>("unexpected token");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

std::atomic<int64_t> g_parse_invocations{0};

}  // namespace

int64_t ParseInvocations() { return g_parse_invocations.load(); }

Result<Statement> Parse(const std::string& input) {
  g_parse_invocations.fetch_add(1);
  FEDFLOW_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(input));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<SelectStmt> ParseSelect(const std::string& input) {
  g_parse_invocations.fetch_add(1);
  FEDFLOW_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(input));
  Parser parser(std::move(tokens));
  return parser.ParseSelectOnly();
}

Result<ExprPtr> ParseExpression(const std::string& input) {
  g_parse_invocations.fetch_add(1);
  FEDFLOW_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(input));
  Parser parser(std::move(tokens));
  return parser.ParseExpressionOnly();
}

}  // namespace fedflow::sql
