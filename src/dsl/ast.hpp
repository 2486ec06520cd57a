// AST of the ANTAREX DSL.
//
// An aspect definition (`aspectdef`, paper Figs. 2-4) is the modular unit: it
// declares inputs/outputs and an ordered body of items — select statements,
// apply blocks (optionally dynamic), conditions, calls to other aspects or
// builtin actions, and variable assignments.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/common.hpp"

namespace antarex::dsl {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class DExprKind { Null, Bool, Num, Str, Var, Attr, Unary, Binary };

enum class DUnOp { Neg, Not };
enum class DBinOp { Add, Sub, Mul, Div, Mod, Lt, Le, Gt, Ge, Eq, Ne, And, Or };

struct DExpr;
using DExprPtr = std::unique_ptr<DExpr>;

struct DExpr {
  DExprKind kind;
  // literals
  bool bool_value = false;
  double num_value = 0.0;
  std::string str_value;
  // Var: name (may start with '$'); Attr: member name
  std::string name;
  // Unary/Binary/Attr children
  DUnOp un_op = DUnOp::Neg;
  DBinOp bin_op = DBinOp::Add;
  DExprPtr lhs;  // Attr base / unary operand / binary lhs
  DExprPtr rhs;

  int line = 0;

  DExprPtr clone() const;
};

// ---------------------------------------------------------------------------
// Select chains
// ---------------------------------------------------------------------------

/// One step of a select chain, e.g. `loop{type=='for'}` or `fCall{'kernel'}`
/// or `arg{'size'}`. A bare string filter is shorthand for name == <string>.
struct ChainStep {
  std::string selector;              ///< "func" | "fCall" | "loop" | "arg"
  std::optional<std::string> name_filter;  ///< {'kernel'} shorthand
  DExprPtr attr_filter;              ///< {type=='for'} — may be null
};

struct SelectStmt {
  /// Non-empty when the chain is rooted at a join-point variable from the
  /// environment, e.g. `select $func.loop{...} end`.
  std::string root_var;
  std::vector<ChainStep> chain;
};

// ---------------------------------------------------------------------------
// Actions & statements
// ---------------------------------------------------------------------------

struct CallStmt {
  std::string label;   ///< empty if unlabelled; `call spOut : Specialize(...)`
  std::string callee;  ///< aspect or builtin action name
  std::vector<DExprPtr> args;
};

struct AssignStmt {
  std::string name;
  DExprPtr value;
};

struct InsertAction {
  bool before = true;
  std::string code_template;  ///< raw %{...}% body with [[expr]] splices
};

struct DoAction {
  std::string action;  ///< e.g. "LoopUnroll"
  std::vector<DExprPtr> args;
};

struct Action {
  enum class Kind { Insert, Do, Call, Assign } kind;
  InsertAction insert;
  DoAction do_action;
  CallStmt call;
  AssignStmt assign;
};

struct ApplyStmt {
  bool dynamic = false;
  std::vector<Action> actions;
};

struct ConditionStmt {
  DExprPtr expr;
};

struct Item {
  enum class Kind { Select, Apply, Condition, Call, Assign } kind;
  SelectStmt select;
  ApplyStmt apply;
  ConditionStmt condition;
  CallStmt call;
  AssignStmt assign;
};

// ---------------------------------------------------------------------------
// Aspect definitions
// ---------------------------------------------------------------------------

struct AspectDef {
  std::string name;
  std::vector<std::string> inputs;   ///< names, possibly '$'-prefixed
  std::vector<std::string> outputs;
  std::vector<Item> body;
};

/// A parsed DSL file: named aspect definitions.
struct AspectLibrary {
  std::vector<AspectDef> aspects;

  const AspectDef* find(const std::string& name) const;
};

/// Parse a DSL source file. Throws antarex::Error with line info on errors.
AspectLibrary parse_aspects(std::string_view source);

/// Deepest expression nesting the parser accepts: an expression inside k
/// parentheses or prefix operators sits at depth k + 1. Deeper input throws
/// antarex::Error instead of exhausting the stack.
inline constexpr std::size_t kDslMaxNesting = 256;

/// Deepest expression tree the parser builds (a leaf is depth 1). Left-deep
/// chains such as `a && b && ...` or `$a.b.c...` parse without nesting, so
/// kDslMaxNesting does not bound them; this does, because the evaluator,
/// clone() and the destructor recurse once per level.
inline constexpr std::size_t kDslMaxExprDepth = 4096;

/// Parse a single DSL expression (used in tests and filters).
DExprPtr parse_dsl_expression(std::string_view source);

}  // namespace antarex::dsl
