// Join-point model of the ANTAREX DSL.
//
// The weaver exposes program points of the mini-C AST as typed join points
// with queryable attributes — the `$fCall.name`, `$loop.isInnermost`,
// `$arg.runtimeValue` of the paper's figures.
//
// Supported selectors and attributes:
//   func : name, numParams, line
//   fCall: name, location ("line:col"), numArgs, argList (raw code fragment)
//   loop : type ("for"/"while"), isInnermost, numIter (null if unknown),
//          inductionVar, line
//   arg  : name (callee parameter name), index, value (literal value or null),
//          runtimeValue (dynamic weaving only), code (raw source fragment)
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cir/ast.hpp"
#include "dsl/ast.hpp"
#include "dsl/value.hpp"

namespace antarex::dsl {

struct JoinPoint {
  enum class Kind { Function, Call, Loop, Arg };

  Kind kind;
  cir::Module* module = nullptr;
  cir::Function* func = nullptr;  ///< self (Function) or enclosing function

  // Call / Arg
  cir::CallExpr* call = nullptr;
  cir::Block* anchor_block = nullptr;  ///< block owning the anchor statement
  cir::Stmt* anchor_stmt = nullptr;    ///< statement containing the call
  int arg_index = -1;

  // Loop
  cir::ForStmt* loop = nullptr;

  /// Runtime value of the argument; set only during dynamic weaving.
  std::optional<i64> runtime_value;

  /// The `$x` variable name this join point binds to ("$func", "$fCall", ...).
  static std::string var_name_for_selector(const std::string& selector);

  /// Attribute lookup; throws on unknown attribute for the kind.
  Val attribute(const std::string& name) const;
};

using JoinPointPtr = std::shared_ptr<JoinPoint>;

/// One match of a select chain: the join points bound along the chain, keyed
/// by their `$` variable names (e.g. {"$func": ..., "$loop": ...}).
struct SelectionBinding {
  std::vector<std::pair<std::string, JoinPointPtr>> bound;

  const JoinPointPtr* find(const std::string& var) const;
  /// The innermost (last) join point of the chain.
  const JoinPointPtr& leaf() const;
};

/// Expression evaluation environment: name -> Val, with chained parents.
/// Assignment semantics: `set` rebinds the name where it is already bound
/// (walking up the chain), so an apply-block statement like `c = c + 1`
/// accumulates into the aspect-level variable; unbound names are defined in
/// the current frame.
class Env {
 public:
  Env() = default;
  explicit Env(Env* parent) : parent_(parent) {}

  void set(const std::string& name, Val v);
  /// Always defines/overwrites in this frame (used for per-match join-point
  /// bindings like $fCall, which must shadow, never leak upward).
  void set_local(const std::string& name, Val v);
  /// nullptr if unbound anywhere in the chain.
  const Val* find(const std::string& name) const;

  /// Flattened copy of this environment including all parents (closer
  /// bindings shadow outer ones). Used to capture closures for dynamic
  /// aspects, whose parent frames die before the aspect triggers.
  Env snapshot() const;

 private:
  Val* find_mutable(const std::string& name);

  Env* parent_ = nullptr;
  std::vector<std::pair<std::string, Val>> vars_;
};

/// Evaluate a DSL expression in an environment. With a `candidate` join
/// point in scope (a select filter), bare identifiers read its attributes;
/// otherwise unknown bare identifiers throw. Attribute access on join points
/// resolves via JoinPoint::attribute, on records by key.
Val eval_expr(const DExpr& e, const Env& env,
              const JoinPoint* candidate = nullptr);

/// Run a select chain over a module (or rooted at a join point).
/// The per-step filters run with the candidate join point's attributes
/// visible as bare identifiers (e.g. `{type=='for'}`).
std::vector<SelectionBinding> run_select(cir::Module& module,
                                         const JoinPointPtr& root,
                                         const SelectStmt& sel);

}  // namespace antarex::dsl
