// Abstract syntax tree for the ANTAREX mini-C language.
//
// This is the "C/C++ functional description" box of the paper's Figure 1:
// application kernels are written in a C subset, parsed into this AST, and
// then (a) woven by the DSL engine (src/dsl), (b) transformed by the compiler
// passes (src/passes), and (c) lowered to bytecode and executed by the
// split-compilation VM (src/vm).
//
// Nodes carry stable ids and source locations so that aspects can reference
// join points (e.g. `$fCall.location` in the paper's Figure 2).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "support/common.hpp"

namespace antarex::cir {

using NodeId = u64;

/// Process-wide monotonically increasing node id (also used for nodes created
/// by transformation passes, so clones are distinguishable from originals).
NodeId next_node_id();

struct SourceLoc {
  int line = 0;
  int col = 0;

  std::string to_string() const;
};

// ---------------------------------------------------------------------------
// Types. The mini-C type system is deliberately small: 64-bit integers,
// doubles ("double"/"float" both map to Float), string literals (only as call
// arguments, for probes), and 1-D arrays of each numeric type.
// ---------------------------------------------------------------------------

enum class Type {
  Void,
  Int,       // int  -> i64
  Float,     // double (and float) -> double
  IntArr,    // int*
  FloatArr,  // double*
  Str,       // string literal / const char*
};

const char* type_name(Type t);
bool is_numeric(Type t);
bool is_array(Type t);

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  IntLit,
  FloatLit,
  StrLit,
  VarRef,
  Unary,
  Binary,
  Call,
  Index,
};

enum class UnOp { Neg, Not };

enum class BinOp {
  Add, Sub, Mul, Div, Mod,
  Lt, Le, Gt, Ge, Eq, Ne,
  And, Or,
};

const char* unop_name(UnOp op);
const char* binop_name(BinOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;
  NodeId id;
  SourceLoc loc;

  explicit Expr(ExprKind k) : kind(k), id(next_node_id()) {}
  virtual ~Expr() = default;

  virtual ExprPtr clone() const = 0;
};

struct IntLit final : Expr {
  i64 value;
  explicit IntLit(i64 v) : Expr(ExprKind::IntLit), value(v) {}
  ExprPtr clone() const override;
};

struct FloatLit final : Expr {
  double value;
  explicit FloatLit(double v) : Expr(ExprKind::FloatLit), value(v) {}
  ExprPtr clone() const override;
};

struct StrLit final : Expr {
  std::string value;
  explicit StrLit(std::string v) : Expr(ExprKind::StrLit), value(std::move(v)) {}
  ExprPtr clone() const override;
};

struct VarRef final : Expr {
  std::string name;
  explicit VarRef(std::string n) : Expr(ExprKind::VarRef), name(std::move(n)) {}
  ExprPtr clone() const override;
};

struct UnaryExpr final : Expr {
  UnOp op;
  ExprPtr operand;
  UnaryExpr(UnOp o, ExprPtr e)
      : Expr(ExprKind::Unary), op(o), operand(std::move(e)) {}
  ExprPtr clone() const override;
};

struct BinaryExpr final : Expr {
  BinOp op;
  ExprPtr lhs;
  ExprPtr rhs;
  BinaryExpr(BinOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::Binary), op(o), lhs(std::move(l)), rhs(std::move(r)) {}
  /// Frees a deep left-deep chain (`1+1+...`, which the parser builds
  /// without a depth bound) one link per loop iteration, not one stack frame
  /// per link.
  ~BinaryExpr() override;
  ExprPtr clone() const override;
};

struct CallExpr final : Expr {
  std::string callee;
  std::vector<ExprPtr> args;
  CallExpr(std::string c, std::vector<ExprPtr> a)
      : Expr(ExprKind::Call), callee(std::move(c)), args(std::move(a)) {}
  ExprPtr clone() const override;
};

struct IndexExpr final : Expr {
  ExprPtr base;   // VarRef to an array variable
  ExprPtr index;  // integer expression
  IndexExpr(ExprPtr b, ExprPtr i)
      : Expr(ExprKind::Index), base(std::move(b)), index(std::move(i)) {}
  /// Frees a deep subscript chain (`x[0][0]...`) like ~BinaryExpr.
  ~IndexExpr() override;
  ExprPtr clone() const override;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  Block,
  ExprStmt,
  VarDecl,
  Assign,
  If,
  For,
  While,
  Return,
  Break,
  Continue,
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  StmtKind kind;
  NodeId id;
  SourceLoc loc;

  explicit Stmt(StmtKind k) : kind(k), id(next_node_id()) {}
  virtual ~Stmt() = default;

  virtual StmtPtr clone() const = 0;
};

struct Block final : Stmt {
  std::vector<StmtPtr> stmts;
  Block() : Stmt(StmtKind::Block) {}
  StmtPtr clone() const override;
  std::unique_ptr<Block> clone_block() const;
};

struct ExprStmt final : Stmt {
  ExprPtr expr;
  explicit ExprStmt(ExprPtr e) : Stmt(StmtKind::ExprStmt), expr(std::move(e)) {}
  StmtPtr clone() const override;
};

struct VarDeclStmt final : Stmt {
  Type type;
  std::string name;
  ExprPtr init;  // may be null
  VarDeclStmt(Type t, std::string n, ExprPtr i)
      : Stmt(StmtKind::VarDecl), type(t), name(std::move(n)), init(std::move(i)) {}
  StmtPtr clone() const override;
};

struct AssignStmt final : Stmt {
  ExprPtr target;  // VarRef or IndexExpr
  ExprPtr value;
  AssignStmt(ExprPtr t, ExprPtr v)
      : Stmt(StmtKind::Assign), target(std::move(t)), value(std::move(v)) {}
  StmtPtr clone() const override;
};

struct IfStmt final : Stmt {
  ExprPtr cond;
  std::unique_ptr<Block> then_block;
  std::unique_ptr<Block> else_block;  // may be null
  IfStmt(ExprPtr c, std::unique_ptr<Block> t, std::unique_ptr<Block> e)
      : Stmt(StmtKind::If), cond(std::move(c)), then_block(std::move(t)),
        else_block(std::move(e)) {}
  StmtPtr clone() const override;
};

/// Canonical counted loop: for (init; cond; step) body. init/step may be null
/// (e.g. `for (; i < n;)`), which the analyses treat as non-countable.
struct ForStmt final : Stmt {
  StmtPtr init;  // VarDeclStmt or AssignStmt, may be null
  ExprPtr cond;  // may be null (infinite loop)
  StmtPtr step;  // AssignStmt, may be null
  std::unique_ptr<Block> body;
  ForStmt(StmtPtr i, ExprPtr c, StmtPtr s, std::unique_ptr<Block> b)
      : Stmt(StmtKind::For), init(std::move(i)), cond(std::move(c)),
        step(std::move(s)), body(std::move(b)) {}
  StmtPtr clone() const override;
};

struct WhileStmt final : Stmt {
  ExprPtr cond;
  std::unique_ptr<Block> body;
  WhileStmt(ExprPtr c, std::unique_ptr<Block> b)
      : Stmt(StmtKind::While), cond(std::move(c)), body(std::move(b)) {}
  StmtPtr clone() const override;
};

struct ReturnStmt final : Stmt {
  ExprPtr value;  // may be null for void return
  explicit ReturnStmt(ExprPtr v) : Stmt(StmtKind::Return), value(std::move(v)) {}
  StmtPtr clone() const override;
};

struct BreakStmt final : Stmt {
  BreakStmt() : Stmt(StmtKind::Break) {}
  StmtPtr clone() const override;
};

struct ContinueStmt final : Stmt {
  ContinueStmt() : Stmt(StmtKind::Continue) {}
  StmtPtr clone() const override;
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

struct Param {
  Type type;
  std::string name;
};

struct Function {
  NodeId id = next_node_id();
  SourceLoc loc;
  std::string name;
  Type return_type = Type::Void;
  std::vector<Param> params;
  std::unique_ptr<Block> body;

  std::unique_ptr<Function> clone() const;
  /// Index of a parameter by name; -1 if absent.
  int param_index(const std::string& pname) const;
};

/// A translation unit: an ordered set of functions. Function names are unique
/// within a module. External functions (host probes like `profile_args`, math
/// builtins) are not declared here; calls to unknown names are resolved
/// against the VM's host registry at execution time.
struct Module {
  std::vector<std::unique_ptr<Function>> functions;

  Function* find(const std::string& name);
  const Function* find(const std::string& name) const;
  /// Adds and returns the function; throws on duplicate name.
  Function* add(std::unique_ptr<Function> f);
  /// Removes by name; returns true if something was removed.
  bool remove(const std::string& name);

  std::unique_ptr<Module> clone() const;
};

// Convenience constructors used by passes, tests and the weaver.
ExprPtr make_int(i64 v);
ExprPtr make_float(double v);
ExprPtr make_str(std::string v);
ExprPtr make_var(std::string name);
ExprPtr make_unary(UnOp op, ExprPtr e);
ExprPtr make_binary(BinOp op, ExprPtr l, ExprPtr r);
ExprPtr make_call(std::string callee, std::vector<ExprPtr> args);
ExprPtr make_index(ExprPtr base, ExprPtr idx);

}  // namespace antarex::cir
