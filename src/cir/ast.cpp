#include "cir/ast.hpp"

#include <atomic>

#include "support/strings.hpp"

namespace antarex::cir {

NodeId next_node_id() {
  static std::atomic<NodeId> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

std::string SourceLoc::to_string() const {
  return format("%d:%d", line, col);
}

const char* type_name(Type t) {
  switch (t) {
    case Type::Void: return "void";
    case Type::Int: return "int";
    case Type::Float: return "double";
    case Type::IntArr: return "int*";
    case Type::FloatArr: return "double*";
    case Type::Str: return "const char*";
  }
  return "?";
}

bool is_numeric(Type t) { return t == Type::Int || t == Type::Float; }
bool is_array(Type t) { return t == Type::IntArr || t == Type::FloatArr; }

const char* unop_name(UnOp op) {
  switch (op) {
    case UnOp::Neg: return "-";
    case UnOp::Not: return "!";
  }
  return "?";
}

const char* binop_name(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "%";
    case BinOp::Lt: return "<";
    case BinOp::Le: return "<=";
    case BinOp::Gt: return ">";
    case BinOp::Ge: return ">=";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::And: return "&&";
    case BinOp::Or: return "||";
  }
  return "?";
}

namespace {
template <typename T, typename... Args>
ExprPtr make_expr(SourceLoc loc, Args&&... args) {
  auto e = std::make_unique<T>(std::forward<Args>(args)...);
  e->loc = loc;
  return e;
}
}  // namespace

ExprPtr IntLit::clone() const { return make_expr<IntLit>(loc, value); }
ExprPtr FloatLit::clone() const { return make_expr<FloatLit>(loc, value); }
ExprPtr StrLit::clone() const { return make_expr<StrLit>(loc, value); }
ExprPtr VarRef::clone() const { return make_expr<VarRef>(loc, name); }

ExprPtr UnaryExpr::clone() const {
  return make_expr<UnaryExpr>(loc, op, operand->clone());
}

namespace {

/// The child a left-deep chain continues through: a binary operator's lhs or
/// a subscript's base (`x[0][0]...`). Null for any other node.
ExprPtr* chain_link(Expr& e) {
  if (e.kind == ExprKind::Binary) return &static_cast<BinaryExpr&>(e).lhs;
  if (e.kind == ExprKind::Index) return &static_cast<IndexExpr&>(e).base;
  return nullptr;
}

/// Frees the chain hanging off `link` one link per loop iteration when it is
/// deeper than 64 links. Short chains keep the implicit destructor's
/// post-order, which is also the order the allocator sees in hot clone/free
/// loops. `sibling` is the link owner's other child, freed first as the
/// implicit destructor would.
void free_deep_chain(ExprPtr& link, ExprPtr& sibling) {
  constexpr int kShallowChain = 64;
  int depth = 0;
  for (ExprPtr* l = &link; *l && (l = chain_link(**l));)
    if (++depth > kShallowChain) break;
  if (depth <= kShallowChain) return;
  sibling.reset();
  ExprPtr next = std::move(link);
  // Releasing the link's child before the assignment deletes the link leaves
  // it nothing deep to free.
  for (ExprPtr* l; next && (l = chain_link(*next));) next = std::move(*l);
}

}  // namespace

BinaryExpr::~BinaryExpr() { free_deep_chain(lhs, rhs); }

ExprPtr BinaryExpr::clone() const {
  return make_expr<BinaryExpr>(loc, op, lhs->clone(), rhs->clone());
}

ExprPtr CallExpr::clone() const {
  std::vector<ExprPtr> a;
  a.reserve(args.size());
  for (const auto& arg : args) a.push_back(arg->clone());
  return make_expr<CallExpr>(loc, callee, std::move(a));
}

IndexExpr::~IndexExpr() { free_deep_chain(base, index); }

ExprPtr IndexExpr::clone() const {
  return make_expr<IndexExpr>(loc, base->clone(), index->clone());
}

StmtPtr Block::clone() const { return clone_block(); }

std::unique_ptr<Block> Block::clone_block() const {
  auto b = std::make_unique<Block>();
  b->loc = loc;
  b->stmts.reserve(stmts.size());
  for (const auto& s : stmts) b->stmts.push_back(s->clone());
  return b;
}

StmtPtr ExprStmt::clone() const {
  auto s = std::make_unique<ExprStmt>(expr->clone());
  s->loc = loc;
  return s;
}

StmtPtr VarDeclStmt::clone() const {
  auto s = std::make_unique<VarDeclStmt>(type, name, init ? init->clone() : nullptr);
  s->loc = loc;
  return s;
}

StmtPtr AssignStmt::clone() const {
  auto s = std::make_unique<AssignStmt>(target->clone(), value->clone());
  s->loc = loc;
  return s;
}

StmtPtr IfStmt::clone() const {
  auto s = std::make_unique<IfStmt>(cond->clone(), then_block->clone_block(),
                                    else_block ? else_block->clone_block() : nullptr);
  s->loc = loc;
  return s;
}

StmtPtr ForStmt::clone() const {
  auto s = std::make_unique<ForStmt>(init ? init->clone() : nullptr,
                                     cond ? cond->clone() : nullptr,
                                     step ? step->clone() : nullptr,
                                     body->clone_block());
  s->loc = loc;
  return s;
}

StmtPtr WhileStmt::clone() const {
  auto s = std::make_unique<WhileStmt>(cond->clone(), body->clone_block());
  s->loc = loc;
  return s;
}

StmtPtr ReturnStmt::clone() const {
  auto s = std::make_unique<ReturnStmt>(value ? value->clone() : nullptr);
  s->loc = loc;
  return s;
}

StmtPtr BreakStmt::clone() const {
  auto s = std::make_unique<BreakStmt>();
  s->loc = loc;
  return s;
}

StmtPtr ContinueStmt::clone() const {
  auto s = std::make_unique<ContinueStmt>();
  s->loc = loc;
  return s;
}

std::unique_ptr<Function> Function::clone() const {
  auto f = std::make_unique<Function>();
  f->loc = loc;
  f->name = name;
  f->return_type = return_type;
  f->params = params;
  f->body = body ? body->clone_block() : nullptr;
  return f;
}

int Function::param_index(const std::string& pname) const {
  for (std::size_t i = 0; i < params.size(); ++i)
    if (params[i].name == pname) return static_cast<int>(i);
  return -1;
}

Function* Module::find(const std::string& name) {
  for (auto& f : functions)
    if (f->name == name) return f.get();
  return nullptr;
}

const Function* Module::find(const std::string& name) const {
  for (const auto& f : functions)
    if (f->name == name) return f.get();
  return nullptr;
}

Function* Module::add(std::unique_ptr<Function> f) {
  ANTAREX_REQUIRE(f != nullptr, "Module::add: null function");
  ANTAREX_REQUIRE(find(f->name) == nullptr,
                  "Module::add: duplicate function name '" + f->name + "'");
  functions.push_back(std::move(f));
  return functions.back().get();
}

bool Module::remove(const std::string& name) {
  for (auto it = functions.begin(); it != functions.end(); ++it) {
    if ((*it)->name == name) {
      functions.erase(it);
      return true;
    }
  }
  return false;
}

std::unique_ptr<Module> Module::clone() const {
  auto m = std::make_unique<Module>();
  m->functions.reserve(functions.size());
  for (const auto& f : functions) m->functions.push_back(f->clone());
  return m;
}

ExprPtr make_int(i64 v) { return std::make_unique<IntLit>(v); }
ExprPtr make_float(double v) { return std::make_unique<FloatLit>(v); }
ExprPtr make_str(std::string v) { return std::make_unique<StrLit>(std::move(v)); }
ExprPtr make_var(std::string name) { return std::make_unique<VarRef>(std::move(name)); }
ExprPtr make_unary(UnOp op, ExprPtr e) {
  return std::make_unique<UnaryExpr>(op, std::move(e));
}
ExprPtr make_binary(BinOp op, ExprPtr l, ExprPtr r) {
  return std::make_unique<BinaryExpr>(op, std::move(l), std::move(r));
}
ExprPtr make_call(std::string callee, std::vector<ExprPtr> args) {
  return std::make_unique<CallExpr>(std::move(callee), std::move(args));
}
ExprPtr make_index(ExprPtr base, ExprPtr idx) {
  return std::make_unique<IndexExpr>(std::move(base), std::move(idx));
}

}  // namespace antarex::cir
