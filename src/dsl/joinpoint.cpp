#include "dsl/joinpoint.hpp"

#include <cmath>
#include <functional>

#include "cir/analysis.hpp"
#include "cir/printer.hpp"
#include "support/strings.hpp"

namespace antarex::dsl {

std::string JoinPoint::var_name_for_selector(const std::string& selector) {
  return "$" + selector;
}

namespace {

/// Render a call's argument list as source text (the paper's $fCall.argList:
/// pasted raw into the probe call so the probe receives the runtime values).
std::string arg_list_source(const cir::CallExpr& call) {
  std::vector<std::string> parts;
  parts.reserve(call.args.size());
  for (const auto& a : call.args) parts.push_back(cir::to_source(*a));
  return join(parts, ", ");
}

/// Parameter name of the callee for a given argument index, when the callee
/// is a module-local function; "arg<i>" otherwise.
std::string arg_name(const JoinPoint& jp) {
  if (jp.module) {
    if (const cir::Function* callee = jp.module->find(jp.call->callee)) {
      if (jp.arg_index >= 0 &&
          jp.arg_index < static_cast<int>(callee->params.size()))
        return callee->params[static_cast<std::size_t>(jp.arg_index)].name;
    }
  }
  return format("arg%d", jp.arg_index);
}

}  // namespace

Val JoinPoint::attribute(const std::string& attr) const {
  switch (kind) {
    case Kind::Function: {
      ANTAREX_CHECK(func != nullptr, "join point: function pointer missing");
      if (attr == "name") return Val::str(func->name);
      if (attr == "numParams") return Val::num(static_cast<double>(func->params.size()));
      if (attr == "line") return Val::num(func->loc.line);
      break;
    }
    case Kind::Call: {
      ANTAREX_CHECK(call != nullptr, "join point: call pointer missing");
      if (attr == "name") return Val::str(call->callee);
      if (attr == "location") return Val::str(call->loc.to_string());
      if (attr == "line") return Val::num(call->loc.line);
      if (attr == "numArgs") return Val::num(static_cast<double>(call->args.size()));
      if (attr == "argList") return Val::code(arg_list_source(*call));
      break;
    }
    case Kind::Loop: {
      ANTAREX_CHECK(loop != nullptr, "join point: loop pointer missing");
      if (attr == "type") return Val::str("for");
      const cir::LoopFacts facts = cir::analyze_loop(*loop);
      if (attr == "isInnermost") return Val::boolean(facts.is_innermost);
      if (attr == "numIter")
        return facts.trip_count ? Val::num(static_cast<double>(*facts.trip_count))
                                : Val::null();
      if (attr == "inductionVar") return Val::str(facts.induction_var);
      if (attr == "line") return Val::num(loop->loc.line);
      break;
    }
    case Kind::Arg: {
      ANTAREX_CHECK(call != nullptr && arg_index >= 0, "join point: malformed arg");
      const cir::Expr& a = *call->args[static_cast<std::size_t>(arg_index)];
      if (attr == "name") return Val::str(arg_name(*this));
      if (attr == "index") return Val::num(arg_index);
      if (attr == "code") return Val::code(cir::to_source(a));
      if (attr == "value") {
        if (a.kind == cir::ExprKind::IntLit)
          return Val::num(static_cast<double>(static_cast<const cir::IntLit&>(a).value));
        if (a.kind == cir::ExprKind::FloatLit)
          return Val::num(static_cast<const cir::FloatLit&>(a).value);
        return Val::null();
      }
      if (attr == "runtimeValue") {
        return runtime_value ? Val::num(static_cast<double>(*runtime_value))
                             : Val::null();
      }
      break;
    }
  }
  throw Error(format("DSL: unknown attribute '%s' on this join point kind",
                     attr.c_str()));
}

const JoinPointPtr* SelectionBinding::find(const std::string& var) const {
  for (const auto& [name, jp] : bound)
    if (name == var) return &jp;
  return nullptr;
}

const JoinPointPtr& SelectionBinding::leaf() const {
  ANTAREX_CHECK(!bound.empty(), "SelectionBinding: empty binding");
  return bound.back().second;
}

Val* Env::find_mutable(const std::string& name) {
  for (auto& [n, val] : vars_)
    if (n == name) return &val;
  return parent_ ? parent_->find_mutable(name) : nullptr;
}

void Env::set(const std::string& name, Val v) {
  if (Val* existing = find_mutable(name)) {
    *existing = std::move(v);
    return;
  }
  vars_.emplace_back(name, std::move(v));
}

void Env::set_local(const std::string& name, Val v) {
  for (auto& [n, val] : vars_) {
    if (n == name) {
      val = std::move(v);
      return;
    }
  }
  vars_.emplace_back(name, std::move(v));
}

const Val* Env::find(const std::string& name) const {
  for (const auto& [n, val] : vars_)
    if (n == name) return &val;
  return parent_ ? parent_->find(name) : nullptr;
}

Env Env::snapshot() const {
  Env out;
  std::function<void(const Env*)> copy_chain = [&](const Env* e) {
    if (!e) return;
    copy_chain(e->parent_);
    for (const auto& [n, v] : e->vars_) out.set(n, v);
  };
  copy_chain(this);
  return out;
}

Val eval_expr(const DExpr& e, const Env& env, const JoinPoint* candidate) {
  switch (e.kind) {
    case DExprKind::Null:
      return Val::null();
    case DExprKind::Bool:
      return Val::boolean(e.bool_value);
    case DExprKind::Num:
      return Val::num(e.num_value);
    case DExprKind::Str:
      return Val::str(e.str_value);
    case DExprKind::Var: {
      if (candidate && e.name[0] != '$') return candidate->attribute(e.name);
      const Val* v = env.find(e.name);
      if (!v)
        throw Error(format("DSL: unbound variable '%s' (line %d)", e.name.c_str(),
                           e.line));
      return *v;
    }
    case DExprKind::Attr: {
      const Val base = eval_expr(*e.lhs, env, candidate);
      if (base.is_join_point()) return base.as_join_point()->attribute(e.name);
      if (base.is_record()) {
        const auto rec = base.as_record();
        auto it = rec->find(e.name);
        if (it == rec->end())
          throw Error(format("DSL: record has no field '%s' (line %d)",
                             e.name.c_str(), e.line));
        return it->second;
      }
      throw Error(format("DSL: '.%s' applied to a non-object value (line %d)",
                         e.name.c_str(), e.line));
    }
    case DExprKind::Unary: {
      const Val v = eval_expr(*e.lhs, env, candidate);
      return e.un_op == DUnOp::Neg ? Val::num(-v.as_num())
                                   : Val::boolean(!v.as_bool());
    }
    case DExprKind::Binary: {
      if (e.bin_op == DBinOp::And) {
        const Val l = eval_expr(*e.lhs, env, candidate);
        if (!l.as_bool()) return Val::boolean(false);
        return Val::boolean(eval_expr(*e.rhs, env, candidate).as_bool());
      }
      if (e.bin_op == DBinOp::Or) {
        const Val l = eval_expr(*e.lhs, env, candidate);
        if (l.as_bool()) return Val::boolean(true);
        return Val::boolean(eval_expr(*e.rhs, env, candidate).as_bool());
      }
      const Val l = eval_expr(*e.lhs, env, candidate);
      const Val r = eval_expr(*e.rhs, env, candidate);
      switch (e.bin_op) {
        case DBinOp::Eq: return Val::boolean(l.equals(r));
        case DBinOp::Ne: return Val::boolean(!l.equals(r));
        case DBinOp::Add:
          // String concatenation when either side is a string.
          if (l.is_str() || r.is_str()) return Val::str(l.to_string() + r.to_string());
          return Val::num(l.as_num() + r.as_num());
        case DBinOp::Sub: return Val::num(l.as_num() - r.as_num());
        case DBinOp::Mul: return Val::num(l.as_num() * r.as_num());
        case DBinOp::Div: return Val::num(l.as_num() / r.as_num());
        case DBinOp::Mod: return Val::num(std::fmod(l.as_num(), r.as_num()));
        // Comparisons on null (unknown attribute values, e.g. numIter of a
        // non-countable loop) are false rather than an error: conditions like
        // `$loop.numIter <= threshold` must simply not match such loops.
        case DBinOp::Lt:
          if (l.is_null() || r.is_null()) return Val::boolean(false);
          return Val::boolean(l.as_num() < r.as_num());
        case DBinOp::Le:
          if (l.is_null() || r.is_null()) return Val::boolean(false);
          return Val::boolean(l.as_num() <= r.as_num());
        case DBinOp::Gt:
          if (l.is_null() || r.is_null()) return Val::boolean(false);
          return Val::boolean(l.as_num() > r.as_num());
        case DBinOp::Ge:
          if (l.is_null() || r.is_null()) return Val::boolean(false);
          return Val::boolean(l.as_num() >= r.as_num());
        default:
          break;
      }
      ANTAREX_CHECK(false, "eval_expr: unreachable binop");
    }
  }
  ANTAREX_CHECK(false, "eval_expr: unreachable kind");
  return Val::null();
}

namespace {

JoinPointPtr make_func_jp(cir::Module& m, cir::Function& f) {
  auto jp = std::make_shared<JoinPoint>();
  jp->kind = JoinPoint::Kind::Function;
  jp->module = &m;
  jp->func = &f;
  return jp;
}

JoinPointPtr make_call_jp(cir::Module& m, const cir::CallSite& site) {
  auto jp = std::make_shared<JoinPoint>();
  jp->kind = JoinPoint::Kind::Call;
  jp->module = &m;
  jp->func = site.func;
  jp->call = site.call;
  jp->anchor_block = site.block;
  jp->anchor_stmt = site.block->stmts[site.stmt_index].get();
  return jp;
}

JoinPointPtr make_loop_jp(cir::Module& m, cir::Function& f, cir::ForStmt& loop) {
  auto jp = std::make_shared<JoinPoint>();
  jp->kind = JoinPoint::Kind::Loop;
  jp->module = &m;
  jp->func = &f;
  jp->loop = &loop;
  return jp;
}

JoinPointPtr make_arg_jp(const JoinPointPtr& call_jp, int index) {
  auto jp = std::make_shared<JoinPoint>(*call_jp);
  jp->kind = JoinPoint::Kind::Arg;
  jp->arg_index = index;
  return jp;
}

/// Candidates of a selector step within the scope of `parent` (or the whole
/// module when parent is null).
std::vector<JoinPointPtr> step_candidates(cir::Module& m, const JoinPointPtr& parent,
                                          const std::string& selector) {
  std::vector<JoinPointPtr> out;
  if (selector == "func") {
    ANTAREX_REQUIRE(!parent, "DSL: 'func' selector cannot be nested");
    for (auto& f : m.functions) out.push_back(make_func_jp(m, *f));
    return out;
  }
  if (selector == "fCall") {
    auto scan = [&](cir::Function& f) {
      for (auto& site : cir::collect_call_sites(f))
        out.push_back(make_call_jp(m, site));
    };
    if (parent) {
      ANTAREX_REQUIRE(parent->kind == JoinPoint::Kind::Function,
                      "DSL: 'fCall' may only be nested under 'func'");
      scan(*parent->func);
    } else {
      for (auto& f : m.functions) scan(*f);
    }
    return out;
  }
  if (selector == "loop") {
    auto scan = [&](cir::Function& f) {
      for (cir::ForStmt* loop : cir::collect_for_loops(f))
        out.push_back(make_loop_jp(m, f, *loop));
    };
    if (parent) {
      ANTAREX_REQUIRE(parent->kind == JoinPoint::Kind::Function,
                      "DSL: 'loop' may only be nested under 'func'");
      scan(*parent->func);
    } else {
      for (auto& f : m.functions) scan(*f);
    }
    return out;
  }
  if (selector == "arg") {
    ANTAREX_REQUIRE(parent && parent->kind == JoinPoint::Kind::Call,
                    "DSL: 'arg' must be nested under 'fCall'");
    for (int i = 0; i < static_cast<int>(parent->call->args.size()); ++i)
      out.push_back(make_arg_jp(parent, i));
    return out;
  }
  throw Error("DSL: unknown selector '" + selector + "'");
}

bool passes_filter(const JoinPointPtr& jp, const ChainStep& step) {
  if (step.name_filter) {
    // {'kernel'} shorthand: match the join point's name attribute.
    return jp->attribute("name").as_str() == *step.name_filter;
  }
  if (step.attr_filter) {
    // Bare identifiers read the candidate's attributes; $self binds it too.
    Env env;
    env.set(JoinPoint::var_name_for_selector("self"), Val::join_point(jp));
    return eval_expr(*step.attr_filter, env, jp.get()).as_bool();
  }
  return true;
}

}  // namespace

std::vector<SelectionBinding> run_select(cir::Module& module,
                                         const JoinPointPtr& root,
                                         const SelectStmt& sel) {
  ANTAREX_REQUIRE(!sel.chain.empty(), "DSL: empty select chain");

  std::vector<SelectionBinding> frontier;
  {
    SelectionBinding seed;
    if (root) seed.bound.emplace_back("$root", root);
    frontier.push_back(std::move(seed));
  }

  for (const ChainStep& step : sel.chain) {
    std::vector<SelectionBinding> next;
    for (const SelectionBinding& b : frontier) {
      const JoinPointPtr parent =
          b.bound.empty() ? nullptr : b.bound.back().second;
      for (const JoinPointPtr& jp : step_candidates(module, parent, step.selector)) {
        if (!passes_filter(jp, step)) continue;
        SelectionBinding extended = b;
        extended.bound.emplace_back(JoinPoint::var_name_for_selector(step.selector),
                                    jp);
        next.push_back(std::move(extended));
      }
    }
    frontier = std::move(next);
  }

  // Drop the $root seed from the visible bindings.
  for (auto& b : frontier) {
    if (!b.bound.empty() && b.bound.front().first == "$root")
      b.bound.erase(b.bound.begin());
  }
  return frontier;
}

}  // namespace antarex::dsl
