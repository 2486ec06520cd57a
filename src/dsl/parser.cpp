#include <algorithm>
#include <optional>

#include "dsl/ast.hpp"
#include "dsl/lexer.hpp"
#include "support/strings.hpp"

namespace antarex::dsl {

DExprPtr DExpr::clone() const {
  auto e = std::make_unique<DExpr>();
  e->kind = kind;
  e->bool_value = bool_value;
  e->num_value = num_value;
  e->str_value = str_value;
  e->name = name;
  e->un_op = un_op;
  e->bin_op = bin_op;
  e->line = line;
  if (lhs) e->lhs = lhs->clone();
  if (rhs) e->rhs = rhs->clone();
  return e;
}

const AspectDef* AspectLibrary::find(const std::string& name) const {
  for (const auto& a : aspects)
    if (a.name == name) return &a;
  return nullptr;
}

namespace {

class DslParser {
 public:
  explicit DslParser(std::string_view src) : toks_(dsl_lex(src)) {}

  AspectLibrary library() {
    AspectLibrary lib;
    while (!at(DTok::End)) lib.aspects.push_back(aspectdef());
    // Duplicate names are almost certainly a copy-paste bug in a strategy
    // file; reject early.
    for (std::size_t i = 0; i < lib.aspects.size(); ++i)
      for (std::size_t j = i + 1; j < lib.aspects.size(); ++j)
        if (lib.aspects[i].name == lib.aspects[j].name)
          throw Error("DSL: duplicate aspectdef '" + lib.aspects[i].name + "'");
    return lib;
  }

  DExprPtr single_expression() {
    DExprPtr e = expression();
    expect(DTok::End, "end of expression");
    return e;
  }

 private:
  const DToken& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  bool at(DTok k) const { return peek().kind == k; }
  const DToken& advance() { return toks_[pos_++]; }
  bool match(DTok k) {
    if (at(k)) {
      ++pos_;
      return true;
    }
    return false;
  }
  const DToken& expect(DTok k, const char* what) {
    if (!at(k))
      fail(format("expected %s (%s), got %s", dtok_name(k), what,
                  dtok_name(peek().kind)));
    return advance();
  }
  [[noreturn]] void fail(const std::string& msg) const {
    throw Error(format("DSL parse error at %d:%d: %s", peek().line, peek().col,
                       msg.c_str()));
  }

  /// One level of expression nesting for the scope of a recursive call.
  class Nest {
   public:
    explicit Nest(DslParser& p) : p_(p) {
      if (p_.depth_ >= kDslMaxNesting)
        p_.fail(format("expression nested deeper than %zu", kDslMaxNesting));
      ++p_.depth_;
    }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    DslParser& p_;
  };

  // --- aspectdef ------------------------------------------------------------

  AspectDef aspectdef() {
    expect(DTok::KwAspectdef, "aspect definition");
    AspectDef def;
    def.name = expect(DTok::Ident, "aspect name").text;
    while (!at(DTok::KwEnd)) {
      if (at(DTok::End)) fail("unterminated aspectdef '" + def.name + "'");
      switch (peek().kind) {
        case DTok::KwInput:
          advance();
          name_list(def.inputs);
          expect(DTok::KwEnd, "end of input section");
          break;
        case DTok::KwOutput:
          advance();
          name_list(def.outputs);
          expect(DTok::KwEnd, "end of output section");
          break;
        case DTok::KwSelect:
          def.body.push_back(select_item());
          break;
        case DTok::KwApply:
          def.body.push_back(apply_item());
          break;
        case DTok::KwCondition:
          def.body.push_back(condition_item());
          break;
        case DTok::KwCall: {
          Item item;
          item.kind = Item::Kind::Call;
          item.call = call_stmt();
          def.body.push_back(std::move(item));
          break;
        }
        case DTok::KwVar: {
          advance();
          Item item;
          item.kind = Item::Kind::Assign;
          item.assign.name = ident_or_dollar("variable name");
          expect(DTok::Assign, "initializer");
          item.assign.value = expression();
          expect(DTok::Semi, "';' after var");
          def.body.push_back(std::move(item));
          break;
        }
        case DTok::Ident:
        case DTok::DollarIdent: {
          // output/variable assignment: name = expr ;
          Item item;
          item.kind = Item::Kind::Assign;
          item.assign.name = advance().text;
          expect(DTok::Assign, "assignment");
          item.assign.value = expression();
          expect(DTok::Semi, "';' after assignment");
          def.body.push_back(std::move(item));
          break;
        }
        default:
          fail(format("unexpected %s in aspect body", dtok_name(peek().kind)));
      }
    }
    expect(DTok::KwEnd, "end of aspectdef");
    return def;
  }

  void name_list(std::vector<std::string>& out) {
    out.push_back(ident_or_dollar("name"));
    while (match(DTok::Comma)) out.push_back(ident_or_dollar("name"));
  }

  std::string ident_or_dollar(const char* what) {
    if (at(DTok::Ident) || at(DTok::DollarIdent)) return advance().text;
    fail(format("expected %s", what));
  }

  // --- select ----------------------------------------------------------------

  Item select_item() {
    expect(DTok::KwSelect, "select");
    Item item;
    item.kind = Item::Kind::Select;
    if (at(DTok::DollarIdent)) {
      item.select.root_var = advance().text;
      expect(DTok::Dot, "'.' after select root");
    }
    item.select.chain.push_back(chain_step());
    while (match(DTok::Dot)) item.select.chain.push_back(chain_step());
    expect(DTok::KwEnd, "end of select");
    return item;
  }

  ChainStep chain_step() {
    ChainStep step;
    step.selector = expect(DTok::Ident, "selector name").text;
    if (match(DTok::LBrace)) {
      if (at(DTok::Str) && peek(1).kind == DTok::RBrace) {
        step.name_filter = advance().text;
      } else {
        step.attr_filter = expression();
      }
      expect(DTok::RBrace, "end of selector filter");
    }
    return step;
  }

  // --- apply -------------------------------------------------------------------

  Item apply_item() {
    expect(DTok::KwApply, "apply");
    Item item;
    item.kind = Item::Kind::Apply;
    item.apply.dynamic = match(DTok::KwDynamic);
    while (!at(DTok::KwEnd)) {
      if (at(DTok::End)) fail("unterminated apply block");
      item.apply.actions.push_back(action());
    }
    expect(DTok::KwEnd, "end of apply");
    return item;
  }

  Action action() {
    Action a{};
    switch (peek().kind) {
      case DTok::KwInsert: {
        advance();
        a.kind = Action::Kind::Insert;
        if (match(DTok::KwBefore)) {
          a.insert.before = true;
        } else if (match(DTok::KwAfter)) {
          a.insert.before = false;
        } else {
          fail("expected 'before' or 'after' after insert");
        }
        a.insert.code_template = expect(DTok::Template, "code template").text;
        expect(DTok::Semi, "';' after insert");
        return a;
      }
      case DTok::KwDo: {
        advance();
        a.kind = Action::Kind::Do;
        a.do_action.action = expect(DTok::Ident, "action name").text;
        expect(DTok::LParen, "action arguments");
        if (!at(DTok::RParen)) {
          a.do_action.args.push_back(expression());
          while (match(DTok::Comma)) a.do_action.args.push_back(expression());
        }
        expect(DTok::RParen, "end of action arguments");
        expect(DTok::Semi, "';' after do");
        return a;
      }
      case DTok::KwCall: {
        a.kind = Action::Kind::Call;
        a.call = call_stmt();
        return a;
      }
      case DTok::Ident:
      case DTok::DollarIdent: {
        a.kind = Action::Kind::Assign;
        a.assign.name = advance().text;
        expect(DTok::Assign, "assignment");
        a.assign.value = expression();
        expect(DTok::Semi, "';' after assignment");
        return a;
      }
      default:
        fail(format("unexpected %s in apply block", dtok_name(peek().kind)));
    }
  }

  CallStmt call_stmt() {
    expect(DTok::KwCall, "call");
    CallStmt c;
    // `call label : Callee(...)` or `call Callee(...)`.
    if (at(DTok::Ident) && peek(1).kind == DTok::Colon) {
      c.label = advance().text;
      advance();  // ':'
    }
    c.callee = expect(DTok::Ident, "aspect or action name").text;
    expect(DTok::LParen, "call arguments");
    if (!at(DTok::RParen)) {
      c.args.push_back(expression());
      while (match(DTok::Comma)) c.args.push_back(expression());
    }
    expect(DTok::RParen, "end of call arguments");
    expect(DTok::Semi, "';' after call");
    return c;
  }

  Item condition_item() {
    expect(DTok::KwCondition, "condition");
    Item item;
    item.kind = Item::Kind::Condition;
    item.condition.expr = expression();
    expect(DTok::KwEnd, "end of condition");
    return item;
  }

  // --- expressions -------------------------------------------------------------

  DExprPtr make(DExprKind k) {
    auto e = std::make_unique<DExpr>();
    e->kind = k;
    e->line = peek().line;
    return e;
  }

  // Precedence climbing. Every expression function returns its tree with
  // the tree's depth (a leaf is 1), so a left-deep chain such as `a && b &&
  // ...` or `$a.b.c...`, which the loops below build without recursing, is
  // still bounded by kDslMaxExprDepth for the recursive evaluator.
  struct Parsed {
    DExprPtr e;
    std::size_t depth = 1;
  };

  DExprPtr expression() { return nested_expression().e; }

  Parsed nested_expression() {
    const Nest nest(*this);
    return binary(0);
  }

  /// Depth of a node over children `a` and `b` deep; past the cap it fails.
  std::size_t node_depth(std::size_t a, std::size_t b = 0) const {
    const std::size_t d = 1 + std::max(a, b);
    if (d > kDslMaxExprDepth)
      fail(format("expression deeper than %zu levels", kDslMaxExprDepth));
    return d;
  }

  /// The binary operator `k` spells at precedence `level` (0 binds loosest:
  /// || < && < comparisons < +,- < *,/,%), if any.
  static std::optional<DBinOp> binary_op(int level, DTok k) {
    switch (level) {
      case 0:
        if (k == DTok::OrOr) return DBinOp::Or;
        break;
      case 1:
        if (k == DTok::AndAnd) return DBinOp::And;
        break;
      case 2:
        if (k == DTok::Eq) return DBinOp::Eq;
        if (k == DTok::Ne) return DBinOp::Ne;
        if (k == DTok::Lt) return DBinOp::Lt;
        if (k == DTok::Le) return DBinOp::Le;
        if (k == DTok::Gt) return DBinOp::Gt;
        if (k == DTok::Ge) return DBinOp::Ge;
        break;
      case 3:
        if (k == DTok::Plus) return DBinOp::Add;
        if (k == DTok::Minus) return DBinOp::Sub;
        break;
      case 4:
        if (k == DTok::Star) return DBinOp::Mul;
        if (k == DTok::Slash) return DBinOp::Div;
        if (k == DTok::Percent) return DBinOp::Mod;
        break;
    }
    return std::nullopt;
  }
  static constexpr int kBinaryLevels = 5;

  /// Left-associative operators of precedence `level` and tighter.
  Parsed binary(int level) {
    if (level == kBinaryLevels) return unary();
    Parsed p = binary(level + 1);
    while (const std::optional<DBinOp> op = binary_op(level, peek().kind)) {
      advance();
      Parsed rhs = binary(level + 1);
      p.depth = node_depth(p.depth, rhs.depth);
      auto e = make(DExprKind::Binary);
      e->bin_op = *op;
      e->lhs = std::move(p.e);
      e->rhs = std::move(rhs.e);
      p.e = std::move(e);
    }
    return p;
  }

  Parsed unary() {
    if (at(DTok::Minus) || at(DTok::Not)) {
      const DUnOp op = at(DTok::Minus) ? DUnOp::Neg : DUnOp::Not;
      advance();
      const Nest nest(*this);
      auto e = make(DExprKind::Unary);
      e->un_op = op;
      Parsed p = unary();
      p.depth = node_depth(p.depth);
      e->lhs = std::move(p.e);
      p.e = std::move(e);
      return p;
    }
    return postfix();
  }

  Parsed postfix() {
    Parsed p = primary();
    while (match(DTok::Dot)) {
      auto attr = make(DExprKind::Attr);
      if (at(DTok::Ident) || at(DTok::DollarIdent)) {
        attr->name = advance().text;
      } else {
        fail("expected attribute name after '.'");
      }
      p.depth = node_depth(p.depth);
      attr->lhs = std::move(p.e);
      p.e = std::move(attr);
    }
    return p;
  }

  Parsed primary() {
    switch (peek().kind) {
      case DTok::Num: {
        auto e = make(DExprKind::Num);
        e->num_value = advance().num;
        return {std::move(e)};
      }
      case DTok::Str: {
        auto e = make(DExprKind::Str);
        e->str_value = advance().text;
        return {std::move(e)};
      }
      case DTok::KwTrue:
      case DTok::KwFalse: {
        const bool value = advance().kind == DTok::KwTrue;
        auto e = make(DExprKind::Bool);
        e->bool_value = value;
        return {std::move(e)};
      }
      case DTok::KwNull:
        advance();
        return {make(DExprKind::Null)};
      case DTok::Ident:
      case DTok::DollarIdent: {
        auto e = make(DExprKind::Var);
        e->name = advance().text;
        return {std::move(e)};
      }
      case DTok::LParen: {
        advance();
        Parsed p = nested_expression();
        expect(DTok::RParen, "closing parenthesis");
        return p;
      }
      default:
        fail(format("unexpected %s in expression", dtok_name(peek().kind)));
    }
  }

  std::vector<DToken> toks_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

AspectLibrary parse_aspects(std::string_view source) {
  return DslParser(source).library();
}

DExprPtr parse_dsl_expression(std::string_view source) {
  return DslParser(source).single_expression();
}

}  // namespace antarex::dsl
