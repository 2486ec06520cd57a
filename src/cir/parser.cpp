#include "cir/parser.hpp"

#include <algorithm>
#include <optional>

#include "cir/lexer.hpp"
#include "support/strings.hpp"

namespace antarex::cir {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view source) : toks_(lex(source)) {}

  std::unique_ptr<Module> module() {
    auto m = std::make_unique<Module>();
    while (!at(TokKind::End)) m->add(function());
    return m;
  }

  ExprPtr single_expression() {
    ExprPtr e = expression();
    expect(TokKind::End, "trailing tokens after expression");
    return e;
  }

  std::unique_ptr<Block> snippet() {
    auto b = std::make_unique<Block>();
    while (!at(TokKind::End)) b->stmts.push_back(statement());
    return b;
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  bool at(TokKind k) const { return peek().kind == k; }
  const Token& advance() { return toks_[pos_++]; }
  bool match(TokKind k) {
    if (at(k)) {
      ++pos_;
      return true;
    }
    return false;
  }
  const Token& expect(TokKind k, const char* what) {
    if (!at(k)) fail(format("expected %s (%s), got %s", tok_kind_name(k), what,
                            tok_kind_name(peek().kind)));
    return advance();
  }
  [[noreturn]] void fail(const std::string& msg) const {
    const auto& t = peek();
    throw Error(format("parse error at %d:%d: %s", t.loc.line, t.loc.col, msg.c_str()));
  }

  /// One level of nesting for the scope of a recursive call.
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) {
      if (p_.depth_ >= kMaxNesting)
        p_.fail(format("nested deeper than %zu levels", kMaxNesting));
      ++p_.depth_;
    }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& p_;
  };

  bool at_type() const {
    switch (peek().kind) {
      case TokKind::KwInt:
      case TokKind::KwDouble:
      case TokKind::KwFloat:
      case TokKind::KwVoid:
      case TokKind::KwConst:
      case TokKind::KwChar:
        return true;
      default:
        return false;
    }
  }

  Type type() {
    const bool is_const = match(TokKind::KwConst);
    Type base;
    switch (peek().kind) {
      case TokKind::KwInt: advance(); base = Type::Int; break;
      case TokKind::KwDouble:
      case TokKind::KwFloat: advance(); base = Type::Float; break;
      case TokKind::KwVoid: advance(); base = Type::Void; break;
      case TokKind::KwChar: advance(); base = Type::Str; break;
      default: fail("expected a type name");
    }
    const bool ptr = match(TokKind::Star);
    if (base == Type::Str) {
      if (!ptr) fail("bare 'char' is not supported; use 'const char*'");
      return Type::Str;
    }
    (void)is_const;
    if (ptr) {
      if (base == Type::Int) return Type::IntArr;
      if (base == Type::Float) return Type::FloatArr;
      fail("'void*' is not supported in mini-C");
    }
    return base;
  }

  std::unique_ptr<Function> function() {
    auto f = std::make_unique<Function>();
    f->loc = peek().loc;
    f->return_type = type();
    f->name = expect(TokKind::Ident, "function name").text;
    expect(TokKind::LParen, "parameter list");
    if (!at(TokKind::RParen)) {
      do {
        Param p;
        p.type = type();
        if (p.type == Type::Void) fail("'void' parameter is not allowed");
        p.name = expect(TokKind::Ident, "parameter name").text;
        f->params.push_back(std::move(p));
      } while (match(TokKind::Comma));
    }
    expect(TokKind::RParen, "end of parameter list");
    f->body = block();
    return f;
  }

  std::unique_ptr<Block> block() {
    const SourceLoc loc = peek().loc;
    expect(TokKind::LBrace, "block");
    auto b = std::make_unique<Block>();
    b->loc = loc;
    while (!at(TokKind::RBrace)) {
      if (at(TokKind::End)) fail("unterminated block");
      b->stmts.push_back(statement());
    }
    expect(TokKind::RBrace, "end of block");
    return b;
  }

  /// Wraps a non-block statement in a Block (normalizes if/for/while bodies).
  std::unique_ptr<Block> block_or_stmt() {
    if (at(TokKind::LBrace)) return block();
    auto b = std::make_unique<Block>();
    b->loc = peek().loc;
    b->stmts.push_back(statement());
    return b;
  }

  StmtPtr statement() {
    const Nest nest(*this);
    const SourceLoc loc = peek().loc;
    switch (peek().kind) {
      case TokKind::LBrace:
        return block();
      case TokKind::KwIf: {
        advance();
        expect(TokKind::LParen, "if condition");
        ExprPtr cond = expression();
        expect(TokKind::RParen, "end of if condition");
        auto then_b = block_or_stmt();
        std::unique_ptr<Block> else_b;
        if (match(TokKind::KwElse)) else_b = block_or_stmt();
        auto s = std::make_unique<IfStmt>(std::move(cond), std::move(then_b),
                                          std::move(else_b));
        s->loc = loc;
        return s;
      }
      case TokKind::KwWhile: {
        advance();
        expect(TokKind::LParen, "while condition");
        ExprPtr cond = expression();
        expect(TokKind::RParen, "end of while condition");
        auto s = std::make_unique<WhileStmt>(std::move(cond), block_or_stmt());
        s->loc = loc;
        return s;
      }
      case TokKind::KwFor: {
        advance();
        expect(TokKind::LParen, "for header");
        StmtPtr init;
        if (!at(TokKind::Semi)) {
          init = at_type() ? declaration() : assign_statement();
        }
        expect(TokKind::Semi, "';' after for-init");
        ExprPtr cond;
        if (!at(TokKind::Semi)) cond = expression();
        expect(TokKind::Semi, "';' after for-condition");
        StmtPtr step;
        if (!at(TokKind::RParen)) step = assign_statement();
        expect(TokKind::RParen, "end of for header");
        auto s = std::make_unique<ForStmt>(std::move(init), std::move(cond),
                                           std::move(step), block_or_stmt());
        s->loc = loc;
        return s;
      }
      case TokKind::KwReturn: {
        advance();
        ExprPtr v;
        if (!at(TokKind::Semi)) v = expression();
        expect(TokKind::Semi, "';' after return");
        auto s = std::make_unique<ReturnStmt>(std::move(v));
        s->loc = loc;
        return s;
      }
      case TokKind::KwBreak: {
        advance();
        expect(TokKind::Semi, "';' after break");
        auto s = std::make_unique<BreakStmt>();
        s->loc = loc;
        return s;
      }
      case TokKind::KwContinue: {
        advance();
        expect(TokKind::Semi, "';' after continue");
        auto s = std::make_unique<ContinueStmt>();
        s->loc = loc;
        return s;
      }
      default:
        break;
    }
    if (at_type()) {
      StmtPtr d = declaration();
      expect(TokKind::Semi, "';' after declaration");
      return d;
    }
    StmtPtr s = assign_statement();
    expect(TokKind::Semi, "';' after statement");
    return s;
  }

  StmtPtr declaration() {
    const SourceLoc loc = peek().loc;
    const Type t = type();
    if (t == Type::Void) fail("cannot declare a 'void' variable");
    std::string name = expect(TokKind::Ident, "variable name").text;
    ExprPtr init;
    if (match(TokKind::Assign)) init = expression();
    auto s = std::make_unique<VarDeclStmt>(t, std::move(name), std::move(init));
    s->loc = loc;
    return s;
  }

  /// Assignment statement, ++/-- sugar, compound assignment, or a bare
  /// expression statement (typically a call).
  StmtPtr assign_statement() {
    const SourceLoc loc = peek().loc;
    ExprPtr lhs = expression();

    auto desugar = [&](BinOp op, ExprPtr rhs) -> StmtPtr {
      if (lhs->kind != ExprKind::VarRef && lhs->kind != ExprKind::Index)
        fail("left side of assignment must be a variable or array element");
      ExprPtr lhs_copy = lhs->clone();
      auto s = std::make_unique<AssignStmt>(
          std::move(lhs),
          make_binary(op, std::move(lhs_copy), std::move(rhs)));
      s->loc = loc;
      return s;
    };

    switch (peek().kind) {
      case TokKind::Assign: {
        advance();
        if (lhs->kind != ExprKind::VarRef && lhs->kind != ExprKind::Index)
          fail("left side of assignment must be a variable or array element");
        auto s = std::make_unique<AssignStmt>(std::move(lhs), expression());
        s->loc = loc;
        return s;
      }
      case TokKind::PlusAssign: advance(); return desugar(BinOp::Add, expression());
      case TokKind::MinusAssign: advance(); return desugar(BinOp::Sub, expression());
      case TokKind::StarAssign: advance(); return desugar(BinOp::Mul, expression());
      case TokKind::SlashAssign: advance(); return desugar(BinOp::Div, expression());
      case TokKind::PlusPlus: advance(); return desugar(BinOp::Add, make_int(1));
      case TokKind::MinusMinus: advance(); return desugar(BinOp::Sub, make_int(1));
      default: {
        auto s = std::make_unique<ExprStmt>(std::move(lhs));
        s->loc = loc;
        return s;
      }
    }
  }

  // Expression precedence climbing. Every expression function returns its
  // tree with the tree's depth (a leaf is 1), so a left-deep chain such as
  // `x + x + ...`, which the loops below build without recursing, is still
  // bounded by kMaxExprDepth for the recursive walkers that run later.
  struct Parsed {
    ExprPtr e;
    std::size_t depth = 1;
  };

  ExprPtr expression() { return nested_expression().e; }

  Parsed nested_expression() {
    const Nest nest(*this);
    return binary(0);
  }

  /// Depth of a node over children `a` and `b` deep; past the cap it fails.
  std::size_t node_depth(std::size_t a, std::size_t b = 0) const {
    const std::size_t d = 1 + std::max(a, b);
    if (d > kMaxExprDepth)
      fail(format("expression deeper than %zu levels", kMaxExprDepth));
    return d;
  }

  /// The binary operator `k` spells at precedence `level` (0 binds loosest:
  /// || < && < ==,!= < <,<=,>,>= < +,- < *,/,%), if any.
  static std::optional<BinOp> binary_op(int level, TokKind k) {
    switch (level) {
      case 0:
        if (k == TokKind::PipePipe) return BinOp::Or;
        break;
      case 1:
        if (k == TokKind::AmpAmp) return BinOp::And;
        break;
      case 2:
        if (k == TokKind::EqEq) return BinOp::Eq;
        if (k == TokKind::Ne) return BinOp::Ne;
        break;
      case 3:
        if (k == TokKind::Lt) return BinOp::Lt;
        if (k == TokKind::Le) return BinOp::Le;
        if (k == TokKind::Gt) return BinOp::Gt;
        if (k == TokKind::Ge) return BinOp::Ge;
        break;
      case 4:
        if (k == TokKind::Plus) return BinOp::Add;
        if (k == TokKind::Minus) return BinOp::Sub;
        break;
      case 5:
        if (k == TokKind::Star) return BinOp::Mul;
        if (k == TokKind::Slash) return BinOp::Div;
        if (k == TokKind::Percent) return BinOp::Mod;
        break;
    }
    return std::nullopt;
  }
  static constexpr int kBinaryLevels = 6;

  /// Left-associative operators of precedence `level` and tighter.
  Parsed binary(int level) {
    if (level == kBinaryLevels) return unary();
    Parsed p = binary(level + 1);
    while (const std::optional<BinOp> op = binary_op(level, peek().kind)) {
      const SourceLoc loc = advance().loc;
      Parsed rhs = binary(level + 1);
      p.depth = node_depth(p.depth, rhs.depth);
      p.e = make_binary(*op, std::move(p.e), std::move(rhs.e));
      p.e->loc = loc;
    }
    return p;
  }

  Parsed unary() {
    if (at(TokKind::Minus) || at(TokKind::Bang)) {
      const UnOp op = at(TokKind::Minus) ? UnOp::Neg : UnOp::Not;
      const SourceLoc loc = advance().loc;
      const Nest nest(*this);
      Parsed p = unary();
      p.depth = node_depth(p.depth);
      p.e = make_unary(op, std::move(p.e));
      p.e->loc = loc;
      return p;
    }
    return postfix();
  }

  Parsed postfix() {
    Parsed p = primary();
    while (at(TokKind::LBracket)) {
      const SourceLoc loc = advance().loc;
      Parsed idx = nested_expression();
      expect(TokKind::RBracket, "array subscript");
      p.depth = node_depth(p.depth, idx.depth);
      p.e = make_index(std::move(p.e), std::move(idx.e));
      p.e->loc = loc;
    }
    return p;
  }

  Parsed primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokKind::IntLit: {
        advance();
        ExprPtr e = make_int(t.int_value);
        e->loc = t.loc;
        return {std::move(e)};
      }
      case TokKind::FloatLit: {
        advance();
        ExprPtr e = make_float(t.float_value);
        e->loc = t.loc;
        return {std::move(e)};
      }
      case TokKind::StrLit: {
        advance();
        ExprPtr e = make_str(t.text);
        e->loc = t.loc;
        return {std::move(e)};
      }
      case TokKind::LParen: {
        advance();
        Parsed p = nested_expression();
        expect(TokKind::RParen, "closing parenthesis");
        return p;
      }
      case TokKind::Ident: {
        advance();
        if (match(TokKind::LParen)) {
          std::vector<ExprPtr> args;
          std::size_t depth = 1;
          if (!at(TokKind::RParen)) {
            do {
              Parsed arg = nested_expression();
              depth = std::max(depth, node_depth(arg.depth));
              args.push_back(std::move(arg.e));
            } while (match(TokKind::Comma));
          }
          expect(TokKind::RParen, "end of call arguments");
          ExprPtr e = make_call(t.text, std::move(args));
          e->loc = t.loc;
          return {std::move(e), depth};
        }
        ExprPtr e = make_var(t.text);
        e->loc = t.loc;
        return {std::move(e)};
      }
      default:
        fail(format("unexpected token %s in expression", tok_kind_name(t.kind)));
    }
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

std::unique_ptr<Module> parse_module(std::string_view source) {
  return Parser(source).module();
}

ExprPtr parse_expression(std::string_view source) {
  return Parser(source).single_expression();
}

std::unique_ptr<Block> parse_snippet(std::string_view source) {
  return Parser(source).snippet();
}

}  // namespace antarex::cir
