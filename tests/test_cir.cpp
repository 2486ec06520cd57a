// Unit tests for the mini-C frontend: lexer, parser, printer round-trip,
// analyses (loop facts, call sites, substitution) and the semantic checker.
#include <gtest/gtest.h>

#include "cir/analysis.hpp"
#include "cir/ast.hpp"
#include "cir/lexer.hpp"
#include "cir/parser.hpp"
#include "cir/printer.hpp"

namespace antarex::cir {
namespace {

// --------------------------------------------------------------------------
// Lexer
// --------------------------------------------------------------------------

TEST(Lexer, TokenizesArithmetic) {
  const auto toks = lex("a + 2 * 3.5");
  ASSERT_EQ(toks.size(), 6u);  // incl. End
  EXPECT_EQ(toks[0].kind, TokKind::Ident);
  EXPECT_EQ(toks[1].kind, TokKind::Plus);
  EXPECT_EQ(toks[2].kind, TokKind::IntLit);
  EXPECT_EQ(toks[2].int_value, 2);
  EXPECT_EQ(toks[3].kind, TokKind::Star);
  EXPECT_EQ(toks[4].kind, TokKind::FloatLit);
  EXPECT_DOUBLE_EQ(toks[4].float_value, 3.5);
}

TEST(Lexer, DistinguishesKeywordsFromIdents) {
  const auto toks = lex("for fortress int integer");
  EXPECT_EQ(toks[0].kind, TokKind::KwFor);
  EXPECT_EQ(toks[1].kind, TokKind::Ident);
  EXPECT_EQ(toks[2].kind, TokKind::KwInt);
  EXPECT_EQ(toks[3].kind, TokKind::Ident);
}

TEST(Lexer, TwoCharOperators) {
  const auto toks = lex("<= >= == != && || ++ -- += -=");
  EXPECT_EQ(toks[0].kind, TokKind::Le);
  EXPECT_EQ(toks[1].kind, TokKind::Ge);
  EXPECT_EQ(toks[2].kind, TokKind::EqEq);
  EXPECT_EQ(toks[3].kind, TokKind::Ne);
  EXPECT_EQ(toks[4].kind, TokKind::AmpAmp);
  EXPECT_EQ(toks[5].kind, TokKind::PipePipe);
  EXPECT_EQ(toks[6].kind, TokKind::PlusPlus);
  EXPECT_EQ(toks[7].kind, TokKind::MinusMinus);
  EXPECT_EQ(toks[8].kind, TokKind::PlusAssign);
  EXPECT_EQ(toks[9].kind, TokKind::MinusAssign);
}

TEST(Lexer, StringEscapes) {
  const auto toks = lex(R"("a\nb\"c")");
  ASSERT_EQ(toks[0].kind, TokKind::StrLit);
  EXPECT_EQ(toks[0].text, "a\nb\"c");
}

TEST(Lexer, SingleQuotedStrings) {
  // Woven code inherits single-quoted strings from LARA %{...}% templates.
  const auto toks = lex(R"('hello' 'it\'s')");
  ASSERT_EQ(toks[0].kind, TokKind::StrLit);
  EXPECT_EQ(toks[0].text, "hello");
  ASSERT_EQ(toks[1].kind, TokKind::StrLit);
  EXPECT_EQ(toks[1].text, "it's");
  EXPECT_THROW(lex("'open"), Error);
}

TEST(Lexer, SingleQuotedStringsRoundTripThroughPrinter) {
  auto m = parse_module("void f() { profile_args('tag', 'loc', 1); }");
  const std::string printed = to_source(*m);
  // The printer normalizes to double quotes; re-parsing must agree.
  EXPECT_NE(printed.find("\"tag\""), std::string::npos);
  auto m2 = parse_module(printed);
  EXPECT_EQ(printed, to_source(*m2));
}

TEST(Lexer, CommentsAreSkipped) {
  const auto toks = lex("a // line\n/* block\nstill */ b");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
}

TEST(Lexer, TracksLineAndColumn) {
  const auto toks = lex("a\n  b");
  EXPECT_EQ(toks[0].loc.line, 1);
  EXPECT_EQ(toks[1].loc.line, 2);
  EXPECT_EQ(toks[1].loc.col, 3);
}

TEST(Lexer, ScientificNotation) {
  const auto toks = lex("1e3 2.5e-2");
  EXPECT_EQ(toks[0].kind, TokKind::FloatLit);
  EXPECT_DOUBLE_EQ(toks[0].float_value, 1000.0);
  EXPECT_DOUBLE_EQ(toks[1].float_value, 0.025);
}

TEST(Lexer, RejectsMalformedInput) {
  EXPECT_THROW(lex("\"unterminated"), Error);
  EXPECT_THROW(lex("a @ b"), Error);
  EXPECT_THROW(lex("a & b"), Error);
  EXPECT_THROW(lex("/* open"), Error);
}

// --------------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------------

std::unique_ptr<Module> parse_ok(std::string_view src) {
  auto m = parse_module(src);
  const auto diags = check_module(*m);
  EXPECT_TRUE(diags.empty()) << (diags.empty() ? "" : diags[0].message);
  return m;
}

TEST(Parser, SimpleFunction) {
  auto m = parse_ok("int add(int a, int b) { return a + b; }");
  const Function* f = m->find("add");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->return_type, Type::Int);
  ASSERT_EQ(f->params.size(), 2u);
  EXPECT_EQ(f->params[0].name, "a");
  ASSERT_EQ(f->body->stmts.size(), 1u);
  EXPECT_EQ(f->body->stmts[0]->kind, StmtKind::Return);
}

TEST(Parser, PrecedenceMulOverAdd) {
  auto e = parse_expression("1 + 2 * 3");
  ASSERT_EQ(e->kind, ExprKind::Binary);
  const auto& top = static_cast<const BinaryExpr&>(*e);
  EXPECT_EQ(top.op, BinOp::Add);
  EXPECT_EQ(top.rhs->kind, ExprKind::Binary);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*top.rhs).op, BinOp::Mul);
}

TEST(Parser, PrecedenceComparisonUnderLogic) {
  auto e = parse_expression("a < 3 && b > 4 || c == 5");
  ASSERT_EQ(e->kind, ExprKind::Binary);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*e).op, BinOp::Or);
}

TEST(Parser, ParenthesesOverridePrecedence) {
  auto e = parse_expression("(1 + 2) * 3");
  ASSERT_EQ(e->kind, ExprKind::Binary);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*e).op, BinOp::Mul);
}

TEST(Parser, ForLoopDesugarsIncrement) {
  auto m = parse_ok(
      "int sum(int n) { int s = 0; for (int i = 0; i < n; i++) { s = s + i; } "
      "return s; }");
  auto loops = collect_for_loops(*m->find("sum"));
  ASSERT_EQ(loops.size(), 1u);
  ASSERT_NE(loops[0]->step, nullptr);
  EXPECT_EQ(loops[0]->step->kind, StmtKind::Assign);
}

TEST(Parser, CompoundAssignDesugars) {
  auto m = parse_ok("void f() { int x = 1; x += 2; x *= 3; }");
  int assigns = 0;
  walk_stmts(*m->find("f")->body, [&](Stmt& s) {
    if (s.kind == StmtKind::Assign) ++assigns;
  });
  EXPECT_EQ(assigns, 2);
}

TEST(Parser, IfElseNormalizesToBlocks) {
  auto m = parse_ok("int f(int x) { if (x > 0) return 1; else return 2; }");
  const auto& s = *m->find("f")->body->stmts[0];
  ASSERT_EQ(s.kind, StmtKind::If);
  const auto& i = static_cast<const IfStmt&>(s);
  EXPECT_EQ(i.then_block->stmts.size(), 1u);
  ASSERT_NE(i.else_block, nullptr);
}

TEST(Parser, ArrayParamsAndIndexing) {
  auto m = parse_ok(
      "double dot(double* a, double* b, int n) {"
      "  double s = 0.0;"
      "  for (int i = 0; i < n; i++) s = s + a[i] * b[i];"
      "  return s;"
      "}");
  const Function* f = m->find("dot");
  EXPECT_EQ(f->params[0].type, Type::FloatArr);
  EXPECT_EQ(f->params[2].type, Type::Int);
}

TEST(Parser, WhileBreakContinue) {
  auto m = parse_ok(
      "int f() { int i = 0; while (1) { i++; if (i > 10) break; "
      "if (i == 3) continue; } return i; }");
  EXPECT_NE(m->find("f"), nullptr);
}

TEST(Parser, StringArgumentInCall) {
  auto m = parse_module(
      "void f() { profile_args(\"kernel\", 3, 4); }");
  auto calls = collect_calls(*m->find("f"));
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0]->callee, "profile_args");
  ASSERT_EQ(calls[0]->args.size(), 3u);
  EXPECT_EQ(calls[0]->args[0]->kind, ExprKind::StrLit);
}

TEST(Parser, SyntaxErrorsCarryLocation) {
  try {
    parse_module("int f( { }");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("parse error at"), std::string::npos);
  }
}

TEST(Parser, RejectsAssignmentToRvalue) {
  EXPECT_THROW(parse_module("void f() { 3 = 4; }"), Error);
  EXPECT_THROW(parse_module("void f(int a) { (a + 1) = 4; }"), Error);
}

TEST(Parser, RejectsUnsupportedTypes) {
  EXPECT_THROW(parse_module("void* f() { }"), Error);
  EXPECT_THROW(parse_module("void f(void x) { }"), Error);
  EXPECT_THROW(parse_module("char f() { }"), Error);
}

// An expression inside `depth - 1` parentheses sits at nesting `depth`.
std::string nested_expression(std::size_t depth) {
  return std::string(depth - 1, '(') + "1" + std::string(depth - 1, ')');
}

TEST(Parser, NestingDepthIsBoundedByAnError) {
  EXPECT_NO_THROW(parse_expression(nested_expression(kMaxNesting)));
  EXPECT_THROW(parse_expression(nested_expression(kMaxNesting + 1)), Error);
  // Deep enough to overflow the stack without the bound.
  EXPECT_THROW(parse_expression(nested_expression(100000)), Error);
  // Prefix operators ('-' would lex as '--') and nested blocks count too.
  EXPECT_NO_THROW(parse_expression(std::string(kMaxNesting - 1, '!') + "1"));
  EXPECT_THROW(parse_expression(std::string(100000, '!') + "1"), Error);
  EXPECT_NO_THROW(parse_snippet(std::string(kMaxNesting, '{') +
                                std::string(kMaxNesting, '}')));
  EXPECT_THROW(parse_snippet(std::string(100000, '{') +
                             std::string(100000, '}')),
               Error);
}

// `term op term op ...` with `terms` terms: a left-deep chain `terms` levels
// deep that parses iteratively, so only kMaxExprDepth bounds it.
std::string chain(std::size_t terms, const char* op, const char* term) {
  std::string s = term;
  s.reserve(terms * (std::char_traits<char>::length(op) + 1));
  for (std::size_t i = 1; i < terms; ++i) (s += op) += term;
  return s;
}

TEST(Parser, ExpressionDepthIsBoundedByAnError) {
  ExprPtr sum = parse_expression(chain(kMaxExprDepth, "+", "1"));
  ASSERT_EQ(sum->kind, ExprKind::Binary);
  EXPECT_THROW(parse_expression(chain(kMaxExprDepth + 1, "+", "1")), Error);
  // Each link of a subscript chain, and each call around an argument, is a
  // level too.
  std::string subscripts = "x";
  for (std::size_t i = 1; i < kMaxExprDepth; ++i) subscripts += "[0]";
  EXPECT_NO_THROW(parse_expression(subscripts));
  EXPECT_THROW(parse_expression(subscripts + "[0]"), Error);
  EXPECT_THROW(parse_expression("f(" + chain(kMaxExprDepth, "+", "1") + ")"),
               Error);
  // Million-term chains: the walkers that run after the parser recursed
  // once per link and crashed the process on these.
  EXPECT_THROW(parse_expression(chain(1000000, "&&", "x")), Error);
  EXPECT_THROW(parse_module("int f(int x) { return " +
                            chain(1000000, "*", "x") + "; }"),
               Error);
}

TEST(Ast, MillionLinkChainsFree) {
  // Trees a pass builds are not bound by the parser's depth cap; freed one
  // frame per link, these crashed the process at ~1M links.
  constexpr int kLinks = 1000000;
  ExprPtr sum = make_int(1);
  for (int i = 0; i < kLinks; ++i)
    sum = make_binary(BinOp::Add, std::move(sum), make_int(1));
  sum.reset();
  ExprPtr index = make_var("x");
  for (int i = 0; i < kLinks; ++i) index = make_index(std::move(index), make_int(0));
  // A subscript chain under a binary chain frees as one chain.
  for (int i = 0; i < kLinks; ++i)
    index = make_binary(BinOp::Add, std::move(index), make_int(1));
  EXPECT_NO_THROW(index.reset());
}

TEST(Parser, DuplicateFunctionNameRejected) {
  EXPECT_THROW(parse_module("void f() { } void f() { }"), Error);
}

// --------------------------------------------------------------------------
// Printer round-trip
// --------------------------------------------------------------------------

class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, ParsePrintParseIsStable) {
  auto m1 = parse_module(GetParam());
  const std::string src1 = to_source(*m1);
  auto m2 = parse_module(src1);
  const std::string src2 = to_source(*m2);
  EXPECT_EQ(src1, src2);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, RoundTrip,
    ::testing::Values(
        "int add(int a, int b) { return a + b; }",
        "double norm(double* v, int n) { double s = 0.0; "
        "for (int i = 0; i < n; i++) s = s + v[i] * v[i]; return sqrt(s); }",
        "int f(int x) { if (x > 0) { return 1; } else { return 0 - 1; } }",
        "void g() { int i = 0; while (i < 10) { i = i + 1; if (i == 5) break; } }",
        "int h(int n) { int acc = 1; for (int i = 1; i <= n; i = i + 1) "
        "{ acc = acc * i; } return acc; }",
        "double prec(double x) { return fabs(x) + pow(x, 2.0) / 3.0; }",
        "int logic(int a, int b) { return a && b || !a; }",
        "void arr(int* xs, int n) { for (int i = 0; i < n; i++) xs[i] = i * 2; }"));

TEST(Printer, ParenthesizesNonAssociativeRhs) {
  // (a - b) - c parses as a-b-c; a - (b - c) must keep parens.
  auto e = parse_expression("a - (b - c)");
  EXPECT_EQ(to_source(*e), "a - (b - c)");
  auto e2 = parse_expression("a - b - c");
  EXPECT_EQ(to_source(*e2), "a - b - c");
}

TEST(Printer, FloatLiteralsStayFloat) {
  auto e = parse_expression("1.0 + x");
  EXPECT_EQ(to_source(*e), "1.0 + x");
}

// --------------------------------------------------------------------------
// Clone
// --------------------------------------------------------------------------

TEST(Clone, DeepAndIdRefreshing) {
  auto m = parse_module("int f(int n) { int s = 0; for (int i = 0; i < n; i++) s = s + i; return s; }");
  auto c = m->clone();
  EXPECT_EQ(to_source(*m), to_source(*c));
  // ids differ (fresh nodes)
  EXPECT_NE(m->find("f")->id, c->find("f")->id);
  // Mutating the clone leaves the original untouched.
  c->find("f")->name = "g";
  EXPECT_NE(m->find("f"), nullptr);
  EXPECT_EQ(m->find("g"), nullptr);
}

// --------------------------------------------------------------------------
// Loop analysis
// --------------------------------------------------------------------------

ForStmt* first_loop(Module& m, const std::string& fn) {
  auto loops = collect_for_loops(*m.find(fn));
  EXPECT_FALSE(loops.empty());
  return loops.empty() ? nullptr : loops[0];
}

TEST(LoopFacts, CanonicalUpCountingLt) {
  auto m = parse_module("void f() { for (int i = 0; i < 10; i++) { } }");
  const LoopFacts facts = analyze_loop(*first_loop(*m, "f"));
  EXPECT_TRUE(facts.is_innermost);
  ASSERT_TRUE(facts.trip_count.has_value());
  EXPECT_EQ(*facts.trip_count, 10);
  EXPECT_EQ(facts.induction_var, "i");
  EXPECT_EQ(*facts.lower_bound, 0);
  EXPECT_EQ(*facts.step, 1);
}

TEST(LoopFacts, InclusiveBoundAndStride) {
  auto m = parse_module("void f() { for (int i = 2; i <= 11; i = i + 3) { } }");
  const LoopFacts facts = analyze_loop(*first_loop(*m, "f"));
  ASSERT_TRUE(facts.trip_count.has_value());
  EXPECT_EQ(*facts.trip_count, 4);  // 2,5,8,11
}

TEST(LoopFacts, DownCounting) {
  auto m = parse_module("void f() { for (int i = 10; i > 0; i = i - 2) { } }");
  const LoopFacts facts = analyze_loop(*first_loop(*m, "f"));
  ASSERT_TRUE(facts.trip_count.has_value());
  EXPECT_EQ(*facts.trip_count, 5);  // 10,8,6,4,2
}

TEST(LoopFacts, ZeroTripLoop) {
  auto m = parse_module("void f() { for (int i = 5; i < 5; i++) { } }");
  const LoopFacts facts = analyze_loop(*first_loop(*m, "f"));
  ASSERT_TRUE(facts.trip_count.has_value());
  EXPECT_EQ(*facts.trip_count, 0);
}

TEST(LoopFacts, NonConstantBoundNotCountable) {
  auto m = parse_module("void f(int n) { for (int i = 0; i < n; i++) { } }");
  const LoopFacts facts = analyze_loop(*first_loop(*m, "f"));
  EXPECT_FALSE(facts.trip_count.has_value());
  EXPECT_TRUE(facts.is_innermost);
}

TEST(LoopFacts, BodyModifyingInductionVarNotCountable) {
  auto m = parse_module("void f() { for (int i = 0; i < 10; i++) { i = i + 1; } }");
  EXPECT_FALSE(analyze_loop(*first_loop(*m, "f")).trip_count.has_value());
}

TEST(LoopFacts, BreakDisablesTripCount) {
  auto m = parse_module(
      "void f() { for (int i = 0; i < 10; i++) { if (i == 3) break; } }");
  EXPECT_FALSE(analyze_loop(*first_loop(*m, "f")).trip_count.has_value());
}

TEST(LoopFacts, WrongDirectionNotCountable) {
  auto m = parse_module("void f() { for (int i = 0; i > 10; i = i + 1) { } }");
  // i > 10 with positive step: direction mismatch -> zero iterations
  // statically, but we conservatively report countable only on matched
  // direction; here init(0) > bound(10) is false so the loop never runs —
  // direction_ok is false, so no trip count.
  EXPECT_FALSE(analyze_loop(*first_loop(*m, "f")).trip_count.has_value());
}

TEST(LoopFacts, InnermostDetection) {
  auto m = parse_module(
      "void f() { for (int i = 0; i < 4; i++) { for (int j = 0; j < 4; j++) { } } }");
  auto loops = collect_for_loops(*m->find("f"));
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_FALSE(analyze_loop(*loops[0]).is_innermost);
  EXPECT_TRUE(analyze_loop(*loops[1]).is_innermost);
}

// --------------------------------------------------------------------------
// Call sites / substitution
// --------------------------------------------------------------------------

TEST(CallSites, AnchorsToContainingStatement) {
  auto m = parse_module(
      "int g(int x) { return x; }"
      "int f() { int a = g(1); if (a > 0) { a = g(2) + g(3); } return a; }");
  auto sites = collect_call_sites(*m->find("f"));
  ASSERT_EQ(sites.size(), 3u);
  EXPECT_EQ(sites[0].call->callee, "g");
  EXPECT_EQ(sites[0].stmt_index, 0u);
  // g(2) and g(3) anchor to the same statement inside the then-block.
  EXPECT_EQ(sites[1].block, sites[2].block);
  EXPECT_EQ(sites[1].stmt_index, sites[2].stmt_index);
}

TEST(Substitute, ReplacesOnlyReads) {
  auto m = parse_module("int f(int n) { int x = n + n; return x * n; }");
  Function* f = m->find("f");
  const IntLit four(4);
  const std::size_t count = substitute_var(*f->body, "n", four);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(to_source(*f).find("n +"), std::string::npos);
}

TEST(Substitute, DoesNotTouchAssignTargets) {
  auto m = parse_module("void f() { int x = 0; x = x + 1; }");
  Function* f = m->find("f");
  const IntLit nine(9);
  substitute_var(*f->body, "x", nine);
  // Target `x =` must remain; the read became 9.
  const std::string src = to_source(*f);
  EXPECT_NE(src.find("x = 9 + 1"), std::string::npos);
}

TEST(Substitute, ArrayIndexIsRead) {
  auto m = parse_module("void f(int* a, int i) { a[i] = a[i] + 1; }");
  Function* f = m->find("f");
  const IntLit two(2);
  const std::size_t count = substitute_var(*f->body, "i", two);
  EXPECT_EQ(count, 2u);  // both index positions
}

// --------------------------------------------------------------------------
// Semantic checker
// --------------------------------------------------------------------------

TEST(Checker, AcceptsValidProgram) {
  auto m = parse_module(
      "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }");
  EXPECT_TRUE(check_module(*m).empty());
}

TEST(Checker, UndeclaredVariable) {
  auto m = parse_module("int f() { return y; }");
  const auto diags = check_module(*m);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("undeclared"), std::string::npos);
}

TEST(Checker, RedeclarationInSameScope) {
  auto m = parse_module("void f() { int x = 1; int x = 2; }");
  EXPECT_FALSE(check_module(*m).empty());
}

TEST(Checker, ShadowingInNestedScopeIsAllowed) {
  auto m = parse_module("void f() { int x = 1; { int x = 2; } }");
  EXPECT_TRUE(check_module(*m).empty());
}

TEST(Checker, ForInitScopeVisibleInBody) {
  auto m = parse_module("int f() { int s = 0; for (int i = 0; i < 3; i++) { s = s + i; } return s; }");
  EXPECT_TRUE(check_module(*m).empty());
}

TEST(Checker, CallArityMismatch) {
  auto m = parse_module("int g(int a) { return a; } int f() { return g(1, 2); }");
  const auto diags = check_module(*m);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("arguments"), std::string::npos);
}

TEST(Checker, UnknownCalleeUnlessBuiltin) {
  auto m = parse_module("double f(double x) { return sqrt(x) + mystery(x); }");
  const auto diags = check_module(*m);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("mystery"), std::string::npos);
}

TEST(Checker, NonVoidMustReturn) {
  auto m = parse_module("int f(int x) { if (x > 0) { return 1; } }");
  EXPECT_FALSE(check_module(*m).empty());
  auto ok = parse_module("int f(int x) { if (x > 0) { return 1; } return 0; }");
  EXPECT_TRUE(check_module(*ok).empty());
}

TEST(Checker, VoidMustNotReturnValue) {
  auto m = parse_module("void f() { return 3; }");
  EXPECT_FALSE(check_module(*m).empty());
}

TEST(Checker, RecursionIsAllowed) {
  auto m = parse_module("int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }");
  EXPECT_TRUE(check_module(*m).empty());
}

}  // namespace
}  // namespace antarex::cir
