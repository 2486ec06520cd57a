// Recursive-descent parser for the ANTAREX mini-C language.
//
// Grammar (EBNF, whitespace/comments elided):
//   module    := function*
//   function  := type IDENT '(' [param {',' param}] ')' block
//   param     := type IDENT
//   type      := ('int'|'double'|'float'|'void'|'const'? 'char') '*'?
//   block     := '{' stmt* '}'
//   stmt      := block | if | for | while
//              | 'return' [expr] ';' | 'break' ';' | 'continue' ';'
//              | decl ';' | assign-or-expr ';'
//   decl      := type IDENT ['=' expr]
//   if        := 'if' '(' expr ')' stmt ['else' stmt]   (bodies normalized to blocks)
//   for       := 'for' '(' [decl|assign] ';' [expr] ';' [assign] ')' stmt
//   while     := 'while' '(' expr ')' stmt
//   assign    := lvalue ('='|'+='|'-='|'*='|'/=') expr | lvalue '++' | lvalue '--'
//   expr      := or  (C precedence: || < && < ==,!= < <,<=,>,>= < +,- < *,/,% < unary)
//
// Not supported (rejected with a diagnostic): pointers beyond 1-D array
// parameters, structs, casts, function pointers, side effects inside
// expressions (++ only as a statement).
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>

#include "cir/ast.hpp"

namespace antarex::cir {

/// Deepest statement/expression nesting the parser accepts: every nested
/// statement, expression (parenthesised, call argument, subscript) and prefix
/// operator adds one level; a bare expression sits at depth 1. Deeper input
/// throws antarex::Error instead of exhausting the stack.
inline constexpr std::size_t kMaxNesting = 256;

/// Deepest expression tree the parser builds (a leaf is depth 1). Left-deep
/// chains such as `x + x + ...` or `a[0][0]...` parse without nesting, so
/// kMaxNesting does not bound them; this does, because the checker, the
/// printer, clone() and the bytecode compiler recurse once per level.
inline constexpr std::size_t kMaxExprDepth = 4096;

/// Parses a full translation unit. Throws antarex::Error on syntax errors.
std::unique_ptr<Module> parse_module(std::string_view source);

/// Parses a single expression (used by DSL-templated code snippets).
ExprPtr parse_expression(std::string_view source);

/// Parses a sequence of statements into a block (used when aspects insert
/// code snippets, e.g. Figure 2's probe injection).
std::unique_ptr<Block> parse_snippet(std::string_view source);

}  // namespace antarex::cir
