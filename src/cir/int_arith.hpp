// mini-C integer arithmetic: the one definition of `a op b` on two ints.
//
// The VM (vm/engine.cpp) executes it and the constant folder
// (passes/const_fold.cpp) folds with it, so a folded expression always
// equals the executed one. Ints are 64-bit two's complement and wrap:
// + - * and negation are taken mod 2^64, INT64_MIN / -1 is INT64_MIN and
// INT64_MIN % -1 is 0. Division or modulo by zero is the caller's to
// reject: the VM throws, the folder leaves the expression unfolded.
//
// Header-only so the VM's dispatch loop inlines it.
#pragma once

#include "cir/ast.hpp"

namespace antarex::cir {

inline i64 int_neg(i64 a) { return static_cast<i64>(0 - static_cast<u64>(a)); }

/// `a op b` for two ints; comparisons and logic yield 0 or 1. Requires
/// b != 0 for Div and Mod.
inline i64 int_binop(BinOp op, i64 a, i64 b) {
  const u64 ua = static_cast<u64>(a);
  const u64 ub = static_cast<u64>(b);
  switch (op) {
    case BinOp::Add: return static_cast<i64>(ua + ub);
    case BinOp::Sub: return static_cast<i64>(ua - ub);
    case BinOp::Mul: return static_cast<i64>(ua * ub);
    case BinOp::Div: return b == -1 ? int_neg(a) : a / b;
    case BinOp::Mod: return b == -1 ? 0 : a % b;
    case BinOp::Lt: return a < b;
    case BinOp::Le: return a <= b;
    case BinOp::Gt: return a > b;
    case BinOp::Ge: return a >= b;
    case BinOp::Eq: return a == b;
    case BinOp::Ne: return a != b;
    case BinOp::And: return a != 0 && b != 0;
    case BinOp::Or: return a != 0 || b != 0;
  }
  return 0;
}

}  // namespace antarex::cir
