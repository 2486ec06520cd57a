#include "vm/engine.hpp"

#include <cmath>

#include "cir/int_arith.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"
#include "vm/compiler.hpp"

namespace antarex::vm {

namespace {

Value numeric_binop(Op op, const Value& a, const Value& b) {
  // Int op Int stays integral (mini-C semantics, cir/int_arith.hpp); any
  // float operand promotes.
  if (a.is_int() && b.is_int()) {
    const i64 x = a.as_int();
    const i64 y = b.as_int();
    const auto int_op = [x, y](cir::BinOp o) {
      return Value::from_int(cir::int_binop(o, x, y));
    };
    switch (op) {
      case Op::Add: return int_op(cir::BinOp::Add);
      case Op::Sub: return int_op(cir::BinOp::Sub);
      case Op::Mul: return int_op(cir::BinOp::Mul);
      case Op::Div:
        if (y == 0) throw Error("vm: integer division by zero");
        return int_op(cir::BinOp::Div);
      case Op::Mod:
        if (y == 0) throw Error("vm: integer modulo by zero");
        return int_op(cir::BinOp::Mod);
      case Op::Lt: return int_op(cir::BinOp::Lt);
      case Op::Le: return int_op(cir::BinOp::Le);
      case Op::Gt: return int_op(cir::BinOp::Gt);
      case Op::Ge: return int_op(cir::BinOp::Ge);
      case Op::Eq: return int_op(cir::BinOp::Eq);
      case Op::Ne: return int_op(cir::BinOp::Ne);
      default: break;
    }
  } else {
    const double x = a.as_float();
    const double y = b.as_float();
    switch (op) {
      case Op::Add: return Value::from_float(x + y);
      case Op::Sub: return Value::from_float(x - y);
      case Op::Mul: return Value::from_float(x * y);
      case Op::Div: return Value::from_float(x / y);
      case Op::Mod: return Value::from_float(std::fmod(x, y));
      case Op::Lt: return Value::from_int(x < y);
      case Op::Le: return Value::from_int(x <= y);
      case Op::Gt: return Value::from_int(x > y);
      case Op::Ge: return Value::from_int(x >= y);
      case Op::Eq: return Value::from_int(x == y);
      case Op::Ne: return Value::from_int(x != y);
      default: break;
    }
  }
  ANTAREX_CHECK(false, "numeric_binop: unreachable op");
  return {};
}

}  // namespace

Engine::Engine() {
  // Math builtins, matching cir::is_builtin_callee.
  auto unary_math = [this](const std::string& name, double (*fn)(double)) {
    register_host(name, [fn, name](std::span<const Value> args) {
      ANTAREX_REQUIRE(args.size() == 1, "host " + name + ": expected 1 argument");
      return Value::from_float(fn(args[0].as_float()));
    });
  };
  unary_math("sqrt", std::sqrt);
  unary_math("fabs", std::fabs);
  unary_math("exp", std::exp);
  unary_math("log", std::log);
  unary_math("sin", std::sin);
  unary_math("cos", std::cos);
  unary_math("floor", std::floor);
  register_host("pow", [](std::span<const Value> args) {
    ANTAREX_REQUIRE(args.size() == 2, "host pow: expected 2 arguments");
    return Value::from_float(std::pow(args[0].as_float(), args[1].as_float()));
  });
  register_host("min", [](std::span<const Value> args) {
    ANTAREX_REQUIRE(args.size() == 2, "host min: expected 2 arguments");
    if (args[0].is_int() && args[1].is_int())
      return Value::from_int(std::min(args[0].as_int(), args[1].as_int()));
    return Value::from_float(std::min(args[0].as_float(), args[1].as_float()));
  });
  register_host("max", [](std::span<const Value> args) {
    ANTAREX_REQUIRE(args.size() == 2, "host max: expected 2 arguments");
    if (args[0].is_int() && args[1].is_int())
      return Value::from_int(std::max(args[0].as_int(), args[1].as_int()));
    return Value::from_float(std::max(args[0].as_float(), args[1].as_float()));
  });
  register_host("print_int", [](std::span<const Value> args) {
    ANTAREX_REQUIRE(args.size() == 1, "host print_int: expected 1 argument");
    std::printf("%lld\n", static_cast<long long>(args[0].as_int()));
    return Value::from_int(0);
  });
  register_host("print_float", [](std::span<const Value> args) {
    ANTAREX_REQUIRE(args.size() == 1, "host print_float: expected 1 argument");
    std::printf("%g\n", args[0].as_float());
    return Value::from_int(0);
  });
  // Instrumentation probes default to no-ops so woven code runs on any
  // engine; dsl::ProfileStore::install and friends override them with real
  // collectors.
  for (const char* probe :
       {"profile_args", "monitor_begin", "monitor_end", "antarex_probe"}) {
    register_host(probe,
                  [](std::span<const Value>) { return Value::from_int(0); });
  }
}

void Engine::load_module(const cir::Module& m) {
  for (const auto& f : m.functions) load_function(compile_function(*f));
}

void Engine::load_function(CompiledFunction f) {
  Entry e;
  e.generic = std::move(f);
  functions_[e.generic.name] = std::move(e);
}

void Engine::register_host(const std::string& name, HostFunction fn) {
  host_[name] = std::move(fn);
}

bool Engine::has_host(const std::string& name) const { return host_.contains(name); }

void Engine::prepare_specialize(const std::string& func, int param_index) {
  auto it = functions_.find(func);
  ANTAREX_REQUIRE(it != functions_.end(),
                  "prepare_specialize: unknown function '" + func + "'");
  ANTAREX_REQUIRE(param_index >= 0 &&
                      param_index < static_cast<int>(it->second.generic.num_params),
                  "prepare_specialize: parameter index out of range");
  it->second.specialize_param = param_index;
  it->second.variants.clear();
}

void Engine::add_version(const std::string& func, i64 guard_value,
                         CompiledFunction variant) {
  auto it = functions_.find(func);
  ANTAREX_REQUIRE(it != functions_.end(), "add_version: unknown function '" + func + "'");
  ANTAREX_REQUIRE(it->second.specialize_param >= 0,
                  "add_version: call prepare_specialize first for '" + func + "'");
  // Replace an existing variant with the same guard.
  for (auto& [guard, fn] : it->second.variants) {
    if (guard == guard_value) {
      fn = std::move(variant);
      return;
    }
  }
  it->second.variants.emplace_back(guard_value, std::move(variant));
}

std::size_t Engine::version_count(const std::string& func) const {
  auto it = functions_.find(func);
  return it == functions_.end() ? 0 : it->second.variants.size();
}

int Engine::specialize_param(const std::string& func) const {
  auto it = functions_.find(func);
  return it == functions_.end() ? -1 : it->second.specialize_param;
}

DispatchStats Engine::dispatch_stats(const std::string& func) const {
  auto it = functions_.find(func);
  return it == functions_.end() ? DispatchStats{} : it->second.stats;
}

bool Engine::has_function(const std::string& name) const {
  return functions_.contains(name);
}

const CompiledFunction* Engine::generic_version(const std::string& name) const {
  auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : &it->second.generic;
}

Value Engine::call(const std::string& func, std::vector<Value> args) {
  // One span per external entry; internal recursion stays span-free so hot
  // bytecode loops do not flood the trace buffer.
  TELEMETRY_SPAN("vm.call");
  return dispatch(func, args);
}

Value Engine::dispatch(const std::string& name, std::vector<Value>& args) {
  auto it = functions_.find(name);
  if (it == functions_.end()) {
    auto hit = host_.find(name);
    if (hit == host_.end())
      throw Error("vm: call to unknown function '" + name + "'");
    TELEMETRY_COUNT("vm.host_calls", 1);
    return hit->second(std::span<const Value>(args.data(), args.size()));
  }
  TELEMETRY_COUNT("vm.calls", 1);
  if (call_hook_ && !in_hook_) {
    // Guard against re-entrancy: actions triggered by the hook (e.g. probe
    // evaluation) must not re-trigger dynamic weaving.
    in_hook_ = true;
    try {
      call_hook_(name, args);
    } catch (...) {
      in_hook_ = false;
      throw;
    }
    in_hook_ = false;
    // The hook may have replaced the entry table (e.g. installed versions);
    // re-find to be safe against rehashing.
    it = functions_.find(name);
    ANTAREX_CHECK(it != functions_.end(), "vm: function vanished during call hook");
  }
  Entry& e = it->second;
  ++e.stats.calls;
  const CompiledFunction* target = &e.generic;
  if (e.specialize_param >= 0 &&
      static_cast<std::size_t>(e.specialize_param) < args.size() &&
      args[static_cast<std::size_t>(e.specialize_param)].is_int()) {
    const i64 v = args[static_cast<std::size_t>(e.specialize_param)].as_int();
    for (const auto& [guard, variant] : e.variants) {
      if (guard == v) {
        target = &variant;
        ++e.stats.specialized_hits;
        TELEMETRY_COUNT("vm.specialized_hits", 1);
        // Specialized variants produced by passes::specialize_function have
        // the guarded parameter bound and removed from the signature.
        if (variant.num_params + 1 == args.size())
          args.erase(args.begin() + e.specialize_param);
        break;
      }
    }
  }
  return execute(*target, args);
}

Value Engine::execute(const CompiledFunction& f, std::vector<Value>& args) {
  ANTAREX_REQUIRE(args.size() == f.num_params,
                  format("vm: '%s' called with %zu args, expected %u",
                         f.name.c_str(), args.size(), f.num_params));
  if (++call_depth_ > kMaxCallDepth) {
    --call_depth_;
    throw Error("vm: call depth limit exceeded (possible infinite recursion)");
  }

  std::vector<Value> slots(f.num_slots);
  for (std::size_t i = 0; i < args.size(); ++i) slots[i] = std::move(args[i]);
  std::vector<Value> stack;
  stack.reserve(16);

  auto pop = [&stack]() {
    ANTAREX_CHECK(!stack.empty(), "vm: operand stack underflow");
    Value v = std::move(stack.back());
    stack.pop_back();
    return v;
  };

  Value result = Value::from_int(0);
  std::size_t pc = 0;
  const std::size_t n = f.code.size();
  u64 own_instructions = 0;  // flat count, attributed on exit
  try {
    while (pc < n) {
      ++own_instructions;
      if (++executed_ > instruction_limit_)
        throw Error("vm: instruction limit exceeded in '" + f.name + "'");
      const Instr& in = f.code[pc];
      ++pc;
      switch (in.op) {
        case Op::PushInt: stack.push_back(Value::from_int(in.imm_i)); break;
        case Op::PushFloat: stack.push_back(Value::from_float(in.imm_f)); break;
        case Op::PushStr:
          stack.push_back(Value::from_str(f.strings[static_cast<std::size_t>(in.a)]));
          break;
        case Op::Load: stack.push_back(slots[static_cast<std::size_t>(in.a)]); break;
        case Op::Store: slots[static_cast<std::size_t>(in.a)] = pop(); break;
        case Op::LoadIndex: {
          const Value idx = pop();
          const Value arr = pop();
          const i64 i = idx.as_int();
          if (arr.kind() == Value::Kind::IntArr) {
            auto& v = arr.int_array();
            ANTAREX_REQUIRE(i >= 0 && static_cast<std::size_t>(i) < v.size(),
                            "vm: int array index out of bounds");
            stack.push_back(Value::from_int(v[static_cast<std::size_t>(i)]));
          } else if (arr.kind() == Value::Kind::FloatArr) {
            auto& v = arr.float_array();
            ANTAREX_REQUIRE(i >= 0 && static_cast<std::size_t>(i) < v.size(),
                            "vm: float array index out of bounds");
            stack.push_back(Value::from_float(v[static_cast<std::size_t>(i)]));
          } else {
            throw Error("vm: subscript applied to non-array value");
          }
          break;
        }
        case Op::StoreIndex: {
          const Value val = pop();
          const Value idx = pop();
          const Value arr = pop();
          const i64 i = idx.as_int();
          if (arr.kind() == Value::Kind::IntArr) {
            auto& v = arr.int_array();
            ANTAREX_REQUIRE(i >= 0 && static_cast<std::size_t>(i) < v.size(),
                            "vm: int array index out of bounds");
            v[static_cast<std::size_t>(i)] = val.as_int();
          } else if (arr.kind() == Value::Kind::FloatArr) {
            auto& v = arr.float_array();
            ANTAREX_REQUIRE(i >= 0 && static_cast<std::size_t>(i) < v.size(),
                            "vm: float array index out of bounds");
            v[static_cast<std::size_t>(i)] = val.as_float();
          } else {
            throw Error("vm: subscript applied to non-array value");
          }
          break;
        }
        case Op::Add:
        case Op::Sub:
        case Op::Mul:
        case Op::Div:
        case Op::Mod:
        case Op::Lt:
        case Op::Le:
        case Op::Gt:
        case Op::Ge:
        case Op::Eq:
        case Op::Ne: {
          const Value b = pop();
          const Value a = pop();
          stack.push_back(numeric_binop(in.op, a, b));
          break;
        }
        case Op::Neg: {
          const Value a = pop();
          stack.push_back(a.is_int() ? Value::from_int(cir::int_neg(a.as_int()))
                                     : Value::from_float(-a.as_float()));
          break;
        }
        case Op::Not:
          stack.push_back(Value::from_int(pop().truthy() ? 0 : 1));
          break;
        case Op::Jump:
          pc = static_cast<std::size_t>(in.a);
          break;
        case Op::JumpIfFalse:
          if (!pop().truthy()) pc = static_cast<std::size_t>(in.a);
          break;
        case Op::JumpIfTrue:
          if (pop().truthy()) pc = static_cast<std::size_t>(in.a);
          break;
        case Op::Dup:
          ANTAREX_CHECK(!stack.empty(), "vm: dup on empty stack");
          stack.push_back(stack.back());
          break;
        case Op::Pop:
          pop();
          break;
        case Op::Call: {
          const std::size_t argc = static_cast<std::size_t>(in.b);
          ANTAREX_CHECK(stack.size() >= argc, "vm: not enough call arguments on stack");
          std::vector<Value> call_args(argc);
          for (std::size_t i = argc; i > 0; --i) call_args[i - 1] = pop();
          stack.push_back(dispatch(f.names[static_cast<std::size_t>(in.a)], call_args));
          break;
        }
        case Op::Ret:
          result = pop();
          pc = n;
          break;
        case Op::RetVoid:
          result = Value::from_int(0);
          pc = n;
          break;
      }
    }
  } catch (...) {
    per_function_[f.name] += own_instructions;
    --call_depth_;
    throw;
  }
  per_function_[f.name] += own_instructions;
  --call_depth_;
  TELEMETRY_COUNT("vm.instructions", own_instructions);
  return result;
}

u64 Engine::function_instructions(const std::string& name) const {
  auto it = per_function_.find(name);
  return it == per_function_.end() ? 0 : it->second;
}

}  // namespace antarex::vm
