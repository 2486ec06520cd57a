// Property-based differential testing.
//
// A seeded random mini-C program generator produces well-formed programs;
// properties checked over hundreds of seeds:
//   1. parse -> print -> parse round-trips to identical source,
//   2. every generated program passes the semantic checker,
//   3. every pass pipeline preserves observable behaviour (return value and
//      output-array contents) — the compiler's core soundness property,
//   4. the bytecode compiler/VM agree with themselves across optimization
//      levels (differential execution),
//   5. weaving profiling probes never changes program results.
#include <gtest/gtest.h>

#include "cir/analysis.hpp"
#include "cir/parser.hpp"
#include "cir/printer.hpp"
#include "dsl/runtime.hpp"
#include "dsl/weaver.hpp"
#include "passes/pass_manager.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vm/engine.hpp"

namespace antarex {
namespace {

/// Generates a random well-formed mini-C function operating on an int
/// parameter `p`, an output array `out` (size kArr) and local ints.
/// All loops are bounded; all array indices are taken modulo kArr, so the
/// program cannot fault regardless of the random structure.
class ProgramGen {
 public:
  static constexpr i64 kArr = 16;

  explicit ProgramGen(u64 seed) : rng_(seed) {}

  std::string generate() {
    locals_ = {"p"};
    std::string body;
    body += "  int acc = p;\n";
    locals_.push_back("acc");
    const int stmts = static_cast<int>(rng_.uniform_int(3, 7));
    for (int i = 0; i < stmts; ++i) body += statement(2, 1);
    body += "  out[0] = acc;\n";
    body += "  return acc;\n";
    return "int f(int p, int* out) {\n" + body + "}\n";
  }

 private:
  std::string indent(int depth) { return std::string(depth * 2, ' '); }

  std::string fresh_local() {
    const std::string name = format("v%d", next_local_++);
    locals_.push_back(name);
    return name;
  }

  std::string expr(int depth) {
    if (depth <= 0 || rng_.bernoulli(0.35)) {
      // Leaf: literal or variable.
      if (rng_.bernoulli(0.5))
        return format("%lld", static_cast<long long>(rng_.uniform_int(-9, 9)));
      return locals_[rng_.index(locals_.size())];
    }
    switch (rng_.uniform_int(0, 5)) {
      case 0: return "(" + expr(depth - 1) + " + " + expr(depth - 1) + ")";
      case 1: return "(" + expr(depth - 1) + " - " + expr(depth - 1) + ")";
      case 2: return "(" + expr(depth - 1) + " * " + expr(depth - 1) + ")";
      case 3:
        // Division guarded against zero: (e / (|e| % 7 + 1)).
        return "(" + expr(depth - 1) + " / ((" + expr(depth - 1) +
               ") * 0 + " + format("%lld", static_cast<long long>(
                                        rng_.uniform_int(1, 5))) + "))";
      case 4: return "(" + expr(depth - 1) + " < " + expr(depth - 1) + ")";
      default:
        return "out[" + index_expr(depth - 1) + "]";
    }
  }

  /// Expression guaranteed in [0, kArr): ((e % kArr) + kArr) % kArr.
  std::string index_expr(int depth) {
    return format("(((%s) %% %lld + %lld) %% %lld)", expr(depth).c_str(),
                  static_cast<long long>(kArr), static_cast<long long>(kArr),
                  static_cast<long long>(kArr));
  }

  std::string statement(int depth, int indent_depth) {
    const std::string pad = indent(indent_depth);
    switch (rng_.uniform_int(0, 5)) {
      case 0: {  // declaration (initializer generated before the name is
                 // registered, so it cannot self-reference)
        const std::string init = expr(depth);
        const std::string name = fresh_local();
        return pad + "int " + name + " = " + init + ";\n";
      }
      case 1: {  // assignment to acc or a local (never to the parameter or a
                 // loop induction variable — that could make loops unbounded)
        const std::string& target = locals_[rng_.index(locals_.size())];
        if (target == "p" || target[0] == 'i') return pad + "acc = acc + 1;\n";
        return pad + target + " = " + expr(depth) + ";\n";
      }
      case 2:  // array store
        return pad + "out[" + index_expr(1) + "] = " + expr(depth) + ";\n";
      case 3: {  // bounded for loop (literal trip count)
        const i64 trip = rng_.uniform_int(1, 6);
        const std::string iv = format("i%d", next_local_++);
        std::string s = pad + "for (int " + iv + " = 0; " + iv + " < " +
                        format("%lld", static_cast<long long>(trip)) + "; " +
                        iv + "++) {\n";
        const std::size_t scope_mark = locals_.size();
        locals_.push_back(iv);
        s += statement(depth - 1, indent_depth + 1);
        if (rng_.bernoulli(0.5)) s += statement(depth - 1, indent_depth + 1);
        locals_.resize(scope_mark);  // iv and body locals go out of scope
        s += pad + "}\n";
        return s;
      }
      case 4: {  // if / if-else (branch-local declarations stay in-branch)
        std::string s = pad + "if (" + expr(depth) + ") {\n";
        const std::size_t scope_mark = locals_.size();
        s += statement(depth - 1, indent_depth + 1);
        locals_.resize(scope_mark);
        s += pad + "}";
        if (rng_.bernoulli(0.5)) {
          s += " else {\n";
          s += statement(depth - 1, indent_depth + 1);
          locals_.resize(scope_mark);
          s += pad + "}";
        }
        s += "\n";
        return s;
      }
      default:  // acc update
        return pad + "acc = acc + " + expr(depth) + ";\n";
    }
  }

  Rng rng_;
  std::vector<std::string> locals_;
  int next_local_ = 0;
};

struct RunResult {
  i64 ret = 0;
  std::vector<i64> out;
};

RunResult run_program(const cir::Module& m, i64 p) {
  vm::Engine engine;
  engine.set_instruction_limit(20'000'000);
  engine.load_module(m);
  auto out = std::make_shared<std::vector<i64>>(ProgramGen::kArr, 0);
  const i64 ret =
      engine.call("f", {vm::Value::from_int(p), vm::Value::from_int_array(out)})
          .as_int();
  return {ret, *out};
}

class FuzzSeeds : public ::testing::TestWithParam<u64> {};

TEST_P(FuzzSeeds, GeneratedProgramIsWellFormed) {
  ProgramGen gen(GetParam());
  const std::string src = gen.generate();
  auto m = cir::parse_module(src);
  const auto diags = cir::check_module(*m);
  EXPECT_TRUE(diags.empty()) << src << "\nfirst: "
                             << (diags.empty() ? "" : diags[0].message);
}

TEST_P(FuzzSeeds, PrintParseRoundTrip) {
  ProgramGen gen(GetParam());
  auto m1 = cir::parse_module(gen.generate());
  const std::string p1 = cir::to_source(*m1);
  auto m2 = cir::parse_module(p1);
  EXPECT_EQ(p1, cir::to_source(*m2));
}

TEST_P(FuzzSeeds, AllPipelinesPreserveBehaviour) {
  ProgramGen gen(GetParam());
  const std::string src = gen.generate();
  auto reference_module = cir::parse_module(src);
  const RunResult ref = run_program(*reference_module, 3);

  const char* pipelines[] = {
      "fold",
      "dce",
      "fold,dce",
      "unroll:8",
      "unroll:8,fold,dce",
      "unroll-partial:2",
      "strength,fold",
      "fold,dce,unroll:16,fold,dce,strength,inline",
  };
  for (const char* pipeline : pipelines) {
    auto m = cir::parse_module(src);
    passes::PassManager pm(*m);
    pm.add_pipeline(pipeline);
    pm.run_to_fixpoint(*m->find("f"), 4);
    // Transformed program must still be well formed...
    const auto diags = cir::check_module(*m);
    ASSERT_TRUE(diags.empty())
        << "pipeline '" << pipeline << "' broke the program:\n"
        << cir::to_source(*m) << "\nfirst: " << diags[0].message
        << "\noriginal:\n" << src;
    // ...and observationally equivalent.
    const RunResult got = run_program(*m, 3);
    EXPECT_EQ(got.ret, ref.ret) << "pipeline '" << pipeline << "'\n" << src;
    EXPECT_EQ(got.out, ref.out) << "pipeline '" << pipeline << "'\n" << src;
  }
}

TEST_P(FuzzSeeds, DifferentInputsStayConsistent) {
  // The optimized program must agree with the unoptimized one on several
  // inputs, not just the one used above.
  ProgramGen gen(GetParam());
  const std::string src = gen.generate();
  auto plain = cir::parse_module(src);
  auto opt = cir::parse_module(src);
  passes::PassManager pm(*opt);
  pm.add_pipeline("fold,dce,unroll:16,fold,dce,strength");
  pm.run_to_fixpoint(*opt->find("f"), 4);
  for (i64 p : {-7, 0, 1, 42}) {
    const RunResult a = run_program(*plain, p);
    const RunResult b = run_program(*opt, p);
    EXPECT_EQ(a.ret, b.ret) << "p=" << p << "\n" << src;
    EXPECT_EQ(a.out, b.out) << "p=" << p << "\n" << src;
  }
}

TEST_P(FuzzSeeds, WeavingProbesIsBehaviourPreserving) {
  ProgramGen gen(GetParam());
  // Wrap the generated f in a driver that calls it, so there are call join
  // points to weave.
  const std::string src = gen.generate() +
                          "int driver(int p, int* out) { int a = f(p, out); "
                          "return a + f(p + 1, out); }\n";
  auto plain = cir::parse_module(src);

  auto woven = cir::parse_module(src);
  dsl::Weaver weaver(*woven);
  weaver.load_source(R"(
    aspectdef P
      select fCall{'f'} end
      apply
        insert before %{profile_args('f', 'fuzz', [[$fCall.argList]]);}%;
        insert after %{monitor_end(0);}%;
      end
    end
  )");
  weaver.run("P");
  EXPECT_EQ(weaver.stats().inserts, 4u);  // 2 call sites x 2 inserts

  auto run_driver = [](const cir::Module& m, i64 p) {
    vm::Engine engine;
    engine.set_instruction_limit(40'000'000);
    dsl::ProfileStore store;
    store.install(engine);
    engine.load_module(m);
    auto out = std::make_shared<std::vector<i64>>(ProgramGen::kArr, 0);
    const i64 ret = engine
                        .call("driver", {vm::Value::from_int(p),
                                         vm::Value::from_int_array(out)})
                        .as_int();
    return std::pair<i64, std::vector<i64>>(ret, *out);
  };
  EXPECT_EQ(run_driver(*plain, 5), run_driver(*woven, 5));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Range<u64>(1000, 1040));

// The deepest expression the parser accepts must get through every walker
// that runs after it (checker, printer, pass pipelines, bytecode compiler,
// VM) without exhausting the stack; the ASan job runs this with its larger
// frames. One link deeper is rejected with an Error.
TEST(DepthCap, DeepestAcceptedChainSurvivesEveryWalker) {
  std::string chain = "p";
  i64 expected = 3;  // the chain's value at p = 3
  for (std::size_t i = 1; i < cir::kMaxExprDepth; ++i) {
    chain += i % 2 ? " + p" : " - 1";
    expected += i % 2 ? 3 : -1;
  }
  const std::string src =
      "int f(int p, int* out) { out[1] = " + chain + "; return " + chain +
      "; }\n";
  EXPECT_THROW(cir::parse_module("int f(int p) { return " + chain + " + p; }"),
               Error);

  auto m = cir::parse_module(src);
  EXPECT_TRUE(cir::check_module(*m).empty());
  const std::string printed = cir::to_source(*m);
  EXPECT_EQ(printed, cir::to_source(*cir::parse_module(printed)));
  EXPECT_EQ(run_program(*m, 3).ret, expected);
  for (const char* pipeline :
       {"fold,dce,unroll:16,fold,dce,strength,inline", "unroll-partial:2"}) {
    auto opt = cir::parse_module(src);
    passes::PassManager pm(*opt);
    pm.add_pipeline(pipeline);
    pm.run_to_fixpoint(*opt->find("f"), 4);
    EXPECT_TRUE(cir::check_module(*opt).empty()) << pipeline;
    const RunResult got = run_program(*opt, 3);
    EXPECT_EQ(got.ret, expected) << pipeline;
    EXPECT_EQ(got.out[1], expected) << pipeline;
  }
}

}  // namespace
}  // namespace antarex

// ---------------------------------------------------------------------------
// Fault-schedule properties (CI-fast slice).
//
// The same invariant suite the nightly tier sweeps over 1000 seeds
// (test_fault_long.cpp) runs here over a small range so every default test
// run exercises random crash/glitch/throttle schedules end to end: no lost
// jobs, energy conservation, monotone virtual time.
// ---------------------------------------------------------------------------
#include "fault_props.hpp"

namespace antarex::fault {

INSTANTIATE_TEST_SUITE_P(FastSeeds, FaultScheduleProps,
                         ::testing::Range<u64>(1, 49));

}  // namespace antarex::fault

// ---------------------------------------------------------------------------
// Power-governance property sweep (fast slice).
//
// The governance invariant suite the nightly tier sweeps over 1000 seeds
// (test_govern_long.cpp) runs here over a small range so every default test
// run exercises random caps, fairness settings, and crash schedules end to
// end: zero cap violations, budget conservation, no joules lost, no lost
// jobs.
// ---------------------------------------------------------------------------
#include "govern_props.hpp"

namespace antarex::govern {

INSTANTIATE_TEST_SUITE_P(FastSeeds, CapGovernanceProps,
                         ::testing::Range<u64>(1, 49));

}  // namespace antarex::govern

// ---------------------------------------------------------------------------
// Cluster-monitoring property sweep (fast slice).
//
// The monitoring invariant suite the nightly tier sweeps over 1000 seeds
// (test_monitor_long.cpp) runs here over 48 seeds so every default test run
// exercises randomized monitored clusters end to end: frame accounting,
// >= 0.8 precision/recall on injected throttles and slow nodes, determinism
// across 1/2/8-worker pools, and capacity-shaped fabric memory.
// ---------------------------------------------------------------------------
#include "monitor_props.hpp"

namespace antarex::monitor {

INSTANTIATE_TEST_SUITE_P(FastSeeds, MonitorProps, ::testing::Range<u64>(1, 49));

}  // namespace antarex::monitor

// ---------------------------------------------------------------------------
// Design-space search property sweep (fast slice).
//
// The model-seeded evolutionary search invariant suite the nightly tier
// sweeps over 1000 seeds (test_search_long.cpp) runs here over 48 seeds so
// every default test run exercises randomized design spaces end to end:
// bounds-respecting genomes, monotone best-so-far, and byte-identical
// trajectories across 1/2/8-worker pools.
// ---------------------------------------------------------------------------
#include "search_props.hpp"

namespace antarex::search {

INSTANTIATE_TEST_SUITE_P(FastSeeds, SearchProps, ::testing::Range<u64>(1, 49));

}  // namespace antarex::search

// ---------------------------------------------------------------------------
// Causal-propagation property sweep (fast slice).
//
// The request-scoped tracing invariant suite the nightly tier sweeps over
// 1000 seeds (test_causal_long.cpp) runs here over 48 seeds so every default
// test run exercises randomized request fleets on a real work-stealing pool:
// every span reaches its trace root (zero orphans), critical paths stay
// within wall time, latency decompositions cover the request, and the
// reconstructed tree structure is byte-identical across 1/2/8 workers.
// ---------------------------------------------------------------------------
#include "causal_props.hpp"

namespace antarex::causal {

INSTANTIATE_TEST_SUITE_P(FastSeeds, CausalProps, ::testing::Range<u64>(1, 49));

}  // namespace antarex::causal

// ---------------------------------------------------------------------------
// Sharded-cluster property sweep (fast slice).
//
// The sharding invariant suite the nightly tier sweeps over 1000 seeds
// (test_sharded_long.cpp) runs here over 48 seeds so every default test run
// exercises the SoA engine against randomized heterogeneous plants: energy
// conservation to 1e-9, no lost jobs, monotone virtual time, and
// byte-identical state traces across shard and worker counts.
// ---------------------------------------------------------------------------
#include "sharded_props.hpp"

namespace antarex::rtrm {

INSTANTIATE_TEST_SUITE_P(FastSeeds, ShardedClusterProps,
                         ::testing::Range<u64>(1, 49));

}  // namespace antarex::rtrm
