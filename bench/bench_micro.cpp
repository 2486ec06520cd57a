// Micro-benchmarks (google-benchmark) for the hot paths of the stack:
// mini-C parsing, aspect weaving, select-chain evaluation, VM dispatch
// (generic vs specialized), pass pipelines, routing queries, and docking
// scoring. These back the per-stage cost numbers quoted in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <array>

#include "cir/parser.hpp"
#include "dock/dock.hpp"
#include "dsl/weaver.hpp"
#include "nav/nav.hpp"
#include "passes/pass_manager.hpp"
#include "passes/specialize.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "support/strings.hpp"
#include "vm/compiler.hpp"
#include "vm/engine.hpp"

namespace {

using namespace antarex;

constexpr const char* kKernelSrc = R"(
  double kernel(double* a, int n) {
    double acc = 0.0;
    for (int i = 0; i < n; i++) { acc = acc + a[i] * a[i]; }
    return acc;
  }
)";

void BM_MiniCParse(benchmark::State& state) {
  for (auto _ : state) {
    auto m = cir::parse_module(kKernelSrc);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MiniCParse);

void BM_BytecodeCompile(benchmark::State& state) {
  auto m = cir::parse_module(kKernelSrc);
  for (auto _ : state) {
    auto cf = vm::compile_function(*m->find("kernel"));
    benchmark::DoNotOptimize(cf);
  }
}
BENCHMARK(BM_BytecodeCompile);

void BM_VmKernelCall(benchmark::State& state) {
  auto m = cir::parse_module(kKernelSrc);
  vm::Engine engine;
  engine.load_module(*m);
  auto buf = std::make_shared<std::vector<double>>(
      static_cast<std::size_t>(state.range(0)), 1.5);
  for (auto _ : state) {
    auto v = engine.call("kernel", {vm::Value::from_float_array(buf),
                                    vm::Value::from_int(state.range(0))});
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VmKernelCall)->Arg(16)->Arg(256);

void BM_AspectParse(benchmark::State& state) {
  constexpr const char* src = R"(
    aspectdef P
      input f end
      select fCall end
      apply
        insert before %{profile_args('[[f]]', '[[$fCall.location]]', [[$fCall.argList]]);}%;
      end
      condition $fCall.name == f end
    end
  )";
  for (auto _ : state) {
    auto lib = dsl::parse_aspects(src);
    benchmark::DoNotOptimize(lib);
  }
}
BENCHMARK(BM_AspectParse);

void BM_WeaveProfileAspect(benchmark::State& state) {
  std::string app;
  for (int f = 0; f < 8; ++f)
    app += format("int w%d(int a) { return a + %d; }\n", f, f);
  app += "int run(int n) { int acc = 0;\n";
  for (int s = 0; s < 32; ++s) app += format("  acc = acc + w%d(n);\n", s % 8);
  app += "  return acc; }\n";
  constexpr const char* aspect = R"(
    aspectdef P
      input f end
      select fCall end
      apply
        insert before %{profile_args('[[f]]', '[[$fCall.location]]', [[$fCall.argList]]);}%;
      end
      condition $fCall.name == f end
    end
  )";
  for (auto _ : state) {
    state.PauseTiming();
    auto m = cir::parse_module(app);
    dsl::Weaver weaver(*m);
    weaver.load_source(aspect);
    state.ResumeTiming();
    weaver.run("P", {dsl::Val::str("w0")});
    benchmark::DoNotOptimize(weaver.stats().inserts);
  }
}
BENCHMARK(BM_WeaveProfileAspect);

void BM_PassPipeline(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto m = cir::parse_module(
        "int f() { int s = 0; for (int i = 0; i < 16; i++) { s = s + i * 2 + 0; } "
        "return s * 1; }");
    state.ResumeTiming();
    passes::PassManager pm(*m);
    pm.add_pipeline("fold,unroll:16,fold,dce,strength");
    pm.run_all();
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_PassPipeline);

void BM_SpecializedDispatch(benchmark::State& state) {
  auto m = cir::parse_module(
      "int kernel(int size, int x) { int s = 0; "
      "for (int i = 0; i < size; i++) s = s + x; return s; }");
  vm::Engine engine;
  engine.load_module(*m);
  const bool specialized = state.range(0) != 0;
  if (specialized) {
    engine.prepare_specialize("kernel", 0);
    cir::Function* v = passes::specialize_function(*m, "kernel", "size", 32);
    passes::PassManager pm(*m);
    pm.add_pipeline("fold,unroll:64,dce");
    pm.run(*v);
    engine.add_version("kernel", 32, vm::compile_function(*v));
  }
  for (auto _ : state) {
    auto r = engine.call("kernel", {vm::Value::from_int(32), vm::Value::from_int(5)});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SpecializedDispatch)->Arg(0)->Arg(1);

// Routing queries between seeded random (origin, destination) pairs on a
// 64x64 city, cycled per iteration. Corner-to-corner queries on a small grid
// settle every node whatever the search, hiding what A* and ALT prune; the
// `settled` counter reports the mean nodes settled per query.
struct RoutingFixture {
  RoutingFixture() {
    Rng rng(5);
    city = nav::RoadGraph::grid_city(rng, 64, 64);
    Rng pair_rng(17);
    const auto n = static_cast<u32>(city.num_nodes());
    for (auto& [from, to] : pairs) {
      from = static_cast<u32>(pair_rng.index(n));
      do {
        to = static_cast<u32>(pair_rng.index(n));
      } while (to == from);
    }
  }
  nav::RoadGraph city;
  nav::SpeedProfiles profiles;
  std::array<std::pair<u32, u32>, 64> pairs;
};

void run_routing(benchmark::State& state, const RoutingFixture& fx,
                 const nav::QueryOptions& opts) {
  u64 settled = 0;
  std::size_t k = 0;
  for (auto _ : state) {
    const auto& [from, to] = fx.pairs[k++ % fx.pairs.size()];
    auto r = nav::shortest_path_td(fx.city, fx.profiles, from, to, 8.5 * 3600,
                                   opts);
    settled += r.expanded;
    benchmark::DoNotOptimize(r);
  }
  state.counters["settled"] = benchmark::Counter(
      static_cast<double>(settled), benchmark::Counter::kAvgIterations);
}

void BM_RoutingQuery(benchmark::State& state) {
  const RoutingFixture fx;
  run_routing(state, fx, {state.range(0) != 0, 1.0});
}
BENCHMARK(BM_RoutingQuery)->Arg(0)->Arg(1);

void BM_RoutingQueryAlt(benchmark::State& state) {
  const RoutingFixture fx;
  Rng lrng(6);
  const nav::Landmarks lm(fx.city, 8, lrng);
  run_routing(state, fx, {true, 1.0, &lm});
}
BENCHMARK(BM_RoutingQueryAlt);

void BM_DockRefinePose(benchmark::State& state) {
  Rng rng(9);
  const dock::AffinityGrid grid = dock::AffinityGrid::synthetic_pocket(rng, 20);
  const dock::Molecule mol = dock::random_ligand(rng, 30, 60);
  dock::Pose start;
  start.tx = start.ty = start.tz = 9.0;
  dock::RefineParams params;
  params.steps = 100;
  for (auto _ : state) {
    Rng r(11);
    benchmark::DoNotOptimize(dock::refine_pose(grid, mol, start, params, r));
  }
}
BENCHMARK(BM_DockRefinePose);

void BM_DockScorePose(benchmark::State& state) {
  Rng rng(9);
  const dock::AffinityGrid grid = dock::AffinityGrid::synthetic_pocket(rng, 20);
  const dock::Molecule mol = dock::random_ligand(rng, 30, 60);
  dock::Pose pose;
  pose.tx = pose.ty = pose.tz = 9.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dock::score_pose(grid, mol, pose));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(mol.atoms.size()));
}
BENCHMARK(BM_DockScorePose);

// Per-tick cluster stepping cost. The plant is pre-settled (one long
// warm-up run) so the calendar holds only parked nodes: the steady-state
// tick is what an exascale-length run pays almost everywhere, and a parking
// regression shows up here as a jump from nanoseconds to O(nodes).
void BM_ClusterTickSharded(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  rtrm::ShardedClusterConfig cfg;
  cfg.shards = std::max<std::size_t>(8, nodes / 1024);
  rtrm::ShardedCluster cluster(cfg);
  rtrm::ClusterBlueprint::exascale(7, nodes).build(cluster);
  cluster.run_for(600.0, 0.25);  // park the fleet at its thermal fixed point
  for (auto _ : state) cluster.run_for(0.25, 0.25);
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(nodes));
}
BENCHMARK(BM_ClusterTickSharded)->Arg(256)->Arg(1024)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
