// Workload `toolflow`: the compile half of the paper's Figure 1 over a seeded
// corpus of generated mini-C apps.
//
// Per app (one op): cir::parse_module -> dsl::Weaver (ProfileArguments on
// every kernel call + UnrollInnermostLoops on every kernel) ->
// passes::IterativeCompiler::explore_exhaustive with candidates evaluated on
// the exec pool -> PassManager applies the best pipeline -> vm::Engine runs
// the tuned program -> 8 tuner::Autotuner decisions choosing between the
// best-ranked code variants by VM instruction count.
//
// Reference: the generator builds each app from a small structural
// description and evaluates that description natively in C++, so every VM
// result is checked against a value that does not come from cir/passes/vm.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cir/parser.hpp"
#include "common.hpp"
#include "dsl/joinpoint.hpp"
#include "dsl/weaver.hpp"
#include "exec/pool.hpp"
#include "passes/iterative.hpp"
#include "passes/pass_manager.hpp"
#include "search/search.hpp"
#include "support/rng.hpp"
#include "tuner/autotuner.hpp"
#include "vm/engine.hpp"

namespace perfbench {
namespace {

using antarex::i64;
using antarex::u64;

// Apps of the corpus per second of --seconds budget; calibrated so the timed
// phase takes about the budget on a 4-core host at the commit that
// introduced the benchmark.
constexpr double kAppsPerSecond = 40.0;
constexpr int kTunerDecisions = 8;
constexpr int kVariants = 4;
constexpr int kUnrollThreshold = 6;

constexpr const char* kAspects = R"(
  aspectdef ProfileArguments
    input funcName end
    select fCall end
    apply
      insert before %{profile_args('[[funcName]]', '[[$fCall.location]]', [[$fCall.argList]]);}%;
    end
    condition $fCall.name == funcName end
  end
  aspectdef UnrollInnermostLoops
    input $func, threshold end
    select $func.loop{type=='for'} end
    apply
      do LoopUnroll('full');
    end
    condition $loop.isInnermost && $loop.numIter <= threshold end
  end
)";

/// One generated kernel: a trivial helper (inlinable, with a `* 2` the
/// strength pass rewrites), a dead local, a constant-trip warm-up loop, and
/// a nest whose inner loop has a constant trip count.
struct KernelDef {
  i64 a, b;            ///< helper: x * a + y * 2 + b
  i64 m0;              ///< acc starts at s % m0
  i64 c, d;            ///< dead local n * 3 + c * d
  bool warmup;         ///< constant-trip loop over the helper
  i64 t1, e, f;        ///< warm-up trip count and folded constant e + f
  i64 t2, g, m;        ///< nest: inner trip t2, coefficient g, modulus m
  bool bump;           ///< conditional bump every p-th outer iteration
  i64 p, h;
};

struct AppDef {
  std::vector<KernelDef> kernels;
  i64 n = 0, s = 0;  ///< canonical arguments of app(n, s)
  std::string source;
};

i64 helper(const KernelDef& k, i64 x, i64 y) { return x * k.a + y * 2 + k.b; }

/// Native evaluation of kernel k(n, s) — the reference for the VM.
i64 eval_kernel(const KernelDef& k, i64 n, i64 s) {
  i64 acc = s % k.m0;
  if (k.warmup)
    for (i64 i = 0; i < k.t1; ++i) acc = acc + helper(k, i, s) * 2 + (k.e + k.f);
  for (i64 j = 0; j < n; ++j) {
    for (i64 q = 0; q < k.t2; ++q)
      acc = (acc + j * k.g + q * 2 + helper(k, q, j)) % k.m;
    if (k.bump && j % k.p == 0) acc = acc + 1 * k.h;
  }
  return acc % k.m;
}

i64 eval_app(const AppDef& app, i64 n, i64 s) {
  i64 r = 0;
  for (std::size_t i = 0; i < app.kernels.size(); ++i)
    r = r + eval_kernel(app.kernels[i], n + static_cast<i64>(i),
                        s + 2 * static_cast<i64>(i));
  return r;
}

std::string render(const AppDef& app) {
  std::string src;
  char buf[512];
  for (std::size_t i = 0; i < app.kernels.size(); ++i) {
    const KernelDef& k = app.kernels[i];
    std::snprintf(buf, sizeof buf,
                  "int h%zu(int x, int y) { return x * %lld + y * 2 + %lld; }\n",
                  i, static_cast<long long>(k.a), static_cast<long long>(k.b));
    src += buf;
    std::snprintf(buf, sizeof buf,
                  "int k%zu(int n, int s) {\n"
                  "  int acc = s %% %lld;\n"
                  "  int dead = n * 3 + %lld * %lld;\n",
                  i, static_cast<long long>(k.m0), static_cast<long long>(k.c),
                  static_cast<long long>(k.d));
    src += buf;
    if (k.warmup) {
      std::snprintf(buf, sizeof buf,
                    "  for (int i = 0; i < %lld; i++) {\n"
                    "    acc = acc + h%zu(i, s) * 2 + (%lld + %lld);\n"
                    "  }\n",
                    static_cast<long long>(k.t1), i,
                    static_cast<long long>(k.e), static_cast<long long>(k.f));
      src += buf;
    }
    std::snprintf(buf, sizeof buf,
                  "  for (int j = 0; j < n; j++) {\n"
                  "    for (int q = 0; q < %lld; q++) {\n"
                  "      acc = (acc + j * %lld + q * 2 + h%zu(q, j)) %% %lld;\n"
                  "    }\n",
                  static_cast<long long>(k.t2), static_cast<long long>(k.g), i,
                  static_cast<long long>(k.m));
    src += buf;
    if (k.bump) {
      std::snprintf(buf, sizeof buf,
                    "    if (j %% %lld == 0) { acc = acc + 1 * %lld; }\n",
                    static_cast<long long>(k.p), static_cast<long long>(k.h));
      src += buf;
    }
    std::snprintf(buf, sizeof buf, "  }\n  return acc %% %lld;\n}\n",
                  static_cast<long long>(k.m));
    src += buf;
  }
  src += "int app(int n, int s) {\n  int r = 0;\n";
  for (std::size_t i = 0; i < app.kernels.size(); ++i) {
    std::snprintf(buf, sizeof buf, "  r = r + k%zu(n + %zu, s + %zu);\n", i, i,
                  2 * i);
    src += buf;
  }
  src += "  return r;\n}\n";
  return src;
}

AppDef generate_app(antarex::Rng& rng) {
  AppDef app;
  const auto kernels = rng.uniform_int(2, 5);
  for (i64 i = 0; i < kernels; ++i) {
    KernelDef k{};
    k.a = rng.uniform_int(1, 9);
    k.b = rng.uniform_int(0, 50);
    k.m0 = rng.uniform_int(3, 17);
    k.c = rng.uniform_int(2, 30);
    k.d = rng.uniform_int(2, 30);
    k.warmup = rng.bernoulli(0.7);
    k.t1 = rng.uniform_int(3, 10);
    k.e = rng.uniform_int(1, 20);
    k.f = rng.uniform_int(1, 20);
    k.t2 = rng.uniform_int(3, 9);
    k.g = rng.uniform_int(1, 13);
    k.m = rng.uniform_int(1000, 100000);
    k.bump = rng.bernoulli(0.6);
    k.p = rng.uniform_int(2, 5);
    k.h = rng.uniform_int(1, 40);
    app.kernels.push_back(k);
  }
  app.n = rng.uniform_int(24, 56);
  app.s = rng.uniform_int(0, 100);
  app.source = render(app);
  return app;
}

struct Corpus {
  std::vector<AppDef> apps;
  std::vector<i64> expected;  ///< native app(n, s) per app
};

Corpus make_corpus(u64 seed, std::size_t n_apps) {
  antarex::Rng rng(seed ^ 0x70017100ULL);
  Corpus c;
  c.apps.reserve(n_apps);
  for (std::size_t i = 0; i < n_apps; ++i) {
    c.apps.push_back(generate_app(rng));
    c.expected.push_back(eval_app(c.apps.back(), c.apps.back().n, c.apps.back().s));
  }
  return c;
}

std::shared_ptr<antarex::dsl::JoinPoint> function_jp(antarex::cir::Module& m,
                                                     antarex::cir::Function* f) {
  auto jp = std::make_shared<antarex::dsl::JoinPoint>();
  jp->kind = antarex::dsl::JoinPoint::Kind::Function;
  jp->module = &m;
  jp->func = f;
  return jp;
}

struct Totals {
  double bytes = 0, inserts = 0, unrolls = 0;
  double candidates = 0, mismatched = 0, improving = 0;
  double instructions = 0, evals = 0;
  std::vector<double> speedups;
};

/// One op: the whole compile half of Figure 1 for one app. Returns false if
/// any VM result differs from the native reference or any candidate
/// pipeline changed the program's output.
bool process_app(const AppDef& app, i64 expected, antarex::exec::ThreadPool& pool,
                 Tracer& tr, Totals& tot) {
  using namespace antarex;
  bool ok = true;

  std::unique_ptr<cir::Module> module;
  {
    Bracket b(tr, "cir");
    module = cir::parse_module(app.source);
  }
  tot.bytes += static_cast<double>(app.source.size());

  {
    Bracket b(tr, "dsl");
    dsl::Weaver weaver(*module);
    weaver.load_source(kAspects);
    for (std::size_t i = 0; i < app.kernels.size(); ++i)
      weaver.run("ProfileArguments", {dsl::Val::str("k" + std::to_string(i))});
    for (std::size_t i = 0; i < app.kernels.size(); ++i)
      weaver.run("UnrollInnermostLoops",
                 {dsl::Val::join_point(function_jp(
                      *module, module->find("k" + std::to_string(i)))),
                  dsl::Val::num(kUnrollThreshold)});
    tot.inserts += static_cast<double>(weaver.stats().inserts);
    tot.unrolls += static_cast<double>(weaver.stats().unrolls);
  }

  passes::Workload workload;
  workload.entry = "app";
  const i64 n = app.n, s = app.s;
  workload.make_args = [n, s] {
    return std::vector<vm::Value>{vm::Value::from_int(n), vm::Value::from_int(s)};
  };
  passes::IterativeResult search;
  {
    Bracket b(tr, "passes.search");
    passes::IterativeCompiler explorer({"fold", "dce", "strength", "inline", "unroll"});
    explorer.set_pool(&pool);
    search = explorer.explore_exhaustive(*module, workload, 2);
  }
  tot.candidates += static_cast<double>(search.evaluated.size());
  for (const auto& c : search.evaluated) {
    if (!c.output_matches_baseline) {
      tot.mismatched += 1;
      ok = false;
    } else if (c.instructions < search.baseline_instructions) {
      tot.improving += 1;
    }
  }
  tot.speedups.push_back(search.best_speedup());

  // The best-ranked distinct pipelines become the tuner's code variants;
  // variant 0 is the search's pick.
  std::vector<std::string> ranked;
  ranked.push_back(search.best_pipeline);
  {
    std::vector<passes::Candidate> sorted = search.evaluated;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& x, const auto& y) {
                       return x.instructions < y.instructions;
                     });
    for (const auto& c : sorted) {
      if (static_cast<int>(ranked.size()) == kVariants) break;
      if (c.output_matches_baseline &&
          std::find(ranked.begin(), ranked.end(), c.pipeline) == ranked.end())
        ranked.push_back(c.pipeline);
    }
  }
  std::vector<std::unique_ptr<vm::Engine>> engines;
  {
    Bracket b(tr, "passes.apply");
    for (const std::string& pipeline : ranked) {
      auto variant = module->clone();
      passes::PassManager pm(*variant);
      if (!pipeline.empty()) pm.add_pipeline(pipeline);
      pm.run_all();
      auto engine = std::make_unique<vm::Engine>();
      engine->load_module(*variant);
      engines.push_back(std::move(engine));
    }
  }

  auto run_checked = [&](vm::Engine& engine, i64 an, i64 as, i64 want) {
    Bracket b(tr, "vm");
    engine.reset_instruction_count();
    const i64 got = engine.call("app", {vm::Value::from_int(an), vm::Value::from_int(as)})
                        .as_int();
    tot.instructions += static_cast<double>(engine.executed_instructions());
    if (got != want) ok = false;
    return engine.executed_instructions();
  };

  // Runtime: the tuned program on the canonical and two shifted inputs.
  run_checked(*engines[0], n, s, expected);
  run_checked(*engines[0], n / 2, s + 1, eval_app(app, n / 2, s + 1));
  run_checked(*engines[0], n + 3, s + 5, eval_app(app, n + 3, s + 5));

  // Autotuning loop: pick a code variant per iteration by instruction count.
  tuner::DesignSpace space;
  std::vector<double> values;
  for (std::size_t v = 0; v < engines.size(); ++v) values.push_back(static_cast<double>(v));
  space.add_knob({"variant", values});
  std::unique_ptr<tuner::Autotuner> tuner;
  {
    Bracket b(tr, "tuner");
    tuner = std::make_unique<tuner::Autotuner>(std::move(space),
                                               search::make_strategy("flat"));
  }
  for (int d = 0; d < kTunerDecisions; ++d) {
    std::size_t v = 0;
    {
      Bracket b(tr, "tuner");
      const auto& cfg = tuner->next_configuration();
      v = static_cast<std::size_t>(tuner->space().value(cfg, "variant"));
    }
    const u64 instr = run_checked(*engines[v], n, s, expected);
    {
      Bracket b(tr, "tuner");
      tuner->report({{"time_s", static_cast<double>(instr)}});
    }
    tot.evals += 1;
  }
  return ok;
}

}  // namespace

RunResult run_toolflow(const Options& opts, std::vector<double>* setup_s) {
  const auto n_apps = static_cast<std::size_t>(
      std::max(4.0, std::round(kAppsPerSecond * opts.seconds)));
  const Corpus corpus = timed_setup(opts.setup_reps, setup_s,
                                    [&] { return make_corpus(opts.seed, n_apps); });

  antarex::exec::ThreadPool pool(opts.threads);
  Tracer tr(opts.trace);
  Totals tot;
  RunResult res;
  res.latency_ms.reserve(n_apps);

  pool.reset_stats();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < corpus.apps.size(); ++i) {
    const auto a0 = Clock::now();
    bool ok = false;
    try {
      ok = process_app(corpus.apps[i], corpus.expected[i], pool, tr, tot);
    } catch (const std::exception& e) {
      res.errors.push_back("app " + std::to_string(i) + ": " + e.what());
    }
    res.latency_ms.push_back(1e3 * seconds_between(a0, Clock::now()));
    ++res.attempted;
    if (!ok) ++res.failed;
  }
  res.timed_s = seconds_between(t0, Clock::now());
  res.work_s = res.timed_s;
  const antarex::exec::PoolStats ps = pool.stats();

  if (tot.mismatched > 0)
    res.errors.push_back(std::to_string(static_cast<u64>(tot.mismatched)) +
                         " candidate pipeline(s) changed the program output");
  if (res.failed > 0 && res.errors.empty())
    res.errors.push_back(std::to_string(res.failed) +
                         " app(s) returned a value other than the native reference");

  res.quality = geomean(tot.speedups);
  res.notes["tuned_speedup"] = res.quality;

  auto& L = res.layers;
  L["cir.bytes"] = tot.bytes;
  L["dsl.inserts"] = tot.inserts;
  L["dsl.unrolls"] = tot.unrolls;
  L["passes.candidates"] = tot.candidates;
  L["passes.mismatched"] = tot.mismatched;
  L["passes.useful_frac"] = tot.candidates > 0 ? tot.improving / tot.candidates : 0.0;
  L["vm.instructions"] = tot.instructions;
  L["tuner.evals"] = tot.evals;
  L["exec.steals"] = static_cast<double>(ps.steals);
  L["exec.queue_wait_ms"] = 1e3 * ps.mean_queue_wait_s();
  if (tr.on()) {
    L["cir.parse_ms"] = tr.ms("cir");
    L["dsl.weave_ms"] = tr.ms("dsl");
    L["passes.search_ms"] = tr.ms("passes.search");
    L["passes.apply_ms"] = tr.ms("passes.apply");
    L["vm.run_ms"] = tr.ms("vm");
    L["vm.instr_per_s"] = tr.ms("vm") > 0 ? tot.instructions / (tr.ms("vm") / 1e3) : 0.0;
    L["tuner.decide_ms"] = tr.ms("tuner");
    L["bench.bracket_share"] = tr.total_ms() / (1e3 * res.timed_s);
  }
  return res;
}

}  // namespace perfbench
