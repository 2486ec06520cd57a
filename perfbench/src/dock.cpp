// Workload `dock`: virtual screening on the work-stealing pool (paper use
// case 1).
//
// A seeded heavy-tailed ligand library against AffinityGrid::synthetic_pocket
// arrives as screening requests of kRequest ligands; each request goes
// through dock::run_parallel at the UC1 batch size, so exec sees coarse,
// heavy-tailed parallel_for chunks. One op is one ligand; its latency is the
// wall time of the request that carried it (its result is available when
// run_parallel returns), so one latency sample is taken per request.
//
// Reference: a seeded subset of requests is re-docked with
// dock::dock_library_serial and must match byte for byte.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "dock/dock.hpp"
#include "dock/parallel.hpp"
#include "exec/parallel.hpp"
#include "exec/pool.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using antarex::u64;
using namespace antarex::dock;

constexpr double kLigandsPerSecond = 5000.0;
constexpr std::size_t kRequest = 32;
constexpr int kBatch = 4;           ///< UC1's autotuned batch size
constexpr std::size_t kCheckEvery = 10;  ///< about one request in ten is re-docked
/// The receptor is one fixed target; the seed draws the ligand library. A
/// seeded pocket would move every figure with the pocket's shape.
constexpr u64 kReceptorSeed = 42;

static_assert(sizeof(DockResult) == 8 * sizeof(double),
              "DockResult compared bytewise must have no padding");

struct Input {
  AffinityGrid grid;
  std::vector<std::vector<Molecule>> requests;
  std::vector<u64> run_seed;
  std::vector<std::size_t> checked;
};

Input make_input(u64 seed, double seconds) {
  antarex::Rng receptor(kReceptorSeed);
  Input in{AffinityGrid::synthetic_pocket(receptor, 24, 1.0, 3), {}, {}, {}};
  antarex::Rng rng(seed ^ 0xd0c4ULL);
  const auto n_requests = static_cast<std::size_t>(
      std::max(2.0, std::round(kLigandsPerSecond * seconds / kRequest)));
  // Atom counts follow random_ligand's heavy-tailed law (8 + Pareto(6, 1.3),
  // clamped to 400), drawn by stratified sampling of its quantiles and then
  // shuffled: each library keeps the full tail, but its total cost no longer
  // swings with how many extreme ligands one seed happens to draw.
  const std::size_t n_ligands = n_requests * kRequest;
  std::vector<int> atoms(n_ligands);
  for (std::size_t i = 0; i < n_ligands; ++i) {
    const double u = (static_cast<double>(i) + 1.0 - rng.uniform()) /
                     static_cast<double>(n_ligands);
    const double tail = 6.0 / std::pow(u, 1.0 / 1.3);
    atoms[i] = static_cast<int>(std::min(400.0, 8.0 + std::floor(tail)));
  }
  rng.shuffle(atoms);
  for (std::size_t r = 0; r < n_requests; ++r) {
    std::vector<Molecule> lib;
    lib.reserve(kRequest);
    for (std::size_t i = 0; i < kRequest; ++i) {
      const int n = atoms[r * kRequest + i];
      lib.push_back(random_ligand(rng, n, n));
    }
    in.requests.push_back(std::move(lib));
    in.run_seed.push_back(antarex::exec::stream_seed(seed, r));
  }
  for (std::size_t r = 0; r < n_requests; ++r)
    if (rng.index(kCheckEvery) == 0) in.checked.push_back(r);
  if (in.checked.empty()) in.checked.push_back(rng.index(n_requests));
  return in;
}

}  // namespace

RunResult run_dock(const Options& opts, std::vector<double>* setup_s) {
  const Input in = timed_setup(opts.setup_reps, setup_s,
                               [&] { return make_input(opts.seed, opts.seconds); });
  const DockParams params;
  antarex::exec::ThreadPool pool(opts.threads);
  Tracer tr(opts.trace);
  RunResult res;
  std::vector<LibraryRunResult> out;
  out.reserve(in.requests.size());
  double queue_wait_s = 0.0, steals = 0.0, imbalance = 0.0, busy_s = 0.0;
  u64 waited = 0;

  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < in.requests.size(); ++r) {
    const auto r0 = Clock::now();
    {
      Bracket b(tr, "dock");
      out.push_back(run_parallel(pool, in.grid, in.requests[r], params, in.run_seed[r], kBatch));
    }
    res.latency_ms.push_back(1e3 * seconds_between(r0, Clock::now()));
    // run_parallel scopes the pool's stats to its own call.
    const antarex::exec::PoolStats ps = pool.stats();
    queue_wait_s += ps.queue_wait_total_s;
    waited += ps.waited_tasks;
    steals += static_cast<double>(out.back().steals);
    imbalance += out.back().imbalance;
    for (double b : out.back().worker_busy_s) busy_s += b;
    res.attempted += in.requests[r].size();
  }
  res.timed_s = seconds_between(t0, Clock::now());
  res.work_s = res.timed_s;

  double poses = 0.0, score = 0.0;
  for (const LibraryRunResult& lr : out)
    for (const DockResult& d : lr.results) {
      poses += static_cast<double>(d.poses_evaluated);
      score += -d.best_score;
    }

  // Reference: the serial library run on the same request and run seed.
  for (std::size_t r : in.checked) {
    const LibraryRunResult ref =
        dock_library_serial(in.grid, in.requests[r], params, in.run_seed[r]);
    const auto& got = out[r].results;
    std::size_t bad = got.size() == ref.results.size() ? 0 : kRequest;
    for (std::size_t i = 0; bad == 0 && i < got.size(); ++i)
      if (std::memcmp(&got[i], &ref.results[i], sizeof(DockResult)) != 0) ++bad;
    if (bad > 0) {
      res.failed += bad;
      res.errors.push_back("request " + std::to_string(r) +
                           " differs from dock_library_serial");
    }
  }

  // Mean best binding score (higher = better poses found).
  res.quality = res.attempted ? score / static_cast<double>(res.attempted) : 0.0;
  res.notes["mean_best_score"] = res.quality;

  auto& L = res.layers;
  L["dock.poses"] = poses;
  L["dock.busy_ms"] = 1e3 * busy_s;
  L["dock.poses_per_s"] = poses / res.timed_s;
  L["dock.imbalance"] = imbalance / static_cast<double>(std::max<std::size_t>(1, out.size()));
  L["exec.steals"] = steals;
  L["exec.queue_wait_ms"] = waited ? 1e3 * queue_wait_s / static_cast<double>(waited) : 0.0;
  if (tr.on()) L["bench.bracket_share"] = tr.ms("dock") / (1e3 * res.timed_s);
  return res;
}

}  // namespace perfbench
