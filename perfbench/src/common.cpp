#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "exec/pool.hpp"

namespace perfbench {

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      {"toolflow", 95.0, run_toolflow},
      {"fleet", 90.0, run_fleet},
      {"nav", 99.0, run_nav},
      {"dock", 98.0, run_dock},
  };
  return kAll;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : all_workloads())
    if (name == w.name) return &w;
  return nullptr;
}

int default_threads() {
  return std::max(1, std::min(4, antarex::exec::ThreadPool::hardware_threads()));
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
