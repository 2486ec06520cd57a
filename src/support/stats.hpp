// Streaming and batch statistics used by monitors, benches and models.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "support/common.hpp"

namespace antarex {

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);
  void clear();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< sample variance (n-1); 0 if n < 2
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

  /// Merge another accumulator (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exponentially weighted moving average; the paper's monitors favour recent
/// operating conditions ("autotune the system according to the most recent
/// operating conditions", Sec. IV).
class Ewma {
 public:
  explicit Ewma(double alpha = 0.2);

  void add(double x);
  double value() const { return value_; }
  bool empty() const { return !seeded_; }
  void clear();

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

/// Sliding window over the last N samples with percentile queries; backs the
/// SLA monitors (e.g. p95 latency in the navigation server).
class SlidingWindow {
 public:
  explicit SlidingWindow(std::size_t capacity);

  void add(double x);
  std::size_t size() const { return buf_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool full() const { return buf_.size() == capacity_; }
  double mean() const;
  /// Percentile in [0,100] by nearest-rank on a sorted copy.
  double percentile(double p) const;
  void clear();

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::vector<double> buf_;
};

/// Nearest-rank percentile of an arbitrary sample (copies + sorts).
double percentile(std::vector<double> xs, double p);

/// Arithmetic mean; 0 for empty input.
double mean(const std::vector<double>& xs);

/// Geometric mean; requires all-positive values.
double geometric_mean(const std::vector<double>& xs);

/// Fixed-range, fixed-bin histogram: the one fixed-bin implementation in the
/// tree. It backs the workload analyses, the monitor's per-(shard, metric)
/// quantile sketches and every telemetry::Histogram snapshot. Out-of-range
/// values clamp to the edge bins; approx_quantile() interpolates inside the
/// owning bin, so its error is bounded by one bin width. Single-writer.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  /// Index of the bin x falls in among `bins` equal bins over [lo, hi);
  /// out-of-range values clamp to the edge bins.
  static std::size_t bin_of(double x, double lo, double hi, std::size_t bins) {
    const double t = (x - lo) / (hi - lo);
    const auto i =
        static_cast<std::ptrdiff_t>(std::floor(t * static_cast<double>(bins)));
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(i, 0, static_cast<std::ptrdiff_t>(bins) - 1));
  }

  void add(double x) {
    ++counts_[bin_of(x, lo_, hi_, counts_.size())];
    ++total_;
  }
  /// Credit n samples to bin i directly (snapshots of concurrent histograms).
  void add_to_bin(std::size_t i, std::size_t n);
  std::size_t bin_count(std::size_t i) const;
  std::size_t bins() const { return counts_.size(); }
  std::size_t count() const { return total_; }
  double bin_low(std::size_t i) const;
  double bin_high(std::size_t i) const;
  /// q in [0,1]; 0 with no samples. Error bound: one bin width.
  double approx_quantile(double q) const;
  /// Add another histogram's bins; both must share lo, hi and bin count.
  void merge(const Histogram& other);
  void clear();

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace antarex
