// Online learning: recursive least squares with a forgetting factor.
//
// The decision-making engine's "machine learning technique ... predicting the
// most promising set of parameter settings" (paper Sec. IV). The forgetting
// factor keeps the model tracking "the most recent operating conditions".
#pragma once

#include <vector>

#include "support/common.hpp"

namespace antarex::tuner {

class RlsModel {
 public:
  /// dims: number of input features (a bias term is added internally).
  /// lambda: forgetting factor in (0, 1]; smaller forgets faster.
  explicit RlsModel(std::size_t dims, double lambda = 0.99);

  void update(const std::vector<double>& x, double y);
  double predict(const std::vector<double>& x) const;

  std::size_t updates() const { return updates_; }
  std::size_t dims() const { return dims_; }
  const std::vector<double>& weights() const { return w_; }
  void reset();

 private:
  std::vector<double> phi(const std::vector<double>& x) const;

  std::size_t dims_;
  double lambda_;
  std::vector<double> w_;               ///< dims+1 weights (bias last)
  std::vector<std::vector<double>> p_;  ///< inverse covariance
  std::size_t updates_ = 0;
};

}  // namespace antarex::tuner
