#include "tuner/learner.hpp"

namespace antarex::tuner {

namespace {
/// Initial diagonal of the inverse covariance: large = a weak prior, so the
/// first samples move the weights freely.
constexpr double kDelta = 100.0;
}  // namespace

RlsModel::RlsModel(std::size_t dims, double lambda) : dims_(dims), lambda_(lambda) {
  ANTAREX_REQUIRE(dims_ > 0, "RlsModel: need at least one feature");
  ANTAREX_REQUIRE(lambda_ > 0.0 && lambda_ <= 1.0,
                  "RlsModel: lambda must be in (0, 1]");
  reset();
}

void RlsModel::reset() {
  const std::size_t n = dims_ + 1;
  w_.assign(n, 0.0);
  p_.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) p_[i][i] = kDelta;
  updates_ = 0;
}

std::vector<double> RlsModel::phi(const std::vector<double>& x) const {
  ANTAREX_REQUIRE(x.size() == dims_, "RlsModel: feature size mismatch");
  std::vector<double> f = x;
  f.push_back(1.0);  // bias
  return f;
}

void RlsModel::update(const std::vector<double>& x, double y) {
  const std::vector<double> f = phi(x);
  const std::size_t n = f.size();

  // k = P f / (lambda + f' P f)
  std::vector<double> pf(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) pf[i] += p_[i][j] * f[j];
  double denom = lambda_;
  for (std::size_t i = 0; i < n; ++i) denom += f[i] * pf[i];
  std::vector<double> k(n);
  for (std::size_t i = 0; i < n; ++i) k[i] = pf[i] / denom;

  // w += k (y - f' w)
  double err = y;
  for (std::size_t i = 0; i < n; ++i) err -= f[i] * w_[i];
  for (std::size_t i = 0; i < n; ++i) w_[i] += k[i] * err;

  // P = (P - k f' P) / lambda
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) p_[i][j] = (p_[i][j] - k[i] * pf[j]) / lambda_;

  ++updates_;
}

double RlsModel::predict(const std::vector<double>& x) const {
  const std::vector<double> f = phi(x);
  double y = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) y += f[i] * w_[i];
  return y;
}

}  // namespace antarex::tuner
