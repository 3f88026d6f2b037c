// Least-squares regression.
//
// The paper's policy-initialization step (Algorithm 2) fits a polynomial
// regression over coarse configuration samples and uses it to predict the
// response time of configurations that were never measured. All parameters
// have a concave-upward effect on response time, so a low-order polynomial
// surface captures the shape well.
//
// Two layers are provided:
//   * LinearModel / fit_least_squares: generic ridge-regularized linear
//     least squares over arbitrary feature vectors (normal equations +
//     Cholesky).
//   * Poly1D: convenience wrapper for single-variable polynomial fits
//     (used for the Figure 4 regression overlay).
//   * QuadraticSurface: multi-variate quadratic feature map
//     [1, x_i, x_i^2, x_i*x_j] used by the policy initializer.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rac::util {

/// Coefficients of a fitted linear-in-features model: y ~ w . phi(x).
class LinearModel {
 public:
  LinearModel() = default;
  explicit LinearModel(std::vector<double> weights)
      : weights_(std::move(weights)) {}

  bool fitted() const noexcept { return !weights_.empty(); }
  std::size_t num_features() const noexcept { return weights_.size(); }
  std::span<const double> weights() const noexcept { return weights_; }

  /// Dot product with a feature vector of matching dimension.
  double predict(std::span<const double> features) const;

 private:
  std::vector<double> weights_;
};

/// Solve min_w ||X w - y||^2 + ridge * ||w||^2.
/// `rows` holds the feature matrix row-major, each row of width `width`.
/// Throws std::invalid_argument on dimension mismatch and
/// std::runtime_error if the (regularized) normal matrix is singular.
LinearModel fit_least_squares(std::span<const double> rows, std::size_t width,
                              std::span<const double> y, double ridge = 1e-9);

/// Single-variable polynomial y = c0 + c1 x + ... + cd x^d.
/// Inputs are internally standardized for conditioning.
class Poly1D {
 public:
  Poly1D() = default;

  /// Fit a degree-`degree` polynomial. Requires xs.size() == ys.size() and
  /// at least degree+1 points.
  static Poly1D fit(std::span<const double> xs, std::span<const double> ys,
                    int degree, double ridge = 1e-9);

  bool fitted() const noexcept { return model_.fitted(); }
  int degree() const noexcept { return degree_; }
  double predict(double x) const;

  /// Location of the minimum of the fitted polynomial over [lo, hi]
  /// (dense scan; the polynomials here are low degree and cheap).
  double argmin(double lo, double hi, int samples = 512) const;

 private:
  LinearModel model_;
  int degree_ = 0;
  double x_mean_ = 0.0;
  double x_scale_ = 1.0;

  std::vector<double> features(double x) const;
};

/// Multi-variate polynomial surface with pairwise interactions:
///   y = w0 + sum_i sum_{p=1..d} b_ip z_i^p + sum_{i<j} c_ij z_i z_j,
/// where z is the standardized input and d is the per-dimension degree
/// (2 or 3). Feature count is 1 + d*n + n(n-1)/2 -- 45 (quadratic) or 53
/// (cubic) for the paper's 8 parameters.
class QuadraticSurface {
 public:
  QuadraticSurface() = default;

  /// `points` is row-major, `dim` values per sample. `per_dim_degree`
  /// in {2, 3}: cubic terms let the fit follow the sharp descent into the
  /// valley that a pure quadratic smooths away.
  static QuadraticSurface fit(std::span<const double> points, std::size_t dim,
                              std::span<const double> ys, double ridge = 1e-6,
                              int per_dim_degree = 2);

  /// Rebuild a surface from serialized parts. Validates the invariants
  /// `fit` guarantees -- degree in {2, 3}, means/scales sized to `dim`,
  /// strictly positive scales, weight count matching the feature map --
  /// and throws std::invalid_argument otherwise.
  static QuadraticSurface from_parts(LinearModel model, std::size_t dim,
                                     int per_dim_degree,
                                     std::vector<double> means,
                                     std::vector<double> scales);

  bool fitted() const noexcept { return model_.fitted(); }
  std::size_t dim() const noexcept { return dim_; }
  int per_dim_degree() const noexcept { return degree_; }
  const LinearModel& model() const noexcept { return model_; }
  std::span<const double> means() const noexcept { return means_; }
  std::span<const double> scales() const noexcept { return scales_; }
  double predict(std::span<const double> x) const;

  /// The feature map predict() dots with the weights, in weight order:
  ///   [1, z_i^1 (all i), ..., z_i^d (all i), z_i z_j (i < j)],
  /// with z_i = standardized(i, x_i) and each power from std::pow.
  std::vector<double> features(std::span<const double> x) const;
  /// (x - mean_i) / scale_i: input `i` as the feature map sees it.
  double standardized(std::size_t i, double x) const {
    return (x - means_[i]) / scales_[i];
  }

 private:
  LinearModel model_;
  std::size_t dim_ = 0;
  int degree_ = 2;
  std::vector<double> means_;
  std::vector<double> scales_;
};

}  // namespace rac::util
