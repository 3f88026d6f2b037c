#include "util/regression.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/contracts.hpp"

namespace rac::util {

double LinearModel::predict(std::span<const double> features) const {
  if (features.size() != weights_.size()) {
    throw std::invalid_argument("LinearModel::predict: feature width mismatch");
  }
  double y = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i) y += weights_[i] * features[i];
  return y;
}

LinearModel fit_least_squares(std::span<const double> rows, std::size_t width,
                              std::span<const double> y, double ridge) {
  if (width == 0) throw std::invalid_argument("fit_least_squares: width == 0");
  if (rows.size() % width != 0) {
    throw std::invalid_argument("fit_least_squares: ragged feature matrix");
  }
  const std::size_t n = rows.size() / width;
  if (n != y.size()) {
    throw std::invalid_argument("fit_least_squares: |X| != |y|");
  }
  if (n < width) {
    throw std::invalid_argument(
        "fit_least_squares: fewer samples than features");
  }

  // Normal matrix A = X^T X + ridge I (symmetric positive definite), and
  // right-hand side b = X^T y.
  std::vector<double> a(width * width, 0.0);
  std::vector<double> b(width, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const double* row = rows.data() + r * width;
    for (std::size_t i = 0; i < width; ++i) {
      b[i] += row[i] * y[r];
      for (std::size_t j = i; j < width; ++j) a[i * width + j] += row[i] * row[j];
    }
  }
  for (std::size_t i = 0; i < width; ++i) {
    a[i * width + i] += ridge;
    for (std::size_t j = 0; j < i; ++j) a[i * width + j] = a[j * width + i];
  }

  // Cholesky decomposition A = L L^T.
  std::vector<double> l(width * width, 0.0);
  for (std::size_t i = 0; i < width; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a[i * width + j];
      for (std::size_t k = 0; k < j; ++k) sum -= l[i * width + k] * l[j * width + k];
      if (i == j) {
        if (sum <= 0.0) {
          throw std::runtime_error(
              "fit_least_squares: normal matrix not positive definite");
        }
        l[i * width + i] = std::sqrt(sum);
      } else {
        l[i * width + j] = sum / l[j * width + j];
      }
    }
  }

  // Solve L z = b, then L^T w = z.
  std::vector<double> z(width, 0.0);
  for (std::size_t i = 0; i < width; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l[i * width + k] * z[k];
    z[i] = sum / l[i * width + i];
  }
  std::vector<double> w(width, 0.0);
  for (std::size_t ii = width; ii-- > 0;) {
    double sum = z[ii];
    for (std::size_t k = ii + 1; k < width; ++k) sum -= l[k * width + ii] * w[k];
    w[ii] = sum / l[ii * width + ii];
  }
  return LinearModel(std::move(w));
}

std::vector<double> Poly1D::features(double x) const {
  const double zx = (x - x_mean_) / x_scale_;
  std::vector<double> phi(static_cast<std::size_t>(degree_) + 1);
  double pow = 1.0;
  for (auto& f : phi) {
    f = pow;
    pow *= zx;
  }
  return phi;
}

Poly1D Poly1D::fit(std::span<const double> xs, std::span<const double> ys,
                   int degree, double ridge) {
  if (degree < 0) throw std::invalid_argument("Poly1D::fit: negative degree");
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("Poly1D::fit: |x| != |y|");
  }
  if (xs.size() < static_cast<std::size_t>(degree) + 1) {
    throw std::invalid_argument("Poly1D::fit: not enough points");
  }
  Poly1D p;
  p.degree_ = degree;
  double lo = xs[0];
  double hi = xs[0];
  double sum = 0.0;
  for (double x : xs) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    sum += x;
  }
  p.x_mean_ = sum / static_cast<double>(xs.size());
  p.x_scale_ = (hi > lo) ? (hi - lo) / 2.0 : 1.0;

  const auto width = static_cast<std::size_t>(degree) + 1;
  std::vector<double> rows;
  rows.reserve(xs.size() * width);
  for (double x : xs) {
    const auto phi = p.features(x);
    rows.insert(rows.end(), phi.begin(), phi.end());
  }
  p.model_ = fit_least_squares(rows, width, ys, ridge);
  return p;
}

double Poly1D::predict(double x) const {
  RAC_EXPECT(fitted(), "Poly1D::predict: model not fitted");
  return model_.predict(features(x));
}

double Poly1D::argmin(double lo, double hi, int samples) const {
  RAC_EXPECT(fitted(), "Poly1D::argmin: model not fitted");
  RAC_EXPECT(samples >= 2, "Poly1D::argmin: need at least 2 samples");
  double best_x = lo;
  double best_y = std::numeric_limits<double>::infinity();
  for (int i = 0; i < samples; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(samples - 1);
    const double y = predict(x);
    if (y < best_y) {
      best_y = y;
      best_x = x;
    }
  }
  return best_x;
}

std::vector<double> QuadraticSurface::features(std::span<const double> x) const {
  RAC_EXPECT(x.size() == dim_, "QuadraticSurface::features: dim mismatch");
  std::vector<double> z(dim_);
  for (std::size_t i = 0; i < dim_; ++i) z[i] = standardized(i, x[i]);
  std::vector<double> phi;
  phi.reserve(1 + static_cast<std::size_t>(degree_) * dim_ +
              dim_ * (dim_ - 1) / 2);
  phi.push_back(1.0);
  for (int p = 1; p <= degree_; ++p) {
    for (std::size_t i = 0; i < dim_; ++i) {
      phi.push_back(std::pow(z[i], static_cast<double>(p)));
    }
  }
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = i + 1; j < dim_; ++j) phi.push_back(z[i] * z[j]);
  }
  return phi;
}

QuadraticSurface QuadraticSurface::fit(std::span<const double> points,
                                       std::size_t dim,
                                       std::span<const double> ys,
                                       double ridge, int per_dim_degree) {
  if (dim == 0) throw std::invalid_argument("QuadraticSurface::fit: dim == 0");
  if (per_dim_degree < 2 || per_dim_degree > 3) {
    throw std::invalid_argument("QuadraticSurface::fit: degree must be 2 or 3");
  }
  if (points.size() % dim != 0) {
    throw std::invalid_argument("QuadraticSurface::fit: ragged points");
  }
  const std::size_t n = points.size() / dim;
  if (n != ys.size()) {
    throw std::invalid_argument("QuadraticSurface::fit: |X| != |y|");
  }

  QuadraticSurface q;
  q.dim_ = dim;
  q.degree_ = per_dim_degree;
  q.means_.assign(dim, 0.0);
  q.scales_.assign(dim, 1.0);
  std::vector<double> lo(dim, std::numeric_limits<double>::infinity());
  std::vector<double> hi(dim, -std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < dim; ++i) {
      const double v = points[r * dim + i];
      q.means_[i] += v;
      lo[i] = std::min(lo[i], v);
      hi[i] = std::max(hi[i], v);
    }
  }
  for (std::size_t i = 0; i < dim; ++i) {
    q.means_[i] /= static_cast<double>(n);
    q.scales_[i] = (hi[i] > lo[i]) ? (hi[i] - lo[i]) / 2.0 : 1.0;
  }

  const std::size_t width = 1 + static_cast<std::size_t>(per_dim_degree) * dim +
                            dim * (dim - 1) / 2;
  std::vector<double> rows;
  rows.reserve(n * width);
  for (std::size_t r = 0; r < n; ++r) {
    const auto phi = q.features(points.subspan(r * dim, dim));
    rows.insert(rows.end(), phi.begin(), phi.end());
  }
  q.model_ = fit_least_squares(rows, width, ys, ridge);
  return q;
}

QuadraticSurface QuadraticSurface::from_parts(LinearModel model,
                                              std::size_t dim,
                                              int per_dim_degree,
                                              std::vector<double> means,
                                              std::vector<double> scales) {
  if (dim == 0) {
    throw std::invalid_argument("QuadraticSurface::from_parts: dim == 0");
  }
  if (per_dim_degree < 2 || per_dim_degree > 3) {
    throw std::invalid_argument(
        "QuadraticSurface::from_parts: degree must be 2 or 3");
  }
  if (means.size() != dim || scales.size() != dim) {
    throw std::invalid_argument(
        "QuadraticSurface::from_parts: means/scales size != dim");
  }
  for (double s : scales) {
    if (!(s > 0.0)) {
      throw std::invalid_argument(
          "QuadraticSurface::from_parts: non-positive scale");
    }
  }
  const std::size_t width = 1 +
                            static_cast<std::size_t>(per_dim_degree) * dim +
                            dim * (dim - 1) / 2;
  if (model.num_features() != width) {
    throw std::invalid_argument(
        "QuadraticSurface::from_parts: weight count does not match feature "
        "map");
  }
  QuadraticSurface q;
  q.model_ = std::move(model);
  q.dim_ = dim;
  q.degree_ = per_dim_degree;
  q.means_ = std::move(means);
  q.scales_ = std::move(scales);
  return q;
}

double QuadraticSurface::predict(std::span<const double> x) const {
  RAC_EXPECT(fitted(), "QuadraticSurface::predict: model not fitted");
  if (x.size() != dim_) {
    throw std::invalid_argument("QuadraticSurface::predict: dim mismatch");
  }
  return model_.predict(features(x));
}

}  // namespace rac::util
