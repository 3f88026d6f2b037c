#include "core/library_io.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "env/context.hpp"
#include "rl/serialization.hpp"
#include "util/lineio.hpp"

namespace rac::core {

namespace {

constexpr const char* kMagic = "rac-policy-library";
constexpr int kVersion = 1;

void save_surface(std::ostream& os, const util::QuadraticSurface& surface) {
  if (!surface.fitted()) {
    os << "surface unfitted\n";
    return;
  }
  os << "surface " << util::format_u64(surface.dim()) << ' '
     << util::format_i64(surface.per_dim_degree()) << "\n";
  os << "weights " << util::format_u64(surface.model().num_features());
  for (double w : surface.model().weights()) {
    os << ' ' << util::format_double(w);
  }
  os << "\n";
  os << "means";
  for (double m : surface.means()) os << ' ' << util::format_double(m);
  os << "\n";
  os << "scales";
  for (double s : surface.scales()) os << ' ' << util::format_double(s);
  os << "\n";
}

// `count` finite values; a huge count runs out of tokens instead of sizing
// an allocation, since values are appended as they parse.
std::vector<double> read_finite(std::istream& is, std::uint64_t count,
                                const char* field) {
  std::vector<double> values;
  for (std::uint64_t i = 0; i < count; ++i) {
    values.push_back(util::read_double(is, "load_library surface"));
    if (!std::isfinite(values.back())) {
      throw std::runtime_error(
          std::string("load_library: non-finite surface ") + field);
    }
  }
  return values;
}

// A surface every policy prediction can evaluate: the parameter count's
// dimension, finite parts, and no configuration whose prediction overflows
// (TabulatedSurface::magnitude_bound, with a factor-2 margin over rounding).
TabulatedSurface load_surface(std::istream& is) {
  constexpr const char* kWhat = "load_library surface";
  util::expect_token(is, "surface", kWhat);
  const std::string first = util::read_token(is, kWhat);
  if (first == "unfitted") return TabulatedSurface{};
  const std::uint64_t dim = util::parse_u64(first, kWhat);
  if (dim != config::kNumParams) {
    throw std::runtime_error(
        "load_library: surface dimension is not the parameter count");
  }
  const int degree = util::read_int(is, kWhat);
  util::expect_token(is, "weights", kWhat);
  const std::uint64_t num_weights = util::read_u64(is, kWhat);
  std::vector<double> weights = read_finite(is, num_weights, "weight");
  util::expect_token(is, "means", kWhat);
  std::vector<double> means = read_finite(is, dim, "mean");
  util::expect_token(is, "scales", kWhat);
  std::vector<double> scales = read_finite(is, dim, "scale");
  TabulatedSurface surface;
  try {
    surface = TabulatedSurface(util::QuadraticSurface::from_parts(
        util::LinearModel(std::move(weights)), dim, degree, std::move(means),
        std::move(scales)));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("load_library: bad surface: ") +
                             e.what());
  }
  if (!(surface.magnitude_bound() <
        std::numeric_limits<double>::max() / 2)) {
    throw std::runtime_error(
        "load_library: surface predictions can overflow");
  }
  return surface;
}

}  // namespace

void save_library(std::ostream& os, const InitialPolicyLibrary& library) {
  os << kMagic << " v" << kVersion << "\n";
  os << "policies " << util::format_u64(library.size()) << "\n";
  for (std::size_t i = 0; i < library.size(); ++i) {
    const InitialPolicy& policy = library.at(i);
    os << "policy " << util::format_u64(i) << "\n";
    os << "context " << env::context_token(policy.context) << "\n";
    os << "sla " << util::format_double(policy.sla.reference_response_ms)
       << "\n";
    os << "best_sampled ";
    config::write_configuration(os, policy.best_sampled);
    os << ' ' << util::format_double(policy.best_sampled_response_ms) << "\n";
    os << "regression_r2 " << util::format_double(policy.regression_r2)
       << "\n";
    save_surface(os, policy.surface.regression());
    rl::save_qtable(os, policy.table);
  }
  os << "end\n";
  if (!os) throw std::ios_base::failure("save_library: write failed");
}

InitialPolicyLibrary load_library(std::istream& is) {
  constexpr const char* kWhat = "load_library";
  util::expect_header(is, kMagic, kVersion, kWhat);
  util::expect_token(is, "policies", kWhat);
  const std::uint64_t count = util::read_u64(is, kWhat);
  InitialPolicyLibrary library;
  for (std::uint64_t i = 0; i < count; ++i) {
    util::expect_token(is, "policy", kWhat);
    const std::uint64_t index = util::read_u64(is, kWhat);
    if (index != i) {
      throw std::runtime_error("load_library: policy index out of order");
    }
    InitialPolicy policy;
    util::expect_token(is, "context", kWhat);
    try {
      policy.context = env::parse_context_token(util::read_token(is, kWhat));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string("load_library: ") + e.what());
    }
    util::expect_token(is, "sla", kWhat);
    policy.sla.reference_response_ms = util::read_double(is, kWhat);
    util::expect_token(is, "best_sampled", kWhat);
    policy.best_sampled = config::read_configuration(is, kWhat);
    policy.best_sampled_response_ms = util::read_double(is, kWhat);
    util::expect_token(is, "regression_r2", kWhat);
    policy.regression_r2 = util::read_double(is, kWhat);
    policy.surface = load_surface(is);
    policy.table = rl::load_qtable(is);
    library.add(std::move(policy));
  }
  util::expect_token(is, "end", kWhat);
  return library;
}

void save_library_file(const std::string& path,
                       const InitialPolicyLibrary& library) {
  std::ostringstream os;
  save_library(os, library);
  util::atomic_write_file(path, os.str());
}

InitialPolicyLibrary load_library_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::ios_base::failure("load_library_file: cannot open " + path);
  }
  InitialPolicyLibrary library = load_library(is);
  std::string extra;
  if (is >> extra) {
    throw std::runtime_error(
        "load_library_file: trailing garbage after library: '" + extra + "'");
  }
  return library;
}

}  // namespace rac::core
