#include "stats/variation_space.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vabi::stats {

const char* to_string(source_kind kind) {
  switch (kind) {
    case source_kind::random_device:
      return "random_device";
    case source_kind::spatial:
      return "spatial";
    case source_kind::inter_die:
      return "inter_die";
    case source_kind::parametric:
      return "parametric";
  }
  return "unknown";
}

source_id variation_space::add_source(source_kind kind, double sigma,
                                      std::string name) {
  // sigma^2 must be finite as well as sigma: an infinite sigma^2 turns the
  // exact +0.0 an absent slot adds to a variance chain into 0 * inf = NaN.
  // The negated >= also rejects a NaN sigma.
  if (!(sigma >= 0.0) || !std::isfinite(sigma * sigma)) {
    throw std::invalid_argument(
        "variation_space: sigma must be >= 0 with a finite square");
  }
  const auto id = static_cast<source_id>(sigmas_.size());
  sigmas_.push_back(sigma);
  sigma2_.push_back(sigma * sigma);
  kinds_.push_back(kind);
  names_.push_back(std::move(name));
  return id;
}

std::size_t variation_space::count(source_kind kind) const {
  return static_cast<std::size_t>(
      std::count(kinds_.begin(), kinds_.end(), kind));
}

}  // namespace vabi::stats
