#include "stats/candidate_plane.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace vabi::stats {

namespace {

/// Returns the column_of entries of every support id to k_no_column when the
/// gather leaves, normally or by exception, so the map's between-calls
/// invariant never depends on the gather completing.
struct column_reset {
  std::vector<std::uint32_t>& column_of;
  const std::vector<source_id>& support;
  ~column_reset() {
    for (const source_id id : support) {
      column_of[id] = candidate_plane::k_no_column;
    }
  }
};

/// Calls `fn(id, coeff)` for every present slot of `f`, ids ascending.
template <typename Fn>
void for_each_present(const linear_form& f, Fn fn) {
  if (f.is_dense()) {
    const double* coeff = f.dense_coeffs();
    const std::uint8_t* mask = f.dense_mask();
    for (std::size_t id = 0; id < f.dense_extent(); ++id) {
      if (mask[id] != 0) fn(static_cast<source_id>(id), coeff[id]);
    }
  } else {
    for (const auto& t : f.terms()) fn(t.id, t.coeff);
  }
}

}  // namespace

void candidate_plane::gather(std::span<const linear_form* const> forms,
                             const variation_space& space,
                             std::vector<std::uint32_t>& column_of) {
  if (column_of.size() < space.size()) {
    column_of.resize(space.size(), k_no_column);
  }
  support_.clear();
  const column_reset reset{column_of, support_};

  // Pass 1: the union support. Until the columns are assigned, column_of
  // doubles as the seen-set (any value but k_no_column marks an id); the id
  // is recorded before it is marked, so the reset above covers every mark.
  for (const linear_form* f : forms) {
    for_each_present(*f, [&](source_id id, double) {
      assert(id < space.size());
      if (column_of[id] == k_no_column) {
        support_.push_back(id);
        column_of[id] = 0;
      }
    });
  }
  std::sort(support_.begin(), support_.end());
  const std::size_t width = support_.size();
  sigma2_.clear();
  double* s2 = sigma2_.grow(width);
  for (std::size_t c = 0; c < width; ++c) {
    column_of[support_[c]] = static_cast<std::uint32_t>(c);
    s2[c] = space.sigma2(support_[c]);
  }

  // Pass 2: scatter each form into its zero-filled row.
  stride_ = (width + 7) & ~std::size_t{7};
  rows_ = forms.size();
  coeffs_.clear();
  double* out = coeffs_.grow(rows_ * stride_);
  if (rows_ * stride_ != 0) {
    std::memset(out, 0, rows_ * stride_ * sizeof(double));
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    double* row = out + i * stride_;
    for_each_present(*forms[i], [&](source_id id, double coeff) {
      row[column_of[id]] = coeff;
    });
  }
}

}  // namespace vabi::stats
