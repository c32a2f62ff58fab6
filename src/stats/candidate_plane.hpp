// Structure-of-arrays gather of a candidate list's canonical forms.
//
// The tiled dominance engine (core/pruning.cpp) answers one-candidate-vs-a-
// whole-tile questions with the one-vs-many kernels (kernels.hpp). Those
// kernels want each form as a contiguous coefficient row; this class packs
// the forms of one per-node candidate list into a row-per-candidate matrix
// (row stride padded to a 64-byte boundary, so every row is vector-aligned)
// over the list's *sorted union support*: column c of every row holds the
// coefficient of source support()[c], and the matching sigma^2 values sit in
// a compact table (sigma2()). Rows are as wide as the ids the list actually
// touches, never as wide as the whole variation_space, so a gather and every
// reduction over it cost O(rows x support), independent of the net's size.
//
// Bit-identity: columns stay in ascending id order and a row holds exactly
// 0.0 in the columns its form lacks, so every reduction over it (variance,
// covariance, sigma-of-difference against another row) runs the same
// left-to-right chain the sparse pass produces, with exact +0.0 no-op adds
// interleaved for union ids one side lacks. Such a column adds 0.0 * sigma^2,
// which is +0.0 only because variation_space admits only finite sigma^2.
//
// Lifetime: a candidate_plane is per-prune-call scratch. It copies
// coefficients out of the forms at gather time and holds no pointers into
// them, so sealed-slab adoption, term relocation, or list reallocation after
// the gather cannot invalidate it (and it must be re-gathered per call).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "stats/kernels.hpp"
#include "stats/linear_form.hpp"
#include "stats/variation_space.hpp"

namespace vabi::stats {

class candidate_plane {
 public:
  /// Marker of an id that has no column in `column_of` (see gather()).
  static constexpr std::uint32_t k_no_column =
      std::numeric_limits<std::uint32_t>::max();

  /// Rebuilds the matrix with one row per form of `forms`, in order, over
  /// the forms' sorted union support. Every term/dense slot of a form must
  /// have id < space.size().
  ///
  /// `column_of` is the caller's id -> column scratch: entries equal
  /// k_no_column between calls, it is grown (never shrunk) to space.size()
  /// here, and every entry the gather touches is reset before it returns,
  /// exceptions included -- so its cost per call is the support, not the
  /// space. Storage is retained across calls: steady-state gathers allocate
  /// nothing once the high-water mark is reached.
  void gather(std::span<const linear_form* const> forms,
              const variation_space& space,
              std::vector<std::uint32_t>& column_of);

  std::size_t rows() const { return rows_; }

  /// Columns per row: the size of the union support.
  std::size_t width() const { return support_.size(); }

  /// Source id of each column, ascending.
  const std::vector<source_id>& support() const { return support_; }

  /// sigma^2 of each column's source (width() entries), bit-equal to
  /// space.sigma2(support()[c]).
  const double* sigma2() const { return sigma2_.data(); }

  const double* row(std::size_t i) const { return coeffs_.data() + i * stride_; }

 private:
  kernels::aligned_doubles coeffs_;
  kernels::aligned_doubles sigma2_;
  std::vector<source_id> support_;
  std::size_t stride_ = 0;  ///< width rounded up to 8 doubles (64 bytes)
  std::size_t rows_ = 0;
};

}  // namespace vabi::stats
