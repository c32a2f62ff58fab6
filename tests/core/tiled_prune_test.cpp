// Differential suite for the tiled dominance engine (core/pruning.cpp).
//
// The contract under test (pruning.hpp "Sweep-implementation policy"): the
// tiled sweep -- SoA candidate planes + batched one-vs-many moment kernels +
// the batched interval prefilter -- produces *bit-identical* results to the
// seed's pairwise sweep: the same surviving candidates in the same order with
// the same form bits, the same candidates_pruned, on every reachable ISA and
// in both form representations. Which sweep ran may only move organization
// counters (tiled_prunes / tile_prefilter_hits / pairs_batched vs
// dominance_prefilter_hits).
//
// Layers:
//   1. kernel: the one-vs-many entries match their one-plane counterparts
//      row for row, bit for bit, on every reachable ISA; prefilter verdicts
//      implement the exact scalar branch order (NaN falls through to 2).
//      1b. gather: candidate planes hold exactly the list's sorted union
//      support, hand the id -> column map back clean, and reduce to the
//      forms' own moments bit for bit.
//   2. prune: randomized lists through prune_two_param / prune_four_param
//      under forced pairwise vs forced tiled.
//   3. engine: full serial + parallel solves (threads x li_shi) under both
//      modes compare root RAT bits, assignments and work counters.
#include "core/pruning.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "core/statistical_dp.hpp"
#include "layout/process_model.hpp"
#include "stats/candidate_plane.hpp"
#include "stats/kernels.hpp"
#include "stats/linear_form.hpp"
#include "stats/rng.hpp"
#include "stats/term_pool.hpp"
#include "stats/variation_space.hpp"
#include "timing/buffer_library.hpp"
#include "tree/benchmarks.hpp"

namespace vabi::core {
namespace {

namespace kernels = stats::kernels;

// ---------------------------------------------------------------------------
// Guards (mirror tests/stats/kernels_test.cpp).
// ---------------------------------------------------------------------------

struct isa_guard {
  explicit isa_guard(kernels::kernel_isa isa) {
    kernels::set_forced_isa(kernels::to_string(isa));
  }
  ~isa_guard() { kernels::set_forced_isa(nullptr); }
};

struct dense_guard {
  explicit dense_guard(int mode) { stats::set_force_dense(mode); }
  ~dense_guard() { stats::reset_force_dense_from_env(); }
};

/// Forces one prune implementation for the scope; restores the
/// VABI_FORCE_PRUNE environment default on exit.
struct prune_guard {
  explicit prune_guard(int mode) { set_force_prune(mode); }
  ~prune_guard() { reset_force_prune_from_env(); }
};

std::vector<kernels::kernel_isa> reachable_isas() {
  std::vector<kernels::kernel_isa> out{kernels::kernel_isa::scalar};
  for (const auto isa :
       {kernels::kernel_isa::sse2, kernels::kernel_isa::avx2,
        kernels::kernel_isa::neon}) {
    if (kernels::isa_available(isa)) out.push_back(isa);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Random fixtures.
// ---------------------------------------------------------------------------

stats::variation_space make_space(std::size_t num_sources,
                                  std::uint64_t seed) {
  stats::variation_space space;
  auto rng = stats::make_rng(seed * 977 + 13);
  std::uniform_real_distribution<double> sigma(0.25, 2.0);
  for (std::size_t i = 0; i < num_sources; ++i) {
    space.add_source(stats::source_kind::random_device, sigma(rng));
  }
  return space;
}

stats::linear_form random_form(std::mt19937_64& rng, std::size_t num_sources,
                               double density, double mean_lo,
                               double mean_hi) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> coeff(-0.05, 0.05);
  std::uniform_real_distribution<double> mean(mean_lo, mean_hi);
  stats::linear_form f{mean(rng)};
  for (std::size_t id = 0; id < num_sources; ++id) {
    if (unit(rng) >= density) continue;
    double c = coeff(rng);
    if (unit(rng) < 0.05) c = 0.0;  // present-with-zero vs absent corner
    f.add_term(static_cast<stats::source_id>(id), c);
  }
  return f;
}

/// A candidate list with enough mean overlap that both sweeps prune some
/// candidates and keep others at p > 0.5.
std::vector<stat_candidate> random_list(std::size_t k,
                                        std::size_t num_sources,
                                        std::uint64_t seed) {
  auto rng = stats::make_rng(seed);
  std::vector<stat_candidate> list;
  list.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    list.push_back({random_form(rng, num_sources, 0.6, 0.0, 2.0),
                    random_form(rng, num_sources, 0.6, -100.0, 100.0),
                    nullptr});
  }
  // A few identical-form ties (shared load / duplicated candidate): the tie
  // convention is the branchiest corner of both sweeps.
  if (k >= 8) {
    list[3].load = list[2].load;
    list[5] = {list[4].load, list[4].rat, nullptr};
  }
  return list;
}

/// Canonical (id, coefficient-bits) list of a form, representation-agnostic.
struct form_bits {
  std::uint64_t nominal = 0;
  std::vector<std::pair<stats::source_id, std::uint64_t>> terms;

  bool operator==(const form_bits&) const = default;
};

form_bits bits_of(const stats::linear_form& f) {
  stats::linear_form c = f;
  c.own_terms();
  form_bits out;
  out.nominal = std::bit_cast<std::uint64_t>(c.mean());
  for (const auto& t : c.terms()) {
    out.terms.emplace_back(t.id, std::bit_cast<std::uint64_t>(t.coeff));
  }
  return out;
}

void expect_lists_bitwise_equal(const std::vector<stat_candidate>& a,
                                const std::vector<stat_candidate>& b,
                                const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits_of(a[i].load), bits_of(b[i].load)) << what << " load " << i;
    EXPECT_EQ(bits_of(a[i].rat), bits_of(b[i].rat)) << what << " rat " << i;
  }
}

/// Gathers `forms` (one row each) into `plane` through a fresh column map.
void gather_forms(stats::candidate_plane& plane,
                  const std::vector<stats::linear_form>& forms,
                  const stats::variation_space& space) {
  std::vector<const stats::linear_form*> ptrs;
  for (const auto& f : forms) ptrs.push_back(&f);
  std::vector<std::uint32_t> column_of;
  plane.gather(ptrs, space, column_of);
}

// ---------------------------------------------------------------------------
// 1. Kernel layer.
// ---------------------------------------------------------------------------

TEST(TiledKernels, BatchedReductionsMatchOnePlaneBitwise) {
  const std::size_t num_sources = 100;  // not a multiple of 4: tail columns
  const auto space = make_space(num_sources, 31);
  auto rng = stats::make_rng(77);

  // Rows 0..m-1 form the tile, row m is the fixed operand x; all share the
  // plane's union-support columns.
  const std::size_t m = 37;  // not a multiple of 4: remainder rows
  std::vector<stats::linear_form> forms;
  for (std::size_t i = 0; i <= m; ++i) {
    forms.push_back(random_form(rng, num_sources, 0.5, -1.0, 1.0));
  }
  // Source 3 stays out of every form: the union is 99 wide (tail columns).
  for (auto& f : forms) {
    std::vector<stats::lf_term> terms;
    for (const auto& t : f.terms()) {
      if (t.id != 3) terms.push_back(t);
    }
    f = stats::linear_form{f.mean(), std::move(terms)};
  }
  stats::candidate_plane plane;
  gather_forms(plane, forms, space);
  const std::size_t n = plane.width();
  ASSERT_EQ(n, num_sources - 1);

  std::vector<const double*> rows(m);
  for (std::size_t i = 0; i < m; ++i) rows[i] = plane.row(i);
  const double* x = plane.row(m);
  const double* s2 = plane.sigma2();

  for (const auto isa : reachable_isas()) {
    isa_guard guard{isa};
    const auto& kt = kernels::active();
    std::vector<double> out(m);

    kt.variance_rows(rows.data(), m, s2, n, out.data());
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                std::bit_cast<std::uint64_t>(kt.variance_plane(rows[j], s2, n)))
          << "variance " << kernels::to_string(isa) << " row " << j;
    }

    kt.covariance_row_tile(x, rows.data(), m, s2, n, out.data());
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                std::bit_cast<std::uint64_t>(
                    kt.covariance_planes(x, rows[j], s2, n)))
          << "covariance " << kernels::to_string(isa) << " row " << j;
    }

    kt.sigma_diff_sq_row_tile(x, rows.data(), m, s2, n, out.data());
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                std::bit_cast<std::uint64_t>(
                    kt.sigma_diff_sq_planes(x, rows[j], s2, n)))
          << "sigma_diff_sq " << kernels::to_string(isa) << " row " << j;
    }
  }
}

TEST(TiledKernels, BatchedReductionsMatchScalarAcrossIsas) {
  const std::size_t num_sources = 67;
  const auto space = make_space(num_sources, 5);
  auto rng = stats::make_rng(6);
  const std::size_t m = 19;
  std::vector<stats::linear_form> forms;
  for (std::size_t i = 0; i < m; ++i) {
    forms.push_back(random_form(rng, num_sources, 0.7, -1.0, 1.0));
  }
  stats::candidate_plane plane;
  gather_forms(plane, forms, space);
  std::vector<const double*> rows(m);
  for (std::size_t i = 0; i < m; ++i) rows[i] = plane.row(i);

  std::vector<double> ref(m);
  {
    isa_guard guard{kernels::kernel_isa::scalar};
    kernels::active().variance_rows(rows.data(), m, plane.sigma2(),
                                    plane.width(), ref.data());
  }
  for (const auto isa : reachable_isas()) {
    isa_guard guard{isa};
    std::vector<double> out(m);
    kernels::active().variance_rows(rows.data(), m, plane.sigma2(),
                                    plane.width(), out.data());
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                std::bit_cast<std::uint64_t>(ref[j]))
          << kernels::to_string(isa) << " row " << j;
    }
  }
}

TEST(TiledKernels, PrefilterVerdictsFollowScalarBranchOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // z thresholds for p ~ 0.9: z_p ~ 1.2816, pre-widened by kappa.
  const double z_hi = 1.2816 + 1e-6;
  const double z_lo = 1.2816 - 1e-6;
  const double mu_d[] = {
      10.0,   // far above z_hi * (1 + 1) -> definitely true
      -0.5,   // negative mean difference -> definitely false
      0.1,    // below z_lo * |2 - 0.25| -> definitely false
      2.56,   // between the bounds for sigmas (1, 1) -> undecided
      nan,    // NaN mean -> fails every comparison -> undecided
      1.0,    // NaN sigma -> undecided
  };
  const double sx[] = {1.0, 1.0, 2.0, 1.0, 1.0, nan};
  const double sy[] = {1.0, 1.0, 0.25, 1.0, 1.0, 1.0};
  const std::uint8_t want[] = {1, 0, 0, 2, 2, 2};
  for (const auto isa : reachable_isas()) {
    isa_guard guard{isa};
    std::uint8_t verdict[6] = {9, 9, 9, 9, 9, 9};
    kernels::active().prefilter_row_tile(mu_d, sx, sy, 6, z_hi, z_lo, verdict);
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(verdict[j], want[j]) << kernels::to_string(isa) << " " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// 1b. Gather layer: candidate planes over the list's union support.
// ---------------------------------------------------------------------------

constexpr std::size_t k_wide_space = 4096;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bit equality, except that any two NaNs compare equal (a NaN's payload is
/// not part of the contract; that it is a NaN is).
void expect_same_double(double a, double b, const std::string& what) {
  if (std::isnan(a) || std::isnan(b)) {
    EXPECT_TRUE(std::isnan(a) && std::isnan(b)) << what;
  } else {
    EXPECT_EQ(bits(a), bits(b)) << what;
  }
}

/// A sparse form with `count` terms on scattered ids of a `space_size`
/// space (the last id included when `with_last`).
stats::linear_form scattered_form(std::mt19937_64& rng, std::size_t space_size,
                                  std::size_t count, bool with_last,
                                  double mean_lo, double mean_hi) {
  std::uniform_int_distribution<std::uint32_t> id(
      0, static_cast<std::uint32_t>(space_size - 1));
  std::uniform_real_distribution<double> coeff(-0.05, 0.05);
  std::uniform_real_distribution<double> mean(mean_lo, mean_hi);
  std::vector<stats::lf_term> terms;
  for (std::size_t i = 0; i < count; ++i) {
    terms.push_back({id(rng), coeff(rng)});
  }
  if (with_last) {
    terms.push_back(
        {static_cast<stats::source_id>(space_size - 1), coeff(rng)});
  }
  return stats::linear_form{mean(rng), std::move(terms)};
}

/// The dense twin of `f` (pooled under force-dense): plane extent = max
/// present id + 1.
stats::linear_form densified(const stats::linear_form& f,
                             stats::term_pool& pool) {
  dense_guard dg{1};
  return stats::pooled_add(f, stats::linear_form{0.0}, pool);
}

TEST(CandidatePlane, GathersOverSortedUnionSupport) {
  const auto space = make_space(k_wide_space, 41);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<stats::linear_form> forms;
  forms.emplace_back(1.0, std::vector<stats::lf_term>{{4095, 0.5},
                                                      {17, -0.25}});
  forms.emplace_back(2.0, std::vector<stats::lf_term>{{2048, 1.0},
                                                      {17, 0.125}});
  forms.emplace_back(3.0);  // nominal-only: an all-zero row
  // Present-but-0.0, -0.0 and NaN coefficients each own a column.
  forms.emplace_back(4.0, std::vector<stats::lf_term>{{0, 0.0},
                                                      {9, -0.0},
                                                      {100, nan}});
  std::vector<const stats::linear_form*> ptrs;
  for (const auto& f : forms) ptrs.push_back(&f);
  std::vector<std::uint32_t> column_of;
  stats::candidate_plane plane;
  plane.gather(ptrs, space, column_of);

  const std::vector<stats::source_id> want{0, 9, 17, 100, 2048, 4095};
  EXPECT_EQ(plane.support(), want);
  ASSERT_EQ(plane.width(), want.size());
  ASSERT_EQ(plane.rows(), forms.size());
  for (std::size_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ(bits(plane.sigma2()[c]), bits(space.sigma2(want[c]))) << c;
  }
  for (std::size_t r = 0; r < forms.size(); ++r) {
    for (std::size_t c = 0; c < want.size(); ++c) {
      const double got = plane.row(r)[c];
      const double expect = forms[r].coefficient(want[c]);
      if (std::isnan(expect)) {
        EXPECT_TRUE(std::isnan(got)) << "row " << r << " col " << c;
      } else {
        EXPECT_EQ(bits(got), bits(expect)) << "row " << r << " col " << c;
      }
    }
  }
  EXPECT_EQ(bits(plane.row(3)[1]), bits(-0.0));  // the -0.0 survives
  // The map is sized once and handed back clean.
  ASSERT_EQ(column_of.size(), k_wide_space);
  for (const std::uint32_t col : column_of) {
    ASSERT_EQ(col, stats::candidate_plane::k_no_column);
  }

  // Re-gathering through the same map: an empty union, then the whole space.
  const stats::linear_form* nominal = &forms[2];
  plane.gather({&nominal, 1}, space, column_of);
  EXPECT_EQ(plane.width(), 0u);
  EXPECT_EQ(plane.rows(), 1u);

  stats::linear_form full{0.0};
  for (std::size_t id = 0; id < k_wide_space; ++id) {
    full.add_term(static_cast<stats::source_id>(id), 0.01);
  }
  const stats::linear_form* fp = &full;
  plane.gather({&fp, 1}, space, column_of);
  ASSERT_EQ(plane.width(), k_wide_space);
  for (std::size_t c = 0; c < k_wide_space; ++c) {
    ASSERT_EQ(plane.support()[c], c);
  }
  for (const std::uint32_t col : column_of) {
    ASSERT_EQ(col, stats::candidate_plane::k_no_column);
  }
}

TEST(CandidatePlane, DenseFormsGatherLikeTheirSparseTwins) {
  const auto space = make_space(k_wide_space, 43);
  auto rng = stats::make_rng(44);
  stats::term_pool pool;
  std::vector<stats::linear_form> sparse;
  std::vector<stats::linear_form> dense;
  for (std::size_t i = 0; i < 9; ++i) {
    // Ids below 1000 only: every plane extent stays short of the space.
    sparse.push_back(scattered_form(rng, 1000, 6 + i, false, -1.0, 1.0));
    dense.push_back(densified(sparse.back(), pool));
    ASSERT_TRUE(dense.back().is_dense());
    ASSERT_LT(dense.back().dense_extent(), space.size());
  }
  stats::candidate_plane ps;
  stats::candidate_plane pd;
  gather_forms(ps, sparse, space);
  gather_forms(pd, dense, space);
  ASSERT_EQ(ps.support(), pd.support());
  for (std::size_t r = 0; r < sparse.size(); ++r) {
    for (std::size_t c = 0; c < ps.width(); ++c) {
      EXPECT_EQ(bits(ps.row(r)[c]), bits(pd.row(r)[c]))
          << "row " << r << " col " << c;
    }
  }
}

TEST(CandidatePlane, RowReductionsMatchFormMomentsBitwise) {
  // Each support-local row reduces to exactly the form's own extent-free
  // moments: variance_rows == linear_form::variance and the tiled
  // sigma-of-difference == stats::sigma_of_difference, sparse and dense, on
  // every reachable ISA.
  const auto space = make_space(k_wide_space, 45);
  auto rng = stats::make_rng(46);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<stats::linear_form> sparse;
  for (std::size_t i = 0; i < 23; ++i) {
    sparse.push_back(
        scattered_form(rng, k_wide_space, 4 + i % 9, i % 5 == 0, -1.0, 1.0));
  }
  sparse.emplace_back(0.5);  // nominal-only
  sparse.emplace_back(0.25, std::vector<stats::lf_term>{{7, 0.0},
                                                        {4095, -0.0},
                                                        {3000, 0.02}});
  sparse.emplace_back(0.75, std::vector<stats::lf_term>{{7, nan},
                                                        {12, 0.01}});
  stats::term_pool pool;
  std::vector<stats::linear_form> dense;
  for (const auto& f : sparse) dense.push_back(densified(f, pool));

  for (const auto* forms : {&sparse, &dense}) {
    stats::candidate_plane plane;
    gather_forms(plane, *forms, space);
    const std::size_t m = forms->size();
    std::vector<const double*> rows(m);
    for (std::size_t i = 0; i < m; ++i) rows[i] = plane.row(i);
    for (const auto isa : reachable_isas()) {
      isa_guard guard{isa};
      const std::string tag = std::string(kernels::to_string(isa)) +
                              (forms == &dense ? " dense" : " sparse");
      std::vector<double> out(m);
      kernels::active().variance_rows(rows.data(), m, plane.sigma2(),
                                      plane.width(), out.data());
      for (std::size_t j = 0; j < m; ++j) {
        expect_same_double(out[j], (*forms)[j].variance(space),
                           tag + " variance row " + std::to_string(j));
      }
      for (std::size_t x = 0; x < m; x += 7) {
        kernels::active().sigma_diff_sq_row_tile(
            plane.row(x), rows.data(), m, plane.sigma2(), plane.width(),
            out.data());
        for (std::size_t j = 0; j < m; ++j) {
          expect_same_double(
              std::sqrt(std::max(out[j], 0.0)),
              stats::sigma_of_difference((*forms)[x], (*forms)[j], space),
              tag + " sigma_diff " + std::to_string(x) + "/" +
                  std::to_string(j));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Prune layer: forced pairwise vs forced tiled.
// ---------------------------------------------------------------------------

TEST(TiledPolicy, ThresholdsAndOverrides) {
  {
    prune_guard guard{0};  // adaptive
    EXPECT_TRUE(use_tiled_prune(32, 16));
    EXPECT_FALSE(use_tiled_prune(31, 16));
    EXPECT_FALSE(use_tiled_prune(32, 15));
  }
  {
    prune_guard guard{1};
    EXPECT_TRUE(use_tiled_prune(2, 1));
  }
  {
    prune_guard guard{-1};
    EXPECT_FALSE(use_tiled_prune(1000, 1000));
  }
}

class TiledDifferential : public ::testing::TestWithParam<double> {};

TEST_P(TiledDifferential, TwoParamMatchesPairwiseBitwise) {
  const double p = GetParam();
  two_param_rule rule;
  rule.p_load = p;
  rule.p_rat = p;
  for (const std::size_t num_sources : {24u, 64u}) {
    const auto space = make_space(num_sources, num_sources);
    for (const std::size_t k : {40u, 160u}) {
      const auto base = random_list(k, num_sources, k * 31 + num_sources);
      for (const auto isa : reachable_isas()) {
        isa_guard ig{isa};
        auto a = base;
        auto b = base;
        dp_stats sa, sb;
        {
          prune_guard guard{-1};
          prune_two_param(rule, a, space, sa);
        }
        {
          prune_guard guard{1};
          prune_two_param(rule, b, space, sb);
        }
        EXPECT_EQ(sa.tiled_prunes, 0u);
        EXPECT_EQ(sb.tiled_prunes, 1u);
        EXPECT_GT(sb.pairs_batched, 0u);
        EXPECT_EQ(sa.candidates_pruned, sb.candidates_pruned)
            << "p=" << p << " k=" << k << " sources=" << num_sources;
        expect_lists_bitwise_equal(a, b, kernels::to_string(isa));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Confidence, TiledDifferential,
                         ::testing::Values(0.6, 0.8, 0.95),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "p" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

TEST(TiledDifferentialDense, TwoParamMatchesAcrossRepresentations) {
  // Densified candidates (pooled ops under force-dense) must gather and
  // prune to the same bits as their sparse twins.
  two_param_rule rule;
  rule.p_load = 0.8;
  rule.p_rat = 0.8;
  const std::size_t num_sources = 48;
  const auto space = make_space(num_sources, 3);
  const auto base = random_list(96, num_sources, 11);

  stats::term_pool pool;
  std::vector<stat_candidate> dense_base;
  {
    dense_guard dg{1};
    for (const auto& c : base) {
      stat_candidate d;
      d.load = stats::pooled_add(c.load, stats::linear_form{0.0}, pool);
      d.rat = stats::pooled_add(c.rat, stats::linear_form{0.0}, pool);
      dense_base.push_back(std::move(d));
    }
  }
  ASSERT_TRUE(dense_base.front().load.is_dense());

  auto sparse_pair = base;
  auto sparse_tile = base;
  auto dense_tile = std::move(dense_base);
  dp_stats s1, s2, s3;
  {
    prune_guard guard{-1};
    prune_two_param(rule, sparse_pair, space, s1);
  }
  {
    prune_guard guard{1};
    prune_two_param(rule, sparse_tile, space, s2);
    prune_two_param(rule, dense_tile, space, s3);
  }
  EXPECT_EQ(s1.candidates_pruned, s2.candidates_pruned);
  EXPECT_EQ(s1.candidates_pruned, s3.candidates_pruned);
  expect_lists_bitwise_equal(sparse_pair, sparse_tile, "sparse tiled");
  expect_lists_bitwise_equal(sparse_pair, dense_tile, "dense tiled");
}

// -- Support-local planes: shapes where the union support and the space
//    differ, and the coefficient corners that make "absent" and "zero"
//    different things.

/// A candidate list on a `space_size` space whose forms touch scattered ids
/// (the last id in every fifth candidate). Means overlap enough that the
/// prefilter leaves pairs to the exact pass at p = 0.9.
std::vector<stat_candidate> scattered_list(std::size_t k,
                                           std::size_t space_size,
                                           std::size_t id_range,
                                           std::uint64_t seed) {
  auto rng = stats::make_rng(seed);
  std::vector<stat_candidate> list;
  for (std::size_t i = 0; i < k; ++i) {
    const bool last = id_range == space_size && i % 5 == 0;
    list.push_back({scattered_form(rng, id_range, 3 + i % 6, last, 0.0, 0.4),
                    scattered_form(rng, id_range, 10 + i % 30, last, -0.5, 0.5),
                    nullptr});
  }
  list[3].load = list[2].load;
  list[5] = {list[4].load, list[4].rat, nullptr};
  return list;
}

/// `list` with present-but-0.0 and -0.0 coefficients planted on several
/// candidates and, when `plant_nan`, a NaN coefficient on one. (The 4P
/// corners take a NaN sigma as a precondition violation, so only the 2P
/// sweep gets the NaN.)
std::vector<stat_candidate> with_signed_zeros(std::vector<stat_candidate> list,
                                              std::size_t space_size,
                                              bool plant_nan) {
  const auto plant = [](const stats::linear_form& f,
                        std::vector<stats::lf_term> extra) {
    std::vector<stats::lf_term> terms(f.terms().begin(), f.terms().end());
    for (const auto& t : extra) {
      std::erase_if(terms,
                    [&](const stats::lf_term& u) { return u.id == t.id; });
      terms.push_back(t);
    }
    return stats::linear_form{f.mean(), std::move(terms)};
  };
  const auto last = static_cast<stats::source_id>(space_size - 1);
  for (std::size_t i = 0; i < list.size(); i += 3) {
    list[i].load = plant(list[i].load, {{1, 0.0}, {last, -0.0}});
    list[i].rat = plant(list[i].rat, {{2, -0.0}, {last, 0.0}});
  }
  if (plant_nan) {
    list[7].rat =
        plant(list[7].rat, {{5, std::numeric_limits<double>::quiet_NaN()}});
  }
  return list;
}

/// `prune(list, stats)` under forced pairwise and forced tiled, on every
/// reachable ISA, for `base` and for its densified twin: the survivors must
/// match bit for bit, and so must every Var cache both modes filled (the
/// tiled paths batch-fill them from plane rows; pairwise fills lazily).
template <typename Prune>
void expect_prune_modes_agree(const std::vector<stat_candidate>& base,
                              const std::string& what, Prune prune) {
  stats::term_pool pool;
  std::vector<stat_candidate> dense_base;
  for (const auto& c : base) {
    dense_base.push_back(
        {densified(c.load, pool), densified(c.rat, pool), nullptr});
  }
  const std::vector<stat_candidate>* lists[] = {&base, &dense_base};
  for (const auto* list : lists) {
    for (const auto isa : reachable_isas()) {
      isa_guard ig{isa};
      const std::string tag = what + " " + kernels::to_string(isa) +
                              (list == &dense_base ? " dense" : " sparse");
      auto a = *list;
      auto b = *list;
      dp_stats sa, sb;
      {
        prune_guard guard{-1};
        prune(a, sa);
      }
      {
        prune_guard guard{1};
        prune(b, sb);
      }
      EXPECT_EQ(sb.tiled_prunes, 1u) << tag;
      EXPECT_EQ(sa.candidates_pruned, sb.candidates_pruned) << tag;
      expect_lists_bitwise_equal(a, b, tag.c_str());
      for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
        if (a[i].var_load >= 0.0 && b[i].var_load >= 0.0) {
          EXPECT_EQ(bits(a[i].var_load), bits(b[i].var_load))
              << tag << " " << i;
        }
        if (a[i].var_rat >= 0.0 && b[i].var_rat >= 0.0) {
          EXPECT_EQ(bits(a[i].var_rat), bits(b[i].var_rat)) << tag << " " << i;
        }
      }
    }
  }
}

void expect_two_param_modes_agree(double p,
                                  const std::vector<stat_candidate>& base,
                                  const stats::variation_space& space,
                                  const std::string& what) {
  two_param_rule rule;
  rule.p_load = p;
  rule.p_rat = p;
  expect_prune_modes_agree(base, what, [&](auto& list, dp_stats& st) {
    prune_two_param(rule, list, space, st);
  });
}

void expect_four_param_modes_agree(const std::vector<stat_candidate>& base,
                                   const stats::variation_space& space,
                                   const std::string& what) {
  expect_prune_modes_agree(base, what, [&](auto& list, dp_stats& st) {
    prune_four_param(four_param_rule{}, list, space, st);
  });
}

TEST(TiledSupportLocal, ScatteredIdsOnAWideSpace) {
  const auto space = make_space(k_wide_space, 51);
  const auto base = scattered_list(96, k_wide_space, k_wide_space, 52);
  for (const double p : {0.6, 0.9}) {
    expect_two_param_modes_agree(p, base, space, "p=" + std::to_string(p));
  }
  // The fixture is not trivial: the sweep prunes some candidates, keeps
  // others, and leaves pairs to the exact pass. pairs_batched counts the 2k
  // variance rows, every prefiltered pair and every exact-pass row, so it
  // exceeds 2k + tile_prefilter_hits exactly when the prefilter left a pair
  // undecided.
  two_param_rule rule;
  rule.p_load = 0.9;
  rule.p_rat = 0.9;
  auto list = base;
  dp_stats st;
  prune_guard guard{1};
  prune_two_param(rule, list, space, st);
  EXPECT_GT(st.candidates_pruned, 0u);
  EXPECT_GT(list.size(), 1u);
  EXPECT_GT(st.pairs_batched, 2 * base.size() + st.tile_prefilter_hits);
}

TEST(TiledSupportLocal, DensePlanesShorterThanTheSpace) {
  // Every id below 1000 of a 4096-source space: the densified forms' plane
  // extents stay short of the space.
  const auto space = make_space(k_wide_space, 53);
  const auto base = scattered_list(64, k_wide_space, 1000, 54);
  expect_two_param_modes_agree(0.9, base, space, "short dense");
}

TEST(TiledSupportLocal, SignedZeroAndNanCoefficients) {
  const auto space = make_space(k_wide_space, 55);
  const auto base = with_signed_zeros(
      scattered_list(64, k_wide_space, k_wide_space, 56), k_wide_space, true);
  expect_two_param_modes_agree(0.9, base, space, "zeros/nan");
}

TEST(TiledSupportLocal, EmptyUnionOfNominalOnlyForms) {
  const auto space = make_space(k_wide_space, 57);
  auto rng = stats::make_rng(58);
  std::uniform_real_distribution<double> mean(0.0, 1.0);
  std::vector<stat_candidate> base;
  for (std::size_t i = 0; i < 40; ++i) {
    base.push_back({stats::linear_form{mean(rng)},
                    stats::linear_form{mean(rng)}, nullptr});
  }
  base[9] = base[8];  // identical-form tie
  expect_two_param_modes_agree(0.9, base, space, "nominal-only");
}

TEST(TiledSupportLocal, UnionCoveringTheWholeSpace) {
  const std::size_t num_sources = 64;
  const auto space = make_space(num_sources, 59);
  auto rng = stats::make_rng(60);
  std::vector<stat_candidate> base;
  for (std::size_t i = 0; i < 48; ++i) {
    base.push_back({random_form(rng, num_sources, 1.0, 0.0, 0.3),
                    random_form(rng, num_sources, 1.0, -0.3, 0.3), nullptr});
  }
  expect_two_param_modes_agree(0.9, base, space, "whole space");
}

TEST(TiledSupportLocal, ForcedFourParamFill) {
  const auto space = make_space(k_wide_space, 61);
  expect_four_param_modes_agree(
      scattered_list(72, k_wide_space, k_wide_space, 62), space, "scattered");
  expect_four_param_modes_agree(scattered_list(48, k_wide_space, 1000, 63),
                                space, "short dense");
  expect_four_param_modes_agree(
      with_signed_zeros(scattered_list(48, k_wide_space, k_wide_space, 64),
                        k_wide_space, false),
      space, "signed zeros");
}

TEST(TiledDifferentialFourParam, MatchesPairwiseBitwise) {
  const four_param_rule rule;
  for (const std::size_t num_sources : {24u, 64u}) {
    const auto space = make_space(num_sources, num_sources + 1);
    const auto base = random_list(120, num_sources, num_sources * 7);
    for (const auto isa : reachable_isas()) {
      isa_guard ig{isa};
      auto a = base;
      auto b = base;
      dp_stats sa, sb;
      {
        prune_guard guard{-1};
        prune_four_param(rule, a, space, sa);
      }
      {
        prune_guard guard{1};
        prune_four_param(rule, b, space, sb);
      }
      EXPECT_EQ(sa.tiled_prunes, 0u);
      EXPECT_EQ(sb.tiled_prunes, 1u);
      EXPECT_EQ(sa.candidates_pruned, sb.candidates_pruned);
      expect_lists_bitwise_equal(a, b, kernels::to_string(isa));
    }
  }
}

TEST(TiledDifferential, MeanRuleNeverTiles) {
  const two_param_rule rule;  // p = 0.5
  ASSERT_TRUE(rule.is_mean_rule());
  const auto space = make_space(32, 1);
  auto list = random_list(128, 32, 17);
  dp_stats s;
  prune_guard guard{1};  // even under forced tiled
  prune_two_param(rule, list, space, s);
  EXPECT_EQ(s.tiled_prunes, 0u);
  EXPECT_EQ(s.pairs_batched, 0u);
}

TEST(TiledDifferential, SurvivorsAreMutuallyNonDominated) {
  // Property check on the tiled survivors directly (not just equality with
  // pairwise). The 2P sweep at p > 0.5 is the paper's *window-local*
  // linearization -- survivors farther than sweep_window apart may still
  // dominate -- so the 2P invariant is: no survivor is dominated by any of
  // the `window` survivors kept immediately before it. The 4P prune is the
  // full O(n^2) pass, so there the global property holds.
  two_param_rule rule2;
  rule2.p_load = 0.8;
  rule2.p_rat = 0.8;
  const four_param_rule rule4;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto space = make_space(32, seed);
    prune_guard guard{1};
    {
      auto list = random_list(80, 32, seed * 101);
      dp_stats s;
      prune_two_param(rule2, list, space, s);
      EXPECT_FALSE(list.empty());
      const std::size_t window = rule2.sweep_window;
      for (std::size_t i = 0; i < list.size(); ++i) {
        for (std::size_t k = 1; k <= window && k <= i; ++k) {
          EXPECT_FALSE(dominates(rule2, list[i - k], list[i], space))
              << "2P seed " << seed << " pair (" << i - k << ", " << i << ")";
        }
      }
    }
    {
      auto list = random_list(80, 32, seed * 103);
      dp_stats s;
      prune_four_param(rule4, list, space, s);
      EXPECT_FALSE(list.empty());
      EXPECT_TRUE(is_mutually_non_dominated(rule4, list, space))
          << "4P seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// 4P stddev memo (sigma_diff_cache::get_stddev).
// ---------------------------------------------------------------------------

class StddevCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { space_ = make_space(16, 9); }
  stats::variation_space space_;
};

TEST_F(StddevCacheTest, CachedStddevIsExact) {
  auto rng = stats::make_rng(21);
  const auto f = random_form(rng, 16, 0.7, -1.0, 1.0);
  sigma_diff_cache cache;
  const double got = cache.get_stddev(f, space_);
  const double again = cache.get_stddev(f, space_);
  const double direct = f.stddev(space_);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(direct));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(again),
            std::bit_cast<std::uint64_t>(direct));
}

TEST_F(StddevCacheTest, CachedFourParamDominatesMatchesUncached) {
  const four_param_rule rule;
  auto rng = stats::make_rng(23);
  std::vector<stat_candidate> cands;
  for (int i = 0; i < 16; ++i) {
    cands.push_back({random_form(rng, 16, 0.7, 0.0, 1.0),
                     random_form(rng, 16, 0.7, -50.0, 50.0), nullptr});
  }
  cands.push_back({stats::linear_form{0.5}, stats::linear_form{0.0},
                   nullptr});        // zero-sigma corner
  cands.push_back(cands.front());    // identical-form tie corner
  sigma_diff_cache cache;
  for (const auto& a : cands) {
    for (const auto& b : cands) {
      EXPECT_EQ(dominates(rule, a, b, space_, cache),
                dominates(rule, a, b, space_));
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Engine layer: full solves under both modes.
// ---------------------------------------------------------------------------

struct engine_case {
  const char* name;
  pruning_kind rule;
  double pbar;
  std::size_t threads;  ///< 0 = serial engine
  li_shi_mode li_shi;
};

class TiledEngineDifferential : public ::testing::TestWithParam<engine_case> {
};

TEST_P(TiledEngineDifferential, SolveIsBitIdenticalAcrossPruneModes) {
  const engine_case& ec = GetParam();

  tree::benchmark_spec spec;
  spec.name = "tiled_diff";
  spec.sinks = 32;
  spec.die_side_um = 2500.0;
  spec.seed = 917;
  const auto net = tree::build_benchmark(spec);

  layout::process_model_config pc;
  pc.mode = layout::wid_mode();
  pc.spatial.profile = layout::spatial_profile::heterogeneous;

  stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 150.0;
  o.rule = ec.rule;
  o.root_percentile = 0.05;
  o.selection_percentile = 0.05;
  o.two_param.p_load = ec.pbar;
  o.two_param.p_rat = ec.pbar;
  o.li_shi = ec.li_shi;

  const auto solve = [&](int mode) {
    prune_guard guard{mode};
    layout::process_model model{layout::square_die(spec.die_side_um), pc};
    if (ec.threads == 0) return run_statistical_insertion(net, model, o);
    thread_pool pool{ec.threads};
    return run_parallel_insertion(net, model, o, pool);
  };

  const auto pairwise = solve(-1);
  const auto tiled = solve(1);
  ASSERT_TRUE(pairwise.ok()) << pairwise.stats.abort_reason;
  ASSERT_TRUE(tiled.ok()) << tiled.stats.abort_reason;

  EXPECT_EQ(pairwise.num_buffers, tiled.num_buffers);
  EXPECT_EQ(pairwise.stats.candidates_created, tiled.stats.candidates_created);
  EXPECT_EQ(pairwise.stats.candidates_pruned, tiled.stats.candidates_pruned);
  EXPECT_EQ(pairwise.stats.merge_pairs, tiled.stats.merge_pairs);
  EXPECT_EQ(bits_of(pairwise.root_rat), bits_of(tiled.root_rat));
  for (tree::node_id n = 0; n < net.num_nodes(); ++n) {
    ASSERT_EQ(pairwise.assignment.has_buffer(n), tiled.assignment.has_buffer(n));
    if (pairwise.assignment.has_buffer(n)) {
      EXPECT_EQ(pairwise.assignment.buffer(n), tiled.assignment.buffer(n));
    }
  }
  EXPECT_EQ(pairwise.stats.tiled_prunes, 0u);
}

constexpr engine_case kEngineCases[] = {
    {"serial_2p_p90", pruning_kind::two_param, 0.9, 0, li_shi_mode::never},
    {"serial_2p_p90_li_shi", pruning_kind::two_param, 0.9, 0,
     li_shi_mode::always},
    {"serial_4p", pruning_kind::four_param, 0.5, 0, li_shi_mode::never},
    {"t1_2p_p90", pruning_kind::two_param, 0.9, 1, li_shi_mode::never},
    {"t2_2p_p90", pruning_kind::two_param, 0.9, 2, li_shi_mode::never},
    {"t8_2p_p90", pruning_kind::two_param, 0.9, 8, li_shi_mode::never},
    {"t8_2p_p90_li_shi", pruning_kind::two_param, 0.9, 8,
     li_shi_mode::always},
    {"t2_4p", pruning_kind::four_param, 0.5, 2, li_shi_mode::never},
    {"t8_4p", pruning_kind::four_param, 0.5, 8, li_shi_mode::never},
};

INSTANTIATE_TEST_SUITE_P(RulesThreadsLiShi, TiledEngineDifferential,
                         ::testing::ValuesIn(kEngineCases),
                         [](const ::testing::TestParamInfo<engine_case>& i) {
                           return std::string(i.param.name);
                         });

}  // namespace
}  // namespace vabi::core
