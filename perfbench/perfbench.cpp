// Whole-solve benchmark of the buffer-insertion library.
//
// One external steady_clock around each public solve call -- process-model
// characterization included -- on four workloads that stress different
// layers (see README.md in this directory for why each one exists and which
// end-to-end metric each per-layer number should move):
//
//   wid_20k        one 20k-sink WID net, 2P mean rule, intra-tree parallel
//   conf90_table1  the Table-1 nets p1..r3, 2P with pbar 0.9 and wire sizing
//   eco_10k        edit -> warm re-solve loop on a 10k-sink VPR-style session
//   batch_table1   journaled batches of Table-1-sized nets on T threads
//
// Every solve is checked (see the "check:" comment of each workload); a failed
// check counts in `failed` and makes the process exit 1. With --trace 1 the
// calls into each module are recorded as spans and the per-layer metrics are
// emitted; spans are taken only from this file, never inside the library.
//
//   vabi_perfbench --workload W --seed N --seconds S [--trace 0|1]
//                  [--workdir DIR] [--tiny] [--git-sha SHA]
//                  [--inject none|hash-mismatch|bad-seed]
//
// Prints one JSON object (result, context, metrics, spans) on stdout;
// perfbench/run.py builds this program and turns that into the reported line.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/solution_witness.hpp"
#include "core/journal.hpp"
#include "core/parallel.hpp"
#include "core/slab_cache.hpp"
#include "core/statistical_dp.hpp"
#include "device/characterize.hpp"
#include "device/transistor_model.hpp"
#include "layout/process_model.hpp"
#include "stats/kernels.hpp"
#include "stats/rng.hpp"
#include "timing/buffer_library.hpp"
#include "tree/benchmarks.hpp"
#include "tree/generators.hpp"
#include "tree/vpr_import.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace vabi;
using perfbench::tracer;

struct bench_config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< small inputs for the self-tests
  std::string inject = "none";
  std::string workdir = ".";
  std::string git_sha = "unknown";
};

std::size_t bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// The problem every workload solves: the paper's WID model with the
// heterogeneous spatial profile, budgets calibrated from the device model.
// ---------------------------------------------------------------------------

/// 5% L_eff sigma through the device characterization flow, as the paper
/// budgets each variation class (Section 5.1).
layout::variation_budgets calibrate_budgets() {
  const device::transistor_model model{device::transistor_model_config{},
                                       timing::standard_library()[0]};
  device::characterization_config cfg;
  cfg.samples = 4000;
  cfg.leff_sigma_frac = 0.05;
  const auto fit = device::characterize_buffer(model, cfg);
  const layout::class_budget per_class{fit.cap_sigma_pf / fit.cap_nominal_pf,
                                       fit.delay_sigma_ps / fit.delay_nominal_ps};
  return {per_class, per_class, per_class};
}

layout::process_model_config wid_config(const layout::variation_budgets& b) {
  layout::process_model_config c;
  c.mode = layout::wid_mode();
  c.budgets = b;
  c.spatial.profile = layout::spatial_profile::heterogeneous;
  return c;
}

/// 2P mean rule selecting for 95% timing yield.
core::stat_options mean_options() {
  core::stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 150.0;
  o.rule = core::pruning_kind::two_param;
  o.root_percentile = 0.05;
  o.selection_percentile = 0.05;
  return o;
}

/// The 2P_p90 regime: pbar_L = pbar_T = 0.9 plus a three-width wire menu.
core::stat_options p90_options() {
  core::stat_options o = mean_options();
  o.two_param.p_load = 0.9;
  o.two_param.p_rat = 0.9;
  o.wire_width_multipliers = {0.7, 1.0, 1.4};
  return o;
}

tree::routing_tree make_table1_net(const tree::benchmark_spec& spec,
                                   std::uint64_t bench_seed, bool tiny) {
  tree::random_tree_options g;
  g.num_sinks = tiny ? std::max<std::size_t>(16, spec.sinks / 16) : spec.sinks;
  g.die_side_um = spec.die_side_um;
  g.seed = stats::derive_seed(bench_seed, spec.seed);
  g.criticality_balance = 0.8;  // as tree::build_benchmark
  return tree::make_random_tree(g);
}

// ---------------------------------------------------------------------------
// Digests the correctness gates compare.
// ---------------------------------------------------------------------------

/// Root-RAT form plus the buffer and wire assignment, bit for bit.
std::uint64_t design_hash(const core::stat_result& r) {
  std::uint64_t h = core::form_hash(r.root_rat);
  const auto& a = r.assignment;
  for (tree::node_id n = 0; n < a.num_nodes(); ++n) {
    h = core::fnv1a_u64(a.has_buffer(n) ? a.buffer(n) + 1 : 0, h);
  }
  for (tree::node_id n = 0; n < r.wires.num_nodes(); ++n) {
    h = core::fnv1a_u64(r.wires.width(n), h);
  }
  return core::fnv1a_u64(r.num_buffers, h);
}

/// The deterministic dp_stats counters. `allocations` depends on which
/// worker's arenas were warm, so it is only included for single-threaded
/// solves on fresh state.
std::uint64_t counts_hash(const core::dp_stats& s, bool with_allocations) {
  std::uint64_t h = core::fnv1a_seed;
  for (std::size_t v :
       {s.candidates_created, s.candidates_pruned, s.merge_pairs,
        s.peak_list_size, s.peak_terms, s.dense_forms, s.terms_merged,
        s.dominance_prefilter_hits, s.li_shi_nodes, s.cache_hits,
        s.cache_misses, s.nodes_reused, s.tiled_prunes, s.tile_prefilter_hits,
        s.pairs_batched}) {
    h = core::fnv1a_u64(v, h);
  }
  if (with_allocations) h = core::fnv1a_u64(s.allocations, h);
  return h;
}

// ---------------------------------------------------------------------------
// Run state shared by the workloads.
// ---------------------------------------------------------------------------

struct metric {
  double value = 0.0;
  std::string unit;
  std::string base;  ///< for ratios: the metric holding the denominator
};

/// Per-solve dp_stats accumulated over a run.
struct counter_sums {
  double solves = 0, created = 0, pruned = 0, merge_pairs = 0, allocations = 0,
         terms_merged = 0, tiled_prunes = 0, pairs_batched = 0,
         tile_prefilter_hits = 0, cache_hits = 0, cache_misses = 0,
         nodes_reused = 0;
  std::size_t peak_list = 0, peak_terms = 0;

  void add(const core::dp_stats& s) {
    solves += 1;
    created += static_cast<double>(s.candidates_created);
    pruned += static_cast<double>(s.candidates_pruned);
    merge_pairs += static_cast<double>(s.merge_pairs);
    allocations += static_cast<double>(s.allocations);
    terms_merged += static_cast<double>(s.terms_merged);
    tiled_prunes += static_cast<double>(s.tiled_prunes);
    pairs_batched += static_cast<double>(s.pairs_batched);
    tile_prefilter_hits += static_cast<double>(s.tile_prefilter_hits);
    cache_hits += static_cast<double>(s.cache_hits);
    cache_misses += static_cast<double>(s.cache_misses);
    nodes_reused += static_cast<double>(s.nodes_reused);
    peak_list = std::max(peak_list, s.peak_list_size);
    peak_terms = std::max(peak_terms, s.peak_terms);
  }
  double mean(double total) const { return ratio(total, solves); }
};

class run_state {
 public:
  explicit run_state(const bench_config& cfg)
      : cfg(cfg), tr(cfg.trace), threads(bench_threads()) {}

  const bench_config& cfg;
  tracer tr;
  const std::size_t threads;

  // End-to-end samples.
  std::vector<double> setup_s;    ///< one per set-up repetition
  std::vector<double> latency_s;  ///< one per timed public call
  std::size_t solves = 0;         ///< nets solved by the timed calls
  double cpu_s = 0.0;             ///< CPU time of the timed calls
  double loop_peak_rss_mb = 0.0;  ///< peak RSS when the timed loop ended

  // Per-layer samples.
  std::vector<double> generate_s, calibrate_s;
  std::vector<double> core_s, characterize_s, unclocked_s;
  std::size_t traced_calls = 0, spans_in_calls = 0;  ///< for trace.overhead_s
  double span_cost_s = 0.0;  ///< what keeping one span costs
  std::vector<double> devices, sources;  ///< per characterized net
  counter_sums counts;
  std::map<std::string, metric> extra;  ///< workload-specific layer metrics

  // Correctness.
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::uint64_t counts_digest = core::fnv1a_seed;

  /// Times one set-up repetition. The workloads set up again after every
  /// sample, so the median set-up time covers the same stretch of the run
  /// as the samples do; at least min_setups() repetitions are made.
  template <class F>
  void setup_rep(F&& fn) {
    tr.set_request(-1);
    setup_s.push_back(tr.time("bench.setup", std::forward<F>(fn)));
  }
  std::size_t min_setups() const { return cfg.tiny ? 2 : 5; }

  /// Keep sampling while the run's measuring time lasts (at least `min`).
  bool more(std::size_t done, std::size_t min = 2) const {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - loop_start_)
            .count();
    return done < min || elapsed < cfg.seconds;
  }
  void start_loop() { loop_start_ = std::chrono::steady_clock::now(); }
  /// Ends the measured stretch: the peak RSS is read here, before any
  /// reference solve or audit that runs after the loop.
  void end_loop() { loop_peak_rss_mb = peak_rss_mb(); }

  /// Times one public call; `nets` is how many nets it solves.
  template <class F>
  double timed_call(const char* name, std::size_t nets, F&& fn) {
    const double c0 = cpu_seconds();
    const std::size_t spans_before = tr.spans().size();
    const double s = tr.time(name, std::forward<F>(fn));
    cpu_s += cpu_seconds() - c0;
    if (tr.recording()) {
      ++traced_calls;
      spans_in_calls += tr.spans().size() - spans_before;
    }
    latency_s.push_back(s);
    solves += nets;
    return s;
  }

  /// Records one solve's verdict.
  void tally(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  /// Equality gate. With --inject hash-mismatch the first comparison of
  /// the run is made against a corrupted expectation.
  bool same(std::uint64_t got, std::uint64_t want, const std::string& what) {
    if (cfg.inject == "hash-mismatch" && !injected_) {
      injected_ = true;
      want ^= 1;
    }
    return require(got == want, what + " mismatch");
  }
  bool require(bool ok, const std::string& what) {
    if (!ok && failures.size() < 16) failures.push_back(what);
    return ok;
  }

  void digest(std::uint64_t v) { counts_digest = core::fnv1a_u64(v, counts_digest); }

 private:
  std::chrono::steady_clock::time_point loop_start_;
  bool injected_ = false;
};

/// Builds a fresh process model of the same config and characterizes every
/// (node, buffer type) of `net` into it, the way the one-shot solvers do
/// before solving: the solve's own model and results stay untouched.
/// Returns the characterization time.
double characterize_fresh(run_state& st, const tree::routing_tree& net,
                          layout::bbox die,
                          const layout::process_model_config& mc,
                          const timing::buffer_library& lib) {
  layout::process_model fresh{die, mc};
  const double s = st.tr.time("layout.device_cache", [&] {
    const core::device_cache cache{net, fresh, lib};
  });
  st.devices.push_back(static_cast<double>((net.num_nodes() - 1) * lib.size()));
  st.sources.push_back(static_cast<double>(fresh.space().size()));
  return s;
}

// ---------------------------------------------------------------------------
// wid_20k: characterization-heavy single large net on T threads.
// check: every solve's root-RAT form, assignment and exact counters equal a
// serial solve_statistical_insertion reference, solved after the timed loop
// so that neither its time nor its memory counts.
// ---------------------------------------------------------------------------

void run_wid_20k(run_state& st) {
  auto net_options = [&](std::uint64_t seed) {
    tree::random_tree_options g;
    g.num_sinks = st.cfg.tiny ? 400 : 20000;
    g.die_side_um = 8000.0;
    g.criticality_balance = 0.8;
    g.seed = stats::derive_seed(seed, 1);
    return g;
  };
  std::optional<tree::routing_tree> net;
  layout::variation_budgets budgets;
  auto setup = [&] {
    st.setup_rep([&] {
      st.generate_s.push_back(st.tr.time("tree.make_random_tree", [&] {
        net.emplace(tree::make_random_tree(net_options(st.cfg.seed)));
      }));
      st.calibrate_s.push_back(st.tr.time("device.characterize_buffer",
                                          [&] { budgets = calibrate_budgets(); }));
    });
  };
  setup();
  const layout::bbox die = layout::square_die(8000.0);
  const auto mc = wid_config(budgets);
  const core::stat_options opts = mean_options();

  // Digests of every solve that succeeded, checked once the loop is over.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> solved;
  {
    core::thread_pool pool{st.threads};
    st.start_loop();
    for (std::int64_t i = 0; st.more(static_cast<std::size_t>(i)); ++i) {
      st.tr.set_request(i);
      st.tr.time("bench.sample", [&] {
        std::optional<layout::process_model> model;
        st.tr.time("layout.process_model", [&] { model.emplace(die, mc); });
        std::optional<core::solve_outcome<core::stat_result>> out;
        const double s = st.timed_call("core.solve_parallel_insertion", 1, [&] {
          out.emplace(core::solve_parallel_insertion(*net, *model, opts, pool));
        });
        if (st.require(out->ok(), "wid_20k solve failed")) {
          const auto& r = **out;
          st.core_s.push_back(s);
          st.unclocked_s.push_back(s - r.stats.wall_seconds);
          st.counts.add(r.stats);
          solved.emplace_back(design_hash(r), counts_hash(r.stats, st.threads == 1));
        } else {
          st.tally(false);
        }
        if (st.tr.recording()) {
          st.characterize_s.push_back(characterize_fresh(st, *net, die, mc, opts.library));
        }
      });
      setup();
    }
    while (st.setup_s.size() < st.min_setups()) setup();
    st.end_loop();
  }

  st.tr.set_request(-1);
  const std::uint64_t ref_seed =
      st.cfg.inject == "bad-seed" ? st.cfg.seed + 1 : st.cfg.seed;
  const tree::routing_tree ref_net = tree::make_random_tree(net_options(ref_seed));
  layout::process_model ref_model{die, mc};
  std::optional<core::solve_outcome<core::stat_result>> reference;
  st.tr.time("core.solve_statistical_insertion", [&] {
    reference.emplace(core::solve_statistical_insertion(ref_net, ref_model, opts));
  });
  if (!st.require(reference->ok(), "reference solve failed")) {
    for (std::size_t i = 0; i < solved.size(); ++i) st.tally(false);
    return;
  }
  const std::uint64_t ref_design = design_hash(**reference);
  const std::uint64_t ref_counts = counts_hash((*reference)->stats, st.threads == 1);
  st.digest(ref_counts);
  st.tr.time("bench.check", [&] {
    for (const auto& [design, counts] : solved) {
      st.tally(st.same(design, ref_design, "wid_20k root form/assignment") &&
               st.same(counts, ref_counts, "wid_20k dp_stats counters"));
    }
  });
}

// ---------------------------------------------------------------------------
// conf90_table1: prune-dominated confidence rule on the Table-1 nets.
// check: analysis::audit_solution (bit-for-bit re-derivation + 64-sample MC
// spot check) on every net's first solve; every later solve of the same net
// must repeat its design and exact counters.
// ---------------------------------------------------------------------------

void run_conf90_table1(run_state& st) {
  // Two different nets of each size: more distinct inputs per run make the
  // figures depend less on the seed.
  std::vector<tree::benchmark_spec> specs;
  for (std::uint64_t copy = 0; copy < 2; ++copy) {
    for (const char* name : {"p1", "p2", "r1", "r2", "r3"}) {
      tree::benchmark_spec spec = *tree::find_benchmark(name);
      spec.name += "#" + std::to_string(copy);
      spec.seed += 1000 * copy;
      specs.push_back(spec);
    }
  }
  std::vector<tree::routing_tree> nets;
  layout::variation_budgets budgets;
  auto setup = [&] {
    st.setup_rep([&] {
      st.generate_s.push_back(st.tr.time("tree.make_random_tree", [&] {
        nets.clear();
        for (const auto& spec : specs) {
          nets.push_back(make_table1_net(spec, st.cfg.seed, st.cfg.tiny));
        }
      }));
      st.calibrate_s.push_back(st.tr.time("device.characterize_buffer",
                                          [&] { budgets = calibrate_budgets(); }));
    });
  };
  setup();
  const auto mc = wid_config(budgets);
  const core::stat_options opts = p90_options();

  struct first_solve {
    core::stat_result result;
    std::size_t num_sources = 0;
    std::uint64_t design = 0, counts = 0;
  };
  std::vector<std::optional<first_solve>> first(nets.size());
  std::vector<bool> first_ok(nets.size(), false);

  // Whole passes over the nets; each net's solve is one sample.
  std::int64_t sample = 0;
  st.start_loop();
  for (std::size_t pass = 0; st.more(pass); ++pass) {
    for (std::size_t j = 0; j < nets.size(); ++j, ++sample) {
      st.tr.set_request(sample);
      st.tr.time("bench.sample", [&] {
        const layout::bbox die = layout::square_die(specs[j].die_side_um);
        std::optional<layout::process_model> model;
        st.tr.time("layout.process_model", [&] { model.emplace(die, mc); });
        std::optional<core::solve_outcome<core::stat_result>> out;
        const double s = st.timed_call("core.solve_statistical_insertion", 1, [&] {
          out.emplace(core::solve_statistical_insertion(nets[j], *model, opts));
        });
        bool ok = st.require(out->ok(), "conf90 solve failed on " + specs[j].name);
        if (ok) {
          auto& r = **out;
          st.core_s.push_back(s);
          st.unclocked_s.push_back(s - r.stats.wall_seconds);
          st.counts.add(r.stats);
          const std::uint64_t design = design_hash(r);
          // Arena warm-up makes `allocations` differ on a net's first solve.
          const std::uint64_t counts = counts_hash(r.stats, false);
          if (pass == 0) {
            first[j] = first_solve{std::move(r), model->space().size(), design, counts};
            st.digest(counts);
          } else {
            st.tr.time("bench.check", [&] {
              ok = first[j] &&
                   st.same(design, first[j]->design,
                           specs[j].name + " repeated design") &&
                   st.same(counts, first[j]->counts,
                           specs[j].name + " repeated dp_stats counters");
            });
          }
        }
        // A first solve's verdict waits for its audit below.
        if (pass == 0) {
          first_ok[j] = ok;
        } else {
          st.tally(ok);
        }
        if (st.tr.recording()) {
          st.characterize_s.push_back(
              characterize_fresh(st, nets[j], die, mc, opts.library));
        }
      });
      setup();
    }
  }
  while (st.setup_s.size() < st.min_setups()) setup();
  st.end_loop();

  // Audit every net's first solve (outside the measured loop).
  st.tr.set_request(-1);
  for (std::size_t j = 0; j < nets.size(); ++j) {
    if (!first_ok[j]) {
      st.tally(false);
      continue;
    }
    const tree::routing_tree audit_net =
        st.cfg.inject == "bad-seed"
            ? make_table1_net(specs[j], st.cfg.seed + 1, st.cfg.tiny)
            : nets[j];
    analysis::witness_report report;
    st.tr.time("analysis.audit_solution", [&] {
      report = analysis::audit_solution(
          audit_net, opts, mc, layout::square_die(specs[j].die_side_um),
          first[j]->num_sources, first[j]->result);
    });
    const std::string why = report.mismatch.empty()
                                ? (report.mc_detail.empty() ? report.skip_reason
                                                            : report.mc_detail)
                                : report.mismatch;
    st.tally(st.require(report.ok(), specs[j].name + " audit failed: " + why));
  }
}

// ---------------------------------------------------------------------------
// eco_10k: closed loop of edit -> warm session.solve on a VPR-style net.
// The loop runs in episodes: set-up (net, calibration, session, cold fill),
// then the same seeded script of 400 edits. Fresh episodes keep the session's
// growth -- and so peak RSS -- independent of how fast the edits run.
// check: every episode repeats the first one's cold-fill counters and its
// designs and exact counters edit for edit. After the timed loop one more
// episode replays the script, and its first warm result and every 100th must
// equal solve_cold on the same edited tree and the first episode's design.
// ---------------------------------------------------------------------------

struct eco_state {
  eco_state(tree::routing_tree n, layout::bbox d,
            const layout::process_model_config& mc)
      : net(std::move(n)), die(d), model(die, mc), session(model) {}
  eco_state(const eco_state&) = delete;
  eco_state& operator=(const eco_state&) = delete;

  tree::routing_tree net;
  layout::bbox die;
  layout::process_model model;
  core::solve_session session;  ///< holds a reference to `model`
};

/// One seeded edit; moves stay inside the model's die.
tree::tree_edit next_edit(std::mt19937_64& rng, const tree::routing_tree& net,
                          const std::vector<tree::node_id>& sinks,
                          const layout::bbox& box) {
  switch (rng() % 3) {
    case 0: {
      const tree::node_id s = sinks[rng() % sinks.size()];
      std::uniform_real_distribution<double> d(-60.0, 60.0);
      const layout::point at = net.node(s).location;
      const double x = std::clamp(at.x + d(rng), box.lo.x, box.hi.x);
      const double y = std::clamp(at.y + d(rng), box.lo.y, box.hi.y);
      return tree::tree_edit::move_sink(s, {x, y});
    }
    case 1: {
      const tree::node_id s = sinks[rng() % sinks.size()];
      std::uniform_real_distribution<double> d(-250.0, 250.0);
      return tree::tree_edit::retarget_rat(s, net.node(s).sink_rat_ps + d(rng));
    }
    default: {
      const auto n = static_cast<tree::node_id>(1 + rng() % (net.num_nodes() - 1));
      std::uniform_real_distribution<double> len(1.0, 600.0);
      return tree::tree_edit::resize_wire(n, len(rng));
    }
  }
}

void run_eco_10k(run_state& st) {
  tree::vpr_net_options vo;
  vo.num_sinks = st.cfg.tiny ? 400 : 10000;
  vo.seed = stats::derive_seed(st.cfg.seed, 3);
  core::stat_options opts = mean_options();
  opts.wire = {vo.wire_res_per_um, vo.wire_cap_per_um};
  const timing::buffer_library& lib = opts.library;
  const std::size_t edits = st.cfg.tiny ? 40 : 400;
  const std::size_t check_every = st.cfg.tiny ? 10 : 100;

  std::optional<std::uint64_t> cold_counts;
  // Net, calibration, session and its cold fill, whose counters must repeat
  // the first episode's; null if the fill failed.
  auto open_episode = [&]() -> std::unique_ptr<eco_state> {
    std::optional<tree::routing_tree> net;
    st.generate_s.push_back(st.tr.time("tree.make_vpr_style_net", [&] {
      net.emplace(tree::make_vpr_style_net(vo));
    }));
    layout::variation_budgets budgets;
    st.calibrate_s.push_back(st.tr.time("device.characterize_buffer",
                                        [&] { budgets = calibrate_budgets(); }));
    layout::bbox die = net->bounding_box();
    die.expand({die.lo.x - 1.0, die.lo.y - 1.0});
    die.expand({die.hi.x + 1.0, die.hi.y + 1.0});
    auto eco = std::make_unique<eco_state>(std::move(*net), die, wid_config(budgets));
    std::optional<core::solve_outcome<core::stat_result>> fill;
    st.tr.time("core.session_solve", [&] {
      fill.emplace(eco->session.solve(eco->net, opts));
    });
    if (!st.require(fill->ok(), "eco cold fill failed")) return nullptr;
    const std::uint64_t c = counts_hash((*fill)->stats, false);
    if (!cold_counts) {
      cold_counts = c;
      st.digest(c);
    } else if (!st.same(c, *cold_counts, "eco cold-fill dp_stats counters")) {
      return nullptr;
    }
    return eco;
  };

  std::vector<std::uint64_t> first_design, first_counts;
  double edit_us = 0.0;
  std::int64_t sample = 0;
  st.start_loop();
  for (std::size_t episode = 0; st.more(episode, st.min_setups()); ++episode) {
    std::unique_ptr<eco_state> eco;
    st.setup_rep([&] { eco = open_episode(); });
    if (!eco) {
      st.tally(false);
      return;
    }

    const auto sinks = eco->net.sinks();
    std::mt19937_64 rng{stats::derive_seed(st.cfg.seed, 4)};  // same script
    for (std::size_t e = 0; e < edits; ++e, ++sample) {
      st.tr.set_request(sample);
      const tree::tree_edit edit = next_edit(rng, eco->net, sinks, eco->die);
      st.tr.time("bench.sample", [&] {
        std::optional<core::solve_outcome<core::stat_result>> warm;
        double solve_s = 0.0;
        st.timed_call("bench.request", 1, [&] {
          edit_us += 1e6 * st.tr.time("tree.apply_edit",
                                      [&] { eco->net.apply_edit(edit); });
          solve_s = st.tr.time("core.session_solve", [&] {
            warm.emplace(eco->session.solve(eco->net, opts));
          });
        });
        bool ok = st.require(warm->ok(), "eco warm solve failed");
        if (ok) {
          const auto& r = **warm;
          st.core_s.push_back(solve_s);
          st.unclocked_s.push_back(solve_s - r.stats.wall_seconds);
          st.counts.add(r.stats);
          const std::uint64_t design = design_hash(r);
          const std::uint64_t counts = counts_hash(r.stats, false);
          if (episode == 0) {
            first_design.push_back(design);
            first_counts.push_back(counts);
            st.digest(counts);
          } else {
            ok = st.same(design, first_design[e], "eco repeated design") &&
                 st.same(counts, first_counts[e], "eco repeated dp_stats counters");
          }
        } else if (episode == 0) {
          first_design.push_back(0);
          first_counts.push_back(0);
        }
        st.tally(ok);
        if (st.tr.recording()) {
          // Only a moved sink needs new device forms in a warm solve.
          layout::process_model fresh{eco->die, eco->model.config()};
          const bool moved = edit.op == tree::tree_edit::op_kind::move_sink;
          st.characterize_s.push_back(st.tr.time("layout.characterize", [&] {
            if (!moved) return;
            for (timing::buffer_index b = 0; b < lib.size(); ++b) {
              fresh.characterize(edit.location, lib[b].cap_pf, lib[b].delay_ps);
            }
          }));
          st.devices.push_back(moved ? static_cast<double>(lib.size()) : 0.0);
        }
      });
    }
    st.sources.push_back(static_cast<double>(eco->model.space().size()));
  }
  st.end_loop();

  // The check episode: untimed, after the peak RSS was read.
  st.tr.set_request(-1);
  const auto eco = open_episode();
  if (!eco) {
    st.tally(false);
    return;
  }
  const auto sinks = eco->net.sinks();
  std::mt19937_64 rng{stats::derive_seed(st.cfg.seed, 4)};
  for (std::size_t e = 0; e < edits; ++e) {
    eco->net.apply_edit(next_edit(rng, eco->net, sinks, eco->die));
    std::optional<core::solve_outcome<core::stat_result>> warm, cold;
    st.tr.time("core.session_solve", [&] {
      warm.emplace(eco->session.solve(eco->net, opts));
    });
    if (e % check_every != 0) continue;
    st.tr.time("core.session_solve_cold", [&] {
      cold.emplace(eco->session.solve_cold(eco->net, opts));
    });
    st.tally(st.require(warm->ok() && cold->ok(), "eco check-episode solve failed") &&
             st.same(design_hash(**warm), design_hash(**cold),
                     "eco warm vs cold root form/assignment") &&
             st.same(design_hash(**warm), first_design[e],
                     "eco check-episode design"));
  }
  st.extra["tree.apply_edit_us"] = {
      ratio(edit_us, static_cast<double>(st.latency_s.size())), "us", ""};
}

// ---------------------------------------------------------------------------
// batch_table1: journaled multi-net throughput, serial engine per net.
// check: every slot ok; the journal read back from disk holds every job with
// the in-memory root RAT; every batch repeats the first batch's designs and
// exact counters slot for slot.
// ---------------------------------------------------------------------------

void run_batch_table1(run_state& st) {
  const auto& table1 = tree::paper_benchmarks();
  const std::size_t copies = st.cfg.tiny ? 1 : 2;
  std::vector<tree::benchmark_spec> specs;
  for (std::size_t c = 0; c < copies; ++c) {
    for (const auto& spec : table1) {
      tree::benchmark_spec s = spec;
      s.seed += 1000 * c;  // each copy is a different net
      specs.push_back(s);
    }
  }
  std::vector<tree::routing_tree> nets;
  std::vector<core::batch_job> jobs;
  layout::variation_budgets budgets;
  auto setup = [&] {
    st.setup_rep([&] {
      st.generate_s.push_back(st.tr.time("tree.make_random_tree", [&] {
        nets.clear();
        for (const auto& spec : specs) {
          nets.push_back(make_table1_net(spec, st.cfg.seed, st.cfg.tiny));
        }
      }));
      st.calibrate_s.push_back(st.tr.time("device.characterize_buffer",
                                          [&] { budgets = calibrate_budgets(); }));
      jobs.assign(nets.size(), core::batch_job{});
      for (std::size_t j = 0; j < nets.size(); ++j) {
        jobs[j].tree = &nets[j];
        jobs[j].options = mean_options();
        jobs[j].model = wid_config(budgets);
        jobs[j].die = layout::square_die(specs[j].die_side_um);
      }
    });
  };
  setup();

  core::batch_solver::config scfg;
  scfg.num_threads = st.threads;
  core::batch_solver solver{scfg};
  const std::filesystem::path dir = std::filesystem::path(st.cfg.workdir) / "journal";
  std::filesystem::create_directories(dir);
  core::batch_journal_options jopts;
  jopts.path = (dir / "batch_table1.vjl").string();

  std::vector<std::uint64_t> first_design, first_counts;
  std::vector<double> util, capacity, journal_cost, bytes, checkpoints;
  st.start_loop();
  for (std::int64_t b = 0; st.more(static_cast<std::size_t>(b)); ++b) {
    st.tr.set_request(b);
    const bool traced = st.tr.recording();
    st.tr.time("bench.sample", [&] {
      std::filesystem::remove(jopts.path);
      std::optional<core::solve_outcome<core::journaled_batch>> out;
      const double s = st.timed_call("core.solve_journaled", jobs.size(), [&] {
        out.emplace(solver.solve_journaled(jobs, jopts));
      });
      if (!st.require(out->ok(), "journaled batch failed: " +
                                     (out->ok() ? "" : out->error().message()))) {
        for (std::size_t j = 0; j < jobs.size(); ++j) st.tally(false);
        return;
      }
      const auto& batch = **out;
      std::optional<core::solve_outcome<core::journal_contents>> back;
      st.tr.time("core.read_journal", [&] { back.emplace(core::read_journal(jopts.path)); });
      std::vector<const core::journal_record*> record(jobs.size(), nullptr);
      if (st.require(back->ok(), "journal read-back failed")) {
        for (const auto& rec : (*back)->records) {
          if (rec.job_index < record.size()) record[rec.job_index] = &rec;
        }
      }
      double job_wall = 0.0;
      const bool first_batch = first_design.empty();
      st.tr.time("bench.check", [&] {
        for (std::size_t j = 0; j < jobs.size(); ++j) {
          const auto& slot = batch.slots[j];
          bool ok = st.require(slot.ok(), "batch slot " + std::to_string(j) + " failed");
          if (ok) {
            const auto& r = slot->result;
            job_wall += r.stats.wall_seconds;
            st.counts.add(r.stats);
            const std::uint64_t design = design_hash(r);
            const std::uint64_t counts = counts_hash(r.stats, false);
            ok = st.require(record[j] != nullptr && record[j]->ok,
                            "journal lacks job " + std::to_string(j)) &&
                 st.same(core::form_hash(record[j]->result.root_rat),
                         core::form_hash(r.root_rat),
                         "journal root RAT of job " + std::to_string(j));
            if (first_batch) {
              first_design.push_back(design);
              first_counts.push_back(counts);
              st.digest(counts);
            } else if (ok) {
              ok = st.same(design, first_design[j],
                           "batch job " + std::to_string(j) + " repeated design") &&
                   st.same(counts, first_counts[j],
                           "batch job " + std::to_string(j) + " repeated counters");
            }
          } else if (first_batch) {
            first_design.push_back(0);
            first_counts.push_back(0);
          }
          st.tally(ok);
        }
      });
      capacity.push_back(s * static_cast<double>(st.threads));
      util.push_back(ratio(job_wall, capacity.back()));
      st.core_s.push_back(s);
      st.unclocked_s.push_back(s - job_wall / static_cast<double>(st.threads));
      bytes.push_back(static_cast<double>(batch.journal_bytes));
      checkpoints.push_back(static_cast<double>(batch.checkpoints));
      if (traced) {
        // Paired with the batch just timed, so slow host stretches cancel.
        journal_cost.push_back(s - st.tr.time("core.solve_outcomes", [&] {
          (void)solver.solve_outcomes(jobs);
        }));
        // Characterization share of the batch call: every net's device
        // forms, spread over the batch's T workers.
        double charac = 0.0;
        for (std::size_t j = 0; j < nets.size(); ++j) {
          charac += characterize_fresh(st, nets[j], jobs[j].die, jobs[j].model,
                                       jobs[j].options.library);
        }
        st.characterize_s.push_back(charac / static_cast<double>(st.threads));
      }
    });
    setup();
  }
  while (st.setup_s.size() < st.min_setups()) setup();
  st.end_loop();
  std::filesystem::remove(jopts.path);
  st.extra["batch.util"] = {median(util), "ratio", "batch.capacity_s"};
  st.extra["batch.capacity_s"] = {median(capacity), "s", ""};
  st.extra["journal.bytes"] = {median(bytes), "bytes", ""};
  st.extra["journal.checkpoints"] = {median(checkpoints), "count", ""};
  if (!journal_cost.empty()) {
    st.extra["journal.overhead_s"] = {median(journal_cost), "s", ""};
  }
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::map<std::string, metric> collect_metrics(const run_state& st) {
  std::map<std::string, metric> m;
  // End to end.
  m["setup_s"] = {median(st.setup_s), "s", ""};
  m["solve_s_p50"] = {median(st.latency_s), "s", ""};
  m["solve_s_p95"] = {percentile(st.latency_s, 0.95), "s", ""};
  m["solves_per_s"] = {ratio(static_cast<double>(st.solves), sum(st.latency_s)), "1/s", ""};
  m["cpu_s_per_solve"] = {ratio(st.cpu_s, static_cast<double>(st.solves)), "s", ""};
  m["peak_rss_mb"] = {st.loop_peak_rss_mb, "MB", ""};
  m["failed_share"] = {ratio(static_cast<double>(st.failed),
                             static_cast<double>(st.attempted)),
                       "ratio", "attempted"};
  m["attempted"] = {static_cast<double>(st.attempted), "count", ""};

  // Per layer.
  const counter_sums& c = st.counts;
  const double charac = median(st.characterize_s);
  const double core = median(st.core_s);
  m["tree.generate_s"] = {median(st.generate_s), "s", ""};
  m["device.calibrate_s"] = {median(st.calibrate_s), "s", ""};
  m["layout.characterize_s"] = {charac, "s", ""};
  m["layout.devices"] = {ratio(sum(st.devices), static_cast<double>(st.devices.size())),
                         "count", ""};
  m["layout.sources"] = {ratio(sum(st.sources), static_cast<double>(st.sources.size())),
                         "count", ""};
  m["core.solve_s"] = {core, "s", ""};
  m["core.dp_s"] = {core - charac, "s", ""};  // derived
  m["core.unclocked_s"] = {median(st.unclocked_s), "s", ""};
  m["core.candidates_created"] = {c.mean(c.created), "count", ""};
  m["core.prune_ratio"] = {ratio(c.pruned, c.created), "ratio",
                           "core.candidates_created"};
  m["core.merge_pairs"] = {c.mean(c.merge_pairs), "count", ""};
  m["core.peak_list_size"] = {static_cast<double>(c.peak_list), "count", ""};
  m["core.allocations"] = {c.mean(c.allocations), "count", ""};
  m["prune.tiled_prunes"] = {c.mean(c.tiled_prunes), "count", ""};
  m["prune.pairs_batched"] = {c.mean(c.pairs_batched), "count", ""};
  m["prune.prefilter_ratio"] = {ratio(c.tile_prefilter_hits, c.pairs_batched),
                                "ratio", "prune.pairs_batched"};
  m["stats.terms_merged"] = {c.mean(c.terms_merged), "count", ""};
  m["stats.peak_terms"] = {static_cast<double>(c.peak_terms), "count", ""};
  m["cache.hits"] = {c.mean(c.cache_hits), "count", ""};
  m["cache.misses"] = {c.mean(c.cache_misses), "count", ""};
  m["cache.reuse_base"] = {c.mean(c.nodes_reused + c.cache_misses), "count", ""};
  m["cache.reuse_ratio"] = {ratio(c.nodes_reused, c.nodes_reused + c.cache_misses),
                            "ratio", "cache.reuse_base"};
  // Derived: what the spans kept inside one traced timed call cost.
  m["trace.overhead_s"] = {
      st.span_cost_s * ratio(static_cast<double>(st.spans_in_calls),
                             static_cast<double>(st.traced_calls)),
      "s", ""};
  // Layers a workload does not exercise read 0.
  m["tree.apply_edit_us"] = {0.0, "us", ""};
  m["journal.bytes"] = {0.0, "bytes", ""};
  m["journal.checkpoints"] = {0.0, "count", ""};
  m["journal.overhead_s"] = {0.0, "s", ""};
  m["batch.capacity_s"] = {0.0, "s", ""};
  m["batch.util"] = {0.0, "ratio", "batch.capacity_s"};
  for (const auto& [name, value] : st.extra) m[name] = value;
  return m;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const run_state& st) {
  std::ostringstream os;
  os << "{\"workload\": \"" << st.cfg.workload << "\""
     << ", \"attempted\": " << st.attempted << ", \"failed\": " << st.failed
     << ", \"failures\": [";
  for (std::size_t i = 0; i < st.failures.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(st.failures[i]) << '"';
  }
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(st.counts_digest));
  os << "], \"context\": {\"git_sha\": \"" << json_escape(st.cfg.git_sha)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
#ifdef NDEBUG
     << ", \"ndebug\": true"
#else
     << ", \"ndebug\": false"
#endif
     << ", \"isa\": \"" << stats::kernels::to_string(stats::kernels::active_isa())
     << "\", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"threads\": " << st.threads << ", \"seed\": " << st.cfg.seed
     << ", \"seconds\": " << num(st.cfg.seconds)
     << ", \"tiny\": " << (st.cfg.tiny ? "true" : "false")
     << ", \"solve_samples\": " << st.latency_s.size()
     << ", \"setup_samples\": " << st.setup_s.size()
     << ", \"counts_digest\": \"" << digest << "\"}, \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : collect_metrics(st)) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << num(m.value)
       << ", \"unit\": \"" << m.unit << '"';
    if (!m.base.empty()) os << ", \"base\": \"" << m.base << '"';
    os << '}';
    first = false;
  }
  os << "}, \"spans\": [";
  first = true;
  for (const auto& s : st.tr.spans()) {
    os << (first ? "" : ", ") << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"request\": " << s.request
       << ", \"start_us\": " << num(s.start_us) << ", \"dur_us\": " << num(s.dur_us)
       << '}';
    first = false;
  }
  os << "]}";
  std::cout << os.str() << std::endl;
}

int usage(const std::string& why) {
  std::cerr << "vabi_perfbench: " << why << "\n"
            << "usage: vabi_perfbench --workload wid_20k|conf90_table1|eco_10k|"
               "batch_table1 --seed N --seconds S [--trace 0|1] [--workdir DIR]\n"
               "                      [--tiny] [--git-sha SHA] "
               "[--inject none|hash-mismatch|bad-seed]\n";
  return 2;
}

/// A different code path is measured when a build is not optimized or when
/// an environment variable pins a kernel, prune path, thread count or fault.
std::string refusal() {
#ifndef NDEBUG
  return "refusing to measure: assertions are enabled (not a Release build)";
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return std::string("refusing to measure: build type ") + PERFBENCH_BUILD_TYPE;
  }
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::string key = kv.substr(0, kv.find('='));
    if (key.rfind("VABI_FORCE_", 0) == 0 || key == "VABI_THREADS" ||
        key == "VABI_FAULT_SPEC") {
      return "refusing to measure: " + key + " is set";
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  bench_config cfg;
  bool have_seed = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
        return argv[++i];
      };
      if (a == "--workload") {
        cfg.workload = value();
      } else if (a == "--seed") {
        const std::string v = value();
        std::size_t used = 0;
        cfg.seed = std::stoull(v, &used);
        if (used != v.size() || v[0] == '-') throw std::invalid_argument("bad --seed " + v);
        have_seed = true;
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (a == "--trace") {
        cfg.trace = value() == "1";
      } else if (a == "--workdir") {
        cfg.workdir = value();
      } else if (a == "--tiny") {
        cfg.tiny = true;
      } else if (a == "--git-sha") {
        cfg.git_sha = value();
      } else if (a == "--inject") {
        cfg.inject = value();
      } else {
        return usage("unknown option " + a);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!have_seed) return usage("--seed is required");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be > 0");
  if (cfg.inject != "none" && cfg.inject != "hash-mismatch" && cfg.inject != "bad-seed") {
    return usage("unknown --inject " + cfg.inject);
  }
  const std::map<std::string, std::function<void(run_state&)>> workloads = {
      {"wid_20k", run_wid_20k},
      {"conf90_table1", run_conf90_table1},
      {"eco_10k", run_eco_10k},
      {"batch_table1", run_batch_table1},
  };
  const auto it = workloads.find(cfg.workload);
  if (it == workloads.end()) return usage("unknown --workload " + cfg.workload);
  if (const std::string why = refusal(); !why.empty()) {
    std::cerr << "vabi_perfbench: " << why << "\n";
    return 3;
  }

  run_state st{cfg};
  try {
    it->second(st);
  } catch (const std::exception& e) {
    st.require(false, std::string("exception: ") + e.what());
    st.tally(false);
  }
  if (st.attempted == 0) st.tally(st.require(false, "no solve attempted"));
  if (cfg.trace) st.span_cost_s = st.tr.span_cost_s();
  print_result(st);
  return st.failed == 0 && st.failures.empty() ? 0 : 1;
}
