// Theorem 8, executed: randomized flow imitation reaches
//   (1) max-avg discrepancy <= d/4 + O(sqrt(d·log n)) (with dummy preload),
//   (2) max-min discrepancy O(sqrt(d·log n)) given sufficient initial load,
// at T^A. Fixed seeds make the probabilistic assertions deterministic; the
// constants are generous relative to the proofs' c.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>

#include "dlb/core/algorithm2.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/metrics.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

enum class process_kind { fos, periodic_matching, random_matching };

std::string kind_name(process_kind k) {
  switch (k) {
    case process_kind::fos:
      return "fos";
    case process_kind::periodic_matching:
      return "periodic";
    case process_kind::random_matching:
      return "random";
  }
  return "?";
}

std::shared_ptr<const graph> make_case_graph(int which) {
  switch (which) {
    case 0:
      return std::make_shared<const graph>(generators::hypercube(5));
    case 1:
      return std::make_shared<const graph>(generators::torus_2d(5));
    default:
      return std::make_shared<const graph>(generators::ring_of_cliques(4, 4));
  }
}

std::unique_ptr<linear_process> build(process_kind k,
                                          std::shared_ptr<const graph> g) {
  const speed_vector s = uniform_speeds(g->num_nodes());
  switch (k) {
    case process_kind::fos:
      return make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree));
    case process_kind::periodic_matching: {
      const edge_coloring c = misra_gries_edge_coloring(*g);
      return make_periodic_matching_process(g, s, to_matchings(*g, c));
    }
    case process_kind::random_matching:
      return make_random_matching_process(g, s, /*seed=*/53);
  }
  return nullptr;
}

using t8_params = std::tuple<process_kind, int, std::uint64_t>;

class Theorem8Test : public ::testing::TestWithParam<t8_params> {};

TEST_P(Theorem8Test, MaxMinBoundWithSufficientLoad) {
  const auto [kind, graph_case, seed] = GetParam();
  auto g = make_case_graph(graph_case);
  const node_id n = g->num_nodes();
  const real_t d = static_cast<real_t>(g->max_degree());
  const real_t root = std::sqrt(d * std::log(static_cast<real_t>(n)));

  // x'' = (d/4 + 2c·sqrt(d·log n))·s with c = 2.
  const weight_t ell = static_cast<weight_t>(std::ceil(d / 4.0 + 4.0 * root));
  auto tokens = workload::add_speed_multiple(
      workload::point_mass(n, 0, 25 * n), uniform_speeds(n), ell);

  algorithm2 alg(build(kind, g), tokens, seed);
  const experiment_result r =
      run_experiment(alg, alg.continuous(), /*cap=*/200000);

  ASSERT_TRUE(r.continuous_converged);
  EXPECT_EQ(r.dummy_created, 0) << "infinite source should stay unused whp";
  // Theorem 8(2) with a generous constant: max-min <= 3·sqrt(d·log n) + 2.
  EXPECT_LE(r.final_max_min, 3.0 * root + 2.0 + 1e-9)
      << kind_name(kind) << " graph case " << graph_case;
  // Deterministic fallback (each |E| < 1): max-min <= 2d + 2 regardless.
  EXPECT_LE(r.final_max_min, 2.0 * d + 2.0 + 1e-9);
}

TEST_P(Theorem8Test, MaxAvgBoundWithDummyPreload) {
  const auto [kind, graph_case, seed] = GetParam();
  auto g = make_case_graph(graph_case);
  const node_id n = g->num_nodes();
  const real_t d = static_cast<real_t>(g->max_degree());
  const real_t root = std::sqrt(d * std::log(static_cast<real_t>(n)));

  const weight_t ell = static_cast<weight_t>(std::ceil(d / 4.0 + 4.0 * root));
  const auto real_tokens = workload::point_mass(n, 0, 20 * n);
  std::vector<weight_t> preload(static_cast<size_t>(n), ell);

  algorithm2 alg(build(kind, g), real_tokens, seed, preload);
  const experiment_result r =
      run_experiment(alg, alg.continuous(), /*cap=*/200000);

  ASSERT_TRUE(r.continuous_converged);
  EXPECT_EQ(r.dummy_created, 0);
  // Theorem 8(1): max-avg <= d/4 + O(sqrt(d·log n)), generous constant.
  EXPECT_LE(r.final_max_avg, d / 4.0 + 3.0 * root + 2.0 + 1e-9)
      << kind_name(kind) << " graph case " << graph_case;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem8Test,
    ::testing::Combine(::testing::Values(process_kind::fos,
                                         process_kind::periodic_matching,
                                         process_kind::random_matching),
                       ::testing::Range(0, 3),
                       ::testing::Values<std::uint64_t>(1, 2)),
    [](const ::testing::TestParamInfo<t8_params>& tpi) {
      return kind_name(std::get<0>(tpi.param)) + "_g" +
             std::to_string(std::get<1>(tpi.param)) + "_s" +
             std::to_string(std::get<2>(tpi.param));
    });

}  // namespace
}  // namespace dlb
