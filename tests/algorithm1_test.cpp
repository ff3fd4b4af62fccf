// Algorithm 1 (deterministic flow imitation): mechanics, Observation 4,
// Lemma 6, Lemma 7, conservation, dummy accounting, weighted tasks.
#include "dlb/core/algorithm1.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/metrics.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

std::shared_ptr<const graph> make_g(graph g) {
  return std::make_shared<const graph>(std::move(g));
}

std::unique_ptr<linear_process> fos_on(std::shared_ptr<const graph> g,
                                       speed_vector s = {}) {
  if (s.empty()) s = uniform_speeds(g->num_nodes());
  return make_fos(g, std::move(s),
                  make_alphas(*g, alpha_scheme::half_max_degree));
}

TEST(Algorithm1Test, TwoNodeTokenHandComputation) {
  // P_{0,1} = 1/2 on a single edge. Continuous: round 0 moves 5.0 from node
  // 0, then stays in equilibrium. Discrete must send exactly 5 tokens in
  // round 1 and then nothing.
  auto g = make_g(generators::path(2));
  algorithm1 alg(fos_on(g), task_assignment::tokens({10, 0}));
  alg.step();
  EXPECT_EQ(alg.loads(), (std::vector<weight_t>{5, 5}));
  EXPECT_EQ(alg.last_sent(0), 5);
  alg.step();
  EXPECT_EQ(alg.loads(), (std::vector<weight_t>{5, 5}));
  EXPECT_EQ(alg.last_sent(0), 0);
  EXPECT_EQ(alg.dummy_created(), 0);
}

TEST(Algorithm1Test, FloorSemanticsOnFractionalFlow) {
  // Path of 3: node 1 has degree 2, so α = 1/4 on both edges. x0 = (0,10,0):
  // continuous round 0 sends 2.5 each way; discrete sends ⌊2.5⌋ = 2.
  auto g = make_g(generators::path(3));
  algorithm1 alg(fos_on(g), task_assignment::tokens({0, 10, 0}));
  alg.step();
  EXPECT_EQ(alg.loads(), (std::vector<weight_t>{2, 6, 2}));
}

TEST(Algorithm1Test, Observation4ErrorBelowWmaxTokens) {
  auto g = make_g(generators::hypercube(4));
  algorithm1 alg(fos_on(g),
                 task_assignment::tokens(
                     workload::uniform_random(16, 480, /*seed=*/3)));
  for (int t = 0; t < 120; ++t) {
    alg.step();
    for (edge_id e = 0; e < g->num_edges(); ++e) {
      ASSERT_LT(std::abs(alg.flow_error(e)), 1.0 + 1e-9)
          << "edge " << e << " round " << t;
    }
  }
}

TEST(Algorithm1Test, Observation4ErrorBelowWmaxWeighted) {
  auto g = make_g(generators::ring_of_cliques(3, 4));
  const weight_t wmax = 7;
  const auto loads = workload::uniform_random(12, 600, /*seed=*/5);
  algorithm1 alg(fos_on(g),
                 workload::decompose_uniform_weights(loads, wmax, 8));
  EXPECT_LE(alg.wmax(), wmax);
  for (int t = 0; t < 150; ++t) {
    alg.step();
    for (edge_id e = 0; e < g->num_edges(); ++e) {
      ASSERT_LT(std::abs(alg.flow_error(e)),
                static_cast<real_t>(alg.wmax()) + 1e-9);
    }
  }
}

TEST(Algorithm1Test, Lemma6DeviationIdentityWithoutDummies) {
  // With ample initial load no dummy is used, and then
  // x^D_i(t) = x^A_i(t) + Σ_j e_{i,j}(t-1) exactly (Lemma 6(1)), hence
  // |x^D_i - x^A_i| < d·w_max (Lemma 6(2)).
  auto g = make_g(generators::torus_2d(4));
  const node_id n = g->num_nodes();
  const weight_t d = g->max_degree();
  auto tokens = workload::add_speed_multiple(
      workload::uniform_random(n, 320, 7), uniform_speeds(n), d);
  algorithm1 alg(fos_on(g), task_assignment::tokens(tokens));
  for (int t = 0; t < 80; ++t) {
    alg.step();
    ASSERT_EQ(alg.dummy_created(), 0);
    const auto& xa = alg.continuous().loads();
    for (node_id i = 0; i < n; ++i) {
      real_t err_sum = 0;
      for (const incidence& inc : g->neighbors(i)) {
        const edge& ed = g->endpoints(inc.edge);
        const real_t e_uv = alg.flow_error(inc.edge);
        err_sum += (ed.u == i) ? e_uv : -e_uv;
      }
      ASSERT_NEAR(static_cast<real_t>(alg.loads()[static_cast<size_t>(i)]),
                  xa[static_cast<size_t>(i)] + err_sum, 1e-6);
      ASSERT_LT(std::abs(static_cast<real_t>(
                    alg.loads()[static_cast<size_t>(i)]) -
                         xa[static_cast<size_t>(i)]),
                static_cast<real_t>(d) + 1e-6);
    }
  }
}

TEST(Algorithm1Test, Lemma7SufficientLoadMeansNoDummies) {
  // x(0) = x' + d·w_max·s: the infinite source is never used.
  struct setup {
    std::shared_ptr<const graph> g;
    weight_t wmax;
  };
  for (const auto& [g, wmax] :
       {setup{make_g(generators::hypercube(4)), weight_t{1}},
        setup{make_g(generators::ring_of_cliques(4, 4)), weight_t{4}},
        setup{make_g(generators::star(9)), weight_t{2}}}) {
    const node_id n = g->num_nodes();
    const weight_t d = g->max_degree();
    speed_vector s(static_cast<size_t>(n), 1);
    for (std::size_t i = 0; i < s.size(); ++i) s[i] = 1 + (i % 2);

    auto base = workload::point_mass(n, 0, 50 * wmax);
    auto loads = workload::add_speed_multiple(base, s, d * wmax);
    auto tasks = workload::decompose_uniform_weights(loads, wmax, 11);
    algorithm1 alg(fos_on(g, s), std::move(tasks),
                   {.removal = removal_policy::real_first,
                    .wmax_override = wmax});
    for (int t = 0; t < 200; ++t) alg.step();
    EXPECT_EQ(alg.dummy_created(), 0) << "graph n=" << n;
  }
}

TEST(Algorithm1Test, InsufficientLoadCreatesDummiesButConserves) {
  // Point mass on a star: leaves have nothing to send back at first, so the
  // continuous back-flow forces dummy creation somewhere along the run.
  auto g = make_g(generators::star(6));
  algorithm1 alg(fos_on(g), task_assignment::tokens({0, 60, 0, 0, 0, 0}));
  weight_t initial_total = 60;
  for (int t = 0; t < 100; ++t) alg.step();
  // Real load is conserved exactly.
  weight_t real_total = 0;
  for (const weight_t x : alg.real_loads()) real_total += x;
  EXPECT_EQ(real_total, initial_total);
  // Total load equals initial plus created dummies.
  weight_t total = 0;
  for (const weight_t x : alg.loads()) total += x;
  EXPECT_EQ(total, initial_total + alg.dummy_created());
}

TEST(Algorithm1Test, WeightedTaskMultisetIsConserved) {
  auto g = make_g(generators::cycle(6));
  const auto loads = workload::uniform_random(6, 300, 9);
  auto tasks = workload::decompose_uniform_weights(loads, 5, 10);
  std::vector<weight_t> before;
  for (node_id i = 0; i < 6; ++i) {
    const auto& w = tasks.pool(i).real_task_weights();
    before.insert(before.end(), w.begin(), w.end());
  }
  std::sort(before.begin(), before.end());

  algorithm1 alg(fos_on(g), std::move(tasks));
  for (int t = 0; t < 60; ++t) alg.step();

  std::vector<weight_t> after;
  for (node_id i = 0; i < 6; ++i) {
    const auto& w = alg.tasks().pool(i).real_task_weights();
    after.insert(after.end(), w.begin(), w.end());
  }
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
}

TEST(Algorithm1Test, WmaxOverrideRespected) {
  auto g = make_g(generators::path(3));
  algorithm1 alg(fos_on(g), task_assignment::tokens({10, 0, 0}),
                 {.removal = removal_policy::real_first, .wmax_override = 3});
  EXPECT_EQ(alg.wmax(), 3);
  // Override below the actual max task weight is rejected.
  auto heavy = task_assignment::from_weights({{5, 5}, {}, {}});
  EXPECT_THROW(algorithm1(fos_on(g), std::move(heavy),
                          {.removal = removal_policy::real_first,
                           .wmax_override = 3}),
               contract_violation);
}

TEST(Algorithm1Test, DummyFirstPolicyCirculatesDummies) {
  auto g = make_g(generators::path(2));
  task_assignment tasks = task_assignment::tokens({10, 0});
  tasks.pool(0).add_dummies(4);
  algorithm1 alg(fos_on(g), std::move(tasks),
                 {.removal = removal_policy::dummy_first,
                  .wmax_override = 0});
  alg.step();  // continuous sends half of 14 = 7
  EXPECT_EQ(alg.loads(), (std::vector<weight_t>{7, 7}));
  // Dummy-first: the 4 dummies went over the edge.
  EXPECT_EQ(alg.tasks().pool(1).dummy_count(), 4);
}

TEST(Algorithm1Test, WorksOverMatchingProcesses) {
  auto g = make_g(generators::hypercube(3));
  const edge_coloring c = misra_gries_edge_coloring(*g);
  auto proc = make_periodic_matching_process(g, uniform_speeds(8),
                                             to_matchings(*g, c));
  // Sufficient initial load (x'' = d·w_max·s) so Lemma 7 forbids dummies.
  auto tokens = workload::add_speed_multiple(workload::point_mass(8, 0, 800),
                                             uniform_speeds(8), 3);
  algorithm1 alg(std::move(proc), task_assignment::tokens(tokens));
  for (int t = 0; t < 200; ++t) alg.step();
  EXPECT_EQ(alg.dummy_created(), 0);
  // d = 3, w_max = 1: discrepancy at most 2d+2 = 8 once continuous converged.
  EXPECT_LE(max_min_discrepancy(alg.real_loads(), alg.speeds()), 8.0);
}

TEST(Algorithm1Test, RoundCounting) {
  auto g = make_g(generators::path(2));
  algorithm1 alg(fos_on(g), task_assignment::tokens({2, 0}));
  EXPECT_EQ(alg.rounds_executed(), 0);
  alg.step();
  alg.step();
  EXPECT_EQ(alg.rounds_executed(), 2);
  EXPECT_EQ(alg.continuous().rounds_executed(), 2);
}

TEST(Algorithm1Test, NameIdentifiesProcess) {
  auto g = make_g(generators::path(2));
  algorithm1 alg(fos_on(g), task_assignment::tokens({1, 0}));
  EXPECT_NE(alg.name().find("alg1"), std::string::npos);
  EXPECT_NE(alg.name().find("FOS"), std::string::npos);
  algorithm1 counts(fos_on(g), {1, 0});
  EXPECT_EQ(counts.name(), alg.name());
}

TEST(Algorithm1Test, CountStoreDummyFirstCirculatesDummies) {
  // DummyFirstPolicyCirculatesDummies on the count store: the 4 preloaded
  // dummies go over the edge, so node 1 holds 7 tokens and 3 real ones.
  auto g = make_g(generators::path(2));
  algorithm1 alg(fos_on(g), {10, 0},
                 {.removal = removal_policy::dummy_first, .wmax_override = 0},
                 {4, 0});
  alg.step();
  EXPECT_EQ(alg.loads(), (std::vector<weight_t>{7, 7}));
  EXPECT_EQ(alg.real_loads(), (std::vector<weight_t>{7, 3}));
  EXPECT_EQ(alg.wmax(), 1);
}

TEST(Algorithm1Test, CountStoreHoldsOnlyTokens) {
  auto g = make_g(generators::path(3));
  algorithm1 alg(fos_on(g), {10, 0, 0},
                 {.removal = removal_policy::real_first, .wmax_override = 3});
  EXPECT_THROW((void)alg.tasks(), contract_violation);
  EXPECT_THROW(alg.inject_task(0, 3), contract_violation);
  alg.inject_task(0, 1);  // a unit task is a token
  EXPECT_EQ(alg.loads()[0], 11);
}

TEST(Algorithm1Test, CountStoreMirrorsArrivalsOneTokenAtATime) {
  // inject_tokens(i, k) must reach the reference as k unit arrivals, as on
  // the task store: once x^A_i crosses a power of two, k additions of 1.0
  // and one addition of k round differently. Find such an (i, k) after a
  // few rounds, then inject it into both stores.
  auto g = make_g(generators::ring_of_cliques(3, 4));
  const auto tokens = workload::uniform_random(12, 40, /*seed=*/5);
  algorithm1 counts(fos_on(g), tokens);
  algorithm1 tasks(fos_on(g), task_assignment::tokens(tokens));
  node_id node = invalid_node;
  weight_t k = 0;
  for (int t = 0; t < 40 && node == invalid_node; ++t) {
    counts.step();
    tasks.step();
    const auto& x = counts.continuous().loads();
    for (node_id i = 0; i < 12 && node == invalid_node; ++i) {
      const real_t x0 = x[static_cast<size_t>(i)];
      for (weight_t c = 1; c <= 64; ++c) {
        real_t units = x0;
        for (weight_t u = 0; u < c; ++u) units += 1.0;
        if (std::floor(std::log2(units)) != std::floor(std::log2(x0)) &&
            units != x0 + static_cast<real_t>(c)) {
          node = i;
          k = c;
          break;
        }
      }
    }
  }
  ASSERT_NE(node, invalid_node) << "no rounding-sensitive arrival found";
  counts.inject_tokens(node, k);
  tasks.inject_tokens(node, k);
  const std::size_t idx = static_cast<size_t>(node);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(counts.continuous().loads()[idx]),
            std::bit_cast<std::uint64_t>(tasks.continuous().loads()[idx]));
  counts.step();
  tasks.step();
  EXPECT_EQ(counts.loads(), tasks.loads());
}

}  // namespace
}  // namespace dlb
