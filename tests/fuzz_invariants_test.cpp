// Randomized cross-cutting invariant checks ("fuzz" sweep): random graphs,
// random workloads, random speeds, every process × both flow imitators —
// assert the paper's structural invariants on each round:
//
//  I1  conservation: Σ loads == initial + dummies created
//  I2  per-edge flow error: |e_{i,j}| < w_max (Obs. 4) / < 1 (Obs. 9(3))
//  I3  discrete loads never negative for the imitators
//  I4  node deviation: |x^D_i − x^A_i| < d_i·w_max while no dummy used
//  I5  Observation 5: a positive discrete send never exceeds the deficit
//
// Algorithm 1's count store must also equal its task store bit for bit on
// unit tokens, round after round.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "dlb/core/algorithm1.hpp"
#include "dlb/core/algorithm2.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

std::shared_ptr<const graph> random_case_graph(std::uint64_t seed) {
  rng_t rng = make_rng(seed, 0xF022u);
  switch (uniform_int<int>(rng, 0, 4)) {
    case 0:
      return std::make_shared<const graph>(generators::erdos_renyi_connected(
          uniform_int<node_id>(rng, 8, 24), 0.3, seed));
    case 1:
      return std::make_shared<const graph>(generators::random_regular(
          2 * uniform_int<node_id>(rng, 5, 12), 3, seed));
    case 2:
      return std::make_shared<const graph>(
          generators::hypercube(uniform_int<int>(rng, 3, 5)));
    case 3:
      return std::make_shared<const graph>(generators::ring_of_cliques(
          uniform_int<node_id>(rng, 3, 5), uniform_int<node_id>(rng, 3, 5)));
    default:
      return std::make_shared<const graph>(
          generators::complete_binary_tree(uniform_int<int>(rng, 3, 4)));
  }
}

std::unique_ptr<linear_process> random_case_process(
    std::shared_ptr<const graph> g, const speed_vector& s,
    std::uint64_t seed) {
  rng_t rng = make_rng(seed, 0xF0F0u);
  switch (uniform_int<int>(rng, 0, 2)) {
    case 0:
      return make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree));
    case 1: {
      const edge_coloring c = greedy_edge_coloring(*g);
      return make_periodic_matching_process(g, s, to_matchings(*g, c));
    }
    default:
      return make_random_matching_process(g, s, seed);
  }
}

// I1-I5 for Algorithm 1 after a round; `total` is the initial load (any
// dummy preload included) plus net arrivals — the minted dummies are added
// here.
void expect_alg1_invariants(const algorithm1& alg, weight_t total) {
  const graph& g = alg.topology();
  const real_t wmax = static_cast<real_t>(alg.wmax());
  // I1: conservation with dummy accounting.
  weight_t sum = 0;
  for (const weight_t x : alg.loads()) {
    ASSERT_GE(x, 0);  // I3
    sum += x;
  }
  ASSERT_EQ(sum, total + alg.dummy_created());
  for (edge_id e = 0; e < g.num_edges(); ++e) {
    // I2: Observation 4.
    ASSERT_LT(std::abs(alg.flow_error(e)), wmax + 1e-9);
    // I5: Observation 5 — the send is at most the pre-round deficit; its
    // post-round residual is in [0, w_max), hence sent <= deficit.
    const weight_t sent = alg.last_sent(e);
    if (sent != 0) {
      const real_t post = alg.flow_error(e);
      ASSERT_GE(sent > 0 ? post : -post, -1e-9);
    }
  }
  // I4: while the source is untouched, |x^D - x^A| < d_i·w_max.
  if (alg.dummy_created() == 0) {
    const auto& xa = alg.continuous().loads();
    for (node_id i = 0; i < g.num_nodes(); ++i) {
      ASSERT_LT(std::abs(static_cast<real_t>(
                    alg.loads()[static_cast<size_t>(i)]) -
                         xa[static_cast<size_t>(i)]),
                static_cast<real_t>(g.degree(i)) * wmax + 1e-6);
    }
  }
}

class FuzzInvariantsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzInvariantsTest, Algorithm1InvariantsHold) {
  const std::uint64_t seed = GetParam();
  rng_t rng = make_rng(seed, 0xF111u);
  auto g = random_case_graph(seed);
  const node_id n = g->num_nodes();

  speed_vector s(static_cast<size_t>(n));
  for (auto& si : s) si = uniform_int<weight_t>(rng, 1, 3);

  const weight_t wmax = uniform_int<weight_t>(rng, 1, 6);
  const auto loads = workload::uniform_random(
      n, uniform_int<weight_t>(rng, 0, 60 * n), seed);
  auto tasks = workload::decompose_uniform_weights(loads, wmax, seed);
  const weight_t initial_total = tasks.total_weight();

  const algorithm1_config alg_opts{
      .removal = (seed % 2 == 0) ? removal_policy::real_first
                                 : removal_policy::dummy_first,
      .wmax_override = wmax};
  algorithm1 alg(random_case_process(g, s, seed),
                 workload::decompose_uniform_weights(loads, wmax, seed),
                 alg_opts);

  for (int t = 0; t < 60; ++t) {
    alg.step();
    ASSERT_NO_FATAL_FAILURE(expect_alg1_invariants(alg, initial_total));
  }
}

std::uint64_t bits(real_t x) { return std::bit_cast<std::uint64_t>(x); }

// Both stores of Algorithm 1 on the same unit tokens: FOS and both matching
// models (by seed), sequential and on three serial shards, arrivals and
// departures between rounds, a dummy preload on every third seed, and a
// start without the d·w_max floor plus a spike. FOS and matchings lag
// rather than overdraw, so every fourth seed imitates SOS with β = 1.95,
// which mints dummies under both removal policies.
TEST_P(FuzzInvariantsTest, Algorithm1CountStoreEqualsTaskStore) {
  const std::uint64_t seed = GetParam();
  rng_t rng = make_rng(seed, 0xF333u);
  auto g = random_case_graph(seed + 2000);
  const node_id n = g->num_nodes();

  speed_vector s(static_cast<size_t>(n));
  for (auto& si : s) si = uniform_int<weight_t>(rng, 1, 3);

  auto tokens = workload::uniform_random(
      n, uniform_int<weight_t>(rng, 0, 4 * n), seed);
  tokens[0] += 20 * n;
  std::vector<weight_t> preload;
  if (seed % 3 == 0) {
    for (node_id i = 0; i < n; ++i) {
      preload.push_back(uniform_int<weight_t>(rng, 0, 2));
    }
  }
  task_assignment task_start = task_assignment::tokens(tokens);
  for (node_id i = 0; i < n && !preload.empty(); ++i) {
    task_start.pool(i).add_dummies(preload[static_cast<size_t>(i)]);
  }
  weight_t expected_total = task_start.total_weight();

  const algorithm1_config config{
      .removal = (seed / 4 % 2 == 0) ? removal_policy::real_first
                                     : removal_policy::dummy_first,
      .wmax_override = uniform_int<weight_t>(rng, 1, 6)};
  const auto reference = [&] {
    return seed % 4 == 0
               ? make_sos(g, s, make_alphas(*g, alpha_scheme::half_max_degree),
                          1.95)
               : random_case_process(g, s, seed);
  };
  algorithm1 tasks(reference(), std::move(task_start), config);
  algorithm1 counts(reference(), tokens, config, preload);
  algorithm1 sharded(reference(), tokens, config, preload);
  sharded.enable_sharded_stepping(serial_shard_context(*g, 3));

  for (int t = 0; t < 60; ++t) {
    const node_id to = uniform_int<node_id>(rng, 0, n - 1);
    const weight_t arriving = uniform_int<weight_t>(rng, 0, 5);
    const node_id from = uniform_int<node_id>(rng, 0, n - 1);
    const weight_t leaving = uniform_int<weight_t>(rng, 0, 4);
    tasks.inject_tokens(to, arriving);
    const weight_t drained = tasks.drain_tokens(from, leaving);
    expected_total += arriving - drained;
    for (algorithm1* alg : {&counts, &sharded}) {
      alg->inject_tokens(to, arriving);
      ASSERT_EQ(alg->drain_tokens(from, leaving), drained);
    }
    tasks.step();
    counts.step();
    sharded.step();
    for (const algorithm1* alg : {&counts, &sharded}) {
      ASSERT_EQ(alg->loads(), tasks.loads()) << "round " << t;
      ASSERT_EQ(alg->real_loads(), tasks.real_loads()) << "round " << t;
      ASSERT_EQ(alg->dummy_created(), tasks.dummy_created());
      for (edge_id e = 0; e < g->num_edges(); ++e) {
        ASSERT_EQ(alg->discrete_flow(e), tasks.discrete_flow(e));
        ASSERT_EQ(alg->last_sent(e), tasks.last_sent(e));
        ASSERT_EQ(bits(alg->flow_error(e)), bits(tasks.flow_error(e)));
      }
      ASSERT_NO_FATAL_FAILURE(expect_alg1_invariants(*alg, expected_total));
    }
  }
}

TEST_P(FuzzInvariantsTest, Algorithm2InvariantsHold) {
  const std::uint64_t seed = GetParam();
  rng_t rng = make_rng(seed, 0xF222u);
  auto g = random_case_graph(seed + 1000);
  const node_id n = g->num_nodes();

  speed_vector s(static_cast<size_t>(n));
  for (auto& si : s) si = uniform_int<weight_t>(rng, 1, 3);

  const auto tokens = workload::uniform_random(
      n, uniform_int<weight_t>(rng, 0, 80 * n), seed);
  weight_t initial_total = 0;
  for (const weight_t c : tokens) initial_total += c;

  algorithm2 alg(random_case_process(g, s, seed + 1000), tokens, seed);

  for (int t = 0; t < 60; ++t) {
    alg.step();
    weight_t total = 0;
    for (const weight_t x : alg.loads()) {
      ASSERT_GE(x, 0);
      total += x;
    }
    ASSERT_EQ(total, initial_total + alg.dummy_created());
    for (edge_id e = 0; e < g->num_edges(); ++e) {
      ASSERT_LT(std::abs(alg.flow_error(e)), 1.0 + 1e-9);
    }
    weight_t real_total = 0;
    for (const weight_t x : alg.real_loads()) {
      ASSERT_GE(x, 0);
      real_total += x;
    }
    ASSERT_EQ(real_total, initial_total);
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, FuzzInvariantsTest,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace dlb
