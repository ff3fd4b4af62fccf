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
// Each fuzz case also snapshots the process at a seed-derived round and
// swaps execution onto a restored fresh copy mid-run — the invariants (and
// the final state) must hold identically across the restore boundary.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "dlb/core/algorithm1.hpp"
#include "dlb/core/algorithm2.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/snapshot/snapshot.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

/// Snapshot `from`, restore into `into` (a freshly built identical-config
/// process), and require the round trip to be exact: the restored object's
/// own serialized state must equal the original payload byte for byte.
template <typename P>
void snapshot_swap(const P& from, P& into) {
  snapshot::writer w;
  from.save_state(w);
  snapshot::reader r(w.payload());
  into.restore_state(r);
  ASSERT_TRUE(r.exhausted());
  snapshot::writer back;
  into.save_state(back);
  ASSERT_EQ(back.payload(), w.payload())
      << "restore is not a byte-exact inverse of save";
}

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
  const auto build = [&] {
    return std::make_unique<algorithm1>(
        random_case_process(g, s, seed),
        workload::decompose_uniform_weights(loads, wmax, seed), alg_opts);
  };
  std::unique_ptr<algorithm1> holder = build();
  algorithm1* live = holder.get();
  std::unique_ptr<algorithm1> restored;  // swapped in mid-run
  const int snap_round = static_cast<int>(seed % 60);

  for (int t = 0; t < 60; ++t) {
    // The fuzzed restore boundary: from round snap_round on, execution
    // continues on a fresh process rebuilt from config + snapshot alone.
    if (t == snap_round) {
      restored = build();
      snapshot_swap(*live, *restored);
      live = restored.get();
      holder.reset();
    }
    algorithm1& alg = *live;
    alg.step();
    // I1: conservation with dummy accounting.
    weight_t total = 0;
    for (const weight_t x : alg.loads()) {
      ASSERT_GE(x, 0);  // I3
      total += x;
    }
    ASSERT_EQ(total, initial_total + alg.dummy_created());
    // I2: Observation 4.
    for (edge_id e = 0; e < g->num_edges(); ++e) {
      ASSERT_LT(std::abs(alg.flow_error(e)),
                static_cast<real_t>(wmax) + 1e-9);
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
      for (node_id i = 0; i < n; ++i) {
        ASSERT_LT(std::abs(static_cast<real_t>(
                      alg.loads()[static_cast<size_t>(i)]) -
                           xa[static_cast<size_t>(i)]),
                  static_cast<real_t>(g->degree(i)) *
                          static_cast<real_t>(wmax) +
                      1e-6);
      }
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

  const auto build = [&] {
    return std::make_unique<algorithm2>(random_case_process(g, s, seed + 1000),
                                        tokens, seed);
  };
  std::unique_ptr<algorithm2> holder = build();
  algorithm2* live = holder.get();
  std::unique_ptr<algorithm2> restored;
  const int snap_round = static_cast<int>((seed * 7) % 60);

  for (int t = 0; t < 60; ++t) {
    if (t == snap_round) {
      restored = build();
      snapshot_swap(*live, *restored);
      live = restored.get();
      holder.reset();
    }
    algorithm2& alg = *live;
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
