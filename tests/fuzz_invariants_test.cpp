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

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>

#include "dlb/core/algorithm1.hpp"
#include "dlb/core/algorithm2.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/runtime/thread_pool.hpp"
#include "dlb/workload/initial_load.hpp"
#include "pool_context.hpp"

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

// Steps Algorithm 1's task store and two count stores, one sequential and
// one on `ctx`, from the same unit tokens and `preload` for `rounds`
// rounds, with the same arrivals and departures (drawn from `rng`) before
// each round, and asserts after every round that the count stores agree
// with the task store bit for bit and keep I1-I5. `reference` makes a
// fresh copy of the imitated process.
void expect_stores_agree(
    const graph& g, const std::vector<weight_t>& tokens,
    const std::vector<weight_t>& preload, const algorithm1_config& config,
    const std::function<std::unique_ptr<linear_process>()>& reference,
    std::shared_ptr<const shard_context> ctx, int rounds, rng_t& rng) {
  const node_id n = g.num_nodes();
  task_assignment task_start = task_assignment::tokens(tokens);
  for (node_id i = 0; i < n && !preload.empty(); ++i) {
    task_start.pool(i).add_dummies(preload[static_cast<size_t>(i)]);
  }
  weight_t expected_total = task_start.total_weight();
  algorithm1 tasks(reference(), std::move(task_start), config);
  algorithm1 counts(reference(), tokens, config, preload);
  algorithm1 sharded(reference(), tokens, config, preload);
  sharded.enable_sharded_stepping(std::move(ctx));

  for (int t = 0; t < rounds; ++t) {
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
      for (edge_id e = 0; e < g.num_edges(); ++e) {
        ASSERT_EQ(alg->discrete_flow(e), tasks.discrete_flow(e));
        ASSERT_EQ(alg->last_sent(e), tasks.last_sent(e));
        ASSERT_EQ(bits(alg->flow_error(e)), bits(tasks.flow_error(e)));
      }
      ASSERT_NO_FATAL_FAILURE(expect_alg1_invariants(*alg, expected_total));
    }
  }
}

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
  expect_stores_agree(*g, tokens, preload, config, reference,
                      serial_shard_context(*g, 3), 60, rng);
}

// The same agreement where every phase runs many chunks: hypercube(15)
// cuts each edge phase into 15 chunks and each node phase into 2, and the
// sharded count store runs them on a real 4-thread pool, each chunk beside
// its neighbours. FOS under real_first moves tokens only; SOS with
// β = 1.95 under dummy_first, from a dummy preload, also mints dummies.
TEST(FuzzInvariantsMultiChunkTest, Algorithm1CountStoreEqualsTaskStore) {
  const auto g = std::make_shared<const graph>(generators::hypercube(15));
  const node_id n = g->num_nodes();
  const speed_vector s = uniform_speeds(n);
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  runtime::thread_pool pool(4);
  rng_t rng = make_rng(15, 0xF334u);
  auto tokens = workload::uniform_random(n, 4 * n, 15);
  tokens[0] += 20 * n;
  std::vector<weight_t> preload(static_cast<size_t>(n));
  for (weight_t& p : preload) p = uniform_int<weight_t>(rng, 0, 2);

  expect_stores_agree(
      *g, tokens, {}, {.removal = removal_policy::real_first},
      [&] { return make_fos(g, s, alpha); }, pool_context(*g, 4, pool), 10,
      rng);
  expect_stores_agree(
      *g, tokens, preload, {.removal = removal_policy::dummy_first},
      [&] { return make_sos(g, s, alpha, 1.95); }, pool_context(*g, 4, pool),
      10, rng);
}

// Algorithm 2's state after 60 rounds, per seed 1..24: FNV-1a over every
// node's load and dummies_at, then every edge's discrete_flow, each as 8
// little-endian bytes, and the dummies minted. A coin that flips one bit
// differently, or a transfer record that attributes one dummy elsewhere,
// moves a hash.
struct alg2_golden {
  std::uint64_t hash;
  weight_t minted;
};
constexpr alg2_golden alg2_goldens[] = {
    {0x40cc1109d4dd01abULL, 0},    // seed 1
    {0xb9dd8ce53921e217ULL, 0},    // seed 2
    {0xc05c8461984599ddULL, 0},    // seed 3
    {0x7ddd5a8fe12f3d3dULL, 199},  // seed 4
    {0xa3e9db1d6d8e024eULL, 0},    // seed 5
    {0x5d87aa971bb12d38ULL, 0},    // seed 6
    {0x91d6986cf1e47450ULL, 0},    // seed 7
    {0x8e22b1d8777358f6ULL, 143},  // seed 8
    {0x2e2ab0fdf6dde5b6ULL, 0},    // seed 9
    {0x156bafbd0a03e891ULL, 0},    // seed 10
    {0xb73c724c3fc7b335ULL, 0},    // seed 11
    {0xa510a54e507a6401ULL, 315},  // seed 12
    {0x3a284e0ec87ab2c8ULL, 0},    // seed 13
    {0xbc620e4d0bc9fddcULL, 0},    // seed 14
    {0x18e61535caa0cea4ULL, 0},    // seed 15
    {0x4a8bcc7251004069ULL, 219},  // seed 16
    {0xb9b08e65b48ead8dULL, 0},    // seed 17
    {0x663145e11f13bcabULL, 0},    // seed 18
    {0x3120747bad1a3078ULL, 0},    // seed 19
    {0x970c2ed8444b1270ULL, 363},  // seed 20
    {0x05b4bc2ebedd79abULL, 0},    // seed 21
    {0xd03c2b19f4917619ULL, 0},    // seed 22
    {0x461df753db62bccfULL, 0},    // seed 23
    {0x03863ac3abd31678ULL, 0},    // seed 24
};

std::uint64_t fnv1a_mix(std::uint64_t h, std::int64_t value) {
  const auto v = static_cast<std::uint64_t>(value);
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Algorithm 2 on FOS and both matching models (by seed), sequential and on
// three serial shards. Every fourth seed imitates SOS with β = 1.95 from a
// spike, which overdraws senders and mints dummies; every third seed starts
// with a dummy preload.
TEST_P(FuzzInvariantsTest, Algorithm2InvariantsHold) {
  const std::uint64_t seed = GetParam();
  rng_t rng = make_rng(seed, 0xF222u);
  auto g = random_case_graph(seed + 1000);
  const node_id n = g->num_nodes();

  speed_vector s(static_cast<size_t>(n));
  for (auto& si : s) si = uniform_int<weight_t>(rng, 1, 3);

  auto tokens = workload::uniform_random(
      n, uniform_int<weight_t>(rng, 0, 80 * n), seed);
  std::vector<weight_t> preload;
  if (seed % 3 == 0) {
    for (node_id i = 0; i < n; ++i) {
      preload.push_back(uniform_int<weight_t>(rng, 0, 2));
    }
  }
  if (seed % 4 == 0) tokens[0] += 20 * n;
  weight_t initial_total = 0;
  for (const weight_t c : tokens) initial_total += c;
  weight_t preload_total = 0;
  for (const weight_t c : preload) preload_total += c;

  const auto reference = [&] {
    return seed % 4 == 0
               ? make_sos(g, s, make_alphas(*g, alpha_scheme::half_max_degree),
                          1.95)
               : random_case_process(g, s, seed + 1000);
  };
  algorithm2 alg(reference(), tokens, seed, preload);
  algorithm2 sharded(reference(), tokens, seed, preload);
  sharded.enable_sharded_stepping(serial_shard_context(*g, 3));

  for (int t = 0; t < 60; ++t) {
    alg.step();
    sharded.step();
    weight_t total = 0;
    for (const weight_t x : alg.loads()) {
      ASSERT_GE(x, 0);
      total += x;
    }
    ASSERT_EQ(total, initial_total + preload_total + alg.dummy_created());
    for (edge_id e = 0; e < g->num_edges(); ++e) {
      ASSERT_LT(std::abs(alg.flow_error(e)), 1.0 + 1e-9);
      ASSERT_EQ(sharded.discrete_flow(e), alg.discrete_flow(e));
    }
    weight_t real_total = 0;
    for (const weight_t x : alg.real_loads()) {
      ASSERT_GE(x, 0);
      real_total += x;
    }
    ASSERT_EQ(real_total, initial_total);
    ASSERT_EQ(sharded.loads(), alg.loads()) << "round " << t;
    for (node_id i = 0; i < n; ++i) {
      ASSERT_EQ(sharded.dummies_at(i), alg.dummies_at(i)) << "round " << t;
    }
  }

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (node_id i = 0; i < n; ++i) {
    h = fnv1a_mix(h, alg.loads()[static_cast<size_t>(i)]);
    h = fnv1a_mix(h, alg.dummies_at(i));
  }
  for (edge_id e = 0; e < g->num_edges(); ++e) {
    h = fnv1a_mix(h, alg.discrete_flow(e));
  }
  ASSERT_LE(seed, std::size(alg2_goldens));
  const alg2_golden& want = alg2_goldens[seed - 1];
  EXPECT_EQ(h, want.hash) << std::hex << "hashes to 0x" << h;
  EXPECT_EQ(alg.dummy_created(), want.minted);
}

// The hashes above cover dummy attribution only if some seeds mint.
static_assert(std::count_if(std::begin(alg2_goldens), std::end(alg2_goldens),
                            [](const alg2_golden& g) {
                              return g.minted > 0;
                            }) >= 1);

INSTANTIATE_TEST_SUITE_P(ManySeeds, FuzzInvariantsTest,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace dlb
