// The universal sharding protocol: *every* competitor in the repo — the two
// flow imitators, all three baselines, and the continuous linear process —
// must step bit-identically at shard counts {1, 2, 8}, including pool
// contents and RNG-driven decisions (counter-based streams make a draw a
// pure function of (seed, entity, round), never of visit order). Plus the
// shared-plan machinery itself: zero-edge/overshard edge cases, the blocked
// load sum, and the sharded T^A probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dlb/baselines/excess_tokens.hpp"
#include "dlb/baselines/local_rounding.hpp"
#include "dlb/baselines/random_walk_balancer.hpp"
#include "dlb/common/rng.hpp"
#include "dlb/core/algorithm1.hpp"
#include "dlb/core/algorithm2.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/workload/competitors.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

std::shared_ptr<const graph> make_g(graph g) {
  return std::make_shared<const graph>(std::move(g));
}

// ---------------------------------------------------------- the six rows

struct competitor_case {
  std::string name;
  std::function<std::unique_ptr<discrete_process>(
      std::shared_ptr<const graph>, const speed_vector&,
      const std::vector<weight_t>&, std::uint64_t)>
      build;
};

std::vector<competitor_case> all_competitors() {
  std::vector<competitor_case> cases;
  cases.push_back({"algorithm1",
                   [](std::shared_ptr<const graph> g, const speed_vector& s,
                      const std::vector<weight_t>& tokens, std::uint64_t) {
                     return std::make_unique<algorithm1>(
                         make_fos(g, s,
                                  make_alphas(*g,
                                              alpha_scheme::half_max_degree)),
                         task_assignment::tokens(tokens));
                   }});
  cases.push_back(
      {"algorithm2",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<algorithm2>(
             make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree)),
             tokens, seed);
       }});
  cases.push_back(
      {"local_rounding",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<local_rounding_process>(
             g, s,
             std::make_unique<diffusion_alpha_schedule>(
                 make_alphas(*g, alpha_scheme::half_max_degree)),
             rounding_policy::randomized_fraction, tokens, seed);
       }});
  cases.push_back(
      {"excess_tokens",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<excess_token_process>(
             g, s, make_alphas(*g, alpha_scheme::half_max_degree), tokens,
             seed);
       }});
  cases.push_back(
      {"random_walk_balancer",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         // phase1_rounds = 5 so the run crosses the coarse → fine
         // transition (both phase kinds must shard identically).
         return std::make_unique<random_walk_balancer>(
             g, s, make_alphas(*g, alpha_scheme::half_max_degree), tokens,
             seed,
             random_walk_config{
                 .phase1_rounds = 5, .slack = 1, .laziness = 0.5});
       }});
  return cases;
}

class ShardedCompetitorsTest
    : public ::testing::TestWithParam<competitor_case> {};

// Byte-identity across shard counts: loads, real loads, dummy counters —
// with mid-run arrivals, over enough rounds that a single divergent RNG
// draw or misattributed transfer would compound visibly.
TEST_P(ShardedCompetitorsTest, BitIdenticalAtShardCounts128) {
  const auto g = make_g(generators::ring_of_cliques(6, 5));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, /*spike_per_node=*/20);
  constexpr std::uint64_t seed = 42;

  const auto reference = GetParam().build(g, s, tokens, seed);
  std::vector<std::vector<weight_t>> checkpoints;
  for (int t = 0; t < 40; ++t) {
    if (t == 10) reference->inject_tokens(3, 17);
    reference->step();
    if (t % 10 == 9) checkpoints.push_back(reference->loads());
  }

  for (const std::size_t shards : {1u, 2u, 8u}) {
    const auto sharded = GetParam().build(g, s, tokens, seed);
    sharded->enable_sharded_stepping(serial_shard_context(*g, shards));
    std::size_t checkpoint = 0;
    for (int t = 0; t < 40; ++t) {
      if (t == 10) sharded->inject_tokens(3, 17);
      sharded->step();
      if (t % 10 == 9) {
        ASSERT_EQ(sharded->loads(), checkpoints[checkpoint++])
            << GetParam().name << " shards=" << shards << " round " << t;
      }
    }
    EXPECT_EQ(sharded->loads(), reference->loads());
    EXPECT_EQ(sharded->real_loads(), reference->real_loads());
    EXPECT_EQ(sharded->dummy_created(), reference->dummy_created());
  }
}

// Round-for-round identity requires identical loads at *every* step, not
// just checkpoints — a transposed pair of draws could cancel by luck above.
TEST_P(ShardedCompetitorsTest, EveryRoundMatchesAtFiveShards) {
  const auto g = make_g(generators::torus_2d(6));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, /*spike_per_node=*/8);
  constexpr std::uint64_t seed = 7;

  const auto reference = GetParam().build(g, s, tokens, seed);
  const auto sharded = GetParam().build(g, s, tokens, seed);
  sharded->enable_sharded_stepping(serial_shard_context(*g, 5));
  for (int t = 0; t < 30; ++t) {
    reference->step();
    sharded->step();
    ASSERT_EQ(sharded->loads(), reference->loads())
        << GetParam().name << " diverged at round " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCompetitors, ShardedCompetitorsTest,
    ::testing::ValuesIn(all_competitors()),
    [](const ::testing::TestParamInfo<competitor_case>& tpi) {
      return tpi.param.name;
    });

// Pool contents must match exactly for the flow imitator — removal is LIFO,
// so a reordered pool diverges later even if totals agree.
TEST(ShardedCompetitorsDetailTest, Algorithm2DummyResidencyMatches) {
  const auto g = make_g(generators::path(12));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  // A point mass on a path starves downstream nodes → Alg2 mints dummies.
  const auto tokens = workload::point_mass(g->num_nodes(), 0, 600);

  algorithm2 reference(make_fos(g, s, alpha), tokens, /*seed=*/3);
  algorithm2 sharded(make_fos(g, s, alpha), tokens, /*seed=*/3);
  sharded.enable_sharded_stepping(serial_shard_context(*g, 4));
  for (int t = 0; t < 60; ++t) {
    reference.step();
    sharded.step();
    ASSERT_EQ(sharded.dummy_created(), reference.dummy_created())
        << "round " << t;
    for (node_id i = 0; i < g->num_nodes(); ++i) {
      ASSERT_EQ(sharded.dummies_at(i), reference.dummies_at(i))
          << "round " << t << " node " << i;
    }
    for (edge_id e = 0; e < g->num_edges(); ++e) {
      ASSERT_EQ(sharded.discrete_flow(e), reference.discrete_flow(e));
    }
  }
  EXPECT_GT(reference.dummy_created(), 0) << "regime no longer mints dummies";
}

TEST(ShardedCompetitorsDetailTest, RandomWalkWalkersMatch) {
  const auto g = make_g(generators::random_regular(24, 3, /*seed=*/7));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  const auto tokens = workload::point_mass(g->num_nodes(), 0, 960);

  random_walk_balancer reference(g, s, alpha, tokens, /*seed=*/5,
                                 {.phase1_rounds = 5, .slack = 1,
                                  .laziness = 0.5});
  random_walk_balancer sharded(g, s, alpha, tokens, /*seed=*/5,
                               {.phase1_rounds = 5, .slack = 1,
                                .laziness = 0.5});
  sharded.enable_sharded_stepping(serial_shard_context(*g, 8));
  for (int t = 0; t < 80; ++t) {
    reference.step();
    sharded.step();
    ASSERT_EQ(sharded.loads(), reference.loads()) << "round " << t;
    ASSERT_EQ(sharded.positive_tokens(), reference.positive_tokens());
    ASSERT_EQ(sharded.negative_tokens(), reference.negative_tokens());
  }
}

// ------------------------------------------------- sharded T^A machinery

TEST(ShardedBalanceProbeTest, IsBalancedEqualsSequentialEveryRound) {
  const auto g = make_g(generators::ring_of_cliques(5, 6));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  const auto tokens = workload::spike_workload(*g, s, 30);
  const std::vector<real_t> x0(tokens.begin(), tokens.end());

  auto sequential = make_fos(g, s, alpha);
  auto sharded = make_fos(g, s, alpha);
  sharded->enable_sharded_stepping(serial_shard_context(*g, 7));
  sequential->reset(x0);
  sharded->reset(x0);
  for (int t = 0; t < 400; ++t) {
    ASSERT_EQ(is_balanced(*sharded), is_balanced(*sequential))
        << "round " << t;
    sequential->step();
    sharded->step();
  }
}

TEST(ShardedBalanceProbeTest, MeasureBalancingTimeMatchesSequential) {
  const auto g = make_g(generators::hypercube(6));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  const auto tokens = workload::spike_workload(*g, s, 25);
  const std::vector<real_t> x0(tokens.begin(), tokens.end());

  auto sequential = make_fos(g, s, alpha);
  const auto expected = measure_balancing_time(*sequential, x0, 100'000);
  ASSERT_TRUE(expected.converged);

  for (const std::size_t shards : {2u, 8u}) {
    auto sharded = make_fos(g, s, alpha);
    sharded->enable_sharded_stepping(serial_shard_context(*g, shards));
    const auto got = measure_balancing_time(*sharded, x0, 100'000);
    EXPECT_EQ(got.rounds, expected.rounds) << "shards=" << shards;
    EXPECT_EQ(got.converged, expected.converged);
  }
}

TEST(BlockedSumTest, ShardedGroupingMatchesSequentialExactly) {
  // Values with non-associative float structure: regrouping would move bits.
  // The expected value is the 4096-element grouping spelled out — left to
  // right inside a block, blocks folded in order — at lengths around the
  // block edges, and blocked_sum must equal it with or without a context.
  rng_t rng = make_rng(11);
  const auto g = generators::cycle(64);
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{4096}, std::size_t{4097},
        std::size_t{3 * 4096 + 5}, std::size_t{20'000}}) {
    std::vector<real_t> x;
    for (std::size_t i = 0; i < len; ++i) {
      x.push_back(uniform_real(rng, -1e6, 1e6) / 3.0);
    }
    real_t expected = 0;
    for (std::size_t b = 0; b < len; b += 4096) {
      real_t block = 0;
      for (std::size_t i = b; i < std::min(len, b + 4096); ++i) block += x[i];
      expected += block;
    }
    EXPECT_EQ(blocked_sum(x), expected) << "len=" << len;
    for (const std::size_t shards : {1u, 2u, 3u, 8u, 64u}) {
      const auto ctx = serial_shard_context(g, shards);
      EXPECT_EQ(blocked_sum(x, ctx.get()), expected)
          << "len=" << len << " shards=" << shards;
    }
  }
}

TEST(BlockedSumTest, ShortVectorsAreThePlainLeftToRightSum) {
  std::vector<real_t> x;
  rng_t rng = make_rng(13);
  real_t plain = 0;
  for (int i = 0; i < 4096; ++i) {
    x.push_back(uniform_real(rng, -1.0, 1.0) / 7.0);
    plain += x.back();
  }
  EXPECT_EQ(blocked_sum(x), plain);
}

// ------------------------------------------------------ plan edge cases

TEST(ShardPlanEdgeCasesTest, ZeroEdgeGraphStillRunsTheBarrier) {
  const graph g(6, {});
  const shard_plan plan(g, 4);
  ASSERT_EQ(plan.num_shards(), 4u);
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    EXPECT_EQ(plan.edge_begin(s), plan.edge_end(s));
  }
  std::size_t barriers = 0;
  const steal_runner serial = serial_steal_runner();
  const shard_context ctx{
      plan, nullptr, shard_exec::work_stealing,
      [&](std::size_t groups, std::size_t chunks,
          const std::function<void(
              std::size_t, const std::function<std::size_t()>&)>& body) {
        serial(groups, chunks, body);
        ++barriers;
      }};
  std::size_t chunks_run = 0;
  run_chunks(&ctx, 0, phase_chunk_items,
             [&](std::size_t, std::size_t lo, std::size_t hi) {
               EXPECT_EQ(lo, hi);
               ++chunks_run;
             });
  EXPECT_EQ(barriers, 1u) << "the phase barrier must still run";
  EXPECT_EQ(chunks_run, 1u) << "an empty range is one empty chunk";
}

TEST(ShardPlanEdgeCasesTest, MoreShardsThanEdgesIsFine) {
  const auto g = make_g(generators::path(5));  // n=5, m=4
  const shard_plan plan(*g, 8);
  EXPECT_EQ(plan.num_shards(), 5u);  // clamped to n, not m
  EXPECT_EQ(plan.edge_end(plan.num_shards() - 1), g->num_edges());

  // And stepping over such a plan is still exact.
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  const auto tokens = workload::point_mass(g->num_nodes(), 0, 100);
  algorithm1 reference(make_fos(g, s, alpha), task_assignment::tokens(tokens));
  algorithm1 sharded(make_fos(g, s, alpha), task_assignment::tokens(tokens));
  sharded.enable_sharded_stepping(serial_shard_context(*g, 8));
  for (int t = 0; t < 20; ++t) {
    reference.step();
    sharded.step();
    ASSERT_EQ(sharded.loads(), reference.loads()) << "round " << t;
  }
}

TEST(ShardPlanEdgeCasesTest, SingleNodeGraphClampsToOneShard) {
  const graph g(1, {});
  const shard_plan plan(g, 8);
  EXPECT_EQ(plan.num_shards(), 1u);
}

TEST(ShardPlanEdgeCasesTest, ContextWithoutAStealRunnerIsRejected) {
  const auto g = make_g(generators::path(5));
  const speed_vector s = uniform_speeds(g->num_nodes());
  algorithm1 p(make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree)),
               task_assignment::tokens(workload::point_mass(5, 0, 10)));
  EXPECT_THROW(
      p.enable_sharded_stepping(std::make_shared<const shard_context>(
          shard_context{shard_plan(*g, 2), nullptr, shard_exec::work_stealing,
                        nullptr})),
      contract_violation);
}

}  // namespace
}  // namespace dlb
