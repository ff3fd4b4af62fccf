// Sharded stepping determinism: a sharded round must be *bit-identical* to
// the sequential round for any shard count — for the continuous linear
// process, for Algorithm 1's send/receive phases, for the dynamic engine's
// per-round metrics, and end-to-end for every huge-uniform grid cell
// (byte-compared serialized rows at shard_threads 1, 2, and 8).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dlb/core/algorithm1.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/runtime/grids.hpp"
#include "dlb/workload/arrival.hpp"
#include "dlb/workload/competitors.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

std::shared_ptr<const graph> make_g(graph g) {
  return std::make_shared<const graph>(std::move(g));
}

// Most equivalence tests step under serial_shard_context — the barrier
// semantics without threads; determinism must not depend on the runner. The
// grid-level test below exercises real thread pools.
TEST(ShardPlanTest, PartitionsEdgesContiguously) {
  const auto g = generators::torus_2d(6);
  for (const std::size_t shards : {1u, 2u, 3u, 5u, 8u}) {
    const shard_plan plan(g, shards);
    ASSERT_GE(plan.num_shards(), 1u);
    ASSERT_LE(plan.num_shards(), shards);
    EXPECT_EQ(plan.edge_begin(0), 0);
    EXPECT_EQ(plan.edge_end(plan.num_shards() - 1), g.num_edges());
    for (std::size_t s = 0; s + 1 < plan.num_shards(); ++s) {
      EXPECT_EQ(plan.edge_end(s), plan.edge_begin(s + 1));
    }
  }
}

TEST(ShardPlanTest, ClampsShardCountToNodeCount) {
  const auto g = generators::cycle(4);
  const shard_plan plan(g, 64);
  EXPECT_EQ(plan.num_shards(), 4u);
}

TEST(ShardedLinearProcessTest, BitIdenticalToSequentialForAnyShardCount) {
  for (const real_t beta : {1.0, 1.7}) {
    const auto g = make_g(generators::ring_of_cliques(6, 5));
    const speed_vector s = uniform_speeds(g->num_nodes());
    const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
    const auto loads =
        workload::uniform_random(g->num_nodes(), 900, /*seed=*/5);
    const std::vector<real_t> x0(loads.begin(), loads.end());

    auto reference = make_sos(g, s, alpha, beta);
    reference->reset(x0);
    for (int t = 0; t < 60; ++t) reference->step();

    for (const std::size_t shards : {2u, 3u, 8u}) {
      auto sharded = make_sos(g, s, alpha, beta);
      sharded->enable_sharded_stepping(serial_shard_context(*g, shards));
      sharded->reset(x0);
      for (int t = 0; t < 60; ++t) sharded->step();

      ASSERT_EQ(sharded->loads().size(), reference->loads().size());
      for (std::size_t i = 0; i < reference->loads().size(); ++i) {
        EXPECT_EQ(sharded->loads()[i], reference->loads()[i])
            << "beta=" << beta << " shards=" << shards << " node " << i;
      }
      for (edge_id e = 0; e < g->num_edges(); ++e) {
        EXPECT_EQ(sharded->cumulative_flow(e), reference->cumulative_flow(e));
      }
      EXPECT_EQ(sharded->negative_load_detected(),
                reference->negative_load_detected());
    }
  }
}

TEST(ShardedAlgorithm1Test, BitIdenticalRoundsAndPools) {
  const auto g = make_g(generators::torus_2d(7));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  const auto tokens = workload::spike_workload(*g, s, /*spike_per_node=*/20);

  algorithm1 reference(make_fos(g, s, alpha), task_assignment::tokens(tokens));
  for (int t = 0; t < 40; ++t) reference.step();

  for (const std::size_t shards : {2u, 5u, 8u}) {
    algorithm1 sharded(make_fos(g, s, alpha), task_assignment::tokens(tokens));
    sharded.enable_sharded_stepping(serial_shard_context(*g, shards));
    for (int t = 0; t < 40; ++t) sharded.step();

    EXPECT_EQ(sharded.loads(), reference.loads()) << "shards=" << shards;
    EXPECT_EQ(sharded.real_loads(), reference.real_loads());
    EXPECT_EQ(sharded.dummy_created(), reference.dummy_created());
    for (edge_id e = 0; e < g->num_edges(); ++e) {
      EXPECT_EQ(sharded.discrete_flow(e), reference.discrete_flow(e));
      EXPECT_EQ(sharded.last_sent(e), reference.last_sent(e));
      EXPECT_EQ(sharded.flow_error(e), reference.flow_error(e));
    }
    // Pool contents (not just totals) must match: removal order is LIFO, so
    // a reordered pool would diverge in later rounds.
    for (node_id i = 0; i < g->num_nodes(); ++i) {
      EXPECT_EQ(sharded.tasks().pool(i).real_task_weights(),
                reference.tasks().pool(i).real_task_weights());
      EXPECT_EQ(sharded.tasks().pool(i).real_task_origins(),
                reference.tasks().pool(i).real_task_origins());
    }
  }
}

// The dummy-minting regime (SOS overshoot: β near 2 induces negative
// continuous load, covered from the infinite source) exercises the
// per-shard dummy reduction.
TEST(ShardedAlgorithm1Test, DummyMintingMatchesSequential) {
  const auto g = make_g(generators::path(16));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  const auto tokens =
      workload::point_mass(g->num_nodes(), /*at=*/0, /*total=*/1600);

  algorithm1 reference(make_sos(g, s, alpha, 1.95),
                       task_assignment::tokens(tokens));
  algorithm1 sharded(make_sos(g, s, alpha, 1.95),
                     task_assignment::tokens(tokens));
  sharded.enable_sharded_stepping(serial_shard_context(*g, 4));
  for (int t = 0; t < 80; ++t) {
    reference.step();
    sharded.step();
    ASSERT_EQ(sharded.dummy_created(), reference.dummy_created())
        << "round " << t;
  }
  EXPECT_GT(reference.dummy_created(), 0) << "regime no longer mints dummies";
}

TEST(ShardedEngineTest, RunExperimentMatchesSequential) {
  const auto g = make_g(generators::hypercube(6));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  const auto tokens = workload::spike_workload(*g, s, 15);

  algorithm1 sequential(make_fos(g, s, alpha),
                        task_assignment::tokens(tokens));
  const auto expected =
      run_experiment(sequential, sequential.continuous(), /*cap=*/100'000);

  algorithm1 sharded(make_fos(g, s, alpha), task_assignment::tokens(tokens));
  sharded.enable_sharded_stepping(serial_shard_context(*g, 3));
  const auto got =
      run_experiment(sharded, sharded.continuous(), /*cap=*/100'000);

  EXPECT_EQ(got.rounds, expected.rounds);
  EXPECT_EQ(got.continuous_converged, expected.continuous_converged);
  EXPECT_EQ(got.final_max_min, expected.final_max_min);
  EXPECT_EQ(got.final_max_avg, expected.final_max_avg);
  EXPECT_EQ(got.final_loads, expected.final_loads);
}

// run_dynamic's steady-state metrics read the sharded min/max reduction;
// they must equal the sequential real_loads() scan exactly.
TEST(ShardedEngineTest, RunDynamicMetricsMatchSequential) {
  const auto g = make_g(generators::torus_2d(6));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  const auto tokens = workload::spike_workload(*g, s, 10);
  const workload::uniform_arrivals sched(g->num_nodes(), 6, /*seed=*/9);

  algorithm1 sequential(make_fos(g, s, alpha),
                        task_assignment::tokens(tokens));
  const auto expected = run_dynamic(sequential, sched, /*rounds=*/120);

  algorithm1 sharded(make_fos(g, s, alpha), task_assignment::tokens(tokens));
  sharded.enable_sharded_stepping(serial_shard_context(*g, 5));
  const auto got = run_dynamic(sharded, sched, /*rounds=*/120);

  EXPECT_EQ(got.total_arrived, expected.total_arrived);
  EXPECT_EQ(got.mean_max_min, expected.mean_max_min);
  EXPECT_EQ(got.peak_max_min, expected.peak_max_min);
  EXPECT_EQ(got.final_max_min, expected.final_max_min);
}

// End-to-end acceptance shape: every cell of the huge grids — the *full*
// competitor set, including the randomized baselines and the T^A probe of
// huge-static — serializes to the same bytes at shard_threads 1, 2, and 8.
// Real thread pools, real grid drivers, wall_ns masked.
struct shard_rig_case {
  const char* grid;
  unsigned shard_threads;
};

class HugeGridShardsTest : public ::testing::TestWithParam<shard_rig_case> {};

std::string huge_grid_bytes(const std::string& grid, unsigned shard_threads) {
  runtime::grid_options opts;
  opts.target_n = 32;
  opts.dynamic_rounds = 30;
  opts.arrivals_per_round = 5;
  opts.spike_per_node = 4;
  opts.repeats = 2;
  opts.shard_threads = shard_threads;
  const runtime::grid_spec spec =
      runtime::make_named_grid(grid, opts, /*master_seed=*/123);
  runtime::thread_pool pool(2);
  const auto rows = runtime::run_grid(spec, /*master_seed=*/123, pool);
  std::ostringstream os;
  runtime::write_rows(os, rows, runtime::sink_format::json,
                      runtime::timing::exclude);
  return os.str();
}

TEST_P(HugeGridShardsTest, RowsByteIdenticalToSequential) {
  const std::string sequential = huge_grid_bytes(GetParam().grid, 1);
  ASSERT_FALSE(sequential.empty());
  EXPECT_EQ(huge_grid_bytes(GetParam().grid, GetParam().shard_threads),
            sequential);
}

INSTANTIATE_TEST_SUITE_P(
    ShardRigs, HugeGridShardsTest,
    ::testing::Values(shard_rig_case{"huge-uniform", 2},
                      shard_rig_case{"huge-uniform", 8},
                      shard_rig_case{"huge-static", 2},
                      shard_rig_case{"huge-static", 8}),
    [](const ::testing::TestParamInfo<shard_rig_case>& tpi) {
      std::string name = tpi.param.grid;
      name += "_threads_" + std::to_string(tpi.param.shard_threads);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace dlb
