// Grid expansion and execution: deterministic cell enumeration, seed
// derivation, the named-grid registry, and both engine paths (static
// balancing and dynamic arrivals).
#include "dlb/runtime/experiment_grid.hpp"

#include <gtest/gtest.h>

#include <set>

#include "dlb/common/contracts.hpp"
#include "dlb/common/rng.hpp"
#include "dlb/runtime/grids.hpp"

namespace dlb::runtime {
namespace {

grid_options tiny_options() {
  grid_options opts;
  opts.target_n = 16;
  opts.repeats = 2;
  opts.spike_per_node = 10;
  opts.dynamic_rounds = 50;
  opts.arrivals_per_round = 4;
  return opts;
}

TEST(ExperimentGridTest, ExpansionCountsDeterministicAndRandomizedRows) {
  const grid_spec spec = make_named_grid("table1", tiny_options(), 1);
  const auto cells = expand_grid(spec, 1);
  // 4 graph classes × (3 deterministic×1 + 3 randomized×2 repeats).
  std::size_t randomized = 0;
  for (const auto& p : spec.processes) {
    if (p.randomized) ++randomized;
  }
  const std::size_t per_graph =
      (spec.processes.size() - randomized) + randomized * 2;
  EXPECT_EQ(cells.size(), spec.graphs.size() * per_graph);
}

TEST(ExperimentGridTest, CellSeedsAreDerivedFromTheCellIndex) {
  const grid_spec spec = make_named_grid("table1", tiny_options(), 99);
  const auto cells = expand_grid(spec, 99);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].seed, derive_seed(99, i));
    seeds.insert(cells[i].seed);
  }
  EXPECT_EQ(seeds.size(), cells.size()) << "seed streams must not collide";
}

TEST(ExperimentGridTest, CostEstimatesScaleWithSizeAndExpectedRounds) {
  // Static cells: estimate = n (T^A unknown a priori). scaling-n sweeps
  // sizes, so its estimates must differ across graphs and track num_nodes.
  const grid_spec sweep = make_named_grid("scaling-n", tiny_options(), 1);
  for (const auto& cell : expand_grid(sweep, 1)) {
    EXPECT_EQ(cell.cost_estimate,
              static_cast<std::uint64_t>(
                  sweep.graphs[cell.graph_index].g->num_nodes()));
  }
  // Dynamic cells: estimate = n × dynamic_rounds.
  const grid_spec dyn = make_named_grid("dynamic-uniform", tiny_options(), 1);
  for (const auto& cell : expand_grid(dyn, 1)) {
    EXPECT_EQ(cell.cost_estimate,
              static_cast<std::uint64_t>(
                  dyn.graphs[cell.graph_index].g->num_nodes()) *
                  static_cast<std::uint64_t>(dyn.dynamic_rounds));
  }
}

TEST(ExperimentGridTest, ExpansionOrderIsGraphOuterProcessInner) {
  const grid_spec spec = make_named_grid("table1", tiny_options(), 1);
  const auto cells = expand_grid(spec, 1);
  std::size_t previous_graph = 0;
  for (const auto& cell : cells) {
    EXPECT_GE(cell.graph_index, previous_graph);
    previous_graph = cell.graph_index;
  }
  EXPECT_EQ(cells.front().graph_index, 0u);
  EXPECT_EQ(cells.back().graph_index, spec.graphs.size() - 1);
}

TEST(ExperimentGridTest, RegistryListsAllNamedGrids) {
  const auto infos = list_grids();
  ASSERT_GE(infos.size(), 4u);
  for (const auto& info : infos) {
    const grid_spec spec = make_named_grid(info.name, tiny_options(), 1);
    EXPECT_EQ(spec.name, info.name);
    EXPECT_FALSE(spec.graphs.empty());
    EXPECT_FALSE(spec.processes.empty());
  }
}

TEST(ExperimentGridTest, UnknownGridNameThrows) {
  EXPECT_THROW((void)make_named_grid("table9", tiny_options(), 1),
               contract_violation);
}

TEST(ExperimentGridTest, StaticCellProducesConsistentRow) {
  const grid_spec spec = make_named_grid("table1", tiny_options(), 5);
  const auto cells = expand_grid(spec, 5);
  const result_row row = run_cell(spec, cells.front());
  EXPECT_EQ(row.cell, 0u);
  EXPECT_EQ(row.grid, "table1");
  EXPECT_EQ(row.scenario, spec.graphs[0].name);
  EXPECT_EQ(row.process, spec.processes[0].name);
  EXPECT_EQ(row.model, "diffusion");
  EXPECT_EQ(row.n, spec.graphs[0].g->num_nodes());
  EXPECT_TRUE(row.converged);
  EXPECT_GT(row.rounds, 0);
  EXPECT_GE(row.final_max_min, 0);
  EXPECT_GT(row.wall_ns, 0) << "steady_clock timing must be recorded";
}

TEST(ExperimentGridTest, DynamicCellExercisesRunDynamic) {
  const grid_spec spec = make_named_grid("dynamic-uniform", tiny_options(), 5);
  ASSERT_EQ(spec.kind, grid_kind::dynamic_arrivals);
  const auto cells = expand_grid(spec, 5);
  const result_row row = run_cell(spec, cells.front());
  EXPECT_EQ(row.rounds, spec.dynamic_rounds);
  EXPECT_GE(row.peak_max_min, row.mean_max_min);
  EXPECT_GT(row.wall_ns, 0);
}

}  // namespace
}  // namespace dlb::runtime
