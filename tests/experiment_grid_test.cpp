// Grid expansion and execution: deterministic cell enumeration, seed
// derivation, the named-grid registry, both engine paths (static balancing
// and dynamic arrivals), and the `--table` renderings built from rows.
#include "dlb/runtime/experiment_grid.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

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

// A grid whose cells would create more than max_cell_tokens tokens is
// refused when it is built, and the error names the flag that set the
// count; a count at the cap passes.
TEST(ExperimentGridTest, TokenCountsAboveTheCellCapNameTheirFlag) {
  const auto error_of = [](const std::string& grid,
                           const grid_options& opts) {
    try {
      (void)make_named_grid(grid, opts, 1);
    } catch (const contract_violation& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  grid_options spike = tiny_options();
  spike.spike_per_node = max_cell_tokens / 16 + 1;  // every graph has n >= 16
  EXPECT_NE(error_of("table1", spike).find("argument 'spike-per-node'"),
            std::string::npos);

  grid_options arrivals = tiny_options();  // 50 rounds
  arrivals.arrivals_per_round = max_cell_tokens / 50 + 1;
  EXPECT_NE(error_of("dynamic-uniform", arrivals)
                .find("argument 'arrivals-per-round'"),
            std::string::npos);
  arrivals.arrivals_per_round = max_cell_tokens / 50;
  EXPECT_EQ(error_of("dynamic-uniform", arrivals), "");

  grid_options bursts = tiny_options();  // rounds 0, 10, ..., 40 burst
  bursts.burst_period = 10;
  bursts.burst_size = max_cell_tokens / 5 + 1;
  EXPECT_NE(error_of("dynamic-bursts", bursts).find("argument 'burst-size'"),
            std::string::npos);
  bursts.burst_size = max_cell_tokens / 5;
  EXPECT_EQ(error_of("dynamic-bursts", bursts), "");

  // An event-driven cell fires every event its Poisson sources draw, about
  // rate × rounds of them.
  grid_options traffic = tiny_options();  // 50 rounds
  traffic.arrival_rate = static_cast<real_t>(max_cell_tokens) / 50 * 1.01;
  EXPECT_NE(error_of("async-poisson", traffic).find("argument 'arrival-rate'"),
            std::string::npos);
  traffic.arrival_rate = static_cast<real_t>(max_cell_tokens) / 50;
  EXPECT_EQ(error_of("async-poisson", traffic), "");
  traffic.arrival_rate = 8;
  traffic.service_rate = static_cast<real_t>(max_cell_tokens) / 50 * 1.01;
  EXPECT_NE(error_of("async-service", traffic).find("argument 'service-rate'"),
            std::string::npos);
  traffic.service_rate = static_cast<real_t>(max_cell_tokens) / 50;
  EXPECT_EQ(error_of("async-service", traffic), "");
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

/// The trimmed cells of the table line whose first cell is `label`.
std::vector<std::string> table_line(const std::string& table,
                                    const std::string& label) {
  std::istringstream lines(table);
  for (std::string line; std::getline(lines, line);) {
    std::vector<std::string> cells;
    std::istringstream parts(line);
    std::string part;
    std::getline(parts, part, '|');  // text before the leading '|'
    while (std::getline(parts, part, '|')) {
      const std::size_t b = part.find_first_not_of(' ');
      const std::size_t e = part.find_last_not_of(' ');
      cells.push_back(b == std::string::npos ? "" : part.substr(b, e - b + 1));
    }
    if (!cells.empty() && cells.front() == label) return cells;
  }
  return {};
}

// The scaling-n view appends one slope(<family>) column: the log-log fit of
// the mean discrepancy over n. Doubling with n is slope 1; a constant is 0;
// all zeros hit the 0.25 floor and read 0 too, not -0.
TEST(ExperimentGridTest, SlopeViewFitsEachFamilyOverN) {
  grid_spec spec;
  spec.view = table_view::discrepancy_slopes;
  std::vector<result_row> rows;
  const auto add = [&rows](const std::string& family, std::int64_t n,
                           const std::string& process, real_t value) {
    result_row row;
    row.scenario = family + "(n=" + std::to_string(n) + ")";
    row.n = n;
    row.process = process;
    row.final_max_min = value;
    rows.push_back(row);
  };
  for (const std::int64_t n : {128, 256, 512}) {
    const real_t half = static_cast<real_t>(n) / 16;
    add("ring", n, "grows-on-ring", half - 1);  // 2 repetitions, mean n/16
    add("ring", n, "grows-on-ring", half + 1);
    add("ring", n, "grows-on-torus", 3);
    add("ring", n, "zero", 0);
    add("torus", n, "grows-on-ring", 5);
    add("torus", n, "grows-on-torus", static_cast<real_t>(n));
    add("torus", n, "zero", 0);
  }
  std::ostringstream text;
  render_view(spec, rows).print(text);
  const std::string table = text.str();

  const std::vector<std::string> header = table_line(table, "process");
  ASSERT_EQ(header.size(), 1u + 6u + 2u) << table;
  EXPECT_EQ(header[7], "slope(ring)");
  EXPECT_EQ(header[8], "slope(torus)");
  const std::vector<std::string> on_ring = table_line(table, "grows-on-ring");
  const std::vector<std::string> on_torus =
      table_line(table, "grows-on-torus");
  const std::vector<std::string> zero = table_line(table, "zero");
  ASSERT_EQ(on_ring.size(), header.size()) << table;
  ASSERT_EQ(on_torus.size(), header.size()) << table;
  ASSERT_EQ(zero.size(), header.size()) << table;
  EXPECT_EQ(on_ring[7], "1.00") << table;
  EXPECT_EQ(on_ring[8], "0.00") << table;
  EXPECT_EQ(on_torus[7], "0.00") << table;
  EXPECT_EQ(on_torus[8], "1.00") << table;
  EXPECT_EQ(zero[7], "0.00") << table;
  EXPECT_EQ(zero[8], "0.00") << table;
}

// A family seen at one size has nothing to fit: no slope column.
TEST(ExperimentGridTest, SlopeViewSkipsSingleSizeFamilies) {
  grid_spec spec;
  spec.view = table_view::discrepancy_slopes;
  result_row row;
  row.scenario = "ring(n=16)";
  row.n = 16;
  row.process = "p";
  row.final_max_min = 2;
  std::ostringstream text;
  render_view(spec, {row, row}).print(text);
  EXPECT_EQ(text.str().find("slope("), std::string::npos) << text.str();
}

TEST(ExperimentGridTest, ScalingEfficiencyComparesEachTwinWithItsS1Row) {
  result_row s1;
  s1.grid = "g-s1";
  s1.wall_ns = 400;
  result_row s4 = s1;
  s4.grid = "g-s4";
  s4.wall_ns = 100;
  std::ostringstream text;
  print_scaling_efficiency({s1, s4}, text);
  EXPECT_NE(text.str().find("=== scaling efficiency"), std::string::npos);
  EXPECT_NE(text.str().find("g/cell0"), std::string::npos) << text.str();
  EXPECT_NE(text.str().find("s4: 4.00x (eff 1.00)"), std::string::npos)
      << text.str();

  // Rows with no -s1 twin (or no shard suffix at all) render nothing.
  result_row plain = s1;
  plain.grid = "g";
  std::ostringstream none;
  print_scaling_efficiency({s4, plain}, none);
  EXPECT_EQ(none.str(), "");
}

}  // namespace
}  // namespace dlb::runtime
