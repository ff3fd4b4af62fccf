// Measured cost feedback: the cost_model's (grid, scenario, process) lookup
// with analytic fallback, and the guarantee that cost hints are pure
// scheduling — expand_grid re-ranks cells, run_grid bytes never move.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dlb/common/contracts.hpp"
#include "dlb/runtime/grids.hpp"

namespace dlb::runtime {
namespace {

result_row timed_row(const std::string& grid, const std::string& scenario,
                     const std::string& process, std::int64_t wall_ns) {
  result_row row;
  row.grid = grid;
  row.scenario = scenario;
  row.process = process;
  row.wall_ns = wall_ns;
  return row;
}

TEST(CostModelTest, LooksUpMeanAndFallsBackToZero) {
  const std::vector<result_row> rows = {
      timed_row("table1", "torus(32x32)", "Alg1 (this paper)", 100),
      timed_row("table1", "torus(32x32)", "Alg1 (this paper)", 300),
      timed_row("table1", "torus(32x32)", "Alg2 (this paper)", 50),
      timed_row("table1", "hypercube(dim=5)", "Alg1 (this paper)", 0),
  };
  const cost_model model(rows);
  EXPECT_EQ(model.size(), 2u);  // untimed rows are skipped
  EXPECT_EQ(model.lookup("table1", "torus(32x32)", "Alg1 (this paper)"),
            200u);  // mean over repetitions
  EXPECT_EQ(model.lookup("table1", "torus(32x32)", "Alg2 (this paper)"), 50u);
  EXPECT_EQ(model.lookup("table1", "hypercube(dim=5)", "Alg1 (this paper)"),
            0u);  // wall_ns <= 0 → unknown
  // Unknown (scenario, process): no fallback applies.
  EXPECT_EQ(model.lookup("table1", "ring(n=64)", "Alg1 (this paper)"), 0u);
  EXPECT_EQ(model.lookup("table1", "torus(32x32)", "round-down [37]"), 0u);
}

TEST(CostModelTest, FallsBackAcrossSuffixedBenchGridNames) {
  // BENCH batches write suffixed grid names ("huge-uniform-n1048576-s1");
  // the (scenario, process) pair still carries the cost, so lookups under
  // the registry name must hit via the any-grid level.
  const std::vector<result_row> rows = {
      timed_row("huge-uniform-n1048576-s1", "ring(n=1048576)",
                "Alg1 (this paper)", 900),
      timed_row("huge-uniform-n1048576-s8", "ring(n=1048576)",
                "Alg1 (this paper)", 300),
  };
  const cost_model model(rows);
  EXPECT_EQ(model.lookup("huge-uniform", "ring(n=1048576)",
                         "Alg1 (this paper)"),
            600u);  // mean across the suffixed batches
  // An exact hit is preferred over the fallback.
  EXPECT_EQ(model.lookup("huge-uniform-n1048576-s8", "ring(n=1048576)",
                         "Alg1 (this paper)"),
            300u);
}

TEST(CostModelTest, RoundTripsThroughAJsonRowsFile) {
  const std::string path = "cost_model_test_rows.json";
  {
    std::ofstream out(path);
    const std::vector<result_row> rows = {
        timed_row("g", "s", "p", 4200),
    };
    write_rows(out, rows, sink_format::json, timing::include);
  }
  const cost_model model = cost_model::from_file(path);
  EXPECT_EQ(model.lookup("g", "s", "p"), 4200u);
  std::remove(path.c_str());
  EXPECT_THROW(cost_model::from_file(path), contract_violation);
}

TEST(CostModelTest, HintsRerankCellsButNeverChangeRows) {
  grid_options opts;
  opts.target_n = 32;
  opts.repeats = 2;
  opts.spike_per_node = 10;
  grid_spec spec = make_named_grid("table1", opts, /*master=*/21);

  thread_pool pool(4);
  const auto plain_cells = expand_grid(spec, /*master=*/21);
  const auto plain_rows = run_grid(spec, /*master=*/21, pool);
  ASSERT_FALSE(plain_rows.empty());

  // Seed a model from the run itself: every cell now has a measured cost,
  // and marking one scenario×process extremely slow must reorder the
  // estimates without touching a single output byte.
  std::vector<result_row> measured = plain_rows;
  measured[0].wall_ns = 1'000'000'000;
  spec.cost_hints = std::make_shared<const cost_model>(measured);

  const auto hinted_cells = expand_grid(spec, /*master=*/21);
  ASSERT_EQ(hinted_cells.size(), plain_cells.size());
  EXPECT_EQ(hinted_cells[0].cost_estimate, 1'000'000'000u);
  bool any_changed = false;
  for (std::size_t i = 0; i < hinted_cells.size(); ++i) {
    EXPECT_EQ(hinted_cells[i].seed, plain_cells[i].seed);
    if (hinted_cells[i].cost_estimate != plain_cells[i].cost_estimate) {
      any_changed = true;
    }
  }
  EXPECT_TRUE(any_changed) << "hints never reached the estimates";

  const auto hinted_rows = run_grid(spec, /*master=*/21, pool);
  std::ostringstream a;
  std::ostringstream b;
  write_rows(a, plain_rows, sink_format::json, timing::exclude);
  write_rows(b, hinted_rows, sink_format::json, timing::exclude);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace dlb::runtime
