// Every registered named grid must actually run — at tiny sizes, at any
// thread count, with byte-identical serialized rows (the runtime's headline
// determinism contract) and non-empty metric columns. Parameterized over
// list_grids() so a newly registered grid is covered automatically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>

#include "dlb/runtime/grids.hpp"

namespace dlb::runtime {
namespace {

grid_options tiny_options() {
  grid_options opts;
  opts.target_n = 32;
  opts.repeats = 2;
  opts.spike_per_node = 10;
  opts.dynamic_rounds = 40;
  opts.arrivals_per_round = 4;
  opts.burst_size = 30;
  opts.burst_period = 10;
  return opts;
}

constexpr std::uint64_t master_seed = 77;

std::string serialized(const grid_spec& spec, unsigned threads) {
  thread_pool pool(threads);
  const auto rows = run_grid(spec, master_seed, pool);
  std::ostringstream os;
  write_rows(os, rows, sink_format::json, timing::exclude);
  return os.str();
}

class NamedGridsTest : public ::testing::TestWithParam<grid_info> {};

TEST_P(NamedGridsTest, SerializedRowsIdenticalAtOneAndFourThreads) {
  const grid_spec spec =
      make_named_grid(GetParam().name, tiny_options(), master_seed);
  ASSERT_FALSE(expand_grid(spec, master_seed).empty());
  const std::string one = serialized(spec, 1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, serialized(spec, 4));
}

TEST_P(NamedGridsTest, RowsCarryMetricsAndRoundTrip) {
  const grid_spec spec =
      make_named_grid(GetParam().name, tiny_options(), master_seed);
  thread_pool pool(2);
  const auto rows = run_grid(spec, master_seed, pool);
  ASSERT_EQ(rows.size(), expand_grid(spec, master_seed).size());
  for (const result_row& row : rows) {
    EXPECT_EQ(row.grid, GetParam().name);
    EXPECT_FALSE(row.scenario.empty());
    EXPECT_FALSE(row.process.empty());
    EXPECT_GT(row.n, 0);
    // Every cell must report something: rounds driven, a discrepancy, or
    // study-grid extra columns — an all-zero row means the driver ran
    // nothing.
    EXPECT_TRUE(row.rounds > 0 || row.final_max_min > 0 ||
                !row.extra.empty())
        << row.process << " @ " << row.scenario;
    EXPECT_EQ(parse_row(to_json(row)), row);
  }
  if (spec.view == table_view::extras) {
    for (const result_row& row : rows) {
      EXPECT_FALSE(row.extra.empty())
          << row.process << " @ " << row.scenario;
    }
  }
  // The declared table view must render without throwing and cover every
  // process row.
  const auto table = render_view(spec, rows);
  EXPECT_GT(table.num_rows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllGrids, NamedGridsTest, ::testing::ValuesIn(list_grids()),
    [](const ::testing::TestParamInfo<grid_info>& tpi) {
      std::string name = tpi.param.name;
      std::replace_if(
          name.begin(), name.end(),
          [](unsigned char c) { return std::isalnum(c) == 0; }, '_');
      return name;
    });

}  // namespace
}  // namespace dlb::runtime
