// The runtime's headline guarantee: a grid's results are bit-identical
// regardless of how many threads execute it, because every cell derives its
// RNG stream from (master seed, cell index) and the grid driver emits in cell
// order. Serialized with timing masked, the outputs must match byte-for-byte.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "dlb/runtime/grids.hpp"

namespace dlb::runtime {
namespace {

grid_options tiny_options() {
  grid_options opts;
  opts.target_n = 16;
  opts.repeats = 2;
  opts.spike_per_node = 10;
  opts.dynamic_rounds = 40;
  opts.arrivals_per_round = 4;
  return opts;
}

std::string canonical_json(const std::string& grid, std::uint64_t master,
                           unsigned threads) {
  const grid_spec spec = make_named_grid(grid, tiny_options(), master);
  thread_pool pool(threads);
  const auto rows = run_grid(spec, master, pool);
  std::ostringstream os;
  write_rows(os, rows, sink_format::json, timing::exclude);
  return os.str();
}

TEST(RuntimeDeterminismTest, Table1IdenticalAtOneAndEightThreads) {
  const std::string one = canonical_json("table1", 42, 1);
  EXPECT_EQ(one, canonical_json("table1", 42, 8));
}

TEST(RuntimeDeterminismTest, RandomMatchingGridIdenticalAcrossThreadCounts) {
  // The random-matching model draws fresh matchings from the cell seed each
  // round — the strongest randomness in the repo, so the strongest check
  // that nothing leaks thread identity into an RNG stream.
  const std::string one = canonical_json("table2-random", 7, 1);
  EXPECT_EQ(one, canonical_json("table2-random", 7, 3));
  EXPECT_EQ(one, canonical_json("table2-random", 7, 8));
}

TEST(RuntimeDeterminismTest, DynamicGridIdenticalAcrossThreadCounts) {
  const std::string one = canonical_json("dynamic-uniform", 9, 1);
  EXPECT_EQ(one, canonical_json("dynamic-uniform", 9, 8));
}

TEST(RuntimeDeterminismTest, DifferentMasterSeedsChangeResults) {
  EXPECT_NE(canonical_json("table2-random", 7, 2),
            canonical_json("table2-random", 8, 2));
}

TEST(RuntimeDeterminismTest, RepeatedRunsWithSamePoolMatch) {
  const grid_spec spec = make_named_grid("table1", tiny_options(), 3);
  thread_pool pool(4);
  const auto a = run_grid(spec, 3, pool);
  const auto b = run_grid(spec, 3, pool);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    result_row lhs = a[i];
    result_row rhs = b[i];
    lhs.wall_ns = rhs.wall_ns = 0;
    EXPECT_EQ(lhs, rhs) << "cell " << i;
  }
}

}  // namespace
}  // namespace dlb::runtime
