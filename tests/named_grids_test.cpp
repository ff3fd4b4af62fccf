// Every registered named grid must actually run — at tiny sizes, at any
// thread count, with byte-identical serialized rows (the runtime's headline
// determinism contract) and non-empty metric columns. Parameterized over
// list_grids() so a newly registered grid is covered automatically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <initializer_list>
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

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct golden {
  const char* grid;
  std::uint64_t hash;
};

// FNV-1a of each grid's timing-masked JSON rows at n = `target_n`, one
// repeat, master seed 7; the other knobs keep `opts`' values.
void expect_golden_rows(std::initializer_list<golden> table,
                        grid_options opts = {}, node_id target_n = 32) {
  opts.target_n = target_n;
  opts.repeats = 1;
  constexpr std::uint64_t seed = 7;
  for (const golden& want : table) {
    thread_pool pool(2);
    const auto rows =
        run_grid(make_named_grid(want.grid, opts, seed), seed, pool);
    std::ostringstream os;
    write_rows(os, rows, sink_format::json, timing::exclude);
    EXPECT_EQ(fnv1a(os.str()), want.hash)
        << want.grid << std::hex << " hashes to 0x" << fnv1a(os.str());
  }
}

// The grids whose custom cells construct Algorithm 1 themselves, on either
// store; no scale-benchmark digest covers them, so their rows are pinned
// here. A change to either store's transfer rule fails here before it
// moves a published figure.
TEST(NamedGridsGoldenTest, Alg1CustomCellRowsMatchGoldenHashes) {
  expect_golden_rows({
      {"weighted-speeds", 0xd71644e4315d48e7ULL},
      {"dummy-threshold", 0xbef6a12c5ea27698ULL},
      {"convergence", 0xeeffe7c05e8e3b88ULL},
      {"locality", 0xbfb525f9c97445b4ULL},
      {"ablation", 0x5b53c4ac296a537eULL},
  });
}

// The grids whose rows draw counter coins: Algorithm 2's rounding, the
// randomized-rounding baselines and the random walk's laziness. A coin that
// flips one bit differently, or a change to Algorithm 2's transfer record,
// fails here.
TEST(NamedGridsGoldenTest, CoinRowsMatchGoldenHashes) {
  expect_golden_rows({
      {"table1", 0xe539089f5d089342ULL},
      {"table2-periodic", 0xfec828f893552bc0ULL},
      {"table2-random", 0xfcf649ff7ea5f897ULL},
      {"huge-uniform", 0xa8454b42c59fe285ULL},
  });
}

// The grids that interleave traffic with rounds: lock-step arrivals and
// Poisson arrival and service events. A reordered event, a moved warm-up
// or a changed sample fails here.
TEST(NamedGridsGoldenTest, TrafficRowsMatchGoldenHashes) {
  expect_golden_rows({
      {"dynamic-uniform", 0x005684d03b9969dcULL},
      {"dynamic-bursts", 0x960818a5c581fc2fULL},
      {"async-poisson", 0xe4d1d6b15d418ff3ULL},
      {"async-service", 0xe4a776365bd2e3d6ULL},
  });
  // A replayed trace whose arrivals and services share integer and
  // fractional times with each other and with the Poisson streams: events
  // at one time fire in source order, trace last.
  const std::string path = ::testing::TempDir() + "golden_mixed_trace.txt";
  {
    std::ofstream out(path);
    out << "0 3 5\n0 3 2 s\n0.5 7 4 s\n0.5 1 6\n2 0 9\n2 0 4 s\n"
           "2 15 3 s\n7.25 9 8\n7.25 9 8 s\n31 12 20\n31 2 1 s\n"
           "200 5 30\n200 5 10 s\n399.5 11 2\n";
  }
  grid_options opts;
  opts.trace_path = path;
  expect_golden_rows({{"async-service", 0xd347dd61023c4e9cULL}}, opts);
}

// At n = 32 every phase is one chunk, so a per-chunk step that read or
// wrote a neighbouring chunk's slots would pass every case above. At
// n = 2^15, hypercube(15)'s edge phases run 15 chunks and its node phases
// 2, on one shard thread and on four.
TEST(NamedGridsGoldenTest, MultiChunkRowsMatchGoldenHash) {
  grid_options opts;
  opts.dynamic_rounds = 8;
  for (const unsigned shard_threads : {1u, 4u}) {
    opts.shard_threads = shard_threads;
    expect_golden_rows({{"huge-uniform", 0x84c4ae44af42b410ULL}}, opts,
                       node_id{1} << 15);
  }
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
