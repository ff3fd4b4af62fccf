// Shared plumbing for the table/figure reproduction benches.
//
// Every bench is a thin wrapper over a named `dlb::runtime` grid (see
// src/dlb/runtime/grids.cpp and docs/REPRODUCING.md): it builds the grid,
// runs it across all cores, renders the grid's table view, and writes every
// cell — real per-cell wall-clock included — to BENCH_<tag>.json. The same
// grids are addressable interactively via `dlb_run --grid <name>`; the
// benches exist so `make && ./bench_x` reproduces a figure with the paper's
// canonical sizes and master seeds, and so CI has stable JSON artifacts to
// feed bench/check_regression.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "dlb/runtime/grids.hpp"

namespace dlb::bench {

/// One batch of a bench: a named grid at one option set. `label_suffix`
/// disambiguates batches of the same grid at the same size — e.g. the
/// huge-uniform shard-scaling batches ("-s1" vs "-s8"), whose rows differ
/// only in wall_ns.
struct grid_batch {
  std::string grid;
  runtime::grid_options opts;
  std::string label_suffix;
};

/// Splits a `-s<k>` shard-thread suffix off a grid name. Returns (base
/// name, k); k = 0 when the name carries no such suffix.
inline std::pair<std::string, unsigned> split_shard_suffix(
    const std::string& grid) {
  const std::size_t pos = grid.rfind("-s");
  if (pos == std::string::npos || pos + 2 >= grid.size()) return {grid, 0};
  unsigned k = 0;
  for (std::size_t i = pos + 2; i < grid.size(); ++i) {
    if (grid[i] < '0' || grid[i] > '9') return {grid, 0};
    k = k * 10 + static_cast<unsigned>(grid[i] - '0');
  }
  return {grid.substr(0, pos), k};
}

/// Scaling-efficiency table over twin-batch rows: for every (base grid,
/// cell) that has an `-s1` row, each `-s<k>` (k > 1) twin contributes a
/// speedup (wall_s1 / wall_sk) and a parallel efficiency (speedup / k) —
/// the quantity bench/check_regression.py tracks against the baseline.
/// Prints nothing when the rows hold no twin pairs.
inline void print_scaling_efficiency(
    const std::vector<runtime::result_row>& rows, std::ostream& os) {
  // (base grid, cell) -> (k -> wall_ns)
  std::map<std::pair<std::string, std::uint64_t>,
           std::map<unsigned, std::int64_t>>
      twins;
  for (const runtime::result_row& row : rows) {
    const auto [base, k] = split_shard_suffix(row.grid);
    if (k >= 1) twins[{base, row.cell}][k] = row.wall_ns;
  }
  bool header = false;
  for (const auto& [key, by_k] : twins) {
    const auto s1 = by_k.find(1);
    if (s1 == by_k.end() || by_k.size() < 2) continue;
    if (!header) {
      os << "\n=== scaling efficiency (speedup vs -s1, efficiency = "
            "speedup / threads) ===\n";
      header = true;
    }
    os << "  " << std::left << std::setw(28)
       << (key.first + "/cell" + std::to_string(key.second)) << std::right;
    for (const auto& [k, wall] : by_k) {
      if (k == 1 || wall <= 0) continue;
      const double speedup = static_cast<double>(s1->second) /
                             static_cast<double>(wall);
      char col[64];
      std::snprintf(col, sizeof(col), "  s%u: %.2fx (eff %.2f)", k, speedup,
                    speedup / static_cast<double>(k));
      os << col;
    }
    os << "\n";
  }
}

/// Runs every batch on one shared pool and writes the combined rows to
/// BENCH_<file_tag>.json. When a grid name repeats across batches (size
/// sweeps), the grid field is suffixed `-n<target>` so (grid, cell) stays a
/// unique key within the file. `cell_threads` sizes the cell pool (0 =
/// hardware concurrency); shard-scaling benches pass 1 so per-cell wall_ns
/// is measured without concurrent cells competing for cores.
inline int run_grid_bench(const std::string& file_tag,
                          std::uint64_t master_seed,
                          const std::vector<grid_batch>& batches,
                          unsigned cell_threads = 0) {
  runtime::thread_pool pool(cell_threads > 0
                                ? cell_threads
                                : runtime::thread_pool::default_threads());
  const auto bench_start = std::chrono::steady_clock::now();
  std::vector<runtime::result_row> rows;
  for (const grid_batch& batch : batches) {
    runtime::grid_spec spec =
        runtime::make_named_grid(batch.grid, batch.opts, master_seed);
    int batches_of_grid = 0;
    for (const grid_batch& other : batches) {
      if (other.grid == batch.grid) ++batches_of_grid;
    }
    if (batches_of_grid > 1) {
      spec.name += "-n" + std::to_string(batch.opts.target_n);
    }
    spec.name += batch.label_suffix;
    auto batch_rows = runtime::run_grid(spec, master_seed, pool);
    std::cout << "\n=== " << spec.name << " (n≈" << batch.opts.target_n
              << ", " << batch.opts.repeats
              << " seeds for randomized): " << spec.description << " ===\n";
    runtime::render_view(spec, batch_rows).print(std::cout);
    rows.insert(rows.end(), std::make_move_iterator(batch_rows.begin()),
                std::make_move_iterator(batch_rows.end()));
  }
  print_scaling_efficiency(rows, std::cout);
  const std::string path = "BENCH_" + file_tag + ".json";
  std::ofstream out(path);
  runtime::write_rows(out, rows, runtime::sink_format::json,
                      runtime::timing::include);
  std::cout << "\nwrote " << rows.size() << " cells to " << path << "\n";
  // Also to stderr: the tables above push the artifact location off-screen,
  // and CI logs often capture only one of the two streams.
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();
  std::cerr << "BENCH " << path << ": " << rows.size() << " cells in "
            << wall_s << " s\n";
  return 0;
}

/// Single-grid convenience at the default option set.
inline int run_grid_bench(const std::string& file_tag,
                          std::uint64_t master_seed, const std::string& grid,
                          runtime::grid_options opts = {}) {
  return run_grid_bench(file_tag, master_seed, {{grid, opts, ""}});
}

}  // namespace dlb::bench
