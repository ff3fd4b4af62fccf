// Measured cost hints for the grid scheduler.
//
// run_grid submits cells longest-first by `grid_cell.cost_estimate`
// (grid-level scheduling, docs/ARCHITECTURE.md); the default estimate is the
// analytic n × expected-rounds guess, which ranks a static grid's cells by
// graph size only — T^A varies by orders of magnitude across families. A
// `cost_model` feeds *measured* per-cell wall_ns from a previous run (the
// committed perf baseline, or any --out/BENCH_*.json file) back in: cells
// whose (grid, scenario, process) triple appears in the baseline use the
// mean measured wall_ns; unknown cells keep the analytic estimate rescaled
// by the covered cells' mean ns-per-analytic-unit, so both scales rank
// together and a stale or partial baseline can only sharpen the ordering,
// never break a run. Pure scheduling either way: rows are emitted in cell
// order, output bytes are unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dlb/runtime/result_sink.hpp"

namespace dlb::runtime {

class cost_model {
 public:
  cost_model() = default;

  /// Builds the lookup from previously measured rows: every (grid,
  /// scenario, process) key maps to the mean wall_ns over its repetitions.
  /// Rows without timing (wall_ns <= 0, e.g. masked stdout captures) are
  /// skipped.
  explicit cost_model(const std::vector<result_row>& rows);

  /// Loads a JSON rows file (write_rows JSON format, e.g.
  /// bench/baselines/perf_baseline.json). Throws contract_violation when
  /// the file is missing or malformed.
  [[nodiscard]] static cost_model from_file(const std::string& path);

  /// Mean measured wall_ns for the triple, or 0 when the baseline has no
  /// timed row for it (callers fall back to their analytic estimate).
  /// Lookup is two-level: the exact (grid, scenario, process) key first,
  /// then (scenario, process) over all grids — BENCH_*.json batches suffix
  /// their grid names ("huge-uniform-n1048576-s1"), and a cell's cost is
  /// carried by its scenario and process, not the batch label.
  [[nodiscard]] std::uint64_t lookup(const std::string& grid,
                                     const std::string& scenario,
                                     const std::string& process) const;

  /// Number of distinct (grid, scenario, process) keys with a measurement.
  [[nodiscard]] std::size_t size() const { return mean_ns_.size(); }

 private:
  // Keys: grid '\x1f' scenario '\x1f' process for the exact level,
  // scenario '\x1f' process for the any-grid fallback (the unit separator
  // cannot appear in row fields).
  std::map<std::string, std::uint64_t> mean_ns_;
  std::map<std::string, std::uint64_t> mean_ns_any_grid_;
};

}  // namespace dlb::runtime
