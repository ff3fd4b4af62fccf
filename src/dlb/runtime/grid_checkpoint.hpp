// Grid-level checkpoint/resume: completed result rows persisted per cell.
//
// Every row is a pure function of (seed, config), so the finished rows are
// all a run needs to keep. Each finished cell's row is persisted as its
// canonical JSON line (the format whose parse_row(to_json(r)) == r round
// trip is exact) in the dlb/snapshot framing, so a killed `dlb_run
// --checkpoint` relaunched with `--resume` recomputes only the cells that
// had not finished and emits byte-identical output to an uninterrupted run.
//
// The file embeds a fingerprint of every setting that affects row bytes
// (checkpoint_fingerprint: grids, seeds, sizes, traffic knobs — NOT
// --threads / --shard-threads / --format, which are execution strategy);
// resuming under different settings fails with one line instead of splicing
// rows from two different experiments.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "dlb/runtime/grids.hpp"

namespace dlb::runtime {

/// A set of completed rows keyed by (grid name, cell index), plus the
/// configuration fingerprint they were produced under and the save cadence.
/// Not thread-safe — the grid driver serializes access.
class grid_checkpoint {
 public:
  explicit grid_checkpoint(std::string fingerprint)
      : fingerprint_(std::move(fingerprint)) {}

  [[nodiscard]] std::size_t size() const { return rows_.size(); }

  /// The stored JSON line for (grid, cell), or nullptr.
  [[nodiscard]] const std::string* find(const std::string& grid,
                                        std::uint64_t cell) const;

  /// Saves to `path` after every `every` recorded rows and at each flush()
  /// with unsaved rows; saves are atomic (tmp + rename). Without a path the
  /// checkpoint only collects rows in memory.
  void save_to(std::string path, std::uint64_t every = 1);

  /// Records a finished cell's row (as to_json(row, timing::include), so a
  /// resumed --out file keeps real wall_ns); saves when the cadence is due.
  void record(const std::string& grid, const result_row& row);

  /// Saves if any recorded row is not on disk yet — the end-of-grid save.
  void flush();

  /// Loads `path`, requiring its fingerprint to equal `expected`; throws
  /// contract_violation (one line) on mismatch or a corrupt file, including
  /// a stored row that does not parse.
  [[nodiscard]] static grid_checkpoint load(const std::string& path,
                                            const std::string& expected);

  /// `load`, except a *missing* file is a cold start: returns an empty
  /// checkpoint with `expected` as its fingerprint. This is what --resume
  /// uses, so a run killed before its first save still resumes cleanly.
  [[nodiscard]] static grid_checkpoint load_or_empty(
      const std::string& path, const std::string& expected);

 private:
  std::string fingerprint_;
  std::map<std::pair<std::string, std::uint64_t>, std::string> rows_;
  std::string path_;           // empty = never save
  std::uint64_t every_ = 1;    // save after this many records
  std::uint64_t unsaved_ = 0;  // records since the last save
};

/// The fingerprint `dlb_run` stores in its checkpoints: the `--grid`
/// argument, the master seed and every grid_options field that changes row
/// bytes (never shard_threads), with reals in shortest round-trip form.
[[nodiscard]] std::string checkpoint_fingerprint(const std::string& grids,
                                                 std::uint64_t master_seed,
                                                 const grid_options& opts,
                                                 bool obs_extras);

}  // namespace dlb::runtime
