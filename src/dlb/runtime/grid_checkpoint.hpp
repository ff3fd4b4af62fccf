// Grid-level checkpoint/resume: completed result rows persisted per cell.
//
// Process snapshots (dlb/snapshot) capture one run mid-flight; a *grid*
// checkpoint works at the coarser granularity the CLI needs — every finished
// cell's row is persisted (as its canonical JSON line, the format whose
// parse_row(to_json(r)) == r round trip is exact), so a killed `dlb_run
// --checkpoint` relaunched with `--resume` recomputes only the cells that
// had not finished and emits byte-identical output to an uninterrupted run.
//
// The file embeds a caller-built fingerprint of every setting that affects
// row bytes (grids, seeds, sizes, traffic knobs — NOT --threads /
// --shard-threads / --format, which are execution strategy); resuming
// under different settings fails with one line instead
// of splicing rows from two different experiments.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dlb/runtime/experiment_grid.hpp"

namespace dlb::runtime {

/// A set of completed rows keyed by (grid name, cell index), plus the
/// configuration fingerprint they were produced under. Not thread-safe —
/// the checkpointed grid driver serializes access.
class grid_checkpoint {
 public:
  explicit grid_checkpoint(std::string fingerprint)
      : fingerprint_(std::move(fingerprint)) {}

  [[nodiscard]] const std::string& fingerprint() const { return fingerprint_; }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }

  /// True when (grid, cell) already has a completed row.
  [[nodiscard]] bool has(const std::string& grid, std::uint64_t cell) const;

  /// The stored JSON line for (grid, cell), or nullptr.
  [[nodiscard]] const std::string* find(const std::string& grid,
                                        std::uint64_t cell) const;

  /// Records a completed row (stored as to_json(row, timing::include), so a
  /// resumed --out file keeps its real wall-clock numbers).
  void put(const std::string& grid, const result_row& row);

  /// Writes the checkpoint to `path` atomically (tmp + rename — a SIGKILL
  /// mid-save leaves the previous checkpoint intact).
  void save(const std::string& path) const;

  /// Loads `path`, requiring its fingerprint to equal `expected`; throws
  /// contract_violation (one line) on mismatch or a corrupt file.
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
};

/// run_grid with cell-granularity checkpointing: rows already present in
/// `ckpt` are restored (parse_row) without executing their cells; the rest
/// run on `pool` longest-first, and after every `every` freshly completed
/// cells the checkpoint is rewritten to `path`. Returns rows in canonical
/// cell order — byte-identical to run_grid's, whatever mix of cached and
/// fresh cells produced them.
[[nodiscard]] std::vector<result_row> run_grid_checkpointed(
    const grid_spec& spec, std::uint64_t master_seed, thread_pool& pool,
    grid_checkpoint& ckpt, const std::string& path, std::uint64_t every = 1);

}  // namespace dlb::runtime
