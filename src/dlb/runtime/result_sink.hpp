// Experiment result rows and their wire formats.
//
// Every grid cell produces one `result_row`; the grid driver (run_grid)
// hands them out in canonical cell order, so downstream output (JSON/CSV
// files, rendered tables) is bit-identical regardless of how many threads
// executed the grid. Timing is the one nondeterministic field, so the
// serializer can mask it (`timing::exclude`) — that is what `dlb_run` prints
// to stdout, while `--out` and `BENCH_*.json` files keep real wall-clock
// numbers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "dlb/analysis/table.hpp"
#include "dlb/common/types.hpp"

namespace dlb::runtime {

/// One named metric beyond the fixed row schema (study-grid knobs and
/// outputs: sweep parameters, theory bounds, trace checkpoints, ...).
/// Order is part of the row identity — grids emit extras in a fixed order so
/// serialized rows stay byte-stable.
struct extra_metric {
  std::string key;
  real_t value = 0;

  friend bool operator==(const extra_metric&, const extra_metric&) = default;
};

/// One executed grid cell. `cell` is the deterministic enumeration index the
/// grid assigned; it doubles as the RNG stream id (seed = derive_seed(master,
/// cell)) and as the canonical emission order.
struct result_row {
  std::uint64_t cell = 0;
  std::string grid;      ///< grid name, e.g. "table1"
  std::string scenario;  ///< graph case, e.g. "hypercube(dim=7)"
  std::string process;   ///< competitor, e.g. "Alg1 (this paper)"
  std::string model;     ///< "diffusion" / "periodic" / "random"
  std::int64_t n = 0;    ///< node count
  std::uint64_t seed = 0;
  round_t rounds = 0;
  bool converged = false;  ///< continuous reference reached T^A; always
                           ///< false for dynamic runs (no T^A gate exists)
  real_t final_max_min = 0;
  real_t final_max_avg = 0;
  real_t mean_max_min = 0;  ///< dynamic runs only (0 otherwise)
  real_t peak_max_min = 0;  ///< dynamic runs only (0 otherwise)
  weight_t dummy_created = 0;
  std::vector<extra_metric> extra;  ///< per-grid metric columns (may be empty)
  std::int64_t wall_ns = 0;  ///< per-cell steady_clock wall time

  /// Value of `extra[key]`; `fallback` when absent.
  [[nodiscard]] real_t extra_value(std::string_view key,
                                   real_t fallback = 0) const;

  friend bool operator==(const result_row&, const result_row&) = default;
};

/// Whether serialized rows carry real wall-clock numbers or a 0 placeholder.
enum class timing { include, exclude };

/// Serializes one row as a single-line JSON object. Reals are written with
/// shortest-round-trip formatting, so parse_row(to_json(r)) == r exactly.
[[nodiscard]] std::string to_json(const result_row& row,
                                  timing t = timing::include);

/// Parses a JSON object produced by to_json. Unknown keys are ignored;
/// malformed input throws contract_violation.
[[nodiscard]] result_row parse_row(std::string_view json);

/// Serialization backends under one row schema: JSON (default; an array,
/// one to_json object per line) and RFC-4180-style CSV (`--format csv`; one
/// header line, then the fixed columns plus an `extra` column of ordered
/// `key=value` pairs joined by `;` — keys may contain `=`, parsing splits at
/// the last one, but not `;`). Both write reals in shortest round-trip form,
/// so parse_json / parse_csv invert write_rows exactly, masking included.
enum class sink_format { json, csv };

/// Parses "json" / "csv"; throws contract_violation on anything else.
[[nodiscard]] sink_format parse_format(const std::string& name);

/// Parses a JSON array written by write_rows(sink_format::json).
[[nodiscard]] std::vector<result_row> parse_json(std::string_view json);

/// Parses a CSV document written by write_rows(sink_format::csv) (quoted
/// fields may span lines). Throws contract_violation on malformed input or a
/// header that does not match the schema.
[[nodiscard]] std::vector<result_row> parse_csv(std::string_view text);

/// The one row framing: begin() → row(r) for every row in final order →
/// end(). JSON writes each separating comma *before* the next row, so rows
/// can leave as the grid driver emits them without a known total.
class row_writer {
 public:
  row_writer(std::ostream& os, sink_format f, timing t);

  void begin();
  void row(const result_row& r);
  void end();

  [[nodiscard]] std::uint64_t rows_written() const { return rows_; }

 private:
  std::ostream& os_;
  sink_format format_;
  timing timing_;
  std::uint64_t rows_ = 0;
  bool open_ = false;
};

/// Writes a whole row vector through one row_writer.
void write_rows(std::ostream& os, const std::vector<result_row>& rows,
                sink_format f, timing t = timing::include);

/// Projects rows into the standard table shape (process × scenario →
/// final max-min discrepancy), ready for analysis::pivot.
[[nodiscard]] std::vector<analysis::pivot_cell> discrepancy_cells(
    const std::vector<result_row>& rows);

/// Generalized projection: process × scenario → the named metric, which is
/// either a fixed numeric field ("rounds", "final_max_min", "final_max_avg",
/// "mean_max_min", "peak_max_min", "dummy_created", "wall_ns") or an `extra`
/// key. Rows lacking the metric are skipped.
[[nodiscard]] std::vector<analysis::pivot_cell> metric_cells(
    const std::vector<result_row>& rows, std::string_view metric);

/// Projection for study grids: one pivot row per (process @ scenario), one
/// column per `extra` key in emission order — renders a sweep or trace as a
/// case × metric table.
[[nodiscard]] std::vector<analysis::pivot_cell> extras_cells(
    const std::vector<result_row>& rows);

}  // namespace dlb::runtime
