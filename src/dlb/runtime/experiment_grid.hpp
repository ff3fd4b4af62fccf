// Declarative experiment grids and their parallel execution.
//
// A grid_spec is the cross product (graph case × competitor × repetition)
// under one communication model, executed either as a static balancing run
// (engine::run_experiment, gated by the continuous balancing time T^A) or as
// a traffic run (engine::run_dynamic, with lock-step arrivals or events).
// Expansion assigns every cell a deterministic index; the cell's RNG seed is
// derive_seed(master, index), so results are bit-identical no matter how
// many threads execute the grid or in which order the scheduler happens to
// hand cells out.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dlb/common/types.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/obs/recorder.hpp"
#include "dlb/runtime/result_sink.hpp"
#include "dlb/runtime/thread_pool.hpp"
#include "dlb/workload/competitors.hpp"
#include "dlb/workload/scenario.hpp"

namespace dlb::events {
class trace_source;
}

namespace dlb::runtime {

/// How a cell is driven through the engine.
enum class grid_kind {
  static_balancing,  ///< run_experiment to the continuous balancing time
  dynamic_arrivals,  ///< run_dynamic with a seeded arrival schedule
  async_events,      ///< run_dynamic with seeded event sources
};

/// Arrival schedule shape for dynamic_arrivals grids.
enum class arrival_pattern {
  uniform,  ///< arrivals_per_round tokens on uniform random nodes
  bursts,   ///< burst_size tokens on node 0 every burst_period rounds
};

/// Round cap of every static cell: a T^A search that has not converged by
/// then reports the cap with converged = false.
inline constexpr round_t static_round_cap = 2'000'000;

/// How `dlb_run --table` should pivot a grid's rows into an ascii table.
enum class table_view {
  discrepancy,       ///< process × scenario → final max-min discrepancy
  discrepancy_slopes,  ///< discrepancy plus one log-log `slope(<family>)`
                       ///< column per graph family (size sweeps)
  mean_discrepancy,  ///< process × scenario → steady mean max-min (dynamic)
  rounds,            ///< process × scenario → rounds (balancing-time grids)
  extras,  ///< (process @ scenario) × extra key → value (study grids)
};

struct grid_cell;

/// A declarative grid: every (graph, process, repetition) triple becomes one
/// cell. Deterministic competitors run one repetition regardless of
/// `repeats`; randomized ones run `repeats` with distinct derived seeds.
struct grid_spec {
  std::string name;
  std::string description;
  grid_kind kind = grid_kind::static_balancing;
  workload::model comm_model = workload::model::diffusion;
  std::vector<workload::graph_case> graphs;
  std::vector<workload::competitor> processes;
  int repeats = 1;
  weight_t spike_per_node = 50;  ///< initial point-mass spike per node
  table_view view = table_view::discrepancy;

  /// Intra-cell parallelism: threads stepping a single graph's shards
  /// (core/sharding.hpp). 1 = sequential stepping. When > 1, run_cell builds
  /// a per-cell shard pool + plan (outside the timed engine call) and
  /// enables sharded stepping — every competitor and the T^A probe step
  /// through the shared protocol, so rows stay byte-identical for any value:
  /// sharding is an execution strategy, not a model change. Every
  /// engine-driven named grid forwards `--shard-threads` here; the knob is
  /// meant for huge-graph grids whose cell count is small. On wide grids it
  /// multiplies with the cell pool (each in-flight cell owns its own
  /// shard-thread pool), so combining a large `--threads` with a large
  /// `--shard-threads` oversubscribes cores — pick one axis.
  unsigned shard_threads = 1;

  /// Observability (`--trace` / `--obs-profile`): non-owning trace
  /// recorder. When set, run_cell registers each cell with it, attaches a
  /// probe to the cell's process, shard pool, and engine drivers (per-shard
  /// phase spans, barrier waits, rounds, event dispatches), and hands the
  /// recorder the cell's metrics snapshot at the end, for the profile
  /// report. A recorder built with a counter source profiles the same
  /// spans.
  /// Pure observation — rows stay byte-identical with or without it
  /// (tests/obs_test.cpp, tests/prof_test.cpp).
  obs::recorder* recorder = nullptr;

  /// Opt-in (`--obs-extras`): append the deterministic obs counters
  /// (obs_tokens_moved, obs_edges_touched, obs_nodes_touched, obs_phases,
  /// obs_rounds) to row.extra. Off by default because it changes output
  /// bytes vs a plain run; the values themselves are deterministic at any
  /// --threads / --shard-threads (ranges partition the full entity sets and
  /// token movement is the processes' own integer accounting).
  bool obs_extras = false;

  /// Explicit (graph_index, process_index) cell list. Empty means the full
  /// graphs × processes cross product; study grids whose process variants
  /// only make sense on specific graphs (e.g. the dummy-threshold sweeps)
  /// enumerate exactly the pairs they need instead.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;

  /// Custom per-cell executor. When set it replaces the standard engine
  /// drivers entirely: run_cell pre-fills the row's identity fields (cell,
  /// grid, scenario, process, model, n, seed), times the call for wall_ns,
  /// and the hook fills every metric field (including `extra`). The
  /// competitor's `build` member is unused by such grids. Must be
  /// deterministic given (spec, cell) — no global RNG, no clocks. The probe
  /// is the cell's observability attachment, as the standard drivers get
  /// it: the hook attaches it to the processes it builds (set_probe) and
  /// passes it to the engine calls it makes.
  std::function<void(const grid_spec&, const grid_cell&, result_row&,
                     const obs::probe&)>
      custom_cell;

  /// Post-driver annotation hook (standard and custom cells alike): append
  /// derived columns — theory bounds, sweep parameters — to `row.extra`.
  /// Same determinism contract as custom_cell.
  std::function<void(const grid_spec&, const grid_cell&, result_row&)>
      annotate;

  // dynamic_arrivals only:
  arrival_pattern arrivals = arrival_pattern::uniform;
  round_t dynamic_rounds = 0;        ///< total rounds to simulate (also the
                                     ///< async virtual-time horizon)
  weight_t arrivals_per_round = 0;   ///< uniform arrival rate
  weight_t burst_size = 0;           ///< bursts: tokens per burst
  round_t burst_period = 0;          ///< bursts: rounds between bursts

  // async_events only (run_dynamic over dynamic_rounds rounds):
  real_t arrival_rate = 0;  ///< Poisson arrivals per unit of virtual time
                            ///< (whole network, uniform over nodes)
  real_t service_rate = 0;  ///< Poisson service completions per unit time
                            ///< (whole network; 0 = no departures)
  /// Replayed `(time, node, count)` events, an extra source beside the
  /// Poisson streams (null = none). make_named_grid parses `--replay-trace`
  /// into it once, so a malformed file fails before any cell runs; each
  /// cell then takes an O(1) copy (the parsed events are immutable and
  /// shared) and replays it from the start.
  std::shared_ptr<const events::trace_source> trace_proto;
};

/// One expanded cell. `index` is the position in deterministic enumeration
/// order (graphs outer, processes middle, repetitions inner — or `pairs`
/// order when the spec enumerates explicit pairs).
struct grid_cell {
  std::uint64_t index = 0;
  std::size_t graph_index = 0;
  std::size_t process_index = 0;
  int repetition = 0;
  std::uint64_t seed = 0;  ///< derive_seed(master, index)
  /// Traffic seed for async grids: derived from (master, graph, repetition)
  /// but *not* from the competitor, so every competitor row of one scenario
  /// and repetition faces the identical arrival/service event stream —
  /// otherwise the mean-discrepancy pivot would partly rank traffic luck.
  /// (Process-internal randomness still comes from `seed`.)
  std::uint64_t traffic_seed = 0;
  /// Cheap relative cost estimate: n × expected rounds (dynamic_rounds for
  /// the dynamic/async kinds, 1 for static grids whose T^A is unknown a
  /// priori). Only the ordering matters: run_grid submits cells
  /// longest-first so a wide pool is not left waiting on one huge cell that
  /// started last (grid-level scheduling).
  std::uint64_t cost_estimate = 0;
};

/// Expands a spec into its cell list. Pure and deterministic.
[[nodiscard]] std::vector<grid_cell> expand_grid(const grid_spec& spec,
                                                 std::uint64_t master_seed);

/// Executes one cell and returns its result row (wall_ns populated from a
/// steady_clock measurement around the engine call).
[[nodiscard]] result_row run_cell(const grid_spec& spec,
                                  const grid_cell& cell);

class grid_checkpoint;

/// The grid driver: expands `spec` once, runs its cells on `pool`
/// longest-first by `cost_estimate`, and calls `emit` with every row in
/// canonical cell order — bit-identical for any pool size apart from
/// wall_ns. Finished rows wait in a reorder buffer for every earlier cell;
/// `emit` runs on pool workers under the reorder lock, one call at a time.
/// With `ckpt`, stored cells are emitted without running, and each fresh
/// row is recorded when its cell finishes (not when it is emitted), so a
/// kill loses no row waiting behind a slower cell; the checkpoint saves on
/// its own cadence and at the end of the grid.
void run_grid(const grid_spec& spec, std::uint64_t master_seed,
              thread_pool& pool,
              const std::function<void(const result_row&)>& emit,
              grid_checkpoint* ckpt = nullptr);

/// Collector form of the driver: all rows of the grid, in cell order.
[[nodiscard]] std::vector<result_row> run_grid(const grid_spec& spec,
                                               std::uint64_t master_seed,
                                               thread_pool& pool);

/// Pivots rows into the grid's declared table shape (spec.view) — the table
/// `dlb_run --table` prints.
[[nodiscard]] analysis::ascii_table render_view(
    const grid_spec& spec, const std::vector<result_row>& rows);

/// Scaling-efficiency table over the `-s<k>` twin rows a multi-value
/// `--shard-threads` run emits: for every (base grid, cell) with an `-s1`
/// row, each `-s<k>` (k > 1) twin contributes a speedup (wall_s1 / wall_sk)
/// and a parallel efficiency (speedup / k) — the quantity
/// bench/check_regression.py tracks against the baseline. Prints nothing
/// when the rows hold no twin pairs.
void print_scaling_efficiency(const std::vector<result_row>& rows,
                              std::ostream& os);

}  // namespace dlb::runtime
