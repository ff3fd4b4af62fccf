// The named grid registry: every table/figure-style experiment the repo
// ships, addressable by name from `dlb_run` and the tests. Each named grid
// is a parameterized grid_spec builder; graph instances are derived from the
// master seed so one `--master-seed` pins the entire experiment, topology
// included. docs/REPRODUCING.md maps every paper artifact to its grid; keep
// the two lists in sync (CI diffs them).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "dlb/runtime/experiment_grid.hpp"

namespace dlb::runtime {

/// Size/effort knobs shared by all named grids (`dlb_run` flag in parens).
/// Study-specific sweep values — w_max levels, dummy floors, SOS betas,
/// trace checkpoints — are fixed inside each grid builder so that a grid
/// name plus a master seed fully determines the experiment.
struct grid_options {
  /// Approximate node count per graph case (`--n`). Grids that sweep size
  /// or degree scale their sweep range from this: scaling-n runs sizes
  /// target_n/4 .. target_n, scaling-d caps hypercube dimension and
  /// complete-graph size near it, and the study grids scale their fixed
  /// topologies proportionally.
  node_id target_n = 128;
  /// Repetitions for randomized competitors (`--repeats`); deterministic
  /// rows always run once.
  int repeats = 5;
  /// Initial spike weight per node in the standard spike workload
  /// (`--spike-per-node`).
  weight_t spike_per_node = 50;
  /// Dynamic grids: total rounds to simulate (`--dynamic-rounds`).
  round_t dynamic_rounds = 400;
  /// dynamic-uniform: tokens arriving per round (`--arrivals-per-round`).
  weight_t arrivals_per_round = 8;
  /// dynamic-bursts: tokens per burst on the hotspot (`--burst-size`).
  weight_t burst_size = 500;
  /// dynamic-bursts: rounds between bursts (`--burst-period`).
  round_t burst_period = 100;
  /// async grids: Poisson arrivals per unit of virtual time over the whole
  /// network (`--arrival-rate`).
  real_t arrival_rate = 8.0;
  /// async-service: Poisson service completions per unit time over the
  /// whole network (`--service-rate`).
  real_t service_rate = 6.0;
  /// async grids: optional `(time, node, count)` trace file replayed as an
  /// extra event source (`--replay-trace`).
  std::string trace_path;
  /// Threads stepping a single graph's shards (`--shard-threads`). Every
  /// engine-driven grid honours it uniformly — all competitors step through
  /// the shared sharding protocol — and rows are byte-identical for any
  /// value. (Study grids with custom cell bodies ignore it.)
  unsigned shard_threads = 1;
};

/// Name + one-line description of a registered grid.
struct grid_info {
  std::string name;
  std::string description;
};

/// All registered grid names, in stable listing order.
[[nodiscard]] std::vector<grid_info> list_grids();

/// Builds the named grid. Graph randomness (the expander case) is seeded
/// from `master_seed`, so the same master reproduces identical topologies.
/// Parses an async grid's replay trace into `trace_proto`. Throws
/// contract_violation for unknown names, for a malformed trace, and for
/// counts that would ask a cell to create more than max_cell_tokens tokens
/// (n × spike per node, rounds × arrivals per round, the burst total).
[[nodiscard]] grid_spec make_named_grid(const std::string& name,
                                        const grid_options& opts,
                                        std::uint64_t master_seed);

/// Refuses a cell asked to create `tokens` × every factor in `factors`
/// tokens when that exceeds max_cell_tokens: one contract_violation naming
/// the argument `flag`, e.g. "argument 'spike-per-node': 5000 tokens ×
/// 65536 nodes of torus exceeds the cap of 268435456 tokens per cell"
/// (`what` names the product). The cap is divided by each factor instead of
/// multiplying them, so no product overflows.
void require_cell_tokens(const char* flag, weight_t tokens,
                         std::initializer_list<std::int64_t> factors,
                         const std::string& what);

}  // namespace dlb::runtime
