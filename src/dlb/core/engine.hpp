// The experiment engine: balancing-time measurement and lock-step execution.
//
// The paper's guarantees are stated *at the balancing time of the continuous
// process*, T^A = min{ t : ∀i, |x_i(t) - W·s_i/S| <= 1 } (§3). The engine
// measures T^A on a fresh copy of A, then drives any discrete_process for
// exactly that many rounds, recording metrics along the way.
#pragma once

#include <functional>
#include <vector>

#include "dlb/core/linear_process.hpp"
#include "dlb/core/metrics.hpp"
#include "dlb/core/process.hpp"
#include "dlb/obs/probe.hpp"
#include "dlb/snapshot/snapshot.hpp"
#include "dlb/workload/arrival.hpp"

namespace dlb {

/// Result of a balancing-time search.
struct balancing_time_result {
  round_t rounds = 0;       ///< T^A, or the cap if !converged
  bool converged = false;   ///< reached the |x_i - W·s_i/S| <= 1 state
  bool negative_load = false;  ///< Definition 1 violated along the way
};

/// The paper's T^A membership tolerance: balanced means every node within 1
/// of its share (§3). One constant shared by is_balanced's default and the
/// measure_balancing_time probe loop, so the two can never drift apart.
inline constexpr real_t balanced_tolerance = 1.0;

/// Runs `a` (reset to x0) until every node is within balanced_tolerance of
/// its balanced load, or `cap` rounds elapse. Returns T^A and whether A
/// induced negative load. `pb` (optional, like every engine probe parameter)
/// attributes per-round spans to the caller's cell — observation only, the
/// measured T^A is byte-identical with or without it.
[[nodiscard]] balancing_time_result measure_balancing_time(
    linear_process& a, const std::vector<real_t>& x0, round_t cap,
    const obs::probe& pb = {});

/// True iff every node of `a` is within `tol` of its balanced share.
[[nodiscard]] bool is_balanced(const linear_process& a,
                               real_t tol = balanced_tolerance);

/// Max-min discrepancy of `d`'s current real loads — the one discrepancy
/// entry point of the engine drivers. It folds `d`'s real_load_extrema
/// through chunked_reduce (on the shards when `d` steps sharded, on the
/// caller otherwise) without materializing real_loads(); min/max folds are
/// exact, so the value equals max_min_discrepancy(d.real_loads(),
/// d.speeds()) bit for bit. run_dynamic and the event-driven run_async
/// sample their per-round metrics through this.
[[nodiscard]] real_t round_discrepancy(const discrete_process& d);

/// Per-round observation hook; `d` has just completed round `t` (1-based
/// count of executed rounds).
using round_observer = std::function<void(round_t t, const discrete_process& d)>;

/// Advances `d` by `rounds` rounds, invoking `obs` (if any) after each.
void run_rounds(discrete_process& d, round_t rounds,
                const round_observer& obs = nullptr,
                const obs::probe& pb = {});

/// Checkpointing knobs for run_rounds_checkpointed / the async driver's
/// checkpointed entry point.
struct checkpoint_options {
  std::string path;   ///< snapshot file (written atomically: tmp + rename)
  round_t every = 0;  ///< write a snapshot every `every` completed rounds
                      ///< (0 = only at the end)
  bool resume = false;  ///< restore from `path` before running (the file
                        ///< must exist and match the process configuration)
};

/// Writes a snapshot of `d`'s complete state to `path` (atomic). `d` must
/// implement snapshot::checkpointable (every shipped competitor does).
void save_checkpoint(const discrete_process& d, const std::string& path);

/// Restores `d` from a snapshot written by save_checkpoint. `d` must be a
/// freshly constructed process of the identical configuration; fingerprint
/// mismatches throw contract_violation. Returns the restored round count.
round_t restore_checkpoint(discrete_process& d, const std::string& path);

/// Runs `d` until rounds_executed() == `target` (a no-op when already
/// there), writing a snapshot to ckpt.path every ckpt.every completed rounds
/// and once at the end. With ckpt.resume, the state is first restored from
/// ckpt.path — so a run killed at any round and relaunched with the same
/// arguments produces exactly the state of an uninterrupted run (the
/// crash-at-every-round contract, tests/snapshot_test.cpp).
void run_rounds_checkpointed(discrete_process& d, round_t target,
                             const checkpoint_options& ckpt,
                             const round_observer& obs = nullptr,
                             const obs::probe& pb = {});

/// Aggregate outcome of one discrete experiment.
struct experiment_result {
  round_t rounds = 0;             ///< rounds executed (usually T^A)
  bool continuous_converged = false;
  bool continuous_negative_load = false;
  real_t final_max_min = 0;       ///< on real loads (dummies eliminated)
  real_t final_max_avg = 0;       ///< vs. the *original* average W'/S
  weight_t dummy_created = 0;
  std::vector<weight_t> final_loads;       ///< incl. dummies
  std::vector<weight_t> final_real_loads;  ///< dummies eliminated
};

/// Measures T^A with `reference` (a fresh clone of the continuous process
/// underlying `d`, or any process whose T should gate the run), then runs `d`
/// for T rounds and reports final metrics. The max-avg figure is computed
/// against the original total load (dummy weight excluded), matching the
/// paper's reporting convention.
[[nodiscard]] experiment_result run_experiment(
    discrete_process& d, const linear_process& reference_template,
    round_t cap, const round_observer& obs = nullptr,
    const obs::probe& pb = {});

/// Outcome of a dynamic (arrivals-while-balancing) run.
struct dynamic_result {
  round_t rounds = 0;
  weight_t total_arrived = 0;
  real_t mean_max_min = 0;  ///< time-average discrepancy over the last half
  real_t peak_max_min = 0;  ///< worst discrepancy over the last half
  real_t final_max_min = 0;
};

/// Runs `d` for `rounds` rounds, injecting `sched`'s arrivals at the start
/// of each round. Steady-state statistics are taken over the second half of
/// the run (the first half is warm-up).
[[nodiscard]] dynamic_result run_dynamic(
    discrete_process& d, const workload::arrival_schedule& sched,
    round_t rounds, const round_observer& obs = nullptr,
    const obs::probe& pb = {});

}  // namespace dlb
