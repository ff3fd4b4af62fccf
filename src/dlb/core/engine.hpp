// The experiment engine: balancing-time measurement and lock-step execution.
//
// The paper's guarantees are stated *at the balancing time of the continuous
// process*, T^A = min{ t : ∀i, |x_i(t) - W·s_i/S| <= 1 } (§3). The engine
// drives any discrete_process for exactly T^A rounds in one lockstep loop,
// recording metrics along the way: a flow imitator's T^A is read off the A it
// steps anyway, any other process's off a separate probe stepped beside it.
#pragma once

#include <functional>
#include <vector>

#include "dlb/core/linear_process.hpp"
#include "dlb/core/metrics.hpp"
#include "dlb/core/process.hpp"
#include "dlb/obs/probe.hpp"
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
/// engine's T^A loop, so the two can never drift apart.
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
/// d.speeds()) bit for bit. run_dynamic samples its per-round metrics
/// through this.
[[nodiscard]] real_t round_discrepancy(const discrete_process& d);

/// One counted round: steps `p` inside a `span` span of the probe's cell,
/// then counts the round on the probe's metrics. Every engine loop and
/// every study cell that samples between rounds advances a process through
/// this, so span names and round counts cannot drift between drivers.
void counted_round(discrete_process& p, const obs::probe& pb,
                   const char* span = "round");
void counted_round(linear_process& p, const obs::probe& pb,
                   const char* span = "round");

/// Per-round observation hook; `d` has just completed round `t` (1-based
/// count of executed rounds).
using round_observer = std::function<void(round_t t, const discrete_process& d)>;

/// Advances `d` by `rounds` counted rounds, invoking `obs` (if any) after
/// each.
void run_rounds(discrete_process& d, round_t rounds,
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

/// Runs `d`, which must be fresh (no round executed), for T^A rounds (or
/// `cap`) and reports final metrics. One loop checks balance before each
/// round and then steps `d`. When `d` imitates a continuous process
/// (discrete_process::imitated()), T^A is read off that process in lockstep
/// and `reference_template` is ignored. Otherwise a fresh clone of
/// `reference_template` (the continuous process whose T should gate the
/// run), started from d's loads on d's shard context, steps beside `d` in
/// `tA_round` spans. The max-avg figure is computed against the original
/// total load (dummy weight excluded), matching the paper's reporting
/// convention.
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

/// The traffic of one round: applies round t's arrivals and departures to
/// `d` (0-based t, before the round steps) and returns the tokens that
/// arrived.
using traffic_step = std::function<weight_t(round_t t, discrete_process& d)>;

/// The one loop that interleaves traffic with rounds: for t = 0 .. rounds-1
/// it applies `traffic(t, d)`, then steps `d` one counted round. The
/// probe's `arrivals` counter adds what each step returns. Steady-state
/// statistics are taken over the second half of the run (the first half is
/// warm-up).
[[nodiscard]] dynamic_result run_dynamic(discrete_process& d,
                                         const traffic_step& traffic,
                                         round_t rounds,
                                         const round_observer& obs = nullptr,
                                         const obs::probe& pb = {});

/// Lock-step arrivals: run_dynamic whose traffic injects `sched.arrivals(t)`
/// at the start of round t.
[[nodiscard]] dynamic_result run_dynamic(
    discrete_process& d, const workload::arrival_schedule& sched,
    round_t rounds, const round_observer& obs = nullptr,
    const obs::probe& pb = {});

}  // namespace dlb
