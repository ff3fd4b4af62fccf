// The asynchronous engine driver: arrival streams, service completions and
// balancing rounds interleaved on one virtual clock.
//
// `run_dynamic` injects arrivals lock-step at round boundaries; `run_async`
// replaces the lock-step loop with a discrete-event simulation. Balancing
// round r (0-based) fires at virtual time r+1; event sources fire at
// arbitrary real times in between, and every event with time in [r, r+1)
// is applied before round r executes — exactly the "tasks keep arriving
// while the network balances" regime the paper's introduction motivates,
// now with genuinely asynchronous (Poisson / traced / departing) traffic.
//
// Determinism: events are a pure function of the sources' seeds, the queue
// breaks time ties by scheduling order, and metrics reuse the engine's
// shard-exact discrepancy reduction — so async grid rows are byte-identical
// at any thread or shard-thread count (docs/ARCHITECTURE.md).
#pragma once

#include <memory>
#include <vector>

#include "dlb/core/engine.hpp"
#include "dlb/events/event_queue.hpp"
#include "dlb/events/event_source.hpp"

namespace dlb::events {

struct async_options {
  /// Balancing rounds to simulate; round r fires at virtual time r+1, and
  /// the horizon is time `rounds` (later events cannot affect any round and
  /// are never pulled).
  round_t rounds = 0;
  /// First round included in the steady-state statistics; negative means
  /// rounds/2, matching run_dynamic's warm-up convention.
  round_t warmup = -1;
  /// Observability sinks (obs/probe.hpp): event-dispatch spans and
  /// arrival/service/queue-depth counters. Default = off; attaching one
  /// never changes the simulation (byte-identical results).
  obs::probe probe;
};

/// Outcome of one event-driven run.
struct async_result {
  round_t rounds = 0;
  weight_t total_arrived = 0;     ///< tokens injected by arrival events
  weight_t service_attempts = 0;  ///< service-event units popped
  weight_t tokens_served = 0;     ///< units actually drained (<= attempts;
                                  ///< the rest found an idle node)
  real_t mean_max_min = 0;   ///< post-warmup mean discrepancy, sampled at
                             ///< rounds (run_dynamic's exact convention)
  real_t peak_max_min = 0;   ///< worst post-warmup discrepancy
  real_t final_max_min = 0;
  // Queue-depth percentiles (nearest-rank over the final real loads):
  weight_t depth_p50 = 0;
  weight_t depth_p90 = 0;
  weight_t depth_p99 = 0;
  weight_t depth_max = 0;

  /// The run_dynamic-comparable slice. A lock-step schedule_source run
  /// through run_async yields bit-identical fields to run_dynamic on a
  /// coupled process (tests/events_test.cpp enforces this).
  [[nodiscard]] dynamic_result dynamics() const;
};

/// Drives `d` for opts.rounds balancing rounds while the event streams of
/// `sources` fire on the virtual clock. Arrival events inject tokens;
/// service events drain them (departures) via discrete_process::
/// drain_tokens. Sources are merged through a stable (time, sequence)
/// queue: one pending event per source, pulled in source order and refilled
/// after the previous event fired, so equal-time events across sources
/// interleave deterministically.
[[nodiscard]] async_result run_async(
    discrete_process& d,
    std::vector<std::unique_ptr<event_source>> sources,
    const async_options& opts, const round_observer& obs = nullptr);

}  // namespace dlb::events
