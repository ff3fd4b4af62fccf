// Event-driven traffic: arrival streams and service completions on a
// virtual clock, fired between the balancing rounds of run_dynamic.
//
// Balancing round r (0-based) fires at virtual time r+1; event sources fire
// at arbitrary real times in between, and every event with time in [r, r+1)
// is applied before round r executes — the "tasks keep arriving while the
// network balances" regime the paper's introduction motivates, with
// Poisson, traced and departing traffic. run_dynamic owns the loop, the
// warm-up and the samples; an event_traffic is the traffic step it calls
// once per round.
//
// Determinism: events are a pure function of the sources' seeds, the queue
// breaks time ties by scheduling order, and the engine samples through its
// shard-exact discrepancy reduction — so event-driven grid rows are
// byte-identical at any thread or shard-thread count (docs/ARCHITECTURE.md).
#pragma once

#include <memory>
#include <vector>

#include "dlb/core/process.hpp"
#include "dlb/events/event_queue.hpp"
#include "dlb/events/event_source.hpp"
#include "dlb/obs/probe.hpp"

namespace dlb::events {

/// Merges `sources` through a stable (time, sequence) queue: one pending
/// event per source, pulled in source order and refilled after the previous
/// event fired, so equal-time events across sources interleave
/// deterministically. An event at or past the horizon (`rounds`) can never
/// fire before a round, so its source is dropped for good (infinite
/// streams end there).
///
/// Called as run_dynamic's traffic step for round t, it fires every event
/// with time < t + 1 on `d`: arrivals inject tokens, services drain them
/// (discrete_process::drain_tokens). Each event gets an `event:arrival` or
/// `event:service` span on the probe, and the probe's `served`,
/// `events_dispatched` and queue-depth counters; run_dynamic counts the
/// arrivals this returns.
class event_traffic {
 public:
  event_traffic(std::vector<std::unique_ptr<event_source>> sources,
                round_t rounds, const obs::probe& pb = {});

  /// Fires round t's events on `d`; returns the tokens that arrived.
  weight_t operator()(round_t t, discrete_process& d);

  /// Service-event units fired so far.
  [[nodiscard]] weight_t service_attempts() const noexcept {
    return attempts_;
  }
  /// Units actually drained so far (<= attempts; the rest found an idle
  /// node).
  [[nodiscard]] weight_t served() const noexcept { return served_; }

 private:
  void refill(std::size_t source);

  std::vector<std::unique_ptr<event_source>> sources_;
  sim_time horizon_;
  obs::probe pb_;
  event_queue queue_;
  weight_t attempts_ = 0;
  weight_t served_ = 0;
};

}  // namespace dlb::events
