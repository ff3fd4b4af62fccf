#include "dlb/events/async_driver.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "dlb/common/contracts.hpp"
#include "dlb/obs/metrics.hpp"
#include "dlb/obs/recorder.hpp"

namespace dlb::events {

dynamic_result async_result::dynamics() const {
  dynamic_result r;
  r.rounds = rounds;
  r.total_arrived = total_arrived;
  r.mean_max_min = mean_max_min;
  r.peak_max_min = peak_max_min;
  r.final_max_min = final_max_min;
  return r;
}

namespace {

/// Nearest-rank percentile over a sorted load vector.
weight_t percentile(const std::vector<weight_t>& sorted, double p) {
  DLB_EXPECTS(!sorted.empty());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// Applies one fired event to `d` and counts it into `r` and the probe;
/// `pending` is the queue depth after the event was popped.
void dispatch(discrete_process& d, const event& ev, std::size_t pending,
              const obs::probe& pb, async_result& r) {
  obs::recorder* const rec = pb.rec;
  const obs::span_start start =
      rec != nullptr ? rec->begin() : obs::span_start{};
  switch (ev.kind) {
    case event_kind::arrival:
      d.inject_tokens(ev.node, ev.count);
      r.total_arrived += ev.count;
      if (pb.met != nullptr) {
        pb.met->add_arrivals(static_cast<std::uint64_t>(ev.count));
      }
      break;
    case event_kind::service: {
      r.service_attempts += ev.count;
      const weight_t drained = d.drain_tokens(ev.node, ev.count);
      r.tokens_served += drained;
      if (pb.met != nullptr) {
        pb.met->add_served(static_cast<std::uint64_t>(drained));
      }
      break;
    }
  }
  if (rec != nullptr) {
    rec->end(ev.kind == event_kind::arrival ? "event:arrival" : "event:service",
             start, -1, pb.cell, static_cast<std::int64_t>(ev.count));
  }
  if (pb.met != nullptr) pb.met->add_event(pending);
}

}  // namespace

async_result run_async(discrete_process& d,
                       std::vector<std::unique_ptr<event_source>> sources,
                       const async_options& opts, const round_observer& obs) {
  DLB_EXPECTS(opts.rounds >= 1);
  const round_t warmup = opts.warmup >= 0 ? opts.warmup : opts.rounds / 2;
  const auto horizon = static_cast<sim_time>(opts.rounds);
  const obs::probe& pb = opts.probe;

  event_queue queue;
  // One pending event per live source; an event at or past the horizon can
  // never fire before a round, so its source is dropped for good (infinite
  // streams terminate here).
  const auto refill = [&](std::size_t s) {
    if (const std::optional<event> ev = sources[s]->next();
        ev.has_value() && ev->time < horizon) {
      queue.push(*ev, s);
    }
  };
  for (std::size_t s = 0; s < sources.size(); ++s) refill(s);

  async_result r;
  r.rounds = opts.rounds;
  real_t sum = 0;
  round_t samples = 0;
  for (round_t t = 0; t < opts.rounds; ++t) {
    const auto round_time = static_cast<sim_time>(t + 1);
    // Everything scheduled strictly before this round's tick fires first;
    // an event at exactly an integer time k lands at the start of interval
    // [k, k+1) and affects round k — which is how the lock-step adapter
    // reproduces run_dynamic's "inject at the start of round t".
    while (!queue.empty() && queue.top().ev.time < round_time) {
      const event_queue::entry e = queue.pop();
      dispatch(d, e.ev, queue.size(), pb, r);
      refill(e.source);
    }
    {
      const obs::scoped_span span(pb.rec, "round", -1, pb.cell);
      d.step();
    }
    if (pb.met != nullptr) pb.met->add_round();
    if (obs) obs(d.rounds_executed(), d);
    if (t >= warmup) {
      const real_t disc = round_discrepancy(d);
      sum += disc;
      r.peak_max_min = std::max(r.peak_max_min, disc);
      ++samples;
    }
  }
  r.mean_max_min = samples > 0 ? sum / static_cast<real_t>(samples) : 0;

  r.final_max_min = round_discrepancy(d);
  // The depth percentiles need the sorted real-load distribution.
  std::vector<weight_t> loads = d.real_loads();
  std::sort(loads.begin(), loads.end());
  r.depth_p50 = percentile(loads, 0.50);
  r.depth_p90 = percentile(loads, 0.90);
  r.depth_p99 = percentile(loads, 0.99);
  r.depth_max = loads.back();
  return r;
}

}  // namespace dlb::events
