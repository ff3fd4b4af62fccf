#include "dlb/events/event_traffic.hpp"

#include <optional>
#include <utility>

#include "dlb/common/contracts.hpp"
#include "dlb/obs/metrics.hpp"
#include "dlb/obs/recorder.hpp"

namespace dlb::events {

event_traffic::event_traffic(std::vector<std::unique_ptr<event_source>> sources,
                             round_t rounds, const obs::probe& pb)
    : sources_(std::move(sources)),
      horizon_(static_cast<sim_time>(rounds)),
      pb_(pb) {
  DLB_EXPECTS(rounds >= 1);
  for (std::size_t s = 0; s < sources_.size(); ++s) refill(s);
}

void event_traffic::refill(std::size_t source) {
  if (const std::optional<event> ev = sources_[source]->next();
      ev.has_value() && ev->time < horizon_) {
    queue_.push(*ev, source);
  }
}

weight_t event_traffic::operator()(round_t t, discrete_process& d) {
  // Everything scheduled strictly before this round's tick fires first; an
  // event at exactly an integer time k lands at the start of interval
  // [k, k+1) and affects round k, as a lock-step arrival at round k would.
  const auto round_time = static_cast<sim_time>(t + 1);
  weight_t arrived = 0;
  while (!queue_.empty() && queue_.top().ev.time < round_time) {
    const event_queue::entry e = queue_.pop();
    const event& ev = e.ev;
    const obs::span_start start =
        pb_.rec != nullptr ? pb_.rec->begin() : obs::span_start{};
    if (ev.kind == event_kind::arrival) {
      d.inject_tokens(ev.node, ev.count);
      arrived += ev.count;
    } else {
      attempts_ += ev.count;
      const weight_t drained = d.drain_tokens(ev.node, ev.count);
      served_ += drained;
      if (pb_.met != nullptr) {
        pb_.met->add_served(static_cast<std::uint64_t>(drained));
      }
    }
    if (pb_.rec != nullptr) {
      pb_.rec->end(
          ev.kind == event_kind::arrival ? "event:arrival" : "event:service",
          start, -1, pb_.cell, static_cast<std::int64_t>(ev.count));
    }
    if (pb_.met != nullptr) pb_.met->add_event(queue_.size());
    refill(e.source);
  }
  return arrived;
}

}  // namespace dlb::events
