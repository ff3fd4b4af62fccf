// Adapter: a lock-step workload::arrival_schedule as an event source.
//
// run_dynamic injects sched.arrivals(t) at the start of round t; in event
// time that is "at virtual time t", strictly before the round fires at t+1.
// The adapter therefore emits each batch's arrivals, in batch order, as
// events at time t — running a lock-step schedule through the async driver
// reproduces run_dynamic's metrics bit-for-bit (tests/events_test.cpp).
#pragma once

#include <memory>
#include <vector>

#include "dlb/events/event_source.hpp"
#include "dlb/workload/arrival.hpp"

namespace dlb::events {

class schedule_source final : public event_source {
 public:
  /// Emits `sched->arrivals(t)` at time t for t = 0 .. rounds-1.
  schedule_source(std::unique_ptr<workload::arrival_schedule> sched,
                  round_t rounds);

  [[nodiscard]] std::optional<event> next() override;

 private:
  std::unique_ptr<workload::arrival_schedule> sched_;
  round_t rounds_;
  round_t t_ = 0;
  std::vector<workload::arrival> batch_;  ///< arrivals(t_), being drained
  std::size_t pos_ = 0;
};

}  // namespace dlb::events
