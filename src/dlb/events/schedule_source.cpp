#include "dlb/events/schedule_source.hpp"

#include <utility>

#include "dlb/common/contracts.hpp"

namespace dlb::events {

schedule_source::schedule_source(
    std::unique_ptr<workload::arrival_schedule> sched, round_t rounds)
    : sched_(std::move(sched)), rounds_(rounds) {
  DLB_EXPECTS(sched_ != nullptr && rounds >= 0);
}

std::optional<event> schedule_source::next() {
  while (pos_ >= batch_.size()) {
    if (t_ >= rounds_) return std::nullopt;
    batch_ = sched_->arrivals(t_);
    pos_ = 0;
    ++t_;
  }
  const workload::arrival& a = batch_[pos_++];
  return event{static_cast<sim_time>(t_ - 1), event_kind::arrival, a.node,
               a.count};
}

}  // namespace dlb::events
