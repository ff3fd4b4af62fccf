#include "dlb/events/event_queue.hpp"

#include <algorithm>

#include "dlb/common/contracts.hpp"

namespace dlb::events {

namespace {

// Min-heap via std::*_heap's max-heap semantics: "less" means "fires later".
bool fires_later(const event_queue::entry& a, const event_queue::entry& b) {
  if (a.ev.time != b.ev.time) return a.ev.time > b.ev.time;
  return a.seq > b.seq;
}

}  // namespace

void event_queue::push(const event& ev, std::size_t source) {
  heap_.push_back({ev, next_seq_++, source});
  std::push_heap(heap_.begin(), heap_.end(), fires_later);
}

const event_queue::entry& event_queue::top() const {
  DLB_EXPECTS(!heap_.empty());
  return heap_.front();
}

event_queue::entry event_queue::pop() {
  DLB_EXPECTS(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), fires_later);
  entry out = heap_.back();
  heap_.pop_back();
  return out;
}

}  // namespace dlb::events
