// The deterministic discrete-event core: events on a virtual clock.
//
// Everything event-driven in dlb is a deterministic function of seeds — an
// event's firing time is computed when the event is scheduled, never read
// from a wall clock. The queue is a *stable* priority queue: events pop in
// ascending (time, sequence) order, where the sequence number is assigned at
// push time. Two events at the same virtual time therefore fire in exactly
// the order they were scheduled, which is what makes whole event-driven runs
// bit-reproducible (docs/ARCHITECTURE.md, "Event-driven runs").
#pragma once

#include <cstdint>
#include <vector>

#include "dlb/common/types.hpp"

namespace dlb::events {

/// Virtual time. Balancing round r (0-based) fires at time r+1; sources may
/// fire at arbitrary real times in between. Never wall-clock.
using sim_time = real_t;

/// What an event does when it fires.
enum class event_kind {
  arrival,  ///< `count` unit tokens land on `node`
  service,  ///< up to `count` real tokens complete on `node` and leave
};

/// One scheduled occurrence.
struct event {
  sim_time time = 0;
  event_kind kind = event_kind::arrival;
  node_id node = invalid_node;
  weight_t count = 0;

  friend bool operator==(const event&, const event&) = default;
};

/// A stable min-priority queue of events keyed by (time, sequence).
///
/// `push` assigns each event the next sequence number; `pop` returns the
/// entry with the smallest (time, seq) pair. Ties on time are therefore
/// broken by scheduling order — deterministically, with no dependence on
/// heap internals or container addresses.
class event_queue {
 public:
  struct entry {
    event ev;
    std::uint64_t seq = 0;     ///< assigned at push, ascending
    std::size_t source = 0;    ///< caller tag (event_traffic: source index)

    friend bool operator==(const entry&, const entry&) = default;
  };

  /// Schedules `ev`, tagging it with `source` (an opaque caller id returned
  /// on pop — event_traffic uses it to refill from the right event_source).
  void push(const event& ev, std::size_t source = 0);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// The entry with the smallest (time, seq). Precondition: !empty().
  [[nodiscard]] const entry& top() const;

  /// Removes and returns top(). Precondition: !empty().
  entry pop();

 private:
  std::vector<entry> heap_;  // binary min-heap on (time, seq)
  std::uint64_t next_seq_ = 0;
};

}  // namespace dlb::events
