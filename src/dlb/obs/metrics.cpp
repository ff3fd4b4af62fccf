#include "dlb/obs/metrics.hpp"

#include <cstring>

namespace dlb::obs {

std::uint64_t metrics_snapshot::counter(const char* name) const {
  for (const auto& [key, value] : counters) {
    if (std::strcmp(key, name) == 0) return value;
  }
  return 0;
}

metrics_snapshot metrics::take() const {
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  metrics_snapshot s;
  // Fixed order: the profile report's serialization and the --obs-extras allow-list
  // both depend on it being stable.
  s.counters = {
      {"phases", load(phases_)},
      {"edges_touched", load(edges_touched_)},
      {"nodes_touched", load(nodes_touched_)},
      {"tokens_moved", load(tokens_moved_)},
      {"rounds", load(rounds_)},
      {"arrivals", load(arrivals_)},
      {"served", load(served_)},
      {"events_dispatched", load(events_dispatched_)},
  };
  s.queue_depth_hist = queue_depth_.snapshot();
  return s;
}

}  // namespace dlb::obs
