// Event sources: seeded generators of arrival / service event streams.
//
// A source is a pull-based iterator over events with nondecreasing times.
// Every stream is a deterministic function of its construction parameters
// (seed, rates, trace bytes) — `next()` draws from a private RNG stream and
// never consults clocks or global state, so an event-driven run replays
// exactly from its seeds. event_traffic owns the merge: it pulls one event
// per source into a stable `event_queue` and refills a source only after its
// previous event fired.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dlb/common/types.hpp"
#include "dlb/events/event_queue.hpp"

namespace dlb::events {

/// A deterministic stream of events in nondecreasing time order.
class event_source {
 public:
  virtual ~event_source() = default;

  /// The next event of the stream, or nullopt when exhausted. Successive
  /// calls return nondecreasing times. Infinite streams (Poisson) never
  /// return nullopt — event_traffic stops pulling once an event lands at
  /// or beyond its horizon.
  [[nodiscard]] virtual std::optional<event> next() = 0;
};

/// A seeded Poisson process over the nodes of an n-node network: events fire
/// with exponential interarrival times at aggregate rate `total_rate` per
/// unit of virtual time, each carrying one token on a node drawn uniformly
/// from [0, n) — the superposition of n independent per-node Poisson
/// processes, simulated as one aggregate stream so the queue holds O(1)
/// pending events regardless of n.
class poisson_source final : public event_source {
 public:
  /// `total_rate` (finite, > 0) events per unit time spread uniformly over
  /// `n` nodes. `kind` selects arrival or service semantics. An infinite
  /// rate would make every interarrival time 0, so simulated time would
  /// never advance.
  poisson_source(node_id n, real_t total_rate, std::uint64_t seed,
                 event_kind kind = event_kind::arrival);

  [[nodiscard]] std::optional<event> next() override;

 private:
  node_id draw_node();

  node_id n_ = 0;
  real_t total_rate_ = 0;
  event_kind kind_;
  std::uint64_t draws_ = 0;   ///< events emitted so far (RNG stream id)
  std::uint64_t seed_ = 0;
  sim_time now_ = 0;
};

/// Replays a recorded stream of `(time, node, count)` tuples.
///
/// Text format, one event per line: `time node count [kind]`, where `kind`
/// is `a` (arrival, the default) or `s` (service). Blank lines and lines
/// starting with `#` are ignored. Times must be finite, nondecreasing and
/// >= 0, nodes >= 0, counts in [1, max_cell_tokens]; violations throw
/// contract_violation at parse time, so a malformed trace never half-runs.
///
/// Copyable, and copies are cheap: the parsed events are immutable and
/// shared, and the service/max-node summaries are cached at construction —
/// the grid runtime parses a trace file once and fans O(1) copies out to
/// every cell. A copy also clones the replay cursor, so copy prototypes
/// before consuming them.
class trace_source final : public event_source {
 public:
  /// Parses the whole stream up front.
  explicit trace_source(std::istream& in, std::string label = "trace");

  /// In-memory variant (tests, generated traces). Must be time-sorted.
  explicit trace_source(std::vector<event> events,
                        std::string label = "trace");

  [[nodiscard]] std::optional<event> next() override;

  [[nodiscard]] std::size_t size() const noexcept { return events_->size(); }

  /// The name errors cite: the file path for load_trace.
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

  /// True when the trace carries any service (departure) event (cached).
  /// Callers whose process set cannot drain tokens use this to reject such
  /// traces up front instead of applying departures to some processes and
  /// not others.
  [[nodiscard]] bool has_service_events() const noexcept {
    return has_service_;
  }

  /// Largest node id named by the trace (invalid_node when empty; cached).
  /// Parse time cannot know the topology, so range validation is the
  /// replayer's job — callers check `max_node() < n` before driving a run.
  [[nodiscard]] node_id max_node() const noexcept { return max_node_; }

 private:
  void summarize();  // fills the has_service_/max_node_ caches

  std::shared_ptr<const std::vector<event>> events_;
  std::size_t pos_ = 0;
  std::string label_;
  bool has_service_ = false;
  node_id max_node_ = invalid_node;
};

/// Opens `path` and builds a trace_source from it; throws contract_violation
/// when the file cannot be read.
[[nodiscard]] std::unique_ptr<trace_source> load_trace(
    const std::string& path);

}  // namespace dlb::events
