#include "dlb/events/event_source.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "dlb/common/contracts.hpp"
#include "dlb/common/rng.hpp"

namespace dlb::events {

// ---------------------------------------------------------- poisson_source

poisson_source::poisson_source(node_id n, real_t total_rate,
                               std::uint64_t seed, event_kind kind)
    : n_(n), total_rate_(total_rate), kind_(kind), seed_(seed) {
  DLB_EXPECTS(n > 0 && total_rate > 0 && std::isfinite(total_rate));
}

node_id poisson_source::draw_node() {
  // Drawn from the same per-event RNG stream as the interarrival time (the
  // stream id is the event index), so the whole stream is a pure function of
  // (seed, event index) — replayable without storing RNG state.
  rng_t rng = make_rng(seed_, draws_);
  // Exponential interarrival at the aggregate rate; 1-u is in (0, 1] so the
  // log never sees 0.
  const real_t u = uniform_real(rng);
  now_ += -std::log(1.0 - u) / total_rate_;
  return uniform_int<node_id>(rng, 0, n_ - 1);
}

std::optional<event> poisson_source::next() {
  const node_id node = draw_node();
  ++draws_;
  return event{now_, kind_, node, 1};
}

// ------------------------------------------------------------ trace_source

trace_source::trace_source(std::istream& in, std::string label)
    : label_(std::move(label)) {
  std::vector<event> parsed;
  std::string line;
  std::size_t lineno = 0;
  sim_time last = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    event ev;
    std::string kind;
    double time = 0;
    long long node = 0, count = 0;
    if (!(ls >> time >> node >> count)) {
      throw contract_violation(label_ + ":" + std::to_string(lineno) +
                               ": expected `time node count [a|s]`");
    }
    ls >> kind;  // optional; absent => arrival
    // Non-inverted comparisons so a NaN time fails validation instead of
    // slipping through (and then poisoning the ordering check for every
    // subsequent line).
    if (!std::isfinite(time) || !(time >= last) || !(time >= 0) ||
        node < 0 || node > std::numeric_limits<node_id>::max() ||
        count < 1 || count > max_cell_tokens ||
        (!kind.empty() && kind != "a" && kind != "s")) {
      throw contract_violation(
          label_ + ":" + std::to_string(lineno) +
          ": bad trace event (times must be finite and nondecreasing, node "
          ">= 0, count in [1, " + std::to_string(max_cell_tokens) + "])");
    }
    ev.time = time;
    ev.kind = kind == "s" ? event_kind::service : event_kind::arrival;
    ev.node = static_cast<node_id>(node);
    ev.count = static_cast<weight_t>(count);
    last = time;
    parsed.push_back(ev);
  }
  events_ = std::make_shared<const std::vector<event>>(std::move(parsed));
  summarize();
}

trace_source::trace_source(std::vector<event> events, std::string label)
    : label_(std::move(label)) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    DLB_EXPECTS(events[i].time >= 0 && events[i].node >= 0 &&
                events[i].count >= 1);
    DLB_EXPECTS(i == 0 || events[i - 1].time <= events[i].time);
  }
  events_ = std::make_shared<const std::vector<event>>(std::move(events));
  summarize();
}

void trace_source::summarize() {
  for (const event& ev : *events_) {
    if (ev.kind == event_kind::service) has_service_ = true;
    if (ev.node > max_node_) max_node_ = ev.node;
  }
}

std::optional<event> trace_source::next() {
  if (pos_ >= events_->size()) return std::nullopt;
  return (*events_)[pos_++];
}

std::unique_ptr<trace_source> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw contract_violation("cannot open trace file: " + path);
  return std::make_unique<trace_source>(in, path);
}

}  // namespace dlb::events
