#include "dlb/core/algorithm1.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dlb {

namespace {

// The deficit node i must make up over edge `inc` this round, or 0 when i
// does not send on it (task store). Endpoints are normalized u < v: i is
// the edge's u iff the neighbor is larger. Positive deficit sends u→v,
// negative v→u; only the direction with positive deficit sends
// (Observation 4's argument), so exactly one endpoint of an edge is its
// sender.
real_t send_amount(real_t deficit, node_id i, const incidence& inc) {
  const bool is_u = inc.neighbor > i;
  if (deficit > 0 && is_u) return deficit;
  if (deficit < 0 && !is_u) return -deficit;
  return 0;
}

}  // namespace

algorithm1::algorithm1(std::unique_ptr<linear_process> process,
                       std::vector<weight_t> tokens, algorithm1_config config,
                       const std::vector<weight_t>& dummy_preload)
    : flow_imitator(std::move(process), std::move(tokens), dummy_preload),
      config_(config),
      wmax_(config.wmax_override > 0 ? config.wmax_override : 1) {}

algorithm1::algorithm1(std::unique_ptr<linear_process> process,
                       task_assignment initial, algorithm1_config config)
    : flow_imitator(std::move(process), initial.loads()),
      tasks_(std::make_unique<task_assignment>(std::move(initial))),
      config_(config) {
  wmax_ = config_.wmax_override > 0 ? config_.wmax_override
                                    : tasks_->max_task_weight();
  DLB_EXPECTS(wmax_ >= tasks_->max_task_weight());
  const std::size_t m = static_cast<size_t>(topology().num_edges());
  deficit_.assign(m, 0.0);
  outbox_.resize(m);
}

std::vector<weight_t> algorithm1::real_loads() const {
  return tasks_ ? tasks_->real_loads() : flow_imitator::real_loads();
}

void algorithm1::inject_tokens(node_id i, weight_t count) {
  DLB_EXPECTS(count >= 0);
  for (weight_t k = 0; k < count; ++k) inject_task(i, 1);
}

void algorithm1::inject_task(node_id i, weight_t w) {
  DLB_EXPECTS(i >= 0 && i < topology().num_nodes());
  DLB_EXPECTS(w >= 1 && w <= wmax_);
  DLB_EXPECTS(w == 1 || tasks_ != nullptr);  // the count store holds tokens
  if (tasks_) tasks_->pool(i).add_real(w, i);
  loads_[static_cast<size_t>(i)] += w;
  reference_->inject_load(i, static_cast<real_t>(w));
}

weight_t algorithm1::drain_tokens(node_id i, weight_t count) {
  if (!tasks_) return flow_imitator::drain_tokens(i, count);
  DLB_EXPECTS(i >= 0 && i < topology().num_nodes());
  DLB_EXPECTS(count >= 0);
  const weight_t drained = tasks_->pool(i).drain_real_units(count);
  loads_[static_cast<size_t>(i)] -= drained;
  reference_->inject_load(i, -static_cast<real_t>(drained));
  return drained;
}

// The task store's loop adds one unit token while ŷ - |S| >= w_max (up to
// flow_epsilon), so it runs for every k >= 0 with amount - k >= w_max - ε:
// the first k that fails the loop's own comparison. The closed form below
// can be off by one after rounding; the comparison corrects it (amount - k
// is monotone in k, so the corrected count is exact).
weight_t algorithm1::units_sent(real_t amount) const {
  const real_t bar = static_cast<real_t>(wmax_) - flow_epsilon;
  const auto adds = [&](weight_t k) {
    return amount - static_cast<real_t>(k) >= bar;
  };
  if (!adds(0)) return 0;
  weight_t k = static_cast<weight_t>(std::floor(amount - bar)) + 1;
  while (!adds(k - 1)) --k;
  while (adds(k)) ++k;
  return k;
}

// The edge step, inside the reference's edge phase: the snapped flow
// deficit ŷ_{u,v}(t), oriented u→v, of edges whose f^A(t) the reference has
// just written. The count store sends k = units_sent(|ŷ|) tokens in ŷ's
// direction at once; the task store keeps ŷ for its send step and resets
// the edge's send and transfer set. An edge's dummy slot is read only if
// the edge sends, and then its sender writes it. Reads only pre-round state
// and the chunk's own f^A, so any edge partition computes identical bits.
void algorithm1::edge_round(const edge_slice& es) {
  if (!tasks_) {
    es.for_each([&](edge_id e) {
      const real_t deficit = snapped_deficit(e);
      const weight_t k = units_sent(std::abs(deficit));
      record_send(e, deficit > 0 ? k : -k);
    });
    return;
  }
  es.for_each([&](edge_id e) {
    const std::size_t idx = static_cast<size_t>(e);
    deficit_[idx] = snapped_deficit(e);
    sent_[idx] = 0;
    outbox_[idx].real_weights.clear();
    outbox_[idx].real_origins.clear();
  });
}

weight_t algorithm1::node_round(node_id i0, node_id i1) {
  return tasks_ ? send_tasks(i0, i1) : send_counts(i0, i1);
}

// The send step on the task store, inside the reference's node phase: each
// node allocates tasks to the transfer sets of the edges on which it is the
// sender, in ascending edge-id order. The node's pool shrinks as its edges
// are processed, so tasks committed to one edge are unavailable to the next
// ("unallocated tasks"). The sender is the single writer of the per-edge
// slots (transfer set, ledger, transfer record), and a node's pool evolves
// exactly as under the sequential global edge loop.
weight_t algorithm1::send_tasks(node_id i0, node_id i1) {
  const graph& g = topology();
  weight_t dummies_minted = 0;
  for (node_id i = i0; i < i1; ++i) {
    task_pool& pool = tasks_->pool(i);
    for (const incidence& inc : g.neighbors(i)) {
      const std::size_t e = static_cast<size_t>(inc.edge);
      const real_t amount = send_amount(deficit_[e], i, inc);
      if (amount == 0) continue;
      pending_transfer& out = outbox_[e];
      weight_t total = 0;
      weight_t dummies = 0;
      // while ŷ - |S| >= w_max: add one more task (floor semantics; see
      // header note). Dummies are created only when the pool is empty.
      while (amount - static_cast<real_t>(total) >=
             static_cast<real_t>(wmax_) - flow_epsilon) {
        if (pool.empty()) {
          ++dummies;
          ++total;
          ++dummies_minted;
        } else {
          const task_pool::removed_task q =
              pool.remove_arbitrary(config_.removal);
          if (q.is_dummy) {
            ++dummies;
          } else {
            out.real_weights.push_back(q.weight);
            out.real_origins.push_back(q.origin);
          }
          total += q.weight;
        }
      }
      if (total > 0) {
        record_send(inc.edge, inc.neighbor > i ? total : -total);
        sent_dummies_[e] = dummies;
      }
    }
  }
  return dummies_minted;
}

// The send step on the count store: the same loop over unit tokens, in
// counts. The edge step recorded each edge's k tokens; the sender splits
// them. A send takes real tokens first under real_first (then the node's
// dummies, then minted ones), the node's dummies first under dummy_first
// (then real tokens, then minted ones); every token sent that was not real
// is a dummy.
weight_t algorithm1::send_counts(node_id i0, node_id i1) {
  const graph& g = topology();
  const bool real_first = config_.removal == removal_policy::real_first;
  weight_t dummies_minted = 0;
  for (node_id i = i0; i < i1; ++i) {
    const std::size_t idx = static_cast<size_t>(i);
    weight_t dummies = dummies_[idx];
    weight_t real = loads_[idx] - dummies;
    for (const incidence& inc : g.neighbors(i)) {
      const weight_t k = sent_by(i, inc);
      if (k <= 0) continue;
      weight_t from_real = 0;
      weight_t from_dummies = 0;
      if (real_first) {
        from_real = std::min(k, real);
        from_dummies = std::min(k - from_real, dummies);
      } else {
        from_dummies = std::min(k, dummies);
        from_real = std::min(k - from_dummies, real);
      }
      real -= from_real;
      dummies -= from_dummies;
      dummies_minted += k - from_real - from_dummies;
      sent_dummies_[static_cast<size_t>(inc.edge)] = k - from_real;
    }
    loads_[idx] = real + dummies;
    dummies_[idx] = dummies;
  }
  return dummies_minted;
}

// The receive phase (per node): the count store delivers through the base's
// receive. On the task store each node drains its inbound transfer sets in
// ascending edge-id order — the same order the sequential delivery loop
// pushes into its pool, so the pool's LIFO state is preserved exactly —
// then refreshes its cached load. Tasks received this round cannot be
// re-sent this round (delivery is synchronous, after every send).
void algorithm1::receive(node_id i0, node_id i1) {
  if (!tasks_) {
    flow_imitator::receive(i0, i1);
    return;
  }
  const graph& g = topology();
  weight_t moved = 0;  // weight delivered to this slice's nodes (obs only)
  for (node_id i = i0; i < i1; ++i) {
    task_pool& dest = tasks_->pool(i);
    for (const incidence& inc : g.neighbors(i)) {
      const weight_t in = -sent_by(i, inc);
      if (in <= 0) continue;
      const std::size_t e = static_cast<size_t>(inc.edge);
      const pending_transfer& out = outbox_[e];
      for (std::size_t k = 0; k < out.real_weights.size(); ++k) {
        dest.add_real(out.real_weights[k], out.real_origins[k]);
      }
      dest.add_dummies(sent_dummies_[e]);
      moved += in;
    }
    loads_[static_cast<size_t>(i)] = dest.total_weight();
  }
  add_tokens_moved(static_cast<std::uint64_t>(moved));
}

load_extrema algorithm1::real_load_extrema(node_id begin, node_id end) const {
  return tasks_ ? tasks_->real_load_extrema(begin, end, speeds())
                : flow_imitator::real_load_extrema(begin, end);
}

}  // namespace dlb
