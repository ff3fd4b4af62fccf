#include "dlb/core/algorithm1.hpp"

#include <utility>

namespace dlb {

algorithm1::algorithm1(std::unique_ptr<linear_process> process,
                       task_assignment initial, algorithm1_config config)
    : flow_imitator(std::move(process), initial.loads()),
      tasks_(std::move(initial)),
      config_(config) {
  wmax_ = config_.wmax_override > 0 ? config_.wmax_override
                                    : tasks_.max_task_weight();
  DLB_EXPECTS(wmax_ >= tasks_.max_task_weight());
  const std::size_t m = static_cast<size_t>(topology().num_edges());
  last_sent_.assign(m, 0);
  deficit_.assign(m, 0.0);
  outbox_.resize(m);
}

void algorithm1::inject_tokens(node_id i, weight_t count) {
  DLB_EXPECTS(count >= 0);
  for (weight_t k = 0; k < count; ++k) inject_task(i, 1);
}

void algorithm1::inject_task(node_id i, weight_t w) {
  DLB_EXPECTS(w >= 1 && w <= wmax_);
  tasks_.pool(i).add_real(w, i);
  loads_[static_cast<size_t>(i)] += w;
  reference_->inject_load(i, static_cast<real_t>(w));
}

weight_t algorithm1::drain_tokens(node_id i, weight_t count) {
  DLB_EXPECTS(count >= 0);
  const weight_t drained = tasks_.pool(i).drain_real_units(count);
  loads_[static_cast<size_t>(i)] -= drained;
  reference_->inject_load(i, -static_cast<real_t>(drained));
  return drained;
}

// Phase 1 (per edge): the snapped flow deficit ŷ_{u,v}(t), oriented u→v.
// Also resets the edge's transfer set and last-sent record for this round.
// Reads only pre-round state, so any edge partition computes identical bits.
void algorithm1::deficit_phase(const edge_slice& es) {
  es.for_each([&](edge_id e) {
    deficit_[static_cast<size_t>(e)] = snapped_deficit(e);
    last_sent_[static_cast<size_t>(e)] = 0;
    pending_transfer& out = outbox_[static_cast<size_t>(e)];
    out.to = invalid_node;
    out.real_weights.clear();
    out.real_origins.clear();
    out.dummy_count = 0;
    out.total = 0;
  });
}

// Phase 2 (per node): each node allocates tasks to the transfer sets of the
// edges on which it is the sender — the deficit points away from it — in
// ascending edge-id order. Only the direction with positive deficit sends
// (Observation 4's argument); the node's pool shrinks as its edges are
// processed, so tasks committed to one edge are unavailable to the next
// ("unallocated tasks"). Exactly one endpoint of an edge is its sender, so
// the per-edge writes (outbox, ledger, last_sent) have a single writer, and
// a node's pool evolves exactly as under the sequential global edge loop.
weight_t algorithm1::send_phase(node_id i0, node_id i1) {
  const graph& g = topology();
  weight_t dummies_minted = 0;
  for (node_id i = i0; i < i1; ++i) {
    task_pool& pool = tasks_.pool(i);
    for (const incidence& inc : g.neighbors(i)) {
      const edge_id e = inc.edge;
      const real_t deficit = deficit_[static_cast<size_t>(e)];
      // Endpoints are normalized u < v: i is the edge's u iff the neighbor
      // is larger. Positive deficit sends u→v, negative sends v→u.
      const bool is_u = inc.neighbor > i;
      real_t amount = 0;
      if (deficit > 0 && is_u) {
        amount = deficit;
      } else if (deficit < 0 && !is_u) {
        amount = -deficit;
      } else {
        continue;
      }

      pending_transfer& out = outbox_[static_cast<size_t>(e)];
      out.to = inc.neighbor;
      // while ŷ - |S| >= w_max: add one more task (floor semantics; see
      // header note). Dummies are created only when the pool is empty.
      while (amount - static_cast<real_t>(out.total) >=
             static_cast<real_t>(wmax_) - flow_epsilon) {
        if (pool.empty()) {
          ++out.dummy_count;
          ++out.total;
          ++dummies_minted;
        } else {
          const task_pool::removed_task q =
              pool.remove_arbitrary(config_.removal);
          if (q.is_dummy) {
            ++out.dummy_count;
          } else {
            out.real_weights.push_back(q.weight);
            out.real_origins.push_back(q.origin);
          }
          out.total += q.weight;
        }
      }
      if (out.total > 0) {
        ledger_.record(e, i, out.total);
        last_sent_[static_cast<size_t>(e)] = is_u ? out.total : -out.total;
      }
    }
  }
  return dummies_minted;
}

// Phase 3 (per node): each node drains its inbound transfer sets in
// ascending edge-id order — the same order the sequential delivery loop
// pushes into its pool, so the pool's LIFO state is preserved exactly —
// then refreshes its cached load. Tasks received this round cannot be
// re-sent this round (delivery is synchronous, after every send).
void algorithm1::receive_phase(node_id i0, node_id i1) {
  const graph& g = topology();
  weight_t moved = 0;  // weight delivered to this slice's nodes (obs only)
  for (node_id i = i0; i < i1; ++i) {
    task_pool& dest = tasks_.pool(i);
    for (const incidence& inc : g.neighbors(i)) {
      const pending_transfer& out = outbox_[static_cast<size_t>(inc.edge)];
      if (out.to != i || out.total == 0) continue;
      for (std::size_t k = 0; k < out.real_weights.size(); ++k) {
        dest.add_real(out.real_weights[k], out.real_origins[k]);
      }
      dest.add_dummies(out.dummy_count);
      moved += out.total;
    }
    loads_[static_cast<size_t>(i)] = dest.total_weight();
  }
  add_tokens_moved(static_cast<std::uint64_t>(moved));
}

weight_t algorithm1::imitate_round() {
  edge_phase([&](const edge_slice& es) { deficit_phase(es); });
  const weight_t minted = node_phase_reduce<weight_t>(
      0, [&](node_id i0, node_id i1) { return send_phase(i0, i1); },
      [](weight_t a, weight_t b) { return a + b; });
  node_phase([&](node_id i0, node_id i1) { receive_phase(i0, i1); });
  return minted;
}

void algorithm1::save_state(snapshot::writer& w) const {
  const graph& g = topology();
  w.section("algorithm1");
  w.u64(static_cast<std::uint64_t>(g.num_nodes()));
  w.u64(static_cast<std::uint64_t>(g.num_edges()));
  w.u64(static_cast<std::uint64_t>(wmax_));
  w.i64(t_);
  w.i64(dummy_created_);
  w.vec_int(loads_);
  w.vec_int(last_sent_);
  ledger_.save_state(w);
  tasks_.save_state(w);
  reference_->save_state(w);
}

void algorithm1::restore_state(snapshot::reader& r) {
  const graph& g = topology();
  r.expect_section("algorithm1");
  r.expect_u64(static_cast<std::uint64_t>(g.num_nodes()), "node count");
  r.expect_u64(static_cast<std::uint64_t>(g.num_edges()), "edge count");
  r.expect_u64(static_cast<std::uint64_t>(wmax_), "w_max");
  t_ = r.i64();
  dummy_created_ = r.i64();
  std::vector<weight_t> loads = r.vec_int<weight_t>();
  std::vector<weight_t> sent = r.vec_int<weight_t>();
  DLB_EXPECTS(t_ >= 0 && dummy_created_ >= 0);
  DLB_EXPECTS(static_cast<node_id>(loads.size()) == g.num_nodes());
  DLB_EXPECTS(static_cast<edge_id>(sent.size()) == g.num_edges());
  loads_ = std::move(loads);
  last_sent_ = std::move(sent);
  ledger_.restore_state(r);
  tasks_.restore_state(r);
  reference_->restore_state(r);
}

load_extrema algorithm1::real_load_extrema(node_id begin, node_id end) const {
  return tasks_.real_load_extrema(begin, end, speeds());
}

}  // namespace dlb
