#include "dlb/core/sharding.hpp"

#include <algorithm>

#include "dlb/common/contracts.hpp"
#include "dlb/core/process.hpp"
#include "dlb/obs/metrics.hpp"
#include "dlb/obs/recorder.hpp"

namespace dlb {

namespace {

// Block length of blocked_sum. Small enough that one probe round exposes
// plenty of blocks to 8 shards at n ≈ 10^5, large enough that the per-block
// fold overhead vanishes; vectors up to this length sum strictly
// left-to-right, so every pre-existing small-grid result is bit-unchanged.
constexpr std::size_t sum_block = 4096;

using claim_body =
    std::function<void(std::size_t, const std::function<std::size_t()>&)>;

// The serial claim loop: group bodies run in order on the caller and one
// plain counter hands out the claims, so group 0 drains every chunk.
template <typename Body>
void serial_claims(std::size_t groups, const Body& body) {
  std::size_t next = 0;
  const std::function<std::size_t()> claim = [&next] { return next++; };
  for (std::size_t g = 0; g < groups; ++g) body(g, claim);
}

}  // namespace

shard_plan::shard_plan(const graph& g, std::size_t num_shards)
    : n_(g.num_nodes()), m_(g.num_edges()) {
  DLB_EXPECTS(num_shards >= 1);
  const std::size_t shards = std::max<std::size_t>(
      1, std::min<std::size_t>(num_shards, static_cast<std::size_t>(n_)));
  edge_cut_.resize(shards + 1);
  for (std::size_t s = 0; s <= shards; ++s) {
    edge_cut_[s] = static_cast<edge_id>(
        static_cast<std::size_t>(m_) * s / shards);
  }
}

steal_runner serial_steal_runner() {
  return [](std::size_t groups, std::size_t, const claim_body& body) {
    serial_claims(groups, body);
  };
}

std::shared_ptr<const shard_context> serial_shard_context(const graph& g,
                                                          std::size_t shards) {
  return std::make_shared<const shard_context>(shard_context{
      shard_plan(g, shards),
      [](std::size_t count, const std::function<void(std::size_t)>& body) {
        for (std::size_t i = 0; i < count; ++i) body(i);
      },
      shard_exec::work_stealing, serial_steal_runner()});
}

void run_chunks(
    const shard_context* ctx, std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
    const group_hook& hook) {
  // Chunk boundaries are a pure function of (count, grain), so which group
  // claims a chunk can vary run to run while the computed bits cannot.
  const std::size_t chunks = chunk_count(count, grain);
  const auto group = [&](std::size_t g,
                         const std::function<std::size_t()>& claim) {
    const auto drain = [&]() -> std::size_t {
      std::size_t items = 0;
      for (std::size_t c = claim(); c < chunks; c = claim()) {
        const std::size_t lo = c * grain;
        const std::size_t hi = std::min(count, lo + grain);
        fn(c, lo, hi);
        items += hi - lo;
      }
      return items;
    };
    if (hook != nullptr) {
      hook(g, drain);
    } else {
      drain();
    }
  };
  if (ctx == nullptr) {
    serial_claims(1, group);
    return;
  }
  DLB_EXPECTS(ctx->steal != nullptr);
  ctx->steal(ctx->plan.num_shards(), chunks, group);
}

void sharded_stepper::enable_sharded_stepping(
    std::shared_ptr<const shard_context> ctx) {
  DLB_EXPECTS(ctx != nullptr);
  DLB_EXPECTS(ctx->steal != nullptr);
  DLB_EXPECTS(ctx->plan.num_nodes() == shard_topology().num_nodes());
  DLB_EXPECTS(ctx->plan.num_edges() == shard_topology().num_edges());
  shard_ = ctx;
  on_sharding_enabled(shard_);
}

namespace {

/// Static span-name literals per phase kind (span_record stores the
/// pointer, never a copy, so these must have program lifetime).
struct phase_labels {
  const char* span;
  const char* barrier;
  bool edge_items;  ///< the phase's items (and touched counter) are edges
};

const phase_labels& labels_of(int kind) {
  static constexpr phase_labels table[] = {
      {"edge_phase", "barrier:edge_phase", true},
      {"node_phase", "barrier:node_phase", false},
      {"node_phase_reduce", "barrier:node_phase_reduce", false},
  };
  return table[kind];
}

}  // namespace

sharded_stepper::phase_probe::phase_probe(const sharded_stepper& st,
                                          phase_kind kind, std::size_t items)
    : st_(st), kind_(kind), items_(items) {
  if (st_.probe_.rec != nullptr) {
    end_ns_.assign(st_.shard_ != nullptr ? st_.shard_->plan.num_shards() : 1,
                   0);
  }
}

group_hook sharded_stepper::phase_probe::hook() {
  if (st_.probe_.rec == nullptr) return nullptr;
  return [this](std::size_t g, const std::function<std::size_t()>& drain) {
    const obs::probe& pb = st_.probe_;
    // The span brackets exactly the group's chunks, on the thread that runs
    // them — perf fds measure the calling thread, so a counter payload holds
    // this group's own cycles/misses, not the pool's.
    const obs::span_start start = pb.rec->begin();
    const std::size_t items = drain();
    end_ns_[g] = pb.rec->end(labels_of(static_cast<int>(kind_)).span, start,
                             static_cast<std::int32_t>(g), pb.cell,
                             static_cast<std::int64_t>(items));
  };
}

void sharded_stepper::phase_probe::done() const {
  const obs::probe& pb = st_.probe_;
  const phase_labels& labels = labels_of(static_cast<int>(kind_));
  // Each group recorded its own end time; once the runner has returned (the
  // barrier) everything after a group's finish is wait — synthesized here
  // without any cross-thread signalling on the hot path.
  if (pb.rec != nullptr && st_.shard_ != nullptr) {
    const std::int64_t barrier_done = pb.rec->now();
    for (std::size_t g = 0; g < end_ns_.size(); ++g) {
      const std::int64_t wait = barrier_done - end_ns_[g];
      pb.rec->complete(labels.barrier, end_ns_[g], wait,
                       static_cast<std::int32_t>(g), pb.cell);
    }
  }
  if (pb.met != nullptr) pb.met->count_phase(labels.edge_items, items_);
}

void sharded_stepper::run_phase(
    phase_kind kind, std::size_t items,
    const std::function<void(std::size_t, std::size_t)>& body) const {
  phase_probe pp(*this, kind, items);
  run_chunks(
      shard_.get(), items, phase_chunk_items,
      [&](std::size_t, std::size_t lo, std::size_t hi) { body(lo, hi); },
      pp.hook());
  pp.done();
}

void sharded_stepper::fill_round_alphas(const alpha_schedule& schedule,
                                        round_t t, std::vector<real_t>& alpha,
                                        bool& cached) const {
  if (cached) return;
  const edge_id m = shard_topology().num_edges();
  alpha.resize(static_cast<std::size_t>(m));
  {
    // The sequential prologue (the random matching draw) gets its own span,
    // so a trace attributes it instead of leaving it between phases.
    const obs::scoped_span draw(probe_.rec, "alpha.draw", -1, probe_.cell, m);
    schedule.begin_round(t);
  }
  edge_phase([&](const edge_slice& es) {
    schedule.fill_alphas(t, alpha.data(), es);
  });
  cached = schedule.time_invariant();
}

void sharded_stepper::add_tokens_moved(std::uint64_t n) const noexcept {
  if (probe_.met != nullptr && n > 0) probe_.met->add_tokens_moved(n);
}

void sharded_stepper::edge_phase(
    const std::function<void(const edge_slice&)>& body) const {
  run_phase(phase_kind::edge,
            static_cast<std::size_t>(shard_topology().num_edges()),
            [&](std::size_t lo, std::size_t hi) {
              body(edge_slice(static_cast<edge_id>(lo),
                              static_cast<edge_id>(hi)));
            });
}

void sharded_stepper::node_phase(
    const std::function<void(node_id, node_id)>& body) const {
  run_phase(phase_kind::node,
            static_cast<std::size_t>(shard_topology().num_nodes()),
            [&](std::size_t lo, std::size_t hi) {
              body(static_cast<node_id>(lo), static_cast<node_id>(hi));
            });
}

load_extrema per_speed_extrema(const std::vector<weight_t>& loads,
                               const std::vector<weight_t>& speeds,
                               node_id begin, node_id end) {
  load_extrema e;
  for (node_id i = begin; i < end; ++i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    e.add(static_cast<real_t>(loads[idx]) / static_cast<real_t>(speeds[idx]));
  }
  return e;
}

weight_t signed_edge_inflow(const graph& g,
                            const std::vector<weight_t>& edge_sent,
                            node_id i) {
  weight_t delta = 0;
  for (const incidence& inc : g.neighbors(i)) {
    const weight_t sent = edge_sent[static_cast<std::size_t>(inc.edge)];
    delta += inc.neighbor > i ? -sent : sent;
  }
  return delta;
}

real_t blocked_sum(const std::vector<real_t>& x, const shard_context* ctx) {
  return chunked_reduce(
      ctx, x.size(), sum_block, real_t{0},
      [&x](std::size_t lo, std::size_t hi) {
        real_t acc = 0;
        for (std::size_t i = lo; i < hi; ++i) acc += x[i];
        return acc;
      },
      [](real_t a, real_t b) { return a + b; });
}

}  // namespace dlb
