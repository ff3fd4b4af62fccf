#include "dlb/core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "dlb/common/contracts.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/obs/metrics.hpp"
#include "dlb/obs/recorder.hpp"

namespace dlb {

real_t round_discrepancy(const discrete_process& d) {
  const std::shared_ptr<const shard_context> ctx = d.sharding();
  const load_extrema e = chunked_reduce(
      ctx.get(), d.speeds().size(), phase_chunk_items, load_extrema{},
      [&d](std::size_t lo, std::size_t hi) {
        return d.real_load_extrema(static_cast<node_id>(lo),
                                   static_cast<node_id>(hi));
      },
      load_extrema::merge);
  return e.hi - e.lo;
}

namespace {

// Total speed — an integer sum, so any grouping is exact. Invariant across a
// run; the T^A loop computes it once instead of per round.
weight_t total_speed_of(const speed_vector& s, const shard_context* ctx) {
  return chunked_reduce(
      ctx, s.size(), phase_chunk_items, weight_t{0},
      [&s](std::size_t lo, std::size_t hi) {
        weight_t acc = 0;
        for (std::size_t i = lo; i < hi; ++i) acc += s[i];
        return acc;
      },
      [](weight_t a, weight_t b) { return a + b; });
}

// The T^A membership test, shard-parallel when a context is given — what
// makes million-node *static* probes feasible: the O(n) load sum and the
// O(n) per-node check both spread over the shard pool. Identical bits with
// or without a context: the sum goes through blocked_sum (whose grouping
// depends only on n) and the check folds with boolean AND.
bool balanced_against(const linear_process& a, weight_t total_speed,
                      real_t tol, const shard_context* ctx) {
  const std::vector<real_t>& x = a.loads();
  const speed_vector& s = a.speeds();
  const real_t per_speed =
      blocked_sum(x, ctx) / static_cast<real_t>(total_speed);
  const int all_within = chunked_reduce(
      ctx, x.size(), phase_chunk_items, 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          if (std::abs(x[i] - per_speed * static_cast<real_t>(s[i])) > tol) {
            return 0;
          }
        }
        return 1;
      },
      [](int a_ok, int b_ok) { return a_ok & b_ok; });
  return all_within != 0;
}

// The T^A loop of both entry points. Before each round it stops when `a` is
// balanced (converged) or has run `cap` rounds; otherwise `advance()` moves
// `a` one round — directly, or through the discrete process imitating it.
// `a` must start at round 0.
template <class Advance>
balancing_time_result balancing_time_loop(const linear_process& a,
                                          round_t cap, const obs::probe& pb,
                                          const Advance& advance) {
  DLB_EXPECTS(cap >= 0 && a.rounds_executed() == 0);
  // Speeds never change across the loop; sum them once, not per round.
  const std::shared_ptr<const shard_context> ctx = a.sharding();
  const weight_t total_speed = total_speed_of(a.speeds(), ctx.get());
  const auto balanced = [&] {
    const obs::scoped_span span(pb.rec, "tA_check", -1, pb.cell);
    return balanced_against(a, total_speed, balanced_tolerance, ctx.get());
  };
  bool converged = balanced();
  while (!converged && a.rounds_executed() < cap) {
    advance();
    converged = balanced();
  }
  return {a.rounds_executed(), converged, a.negative_load_detected()};
}

template <class Process>
void counted_round_of(Process& p, const obs::probe& pb, const char* span) {
  {
    const obs::scoped_span scope(pb.rec, span, -1, pb.cell);
    p.step();
  }
  if (pb.met != nullptr) pb.met->add_round();
}

}  // namespace

void counted_round(discrete_process& p, const obs::probe& pb,
                   const char* span) {
  counted_round_of(p, pb, span);
}

void counted_round(linear_process& p, const obs::probe& pb,
                   const char* span) {
  counted_round_of(p, pb, span);
}

bool is_balanced(const linear_process& a, real_t tol) {
  const std::shared_ptr<const shard_context> ctx = a.sharding();
  return balanced_against(a, total_speed_of(a.speeds(), ctx.get()), tol,
                          ctx.get());
}

balancing_time_result measure_balancing_time(linear_process& a,
                                             const std::vector<real_t>& x0,
                                             round_t cap,
                                             const obs::probe& pb) {
  a.reset(std::vector<real_t>(x0));
  return balancing_time_loop(a, cap, pb,
                             [&] { counted_round(a, pb, "tA_round"); });
}

void run_rounds(discrete_process& d, round_t rounds,
                const round_observer& obs, const obs::probe& pb) {
  DLB_EXPECTS(rounds >= 0);
  for (round_t t = 0; t < rounds; ++t) {
    counted_round(d, pb);
    if (obs) obs(d.rounds_executed(), d);
  }
}

dynamic_result run_dynamic(discrete_process& d, const traffic_step& traffic,
                           round_t rounds, const round_observer& obs,
                           const obs::probe& pb) {
  DLB_EXPECTS(rounds >= 1 && traffic != nullptr);
  dynamic_result r;
  r.rounds = rounds;
  const round_t warmup = rounds / 2;
  real_t sum = 0;
  round_t samples = 0;
  for (round_t t = 0; t < rounds; ++t) {
    const weight_t arrived = traffic(t, d);
    r.total_arrived += arrived;
    if (pb.met != nullptr) {
      pb.met->add_arrivals(static_cast<std::uint64_t>(arrived));
    }
    counted_round(d, pb);
    if (obs) obs(d.rounds_executed(), d);
    if (t >= warmup) {
      const real_t disc = round_discrepancy(d);
      sum += disc;
      r.peak_max_min = std::max(r.peak_max_min, disc);
      ++samples;
    }
  }
  r.mean_max_min = samples > 0 ? sum / static_cast<real_t>(samples) : 0;
  r.final_max_min = round_discrepancy(d);
  return r;
}

dynamic_result run_dynamic(discrete_process& d,
                           const workload::arrival_schedule& sched,
                           round_t rounds, const round_observer& obs,
                           const obs::probe& pb) {
  const auto lock_step = [&sched](round_t t, discrete_process& p) {
    weight_t arrived = 0;
    for (const workload::arrival& a : sched.arrivals(t)) {
      p.inject_tokens(a.node, a.count);
      arrived += a.count;
    }
    return arrived;
  };
  return run_dynamic(d, lock_step, rounds, obs, pb);
}

experiment_result run_experiment(discrete_process& d,
                                 const linear_process& reference_template,
                                 round_t cap,
                                 const round_observer& obs,
                                 const obs::probe& pb) {
  // Only a fresh imitator's reference sits at x^A(0) = x^D(0).
  DLB_EXPECTS(d.rounds_executed() == 0);
  // T^A is read off the A that `d` imitates, in lockstep with `d`. A process
  // that imitates none gets a separate probe: a fresh clone of the template
  // from the discrete start. clone_fresh starts sequential and unobserved,
  // so the probe is re-attached to `d`'s shard context and to the cell's
  // observability probe, and steps on the same shards as `d`.
  const linear_process* a = d.imitated();
  std::unique_ptr<linear_process> probe;
  if (a == nullptr) {
    probe = reference_template.clone_fresh();
    if (d.sharding() != nullptr) probe->enable_sharded_stepping(d.sharding());
    if (pb.active()) probe->set_probe(pb);
    probe->reset({d.loads().begin(), d.loads().end()});
    a = probe.get();
  }
  const balancing_time_result bt = balancing_time_loop(*a, cap, pb, [&] {
    if (probe != nullptr) counted_round(*probe, pb, "tA_round");
    run_rounds(d, 1, obs, pb);
  });

  experiment_result r;
  r.rounds = bt.rounds;
  r.continuous_converged = bt.converged;
  r.continuous_negative_load = bt.negative_load;
  r.final_loads = d.loads();
  r.final_real_loads = d.real_loads();
  r.dummy_created = d.dummy_created();
  r.final_max_min = max_min_discrepancy(r.final_real_loads, d.speeds());
  r.final_max_avg = max_avg_discrepancy(r.final_real_loads, d.speeds());
  return r;
}

}  // namespace dlb
