#include "dlb/core/engine.hpp"

#include <algorithm>
#include <cmath>

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
// run; measure_balancing_time computes it once instead of per probe round.
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

}  // namespace

bool is_balanced(const linear_process& a, real_t tol) {
  const std::shared_ptr<const shard_context> ctx = a.sharding();
  return balanced_against(a, total_speed_of(a.speeds(), ctx.get()), tol,
                          ctx.get());
}

balancing_time_result measure_balancing_time(linear_process& a,
                                             const std::vector<real_t>& x0,
                                             round_t cap,
                                             const obs::probe& pb) {
  DLB_EXPECTS(cap >= 0);
  a.reset(std::vector<real_t>(x0));
  // Speeds never change across the probe loop; sum them once, not per round.
  const std::shared_ptr<const shard_context> ctx = a.sharding();
  const weight_t total_speed = total_speed_of(a.speeds(), ctx.get());
  balancing_time_result r;
  const auto balanced = [&] {
    const obs::scoped_span span(pb.rec, "tA_check", -1, pb.cell);
    return balanced_against(a, total_speed, balanced_tolerance, ctx.get());
  };
  while (!balanced()) {
    if (a.rounds_executed() >= cap) {
      r.rounds = cap;
      r.converged = false;
      r.negative_load = a.negative_load_detected();
      return r;
    }
    {
      const obs::scoped_span span(pb.rec, "tA_round", -1, pb.cell);
      a.step();
    }
    if (pb.met != nullptr) pb.met->add_round();
  }
  r.rounds = a.rounds_executed();
  r.converged = true;
  r.negative_load = a.negative_load_detected();
  return r;
}

void run_rounds(discrete_process& d, round_t rounds,
                const round_observer& obs, const obs::probe& pb) {
  DLB_EXPECTS(rounds >= 0);
  for (round_t t = 0; t < rounds; ++t) {
    {
      const obs::scoped_span span(pb.rec, "round", -1, pb.cell);
      d.step();
    }
    if (pb.met != nullptr) pb.met->add_round();
    if (obs) obs(d.rounds_executed(), d);
  }
}

void save_checkpoint(const discrete_process& d, const std::string& path) {
  snapshot::writer w;
  w.section("dlb-process-checkpoint");
  snapshot::require_checkpointable(d, "process").save_state(w);
  w.save_file(path);
}

round_t restore_checkpoint(discrete_process& d, const std::string& path) {
  snapshot::reader r = snapshot::reader::from_file(path);
  r.expect_section("dlb-process-checkpoint");
  snapshot::require_checkpointable(d, "process").restore_state(r);
  return d.rounds_executed();
}

void run_rounds_checkpointed(discrete_process& d, round_t target,
                             const checkpoint_options& ckpt,
                             const round_observer& obs, const obs::probe& pb) {
  DLB_EXPECTS(target >= 0 && !ckpt.path.empty() && ckpt.every >= 0);
  if (ckpt.resume) restore_checkpoint(d, ckpt.path);
  DLB_EXPECTS(d.rounds_executed() <= target);
  round_t since = 0;
  while (d.rounds_executed() < target) {
    run_rounds(d, 1, obs, pb);
    if (ckpt.every > 0 && ++since == ckpt.every) {
      save_checkpoint(d, ckpt.path);
      since = 0;
    }
  }
  save_checkpoint(d, ckpt.path);
}

dynamic_result run_dynamic(discrete_process& d,
                           const workload::arrival_schedule& sched,
                           round_t rounds, const round_observer& obs,
                           const obs::probe& pb) {
  DLB_EXPECTS(rounds >= 1);
  dynamic_result r;
  r.rounds = rounds;
  const round_t warmup = rounds / 2;
  real_t sum = 0;
  round_t samples = 0;
  for (round_t t = 0; t < rounds; ++t) {
    weight_t arrived = 0;
    for (const workload::arrival& a : sched.arrivals(t)) {
      d.inject_tokens(a.node, a.count);
      arrived += a.count;
    }
    r.total_arrived += arrived;
    if (pb.met != nullptr) {
      pb.met->add_arrivals(static_cast<std::uint64_t>(arrived));
      pb.met->add_round();
    }
    {
      const obs::scoped_span span(pb.rec, "round", -1, pb.cell);
      d.step();
    }
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

experiment_result run_experiment(discrete_process& d,
                                 const linear_process& reference_template,
                                 round_t cap,
                                 const round_observer& obs,
                                 const obs::probe& pb) {
  // Balancing time of the continuous reference from the discrete start.
  std::vector<real_t> x0(d.loads().size());
  for (std::size_t i = 0; i < x0.size(); ++i) {
    x0[i] = static_cast<real_t>(d.loads()[i]);
  }
  const std::unique_ptr<linear_process> reference =
      reference_template.clone_fresh();
  // The T^A probe steps the same topology as `d`; when `d` runs sharded,
  // step the probe over the same shard context too (clone_fresh starts
  // sequential, so the context must be re-attached here). The observability
  // probe re-attaches the same way, so the reference's phases report to the
  // cell that owns this run.
  if (d.sharding() != nullptr) reference->enable_sharded_stepping(d.sharding());
  if (pb.active()) reference->set_probe(pb);
  const balancing_time_result bt =
      measure_balancing_time(*reference, x0, cap, pb);

  run_rounds(d, bt.rounds, obs, pb);

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
