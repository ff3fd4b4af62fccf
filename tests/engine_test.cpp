// Engine tests: balancing time semantics, experiment runner, caps, observers.
#include "dlb/core/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dlb/common/contracts.hpp"
#include "dlb/core/algorithm1.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/workload/competitors.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

std::shared_ptr<const graph> make_g(graph g) {
  return std::make_shared<const graph>(std::move(g));
}

std::unique_ptr<linear_process> fos_on(std::shared_ptr<const graph> g) {
  return make_fos(g, uniform_speeds(g->num_nodes()),
                  make_alphas(*g, alpha_scheme::half_max_degree));
}

TEST(EngineTest, BalancingTimeOnCompleteGraphIsFast) {
  auto g = make_g(generators::complete(8));
  auto p = fos_on(g);
  std::vector<real_t> x0(8, 0.0);
  x0[0] = 80;
  const auto bt = measure_balancing_time(*p, x0, 10000);
  EXPECT_TRUE(bt.converged);
  EXPECT_GT(bt.rounds, 0);
  EXPECT_LT(bt.rounds, 50);
  EXPECT_FALSE(bt.negative_load);
}

TEST(EngineTest, BalancingTimeDefinition) {
  // After T, every node is within 1 of W·s_i/S; before T, some node is not.
  auto g = make_g(generators::cycle(8));
  auto p = fos_on(g);
  std::vector<real_t> x0(8, 0.0);
  x0[0] = 80;
  const auto bt = measure_balancing_time(*p, x0, 100000);
  ASSERT_TRUE(bt.converged);
  EXPECT_TRUE(is_balanced(*p));

  // Re-run one round short: must not yet be balanced.
  auto q = fos_on(g);
  q->reset(x0);
  for (round_t t = 0; t + 1 < bt.rounds; ++t) q->step();
  EXPECT_FALSE(is_balanced(*q));
}

TEST(EngineTest, CapReportsNonConvergence) {
  auto g = make_g(generators::path(16));
  auto p = fos_on(g);
  std::vector<real_t> x0(16, 0.0);
  x0[0] = 1600;
  const auto bt = measure_balancing_time(*p, x0, 5);
  EXPECT_FALSE(bt.converged);
  EXPECT_EQ(bt.rounds, 5);
}

TEST(EngineTest, RunRoundsInvokesObserver) {
  auto g = make_g(generators::path(2));
  algorithm1 alg(fos_on(g), task_assignment::tokens({8, 0}));
  std::vector<round_t> seen;
  run_rounds(alg, 5, [&seen](round_t t, const discrete_process&) {
    seen.push_back(t);
  });
  EXPECT_EQ(seen, (std::vector<round_t>{1, 2, 3, 4, 5}));
}

TEST(EngineTest, RunExperimentReportsConsistentFields) {
  auto g = make_g(generators::hypercube(3));
  auto tokens = workload::add_speed_multiple(
      workload::point_mass(8, 0, 80), uniform_speeds(8), 3);
  algorithm1 alg(fos_on(g), task_assignment::tokens(tokens));
  const experiment_result r =
      run_experiment(alg, alg.continuous(), /*cap=*/100000);
  EXPECT_TRUE(r.continuous_converged);
  EXPECT_EQ(r.rounds, alg.rounds_executed());
  EXPECT_EQ(r.final_loads, alg.loads());
  EXPECT_EQ(r.dummy_created, alg.dummy_created());
  EXPECT_GE(r.final_max_min, 0.0);
  // Real + dummy accounting.
  weight_t real_total = 0;
  for (const weight_t x : r.final_real_loads) real_total += x;
  EXPECT_EQ(real_total, 80 + 3 * 8);
}

// ------------------------------------------------ the lockstep T^A loop

// The static competitors run_experiment tells apart, built as the grids
// build them: the two flow imitators carry the continuous process they
// imitate, and the round-down baseline imitates none, so it gets a separate
// T^A probe.
std::vector<workload::competitor> lockstep_competitors(workload::model m) {
  return workload::competitor_subset(m == workload::model::diffusion,
                                     {"round-down", "Alg1", "Alg2"});
}

std::vector<real_t> start_of(const discrete_process& d) {
  return {d.loads().begin(), d.loads().end()};
}

// The two-pass answer run_experiment must reproduce: T^A measured on a
// fresh clone of the reference — the process `d` imitates, else the
// template — from x^D(0).
balancing_time_result two_pass_tA(const discrete_process& d,
                                  const linear_process& reference_template,
                                  round_t cap) {
  const linear_process& a =
      d.imitated() != nullptr ? *d.imitated() : reference_template;
  return measure_balancing_time(*a.clone_fresh(), start_of(d), cap);
}

// An imitator's T^A is read off its own reference in lockstep, a baseline's
// off a separate probe stepped beside it; either way it is the T^A of the
// two-pass route, and `d` has stepped exactly that many rounds — on every
// communication model, sequential or sharded.
TEST(EngineTest, LockstepTAEqualsTheTwoPassProbe) {
  const auto g = make_g(generators::torus_2d(6));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, 12);
  constexpr std::uint64_t seed = 9;
  constexpr round_t cap = 100000;
  for (const workload::model m :
       {workload::model::diffusion, workload::model::periodic_matching,
        workload::model::random_matching}) {
    const auto reference = workload::make_continuous(m, g, s, seed);
    for (const workload::competitor& comp : lockstep_competitors(m)) {
      for (const std::size_t shards : {1u, 3u}) {
        const std::string where = workload::model_name(m) + "/" +
                                  comp.name + "/s" + std::to_string(shards);
        const auto d = comp.build(g, s, tokens, m, seed);
        EXPECT_EQ(d->imitated() != nullptr, comp.name.starts_with("Alg"))
            << where;
        if (shards > 1) {
          d->enable_sharded_stepping(serial_shard_context(*g, shards));
        }
        const balancing_time_result want = two_pass_tA(*d, *reference, cap);
        ASSERT_TRUE(want.converged) << where;
        ASSERT_GT(want.rounds, 0) << where;
        const experiment_result got = run_experiment(*d, *reference, cap);
        EXPECT_EQ(got.rounds, want.rounds) << where;
        EXPECT_EQ(got.continuous_converged, want.converged) << where;
        EXPECT_EQ(got.continuous_negative_load, want.negative_load) << where;
        EXPECT_EQ(d->rounds_executed(), got.rounds) << where;
      }
    }
  }
}

// A cap below T^A stops both routes after exactly `cap` rounds of `d`.
TEST(EngineTest, LockstepCapStopsTheImitatorAndTheBaseline) {
  const auto g = make_g(generators::torus_2d(6));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, 12);
  const workload::model m = workload::model::diffusion;
  const auto reference = workload::make_continuous(m, g, s, 3);
  for (const workload::competitor& comp : lockstep_competitors(m)) {
    const auto d = comp.build(g, s, tokens, m, 3);
    const round_t t_a = two_pass_tA(*d, *reference, 100000).rounds;
    ASSERT_GT(t_a, 4) << comp.name;
    const round_t cap = t_a / 2;
    const experiment_result got = run_experiment(*d, *reference, cap);
    EXPECT_EQ(got.rounds, cap) << comp.name;
    EXPECT_FALSE(got.continuous_converged) << comp.name;
    EXPECT_EQ(d->rounds_executed(), cap) << comp.name;
  }
}

// The ablation grid's removal rows: Alg1 over SOS with β = 1.95 from a
// point mass, where A's outgoing demand overshoots a node's load
// (Definition 1). The lockstep loop reads that flag off Alg1's own
// reference; the two-pass route — a separate probe to T^A, then T^A rounds
// of a twin — must report the same flag, T^A and final loads.
TEST(EngineTest, LockstepReportsTheReferencesNegativeLoad) {
  const auto g = make_g(generators::torus_2d(6));
  const node_id n = g->num_nodes();
  const speed_vector s = uniform_speeds(n);
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  const auto make = [&] {
    return algorithm1(make_sos(g, s, alpha, 1.95),
                      task_assignment::tokens(
                          workload::point_mass(n, 0, 100 * weight_t{n})));
  };
  algorithm1 twin = make();
  const balancing_time_result bt =
      measure_balancing_time(*twin.continuous().clone_fresh(),
                             start_of(twin), 200000);
  run_rounds(twin, bt.rounds);
  ASSERT_TRUE(bt.negative_load) << "the setup no longer overshoots";

  algorithm1 alg = make();
  const experiment_result r = run_experiment(alg, alg.continuous(), 200000);
  EXPECT_EQ(r.continuous_negative_load, bt.negative_load);
  EXPECT_EQ(r.continuous_converged, bt.converged);
  EXPECT_EQ(r.rounds, bt.rounds);
  EXPECT_EQ(r.final_loads, twin.loads());
}

// Only a fresh imitator's reference sits at x^A(0) = x^D(0), so a process
// that has already stepped is refused — imitator and baseline alike.
TEST(EngineTest, RunExperimentRequiresAFreshProcess) {
  const auto g = make_g(generators::cycle(8));
  const speed_vector s = uniform_speeds(8);
  const auto tokens = workload::point_mass(8, 0, 80);
  const workload::model m = workload::model::diffusion;
  const auto reference = workload::make_continuous(m, g, s, 1);
  for (const workload::competitor& comp : lockstep_competitors(m)) {
    const auto d = comp.build(g, s, tokens, m, 1);
    d->step();
    EXPECT_THROW((void)run_experiment(*d, *reference, 1000),
                 contract_violation)
        << comp.name;
  }
}

TEST(EngineTest, IsBalancedToleranceRespected) {
  auto g = make_g(generators::path(2));
  auto p = fos_on(g);
  p->reset({6.0, 4.0});  // avg 5, both within 1.0 → balanced at tol=1
  EXPECT_TRUE(is_balanced(*p, 1.0));
  EXPECT_FALSE(is_balanced(*p, 0.5));
}

}  // namespace
}  // namespace dlb
