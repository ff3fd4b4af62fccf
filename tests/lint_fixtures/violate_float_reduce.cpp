// Seeds [float-reduce] violations: float totals folded at the phase grain.
// A float total is legal only at a fixed grain — the phase grain is an
// execution knob, and retuning it would regroup the sum — so totals route
// through blocked_sum (its 4096-element grain is part of the bit contract),
// extrema through real_load_extrema.
#include <numeric>
#include <vector>

namespace fixture {

using node_id = int;
using real_t = double;

struct stepper {
  template <typename T, typename F, typename Fold>
  T node_phase_reduce(T init, F&& body, Fold&& fold) const {
    return fold(init, body(0, 4));
  }
  template <typename F>
  void node_phase(F&& body) const {
    body(0, 4);
  }

  std::vector<real_t> loads_ = {1.0, 2.0, 3.0, 4.0};

  // Explicit float instantiation of the reduction: the per-chunk partials
  // are grouped at the phase grain, so bits would depend on an execution
  // knob.
  real_t total_load_direct() {
    return node_phase_reduce<real_t>(  // expect: float-reduce
        0.0,
        [&](node_id i0, node_id i1) {
          real_t part = 0;
          for (node_id i = i0; i < i1; ++i) part += loads_[unsigned(i)];
          return part;
        },
        [](real_t a, real_t b) { return a + b; });
  }

  real_t total_load_double() {
    return node_phase_reduce<double>(  // expect: float-reduce
        0.0, [&](node_id i0, node_id i1) { return loads_[unsigned(i1 - i0)]; },
        [](double a, double b) { return a + b; });
  }

  // std::accumulate inside a phase body: same regrouping hazard, spelled
  // through the standard library.
  real_t total_load_accumulate() {
    real_t sum = 0;
    node_phase([&](node_id i0, node_id i1) {
      sum += std::accumulate(loads_.begin() + i0, loads_.begin() + i1,  // expect: float-reduce
                             real_t{0});
    });
    return sum;
  }
};

}  // namespace fixture
