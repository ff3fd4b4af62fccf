// Figure A: final discrepancy vs network size n, per graph family.
//
// The paper's headline claim (Tables 1-2, "independent of n and expansion"):
// Algorithm 1's final max-min discrepancy does not grow with n, while
// round-down grows (strongly on low-expansion graphs). Wrapper over the
// `scaling-n` grid plus a fitted log-log slope per (family, process) —
// Alg1/Alg2 slopes ≈ 0, round-down slope > 0, largest on the arbitrary
// family. Same cells: `dlb_run --grid scaling-n --n 512`.
#include <algorithm>
#include <map>

#include "bench_common.hpp"
#include "dlb/analysis/stats.hpp"
#include "dlb/analysis/table.hpp"

namespace {

using namespace dlb;

void print_slopes(const std::vector<runtime::result_row>& rows) {
  // Mean discrepancy per (family, process, n), then a log-log fit over n.
  // The family is the graph case's generator name (text before '(').
  std::map<std::pair<std::string, std::string>,
           std::map<std::int64_t, std::pair<real_t, int>>>
      series;
  for (const auto& row : rows) {
    const std::string family = row.scenario.substr(0, row.scenario.find('('));
    auto& [sum, count] = series[{family, row.process}][row.n];
    sum += row.final_max_min;
    ++count;
  }
  analysis::ascii_table table({"family", "process", "loglog-slope"});
  for (const auto& [key, points] : series) {
    std::vector<real_t> xs, ys;
    for (const auto& [n, acc] : points) {
      xs.push_back(static_cast<real_t>(n));
      // Log-safe floor for processes that reach zero discrepancy.
      ys.push_back(std::max<real_t>(acc.first / acc.second, 0.25));
    }
    table.add_row({key.first, key.second,
                   analysis::ascii_table::fmt(
                       analysis::log_log_slope(xs, ys), 2)});
  }
  std::cout << "\n=== Figure A slopes: discrepancy growth exponent per "
               "(family, process) ===\n";
  table.print(std::cout);
}

}  // namespace

int main() {
  runtime::grid_options opts;
  opts.target_n = 512;  // sizes 128/256/512 per family
  opts.repeats = 3;
  runtime::thread_pool pool(runtime::thread_pool::default_threads());
  const runtime::grid_spec spec =
      runtime::make_named_grid("scaling-n", opts, /*master_seed=*/3);
  const auto rows = runtime::run_grid(spec, /*master_seed=*/3, pool);

  std::cout << "\n=== scaling-n (n≈" << opts.target_n
            << "): " << spec.description << " ===\n";
  runtime::render_view(spec, rows).print(std::cout);
  print_slopes(rows);

  std::ofstream out("BENCH_scaling_n.json");
  runtime::write_rows(out, rows, runtime::sink_format::json,
                      runtime::timing::include);
  std::cout << "\nwrote " << rows.size() << " cells to BENCH_scaling_n.json\n";
  return 0;
}
