#include "dlb/runtime/grid_checkpoint.hpp"

#include <charconv>
#include <fstream>
#include <system_error>

#include "dlb/common/contracts.hpp"
#include "dlb/snapshot/snapshot.hpp"

namespace dlb::runtime {

namespace {
constexpr std::string_view grid_section = "dlb-grid-checkpoint";
}  // namespace

const std::string* grid_checkpoint::find(const std::string& grid,
                                         std::uint64_t cell) const {
  const auto it = rows_.find({grid, cell});
  return it != rows_.end() ? &it->second : nullptr;
}

void grid_checkpoint::save_to(std::string path, std::uint64_t every) {
  DLB_EXPECTS(!path.empty() && every >= 1);
  path_ = std::move(path);
  every_ = every;
}

void grid_checkpoint::record(const std::string& grid, const result_row& row) {
  rows_[{grid, row.cell}] = to_json(row, timing::include);
  if (path_.empty()) return;
  if (++unsaved_ == every_) flush();
}

void grid_checkpoint::flush() {
  if (path_.empty() || unsaved_ == 0) return;
  snapshot::writer w;
  w.section(grid_section);
  w.str(fingerprint_);
  w.u64(rows_.size());
  for (const auto& [key, json] : rows_) {
    w.str(key.first);
    w.u64(key.second);
    w.str(json);
  }
  w.save_file(path_);
  unsaved_ = 0;
}

grid_checkpoint grid_checkpoint::load(const std::string& path,
                                      const std::string& expected) {
  snapshot::reader r = snapshot::reader::from_file(path);
  r.expect_section(grid_section);
  const std::string found = r.str();
  if (found != expected) {
    throw contract_violation(
        "checkpoint: " + path +
        " was written under different settings (its fingerprint is \"" +
        found + "\", this run's is \"" + expected +
        "\") — rows cannot be spliced across configurations");
  }
  grid_checkpoint ckpt(expected);
  const std::uint64_t count = r.u64();
  for (std::uint64_t k = 0; k < count; ++k) {
    std::string grid = r.str();
    const std::uint64_t cell = r.u64();
    std::string json = r.str();
    // Re-parse on load so a hand-edited row fails here, not mid-output.
    (void)parse_row(json);
    ckpt.rows_[{std::move(grid), cell}] = std::move(json);
  }
  return ckpt;
}

grid_checkpoint grid_checkpoint::load_or_empty(const std::string& path,
                                               const std::string& expected) {
  if (std::ifstream probe(path, std::ios::binary); !probe) {
    return grid_checkpoint(expected);  // cold start: nothing saved yet
  }
  return load(path, expected);
}

std::string checkpoint_fingerprint(const std::string& grids,
                                   std::uint64_t master_seed,
                                   const grid_options& opts,
                                   bool obs_extras) {
  const auto real = [](real_t v) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    DLB_ASSERT(res.ec == std::errc());
    return std::string(buf, res.ptr);
  };
  return "grids=" + grids + ";master-seed=" + std::to_string(master_seed) +
         ";n=" + std::to_string(opts.target_n) +
         ";repeats=" + std::to_string(opts.repeats) +
         ";spike=" + std::to_string(opts.spike_per_node) +
         ";dynamic-rounds=" + std::to_string(opts.dynamic_rounds) +
         ";arrivals-per-round=" + std::to_string(opts.arrivals_per_round) +
         ";burst-size=" + std::to_string(opts.burst_size) +
         ";burst-period=" + std::to_string(opts.burst_period) +
         ";arrival-rate=" + real(opts.arrival_rate) +
         ";service-rate=" + real(opts.service_rate) +
         ";replay-trace=" + opts.trace_path +
         ";obs-extras=" + (obs_extras ? "1" : "0");
}

}  // namespace dlb::runtime
