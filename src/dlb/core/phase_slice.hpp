// edge_slice: one chunk of an edge phase — the contiguous run of edge ids
// [begin, end), visited in ascending order.
//
// graph sorts its edges by (u, v) at construction, so walking ids in order
// is a sequential stream over x_u and over every edge-indexed array (flows,
// ledgers, deficits, α). Per-edge phases are pure functions of the
// pre-round state writing only their own edge's slots, so the set of edges
// a slice visits — never the visit order — determines the result.
//
// This header is deliberately tiny: alpha schedules (core/process.hpp) fill
// per-edge coefficients through slices too, and must not drag the full
// sharding/observability headers into every process interface.
#pragma once

#include <cstddef>

#include "dlb/common/types.hpp"

namespace dlb {

class edge_slice {
 public:
  /// Edge ids [begin, end). The third parameter carries nothing: it keeps
  /// the frozen scale benchmark's three-argument construction compiling.
  edge_slice(edge_id begin, edge_id end, std::nullptr_t = nullptr) noexcept
      : begin_(begin), end_(end) {}

  [[nodiscard]] edge_id size() const noexcept { return end_ - begin_; }
  [[nodiscard]] bool empty() const noexcept { return begin_ == end_; }

  /// Calls body(e) once per edge id of the slice, in ascending order.
  template <typename Body>
  void for_each(Body&& body) const {
    for (edge_id e = begin_; e < end_; ++e) body(e);
  }

 private:
  edge_id begin_;
  edge_id end_;
};

}  // namespace dlb
