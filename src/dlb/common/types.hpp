// Basic scalar and index types shared by every dlb module.
#pragma once

#include <cstdint>
#include <limits>

namespace dlb {

/// Node index in a graph. Nodes are always numbered 0..n-1.
using node_id = std::int32_t;

/// Edge index in a graph. Edges are numbered 0..m-1 in builder order.
using edge_id = std::int32_t;

/// Integer load / task weight. Task weights are positive integers (paper §3),
/// so every discrete load, flow, and transfer is an exact integer.
using weight_t = std::int64_t;

/// Real-valued load / flow used by continuous processes.
using real_t = double;

/// Round counter. Balancing times can be large (e.g. n·d³ bounds), keep 64-bit.
using round_t = std::int64_t;

/// Sentinel for "no node".
inline constexpr node_id invalid_node = -1;

/// Sentinel for "no edge".
inline constexpr edge_id invalid_edge = -1;

/// Most tokens one experiment cell may be asked to create: its n ×
/// spike-per-node initial load, its rounds × arrivals-per-round stream, its
/// burst total, or one replay-trace event. Alg1 keeps every real task as a
/// weight_t plus its origin node (12 B), so 2^28 tokens fill 3 GiB of task
/// pools; larger requests are refused before anything is allocated.
inline constexpr weight_t max_cell_tokens = weight_t{1} << 28;

/// Comparison slack for real-valued flow bookkeeping. Chosen so that
/// accumulated floating-point error over any realistic horizon (<=1e9
/// operations at magnitudes <=1e12) stays far below the discrete quantum of 1.
inline constexpr real_t flow_epsilon = 1e-9;

}  // namespace dlb
