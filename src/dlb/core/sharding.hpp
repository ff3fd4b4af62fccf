// Sharded stepping: intra-graph parallelism for a single huge network.
//
// The paper's processes are synchronous per-round maps over all nodes, so one
// round decomposes into embarrassingly parallel per-edge and per-node phases
// separated by barriers (compute flows → apply flows; allocate send sets →
// deliver). A `shard_context` couples a `shard_plan` (one graph's shard
// count) with a `steal_runner` (typically dlb::runtime::thread_pool::
// steal_loop) that runs one claim loop per shard and returns only when all
// of them finished — the barrier.
//
// One execution path serves every sharded loop. `run_chunks` cuts a range of
// items into fixed-size chunks — boundaries a pure function of (item count,
// grain), NEVER of the shard count — and the shards' claim loops pull chunk
// indices until the range drains, so irregular per-item cost never parks a
// fast shard at the barrier: it claims the remaining chunks instead. Values
// cross shards only through `chunked_reduce`: each chunk returns its value
// into its own slot, and the caller folds the slots in ascending chunk
// order. With no context the same chunks run on the caller.
//
// `sharded_stepper` is the shared protocol every process in the repo steps
// through — the base of `linear_process` and of `discrete_process`, so the
// engine reaches any process's context, probe and topology without a cast:
// derived classes express their round as edge_phase()/node_phase() calls
// (plus node_phase_reduce for order-independent folds), and the base runs
// them chunk by chunk — on the caller when sequential, on the shards when a
// context is installed — same bits either way.
//
// Determinism contract (docs/ARCHITECTURE.md, "Sharded stepping" and "Round
// kernels & chunked execution"): a sharded step must be *bit-identical* to
// the sequential step for any shard count. The phase decomposition
// guarantees this because
//  * per-edge quantities (flows, cumulative-flow updates, deficits) are pure
//    functions of the pre-round state — so the partition into chunks is
//    free; each chunk walks its edge ids in ascending order, which on the
//    (u, v)-sorted edge list is a sequential stream over every per-edge
//    array (core/phase_slice.hpp),
//  * per-node accumulators (load updates, outgoing sums, task pools) receive
//    their contributions in ascending incident-edge order — exactly the order
//    the sequential edge loop applies them, because graph adjacency lists are
//    built in ascending edge-id order, and
//  * randomized per-entity decisions draw from counter-based RNG streams
//    (common/rng.hpp counter_rng), pure functions of (seed, entity, round),
//    never from a shared sequential engine.
// Cross-shard folds see the same chunk values in the same order at any shard
// count. Integer folds (dummy counters), min/max (discrepancy extrema) and
// boolean folds are exact under any grouping; the one floating-point total
// the engine needs (the is_balanced load sum) goes through `blocked_sum`,
// whose 4096-element grain is part of the bit contract — unlike the phase
// grain, which is an execution knob.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "dlb/common/types.hpp"
#include "dlb/core/phase_slice.hpp"
#include "dlb/graph/graph.hpp"
#include "dlb/obs/probe.hpp"

namespace dlb {

class alpha_schedule;

/// Executes body(i) for every i in [0, count) — possibly in parallel — and
/// returns only when all invocations finished. dlb::runtime adapts
/// thread_pool::parallel_for_each to this.
using shard_runner = std::function<void(
    std::size_t count, const std::function<void(std::size_t)>& body)>;

/// Executes `groups` claim-loop bodies — possibly in parallel — and returns
/// only when all finished (the phase barrier). Each body repeatedly invokes
/// its `claim` callable; claims across all groups return every index in
/// [0, chunks) exactly once and then values >= chunks forever (the drain
/// signal). dlb::runtime adapts thread_pool::steal_loop to this;
/// serial_steal_runner() is the single-threaded one.
using steal_runner = std::function<void(
    std::size_t groups, std::size_t chunks,
    const std::function<void(std::size_t group,
                             const std::function<std::size_t()>& claim)>&
        body)>;

/// Execution mode of a shard_context. Chunked work stealing is the only
/// mode; the enumerator exists so contexts keep their aggregate shape
/// `{plan, run, shard_exec::work_stealing, steal}`, and nothing reads it.
enum class shard_exec {
  work_stealing,  ///< fixed-size chunks claimed through the steal_runner
};

/// Number of items (edges or nodes) per chunk of a sharded phase. Small
/// enough that a 1M-item phase exposes ~64 chunks to 8 shards (fine-grained
/// enough to absorb a 10x per-item skew), large enough that one claim
/// amortizes over thousands of items. An execution knob: phase outputs do
/// not depend on it.
inline constexpr std::size_t phase_chunk_items = 16384;

/// Number of `grain`-sized chunks covering [0, count) — at least one, so an
/// empty range still runs (and folds) one empty chunk.
[[nodiscard]] constexpr std::size_t chunk_count(std::size_t count,
                                                std::size_t grain) noexcept {
  return count == 0 ? 1 : (count + grain - 1) / grain;
}

/// The shard count of one graph. The requested shard count is clamped to
/// [1, n], so a plan never runs more claim groups than the graph has nodes.
/// The edge set is also cut into num_shards() contiguous, count-balanced id
/// ranges (edge_begin/edge_end) for callers that hand one range to each
/// shard; ranges may be empty (a graph can have fewer edges than shards, or
/// none at all).
class shard_plan {
 public:
  shard_plan() = default;
  shard_plan(const graph& g, std::size_t num_shards);

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return edge_cut_.empty() ? 0 : edge_cut_.size() - 1;
  }
  [[nodiscard]] node_id num_nodes() const noexcept { return n_; }
  [[nodiscard]] edge_id num_edges() const noexcept { return m_; }

  [[nodiscard]] edge_id edge_begin(std::size_t s) const { return edge_cut_[s]; }
  [[nodiscard]] edge_id edge_end(std::size_t s) const {
    return edge_cut_[s + 1];
  }

  /// Always null: edge phases walk ids in order. Kept for the frozen scale
  /// benchmark (perfbench/), which hands it to edge_slice.
  [[nodiscard]] std::nullptr_t edge_order() const noexcept { return nullptr; }

 private:
  node_id n_ = 0;
  edge_id m_ = 0;
  std::vector<edge_id> edge_cut_;  // size num_shards+1, ascending
};

/// A plan plus the runners that execute its shards. One context is built per
/// experiment cell (outside the timed engine call) and shared by the discrete
/// process and its internal continuous reference.
struct shard_context {
  shard_plan plan;
  shard_runner run;
  shard_exec exec = shard_exec::work_stealing;  ///< unread; see shard_exec
  /// The claim loop every sharded phase and reduction runs on (required).
  steal_runner steal;

  /// Runs fn(shard) for every shard and waits for all — one barrier phase.
  void for_each_shard(const std::function<void(std::size_t)>& fn) const {
    run(plan.num_shards(), fn);
  }
};

/// The single-threaded claim loop: runs the group bodies one after another
/// on the caller, handing out chunk indices from a plain counter — group 0
/// drains every chunk, later groups see the drain signal at once.
[[nodiscard]] steal_runner serial_steal_runner();

/// A context whose shards all run on the calling thread: a `shards`-way plan
/// of `g`, a plain-loop runner and serial_steal_runner(). The barrier
/// semantics without threads — what equivalence tests step under.
[[nodiscard]] std::shared_ptr<const shard_context> serial_shard_context(
    const graph& g, std::size_t shards);

/// Wraps one claim group's loop: hook(group, drain) must call drain()
/// exactly once; drain runs the chunks the group claims and returns the
/// number of items they covered. Phase instrumentation hangs its per-group
/// spans here.
using group_hook = std::function<void(
    std::size_t group, const std::function<std::size_t()>& drain)>;

/// Runs fn(chunk, lo, hi) exactly once for every `grain`-sized chunk
/// [lo, hi) of [0, count). With a context, its plan's num_shards() claim
/// groups pull the chunks through ctx->steal; without one, every chunk runs
/// on the caller in ascending order, as group 0. `hook` (optional) wraps
/// each group's claim loop.
void run_chunks(
    const shard_context* ctx, std::size_t count, std::size_t grain,
    const std::function<void(std::size_t chunk, std::size_t lo,
                             std::size_t hi)>& fn,
    const group_hook& hook = nullptr);

/// The chunked reduce — the one way values cross shards. body(lo, hi)
/// computes one value per chunk of run_chunks(ctx, count, grain), each into
/// its own slot, and the caller folds the slots in ascending chunk order
/// starting from `init`. The grouping is a pure function of (count, grain),
/// so the result is identical at any shard count and without a context.
/// Each chunk writes its slot once, never once per item, so shards cannot
/// false-share an accumulator. A float total is only reproducible at a
/// fixed grain (see blocked_sum); use phase_chunk_items for exact folds
/// only.
template <typename T, typename Body, typename Fold>
[[nodiscard]] T chunked_reduce(const shard_context* ctx, std::size_t count,
                               std::size_t grain, T init, const Body& body,
                               const Fold& fold,
                               const group_hook& hook = nullptr) {
  static_assert(!std::is_same_v<T, bool>,
                "use int: vector<bool> bit-packs, and concurrent per-chunk "
                "slot writes to one word would race");
  std::vector<T> slots(chunk_count(count, grain), init);
  run_chunks(
      ctx, count, grain,
      [&](std::size_t c, std::size_t lo, std::size_t hi) {
        slots[c] = body(lo, hi);
      },
      hook);
  T acc = init;
  for (const T& v : slots) acc = fold(acc, v);
  return acc;
}

/// Min and max load-per-speed over a range of nodes; the default value is
/// the fold identity. Both folds are exact, so any chunk grouping yields
/// the same bits as one scan over all nodes.
struct load_extrema {
  real_t lo = 1e300;
  real_t hi = -1e300;

  void add(real_t per_speed) {
    lo = std::min(lo, per_speed);
    hi = std::max(hi, per_speed);
  }
  [[nodiscard]] static load_extrema merge(const load_extrema& a,
                                          const load_extrema& b) {
    return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
  }
};

/// The shared protocol base of every process — `linear_process` and, through
/// `discrete_process`, every discrete one: it owns the shard context and the
/// probe, and gives derived processes the three phase primitives their
/// step() is built from. Every phase runs chunk by chunk through run_chunks
/// — on the calling thread with no context installed, on the context's
/// shards otherwise, the steal runner's return being the barrier. Enabling
/// a context is a pure execution-strategy switch: all observable state
/// (loads, flows, pools, RNG streams) evolves bit-identically to the
/// sequential path. Derived classes only have to uphold the phase purity
/// rules in the header comment above; docs/ARCHITECTURE.md's porting guide
/// walks through a port.
class sharded_stepper {
 public:
  virtual ~sharded_stepper() = default;

  /// The graph this process steps on; a shard plan must describe it.
  [[nodiscard]] virtual const graph& topology() const = 0;

  /// Switches step() to sharded execution. The context's plan must describe
  /// topology() (node/edge counts are checked) and it must carry a steal
  /// runner.
  void enable_sharded_stepping(std::shared_ptr<const shard_context> ctx);

  /// The active context, or nullptr when stepping sequentially.
  [[nodiscard]] std::shared_ptr<const shard_context> sharding() const {
    return shard_;
  }

  /// Attaches an observability probe: every phase then emits one span per
  /// claim-loop group (the span's shard slot carries the group index, so
  /// barrier-wait share and skew stay attributable), plus one barrier-wait
  /// span per group when sharded, and bumps the probe's metrics counters.
  /// Pure observation — stepping stays bit-identical (obs/probe.hpp). A
  /// default probe detaches.
  void set_probe(const obs::probe& pb) {
    probe_ = pb;
    on_probe_attached(probe_);
  }
  [[nodiscard]] const obs::probe& probe() const noexcept { return probe_; }

 protected:
  /// Called after a context is installed — the hook flow_imitator uses to
  /// forward the same context to its continuous reference.
  virtual void on_sharding_enabled(
      const std::shared_ptr<const shard_context>& ctx) {
    (void)ctx;
  }

  /// Called after a probe is attached — the parallel hook: flow_imitator
  /// forwards the probe to its continuous reference so the reference's
  /// phases report to the same cell.
  virtual void on_probe_attached(const obs::probe& pb) { (void)pb; }

  /// Credits `n` tokens physically transferred across edges to the attached
  /// metrics (no-op without one). Processes call this from the receiving
  /// side of their apply/receive phases, so every moved token is counted
  /// exactly once and the total is shard-count independent.
  void add_tokens_moved(std::uint64_t n) const noexcept;

  /// Pure per-edge phase: body(slice) once per chunk, each slice a run of
  /// edge ids visited in ascending order. The body may read any pre-phase
  /// state but write only the per-edge slots of the edges its slice visits.
  void edge_phase(const std::function<void(const edge_slice&)>& body) const;

  /// Per-node phase: body(i0, i1) over contiguous node ranges. The body may
  /// write per-node state of its own nodes and per-(edge, direction) slots
  /// whose single writer is one of its nodes; per-node accumulators must
  /// fold incident edges in ascending edge-id order.
  void node_phase(const std::function<void(node_id, node_id)>& body) const;

  /// The per-round α fill of schedule-driven steppers: begin_round(t)
  /// (traced as one `alpha.draw` span), then fill_alphas over this
  /// stepper's edge phase into `alpha` (resized to m; every slot is written,
  /// so no clear is needed). Skipped while `cached` holds; sets it after a
  /// time-invariant schedule's fill, so diffusion fills once. Callers clear
  /// `cached` on reset.
  void fill_round_alphas(const alpha_schedule& schedule, round_t t,
                         std::vector<real_t>& alpha, bool& cached) const;

  /// Node phase folding one value per chunk through chunked_reduce — an
  /// exact reduction (integer sums, min/max, boolean OR — never a float
  /// sum: the phase grain is an execution knob, and retuning it would
  /// regroup the sum). `init` is the fold identity.
  template <typename T, typename Fold>
  T node_phase_reduce(T init,
                      const std::function<T(node_id, node_id)>& body,
                      Fold fold) const {
    const auto n = static_cast<std::size_t>(topology().num_nodes());
    phase_probe pp(*this, phase_kind::reduce, n);
    const T acc = chunked_reduce(
        shard_.get(), n, phase_chunk_items, init,
        [&](std::size_t lo, std::size_t hi) {
          return body(static_cast<node_id>(lo), static_cast<node_id>(hi));
        },
        fold, pp.hook());
    pp.done();
    return acc;
  }

 private:
  /// Which primitive a phase is — selects the span names and whether the
  /// phase's items are edges or nodes.
  enum class phase_kind { edge, node, reduce };

  /// Observation of one phase: hook() wraps each claim group in its span
  /// (with any counter payload); done(), called after the barrier,
  /// synthesizes each group's barrier-wait span when sharded and bumps the
  /// phase counters. Inert without a probe, so unobserved phases pay a few
  /// null checks.
  class phase_probe {
   public:
    phase_probe(const sharded_stepper& st, phase_kind kind,
                std::size_t items);

    /// The group hook for run_chunks, or nullptr without a recorder.
    [[nodiscard]] group_hook hook();
    void done() const;

   private:
    const sharded_stepper& st_;
    phase_kind kind_;
    std::size_t items_;
    // Each group's finish time, written once by the thread that ran it and
    // read after the barrier.
    std::vector<std::int64_t> end_ns_;
  };

  /// Runs body(lo, hi) over the phase's chunks, observed by a phase_probe.
  void run_phase(phase_kind kind, std::size_t items,
                 const std::function<void(std::size_t, std::size_t)>& body)
      const;

  std::shared_ptr<const shard_context> shard_;  // null → sequential stepping
  obs::probe probe_;  // default = observability off
};

/// p.enable_sharded_stepping(ctx), returning true. Kept for the frozen scale
/// benchmark (perfbench/); the library and the tests call the member.
inline bool try_enable_sharding(sharded_stepper& p,
                                std::shared_ptr<const shard_context> ctx) {
  p.enable_sharded_stepping(std::move(ctx));
  return true;
}

/// p.set_probe(pb), returning true. Kept for the frozen scale benchmark
/// (perfbench/); the library and the tests call the member.
inline bool try_attach_probe(sharded_stepper& p, const obs::probe& pb) {
  p.set_probe(pb);
  return true;
}

/// Min/max load-per-speed over nodes [begin, end) — the shared body of the
/// `real_load_extrema` overrides of processes whose real loads *are* their
/// load vector (the baselines). Keeping the discrepancy convention in one
/// place is what keeps the per-round metric bit-equal across every process.
[[nodiscard]] load_extrema per_speed_extrema(
    const std::vector<weight_t>& loads, const std::vector<weight_t>& speeds,
    node_id begin, node_id end);

/// Net inflow of node `i` under a per-edge signed send vector oriented u→v
/// (+ = u sends v), folding incident edges in ascending edge-id order — the
/// shared apply-phase body of processes whose round reduces to one signed
/// integer per edge (round-down diffusion, the rounding baselines). The
/// direction convention (i is the edge's u iff the neighbor id is larger)
/// lives here so ports cannot silently flip a sign.
[[nodiscard]] weight_t signed_edge_inflow(
    const graph& g, const std::vector<weight_t>& edge_sent, node_id i);

/// Deterministic blocked sum: chunked_reduce over fixed 4096-element blocks
/// of x (left-to-right within a block), folded in block order. The grouping
/// is a pure function of x.size() — never of the shard count or of whether
/// a context is given — so every call returns *identical bits*, and vectors
/// of at most one block reproduce the plain left-to-right sum exactly. This
/// is the one floating-point total the engine parallelizes (the is_balanced
/// load sum at n ≈ 10^6 per probe round).
[[nodiscard]] real_t blocked_sum(const std::vector<real_t>& x,
                                 const shard_context* ctx = nullptr);

}  // namespace dlb
