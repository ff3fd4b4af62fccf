// Seeded random number utilities. No global RNG state anywhere in dlb:
// every randomized component receives an explicit seed or engine so that
// whole experiments are reproducible from a single master seed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>

namespace dlb {

/// The engine used throughout the library.
using rng_t = std::mt19937_64;

/// Derives a stream-specific seed from a master seed. Uses the SplitMix64
/// finalizer so that nearby (master, stream) pairs yield decorrelated seeds.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t master,
                                               std::uint64_t stream) noexcept {
  std::uint64_t z = master + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Constructs an engine for a (master seed, stream id) pair.
[[nodiscard]] inline rng_t make_rng(std::uint64_t master,
                                    std::uint64_t stream = 0) {
  return rng_t{derive_seed(master, stream)};
}

/// Counter-based RNG stream: every output is the SplitMix64 finalizer of
/// (seed, key, counter) — a pure function of its inputs, with no carried
/// engine state. Sharded randomized processes draw through one counter_rng
/// per (entity, round), so the draw a given edge/node/walker sees never
/// depends on which shard — or in which order — the entities are visited.
/// Satisfies UniformRandomBitGenerator, so the helpers below accept it.
class counter_rng {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  counter_rng(std::uint64_t seed, std::uint64_t key)
      : base_(derive_seed(seed, key)) {}

  result_type operator()() noexcept { return derive_seed(base_, counter_++); }

 private:
  std::uint64_t base_;
  std::uint64_t counter_ = 0;
};

/// The double in [0, 1) that libstdc++'s generate_canonical<double, 53>
/// makes of one 64-bit draw x: x rounded to the nearest double (ties to
/// even), times 2^-64, clamped to the largest double below 1. The two
/// 32-bit halves convert exactly and round once when added, as converting x
/// itself does, but without the conversion's sign branch.
[[nodiscard]] inline double canonical_double(std::uint64_t x) noexcept {
  const double u = (static_cast<double>(x >> 32) * 0x1p32 +
                    static_cast<double>(static_cast<std::uint32_t>(x))) *
                   0x1p-64;
  return std::min(u, 0x1.fffffffffffffp-1);  // nextafter(1.0, 0.0)
}

/// Bernoulli draw with success probability p in [0,1] from a full-range
/// 64-bit engine: consumes one draw and returns the bit
/// std::bernoulli_distribution returns on libstdc++, branch-free.
template <typename Rng>
[[nodiscard]] bool bernoulli(Rng& rng, double p) {
  static_assert(Rng::min() == 0 && Rng::max() == ~std::uint64_t{0},
                "bernoulli needs a full-range 64-bit engine");
  return canonical_double(rng()) < p;
}

/// Uniform integer in [lo, hi] inclusive.
template <typename Int, typename Rng>
[[nodiscard]] Int uniform_int(Rng& rng, Int lo, Int hi) {
  return std::uniform_int_distribution<Int>{lo, hi}(rng);
}

/// Uniform real in [lo, hi).
template <typename Rng>
[[nodiscard]] double uniform_real(Rng& rng, double lo = 0.0,
                                  double hi = 1.0) {
  return std::uniform_real_distribution<double>{lo, hi}(rng);
}

}  // namespace dlb
