// The Bernoulli coin must be libstdc++'s std::bernoulli_distribution bit
// for bit, and consume exactly its one draw: Algorithm 2's rounding, the
// randomized-rounding baselines and the random walk's laziness flip it on
// counter streams, the bimodal workload on the library engine, and their
// rows are pinned.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <random>

#include "dlb/common/rng.hpp"

namespace dlb {
namespace {

/// A generator that returns one fixed 64-bit value forever.
struct fixed_bits {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type x;
  result_type operator()() const { return x; }
};

double library_canonical(std::uint64_t x) {
  fixed_bits g{x};
  return std::generate_canonical<double, 53>(g);
}

constexpr double below_one = 0x1.fffffffffffffp-1;

TEST(RngTest, CanonicalDoubleMatchesGenerateCanonical) {
  constexpr std::uint64_t two53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t two63 = std::uint64_t{1} << 63;
  constexpr std::uint64_t top = ~std::uint64_t{0};  // 2^64 - 1
  const std::uint64_t cases[] = {
      0,         1,         two53 - 1,  two53 + 1,   two63 - 1,
      two63,     two63 + 1, top - 2048, top - 1023, top,
  };
  for (const std::uint64_t x : cases) {
    EXPECT_EQ(canonical_double(x), library_canonical(x)) << x;
  }
  // 2^64 - 2049 rounds down to 2^64 - 2048, whose quotient is the largest
  // double below 1 without a clamp; 2^64 - 1024 (a tie, to even) and
  // 2^64 - 1 round up to 2^64 and reach 1 only through the clamp.
  EXPECT_EQ(static_cast<double>(top - 2048) * 0x1p-64, below_one);
  for (const std::uint64_t x : {top - 1023, top}) {
    EXPECT_EQ(static_cast<double>(x) * 0x1p-64, 1.0) << x;
    EXPECT_EQ(canonical_double(x), below_one) << x;
  }
}

TEST(RngTest, CounterCoinMatchesLibraryBernoulliAndKeepsTheStream) {
  const double fixed_p[] = {0.0, 0x1p-60, 0.5, 1.0 - 0x1p-53, 1.0};
  rng_t pick = make_rng(2024, 0xC011u);
  int heads = 0;
  constexpr int draws = 1'000'000;
  for (int k = 0; k < draws; ++k) {
    const std::uint64_t seed = pick();
    const std::uint64_t key = pick();
    counter_rng ours(seed, key);
    counter_rng lib(seed, key);
    // Fixed p, uniform p, and p on either side of this draw's own value,
    // where only the strict comparison decides.
    double p = 0;
    switch (k % 4) {
      case 0:
        p = fixed_p[(k / 4) % std::size(fixed_p)];
        break;
      case 1:
        p = uniform_real(pick);
        break;
      default: {
        counter_rng peek(seed, key);
        const double u = std::generate_canonical<double, 53>(peek);
        p = k % 4 == 2 ? u : std::nextafter(u, 2.0);
      }
    }
    const bool coin = bernoulli(ours, p);
    ASSERT_EQ(coin, std::bernoulli_distribution{p}(lib))
        << "seed " << seed << " key " << key << " p " << p;
    ASSERT_EQ(ours(), lib()) << "seed " << seed << " key " << key;
    heads += coin ? 1 : 0;
  }
  EXPECT_GT(heads, draws / 4);
  EXPECT_LT(heads, 3 * draws / 4);
}

TEST(RngTest, EngineCoinMatchesLibraryBernoulliAndKeepsTheStream) {
  rng_t ours = make_rng(2024, 0xB1Du);
  rng_t lib = ours;
  rng_t pick = make_rng(2024, 0xC012u);
  for (int k = 0; k < 100'000; ++k) {
    const double p = k % 2 == 0 ? uniform_real(pick) : 0.5;
    ASSERT_EQ(bernoulli(ours, p), std::bernoulli_distribution{p}(lib))
        << "draw " << k << " p " << p;
  }
  EXPECT_EQ(ours(), lib());
}

}  // namespace
}  // namespace dlb
