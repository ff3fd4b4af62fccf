// Random maximal matching tests.
#include "dlb/graph/matching.hpp"

#include <gtest/gtest.h>

#include <set>

#include "dlb/graph/generators.hpp"

namespace dlb {
namespace {

using namespace dlb::generators;

TEST(MatchingTest, IsMatchingAcceptsValid) {
  const graph g = cycle(6);
  EXPECT_TRUE(is_matching(g, {}));
  EXPECT_TRUE(is_matching(g, {0}));
}

TEST(MatchingTest, IsMatchingRejectsSharedNode) {
  const graph g = path(3);  // edges 0:(0,1), 1:(1,2)
  EXPECT_FALSE(is_matching(g, {0, 1}));
}

TEST(MatchingTest, IsMatchingRejectsBadEdgeId) {
  const graph g = path(3);
  EXPECT_FALSE(is_matching(g, {7}));
  EXPECT_FALSE(is_matching(g, {-1}));
}

TEST(MatchingTest, RandomMaximalIsValidAndMaximal) {
  const graph g = random_regular(40, 4, 9);
  for (std::uint64_t r = 0; r < 20; ++r) {
    const matching m = random_maximal_matching(g, /*seed=*/1, r);
    EXPECT_TRUE(is_matching(g, m));
    // Maximality: no remaining edge has both endpoints free.
    std::vector<char> used(static_cast<size_t>(g.num_nodes()), 0);
    for (const edge_id e : m) {
      used[static_cast<size_t>(g.endpoints(e).u)] = 1;
      used[static_cast<size_t>(g.endpoints(e).v)] = 1;
    }
    for (edge_id e = 0; e < g.num_edges(); ++e) {
      const edge& ed = g.endpoints(e);
      EXPECT_TRUE(used[static_cast<size_t>(ed.u)] ||
                  used[static_cast<size_t>(ed.v)])
          << "matching not maximal at edge " << e;
    }
  }
}

TEST(MatchingTest, DeterministicInSeedAndRound) {
  const graph g = hypercube(4);
  const matching a = random_maximal_matching(g, 5, 3);
  const matching b = random_maximal_matching(g, 5, 3);
  EXPECT_EQ(a, b);
}

// FNV-1a over the drawn edge ids in draw order: pins both the matched set
// and the order the greedy scan found it in.
std::uint64_t draw_hash(const matching& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const edge_id e : m) {
    h ^= static_cast<std::uint64_t>(e);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The random-matching stream is a contract: every random-matching row and
// perfbench digest depends on it. These hashes were computed from the
// original draw (one std::shuffle of 0..m-1 under make_rng(seed, round),
// then a greedy scan in shuffled order); a change to the shuffle call, the
// engine or the scan order fails here before it moves a single row.
TEST(MatchingTest, DrawStreamMatchesGoldenHashes) {
  struct golden {
    int graph;  // index into `graphs`
    std::uint64_t seed;
    std::uint64_t round;
    std::uint64_t hash;
  };
  const graph graphs[] = {hypercube(8), torus_2d(16),
                          random_regular(200, 4, 11)};
  const char* names[] = {"hypercube(8)", "torus_2d(16)",
                         "random_regular(200,4,11)"};
  const golden table[] = {
      {0, 1, 0, 0x325c2cc65bb47277ULL},  {0, 1, 1, 0x020525ad2c60c484ULL},
      {0, 1, 7, 0x8e37613ad1462ae0ULL},  {0, 31, 0, 0xc5d0bb29c4c9e7edULL},
      {0, 31, 1, 0x06aa2fddb2741eadULL}, {0, 31, 7, 0xd56cdd943384bc21ULL},
      {1, 1, 0, 0x36d1a5ff23bde0aeULL},  {1, 1, 1, 0x8fcc96eaac1840a4ULL},
      {1, 1, 7, 0x39bf7134a85e5c73ULL},  {1, 31, 0, 0x36158b92cfb52feeULL},
      {1, 31, 1, 0xfadf389b4b716f0aULL}, {1, 31, 7, 0xb4f294a91f4c9994ULL},
      {2, 1, 0, 0xf76ebf23a96b9dd1ULL},  {2, 1, 1, 0xf97e41b391f5cbfbULL},
      {2, 1, 7, 0x4422fd8543192159ULL},  {2, 31, 0, 0xaaa246d018f7497dULL},
      {2, 31, 1, 0x014140e21d92a85bULL}, {2, 31, 7, 0x1793d72a73b03006ULL},
  };
  for (const golden& want : table) {
    EXPECT_EQ(draw_hash(random_maximal_matching(graphs[want.graph], want.seed,
                                                want.round)),
              want.hash)
        << names[want.graph] << " seed " << want.seed << " round "
        << want.round;
  }
}

TEST(MatchingTest, DifferentRoundsDiffer) {
  const graph g = hypercube(5);
  std::set<matching> distinct;
  for (std::uint64_t r = 0; r < 10; ++r) {
    distinct.insert(random_maximal_matching(g, 5, r));
  }
  EXPECT_GT(distinct.size(), 1u);
}

TEST(MatchingTest, EveryEdgeEventuallyMatched) {
  // Over many rounds each edge of a small graph should appear at least once
  // (probability >= 1/(2d) per round).
  const graph g = cycle(7);
  std::vector<int> hits(static_cast<size_t>(g.num_edges()), 0);
  for (std::uint64_t r = 0; r < 200; ++r) {
    for (const edge_id e : random_maximal_matching(g, 3, r)) {
      ++hits[static_cast<size_t>(e)];
    }
  }
  for (const int h : hits) EXPECT_GT(h, 0);
}

}  // namespace
}  // namespace dlb
