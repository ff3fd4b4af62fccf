// Graph serialization round-trips and malformed-input rejection.
#include "dlb/graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "dlb/graph/generators.hpp"

namespace dlb {
namespace {

TEST(IoTest, EdgeListRoundTrip) {
  const graph g = generators::ring_of_cliques(3, 4);
  std::stringstream ss;
  write_edge_list(ss, g);
  const graph h = read_edge_list(ss);
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (edge_id e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(h.endpoints(e), g.endpoints(e));
  }
}

TEST(IoTest, EdgeListFormat) {
  const graph g(3, {{0, 1}, {1, 2}});
  std::ostringstream os;
  write_edge_list(os, g);
  EXPECT_EQ(os.str(), "3 2\n0 1\n1 2\n");
}

TEST(IoTest, ReadAcceptsArbitraryWhitespace) {
  std::istringstream is("4  3\n0 1\t1 2\n\n2 3");
  const graph g = read_edge_list(is);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 3);
}

TEST(IoTest, ReadRejectsMalformedHeader) {
  std::istringstream a("x 2\n0 1\n1 2\n");
  EXPECT_THROW((void)read_edge_list(a), contract_violation);
  std::istringstream b("");
  EXPECT_THROW((void)read_edge_list(b), contract_violation);
  std::istringstream c("-3 1\n0 1\n");
  EXPECT_THROW((void)read_edge_list(c), contract_violation);
}

TEST(IoTest, ReadRejectsTruncatedBody) {
  std::istringstream is("3 2\n0 1\n");
  EXPECT_THROW((void)read_edge_list(is), contract_violation);
  // A huge header count must not be trusted for an up-front allocation.
  std::istringstream huge("4 2147483647\n0 1\n");
  EXPECT_THROW((void)read_edge_list(huge), contract_violation);
}

TEST(IoTest, ReadRejectsInvalidEdges) {
  std::istringstream self("2 1\n1 1\n");
  EXPECT_THROW((void)read_edge_list(self), contract_violation);
  std::istringstream range("2 1\n0 5\n");
  EXPECT_THROW((void)read_edge_list(range), contract_violation);
  std::istringstream dup("3 2\n0 1\n1 0\n");
  EXPECT_THROW((void)read_edge_list(dup), contract_violation);
}

TEST(IoTest, DotExport) {
  const graph g(3, {{0, 1}, {1, 2}});
  std::ostringstream os;
  write_dot(os, g, {"a", "b", "c"});
  const std::string out = os.str();
  EXPECT_NE(out.find("graph dlb {"), std::string::npos);
  EXPECT_NE(out.find("0 -- 1;"), std::string::npos);
  EXPECT_NE(out.find("[label=\"b\"]"), std::string::npos);
  EXPECT_NE(out.find("}"), std::string::npos);
}

TEST(IoTest, DotLabelsArityChecked) {
  const graph g(3, {{0, 1}});
  std::ostringstream os;
  EXPECT_THROW(write_dot(os, g, {"only", "two"}), contract_violation);
  EXPECT_NO_THROW(write_dot(os, g));  // labels optional
}

}  // namespace
}  // namespace dlb
