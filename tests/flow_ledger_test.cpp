// Flow ledger orientation and bookkeeping tests.
#include "dlb/core/flow_ledger.hpp"

#include <gtest/gtest.h>

#include "dlb/graph/generators.hpp"

namespace dlb {
namespace {

TEST(FlowLedgerTest, OrientationAndAntisymmetry) {
  const graph g = generators::path(3);  // edges 0:(0,1) 1:(1,2)
  discrete_flow_ledger ledger(g);
  ledger.record(0, /*from=*/0, 5);  // 0→1
  EXPECT_EQ(ledger.forward(0), 5);
  EXPECT_EQ(ledger.from(0, 0), 5);
  EXPECT_EQ(ledger.from(0, 1), -5);

  ledger.record(0, /*from=*/1, 2);  // 1→0 partially cancels
  EXPECT_EQ(ledger.forward(0), 3);
  EXPECT_EQ(ledger.from(0, 1), -3);
}

TEST(FlowLedgerTest, RejectsNegativeAmount) {
  const graph g = generators::path(2);
  discrete_flow_ledger ledger(g);
  EXPECT_THROW(ledger.record(0, 0, -1), contract_violation);
}

TEST(FlowLedgerTest, RejectsNonEndpoint) {
  const graph g = generators::path(3);
  discrete_flow_ledger ledger(g);
  EXPECT_THROW(ledger.record(0, 2, 1), contract_violation);
  EXPECT_THROW((void)ledger.from(1, 0), contract_violation);
}

}  // namespace
}  // namespace dlb
