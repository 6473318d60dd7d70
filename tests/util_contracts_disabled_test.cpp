// Compiled with -DCVSAFE_NO_CONTRACTS (see tests/CMakeLists.txt): every
// contract macro must expand to a no-op with zero side effects, and
// header-inline contract sites must compile out in this translation unit
// even though the library itself was built with contracts enabled.

#include "cvsafe/util/contracts.hpp"

#include <gtest/gtest.h>

#include "cvsafe/util/interval.hpp"
#include "cvsafe/util/interval_set.hpp"

#ifndef CVSAFE_NO_CONTRACTS
#error "this test must be compiled with -DCVSAFE_NO_CONTRACTS"
#endif

namespace cvsafe::util {
namespace {

TEST(ContractsDisabled, MacrosAreNoOps) {
  ScopedContractMode mode(ContractMode::kThrow);
  EXPECT_NO_THROW(CVSAFE_EXPECTS(false, "compiled out"));
  EXPECT_NO_THROW(CVSAFE_ENSURES(false));
  EXPECT_NO_THROW(CVSAFE_ASSERT(false, "also compiled out"));
}

TEST(ContractsDisabled, ConditionIsNotEvaluated) {
  int evaluations = 0;
  CVSAFE_ASSERT(++evaluations > 0);
  CVSAFE_EXPECTS(++evaluations > 0, "never runs");
  EXPECT_EQ(evaluations, 0);
}

TEST(ContractsDisabled, ContractOnlyNamesStayUsed) {
  // `checked` is read only by the contract. Compiled out, the condition
  // must still count as a use, or -Werror builds with contracts off break
  // on -Wunused-variable.
  const bool checked = true;
  EXPECT_NO_THROW(CVSAFE_ASSERT(checked, "unevaluated"));
}

TEST(ContractsDisabled, HeaderInlineContractSitesCompileOut) {
  ScopedContractMode mode(ContractMode::kThrow);
  // These would throw in the enabled build (util_contracts_test.cpp); in
  // this TU the inline definitions carry no checks. The *values* are
  // garbage by design — the point is the absence of a trap.
  const Interval inverted = Interval::centered(0.0, -1.0);
  EXPECT_TRUE(inverted.empty());
  EXPECT_NO_THROW(Interval::empty_interval().mid());
  EXPECT_NO_THROW(Interval::empty_interval().clamp(0.5));
}

}  // namespace
}  // namespace cvsafe::util
