#include "eval/explore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "sim/io_sim.hpp"
#include "sim/mem_sim.hpp"

namespace tagspin::eval {
namespace {

// ddminShrink over both fault types the explorer instantiates: I/O faults
// (eval/crash) and memory faults (eval/oom).
template <typename Fault>
class DdminShrink : public ::testing::Test {
 protected:
  static std::vector<Fault> schedule(std::initializer_list<uint64_t> ops) {
    std::vector<Fault> s;
    for (uint64_t op : ops) {
      Fault f;
      f.opIndex = op;
      s.push_back(f);
    }
    return s;
  }

  static bool has(const std::vector<Fault>& s, uint64_t op) {
    return std::any_of(s.begin(), s.end(),
                       [op](const Fault& f) { return f.opIndex == op; });
  }
};

using FaultTypes = ::testing::Types<sim::Fault, sim::MemFault>;
TYPED_TEST_SUITE(DdminShrink, FaultTypes);

TYPED_TEST(DdminShrink, ReducesToTheSingleCulpritFault) {
  // Only the fault at op 7 matters.
  const auto fails = [](const std::vector<TypeParam>& s) {
    return TestFixture::has(s, 7);
  };
  const std::vector<TypeParam> shrunk =
      ddminShrink(TestFixture::schedule({1, 3, 7, 9, 12, 20, 31, 44}), fails);
  ASSERT_EQ(shrunk.size(), 1u);
  EXPECT_EQ(shrunk[0].opIndex, 7u);
}

TYPED_TEST(DdminShrink, KeepsAConjunctionOfTwoFaults) {
  // Failure needs BOTH op 2 and op 9 (an ordering bug armed by one fault
  // and fired by another).
  const auto fails = [](const std::vector<TypeParam>& s) {
    return TestFixture::has(s, 2) && TestFixture::has(s, 9);
  };
  const std::vector<TypeParam> shrunk =
      ddminShrink(TestFixture::schedule({0, 2, 4, 6, 9, 11, 13, 15}), fails);
  ASSERT_EQ(shrunk.size(), 2u);
  EXPECT_EQ(shrunk[0].opIndex, 2u);
  EXPECT_EQ(shrunk[1].opIndex, 9u);
  EXPECT_TRUE(fails(shrunk));
}

TYPED_TEST(DdminShrink, AlreadyMinimalScheduleIsReturnedVerbatim) {
  const auto fails = [](const std::vector<TypeParam>& s) {
    return !s.empty();
  };
  const std::vector<TypeParam> shrunk =
      ddminShrink(TestFixture::schedule({5}), fails);
  ASSERT_EQ(shrunk.size(), 1u);
  EXPECT_EQ(shrunk[0].opIndex, 5u);
}

}  // namespace
}  // namespace tagspin::eval
