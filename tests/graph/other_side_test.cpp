#include "graph/other_side.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "test_util.h"

namespace mapit::graph {
namespace {

using testutil::addr;

OtherSideMap build(std::initializer_list<const char*> addresses) {
  std::vector<net::Ipv4Address> list;
  for (const char* a : addresses) list.push_back(addr(a));
  return OtherSideMap(list);
}

TEST(OtherSide, ReservedSlotMustBeSlash31) {
  // Low bits 00 and 11 cannot be /30 hosts, so they are /31-numbered.
  const OtherSideMap map = build({"1.0.0.0", "1.0.0.3"});
  EXPECT_EQ(map.other_side(addr("1.0.0.0")).address, addr("1.0.0.1"));
  EXPECT_EQ(map.other_side(addr("1.0.0.0")).inference,
            PrefixInference::kSlash31Reserved);
  EXPECT_EQ(map.other_side(addr("1.0.0.3")).address, addr("1.0.0.2"));
  EXPECT_TRUE(map.other_side(addr("1.0.0.3")).is_slash31());
}

TEST(OtherSide, DefaultAssumptionIsSlash30) {
  // A lone host address with no witness: assume /30 (paper §4.2).
  const OtherSideMap map = build({"1.0.0.1"});
  const OtherSide result = map.other_side(addr("1.0.0.1"));
  EXPECT_EQ(result.address, addr("1.0.0.2"));
  EXPECT_EQ(result.inference, PrefixInference::kSlash30);
  EXPECT_FALSE(result.is_slash31());
}

TEST(OtherSide, WitnessFlipsToSlash31) {
  // Seeing 1.0.0.0 (reserved in 1.0.0.1's /30) proves /31 numbering.
  const OtherSideMap map = build({"1.0.0.1", "1.0.0.0"});
  const OtherSide result = map.other_side(addr("1.0.0.1"));
  EXPECT_EQ(result.address, addr("1.0.0.0"));
  EXPECT_EQ(result.inference, PrefixInference::kSlash31Witness);
}

TEST(OtherSide, HighReservedWitnessAlsoCounts) {
  // 1.0.0.3 is the other reserved slot of 1.0.0.1's /30.
  const OtherSideMap map = build({"1.0.0.1", "1.0.0.3"});
  EXPECT_EQ(map.other_side(addr("1.0.0.1")).inference,
            PrefixInference::kSlash31Witness);
  EXPECT_EQ(map.other_side(addr("1.0.0.1")).address, addr("1.0.0.0"));
}

TEST(OtherSide, PairedSlash30HostsStaySlash30) {
  // Both /30 hosts present, no reserved witness: classic /30 link.
  const OtherSideMap map = build({"1.0.0.1", "1.0.0.2"});
  EXPECT_EQ(map.other_side(addr("1.0.0.1")).address, addr("1.0.0.2"));
  EXPECT_EQ(map.other_side(addr("1.0.0.2")).address, addr("1.0.0.1"));
  EXPECT_FALSE(map.other_side(addr("1.0.0.1")).is_slash31());
}

TEST(OtherSide, UnknownAddressGetsDeterministicAnswer) {
  const OtherSideMap map = build({"1.0.0.0"});
  // 2.0.0.2 is not in the build set; decided against the same witnesses.
  EXPECT_EQ(map.other_address(addr("2.0.0.2")), addr("2.0.0.1"));
}

TEST(OtherSide, Slash31FractionStatistic) {
  // 1.0.0.0 (/31 reserved), 1.0.0.1 (witness -> /31), 2.0.0.1 (/30).
  const OtherSideMap map = build({"1.0.0.0", "1.0.0.1", "2.0.0.1"});
  EXPECT_NEAR(map.slash31_fraction(), 2.0 / 3.0, 1e-9);
  // Duplicates count once: the statistic is over distinct addresses.
  const OtherSideMap dup = build(
      {"2.0.0.1", "1.0.0.1", "1.0.0.0", "2.0.0.1", "1.0.0.0", "1.0.0.1"});
  EXPECT_EQ(dup.size(), 3u);
  EXPECT_NEAR(dup.slash31_fraction(), 2.0 / 3.0, 1e-9);
}

TEST(OtherSide, EmptyMap) {
  const OtherSideMap map((std::vector<net::Ipv4Address>()));
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.slash31_fraction(), 0.0);
}

// ---------------------------------------------------------------------------
// Property: on any dataset, the other-side relation restricted to dataset
// members is an involution — a's other side maps back to a whenever both
// are in the dataset.
// ---------------------------------------------------------------------------

class OtherSideInvolutionTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(OtherSideInvolutionTest, InvolutionOnDatasetMembers) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<std::uint32_t> base_dist(0x01000000,
                                                         0x0100FFFF);
  std::vector<net::Ipv4Address> dataset;
  std::unordered_set<net::Ipv4Address> in_set;
  for (int i = 0; i < 400; ++i) {
    const net::Ipv4Address a(base_dist(rng));
    if (in_set.insert(a).second) dataset.push_back(a);
  }
  const OtherSideMap map(dataset);
  for (net::Ipv4Address a : dataset) {
    const net::Ipv4Address other = map.other_address(a);
    if (in_set.contains(other)) {
      EXPECT_EQ(map.other_address(other), a)
          << a.to_string() << " <-> " << other.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OtherSideInvolutionTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace mapit::graph
