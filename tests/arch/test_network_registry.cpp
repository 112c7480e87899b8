/// The interconnect presets, the shared `--network=` flag grammar and the
/// closed-form network costs: every consumer (analytic projection,
/// real-time latency policy, network-charging backend) resolves specs and
/// charges seconds through this one seam, so its presets, formulas and
/// error behaviour are contracts.

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "arch/network.hpp"

namespace semfpga::arch {
namespace {

TEST(NetworkRegistry, BuiltInPresetsResolve) {
  const NetworkSpec eth100 = network("eth-100g");
  EXPECT_DOUBLE_EQ(eth100.latency_us, 1.5);
  EXPECT_DOUBLE_EQ(eth100.bandwidth_gbs, 12.5);
  // "eth-100g" is the NetworkSpec default — the two must never drift.
  EXPECT_DOUBLE_EQ(eth100.latency_us, NetworkSpec{}.latency_us);
  EXPECT_DOUBLE_EQ(eth100.bandwidth_gbs, NetworkSpec{}.bandwidth_gbs);

  EXPECT_DOUBLE_EQ(network("eth-10g").latency_us, 10.0);
  EXPECT_DOUBLE_EQ(network("eth-10g").bandwidth_gbs, 1.25);
  EXPECT_DOUBLE_EQ(network("ib-hdr").latency_us, 1.0);
  EXPECT_DOUBLE_EQ(network("ib-hdr").bandwidth_gbs, 25.0);
  EXPECT_DOUBLE_EQ(network("fpga-serial").latency_us, 0.5);
  EXPECT_DOUBLE_EQ(network("fpga-serial").bandwidth_gbs, 5.0);
}

TEST(NetworkRegistry, KnownNetworksListsThePresets) {
  const std::vector<std::string> names = known_networks();
  ASSERT_GE(names.size(), 4u);
  EXPECT_EQ(names[0], "eth-100g");
  const std::string joined = known_networks_joined();
  for (const std::string& name : names) {
    EXPECT_NE(joined.find(name), std::string::npos) << name;
  }
}

TEST(NetworkRegistry, UnknownPresetThrowsListingKnownNames) {
  try {
    (void)network("token-ring");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("token-ring"), std::string::npos);
    EXPECT_NE(what.find("eth-100g"), std::string::npos);
  }
}

TEST(NetworkFlag, ParsesPresetsAndInlinePairs) {
  EXPECT_DOUBLE_EQ(parse_network_flag("ib-hdr").bandwidth_gbs, 25.0);
  const NetworkSpec inline_spec = parse_network_flag("3.0:7.5");
  EXPECT_DOUBLE_EQ(inline_spec.latency_us, 3.0);
  EXPECT_DOUBLE_EQ(inline_spec.bandwidth_gbs, 7.5);
}

TEST(NetworkFlag, RejectsMalformedValues) {
  for (const char* bad : {"", "abc", "1.5:", ":12.5", "1.5:abc", "1.5:12.5:9",
                          "-1:12.5", "1.5:0"}) {
    EXPECT_THROW((void)parse_network_flag(bad), std::invalid_argument)
        << "value '" << bad << "'";
  }
}

TEST(NetworkCost, MessageIsLatencyPlusBytesOverBandwidth) {
  // 10 us latency, 1 GB/s: an 8000-byte message costs 10e-6 + 8e-6 s.
  EXPECT_DOUBLE_EQ(message_seconds(NetworkSpec{10.0, 1.0}, 8000.0), 1.8e-5);
  EXPECT_DOUBLE_EQ(message_seconds(NetworkSpec{10.0, 1.0}, 0.0), 1.0e-5);
}

TEST(NetworkCost, HaloPaysOneLatencyPerNeighbourPlusItsBytes) {
  const NetworkSpec net{10.0, 1.0};
  EXPECT_DOUBLE_EQ(halo_seconds(net, 2, 1000), 2.0 * 10.0e-6 + 8000.0 / 1e9);
  EXPECT_DOUBLE_EQ(halo_seconds(net, 26, 0), 26.0 * 10.0e-6);
  // A rank without neighbours exchanges nothing.
  EXPECT_EQ(halo_seconds(net, 0, 0), 0.0);
}

TEST(NetworkCost, AllreduceClimbsAFanInFanOutLogTree) {
  const NetworkSpec net{10.0, 1.0};
  EXPECT_EQ(allreduce_seconds(net, 1), 0.0);
  EXPECT_DOUBLE_EQ(allreduce_seconds(net, 2), 2.0 * 1.0 * 10.0e-6);
  EXPECT_DOUBLE_EQ(allreduce_seconds(net, 3), 2.0 * 2.0 * 10.0e-6);
  EXPECT_DOUBLE_EQ(allreduce_seconds(net, 4), 2.0 * 2.0 * 10.0e-6);
  EXPECT_DOUBLE_EQ(allreduce_seconds(net, 1024), 2.0 * 10.0 * 10.0e-6);
}

TEST(NetworkCost, OverlapHidesAtMostTheWholeHalo) {
  EXPECT_DOUBLE_EQ(overlap_remainder(3.0e-5, 1.0e-5), 2.0e-5);
  EXPECT_EQ(overlap_remainder(3.0e-5, 5.0e-5), 0.0);
  EXPECT_EQ(overlap_remainder(3.0e-5, 0.0), 3.0e-5);
}

TEST(NetworkCost, CheckNetworkRejectsInsaneSpecs) {
  EXPECT_NO_THROW(check_network(NetworkSpec{}));
  EXPECT_NO_THROW(check_network(NetworkSpec{0.0, 1.0}));
  EXPECT_THROW(check_network(NetworkSpec{-1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(check_network(NetworkSpec{1.0, 0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace semfpga::arch
