#include "arch/network.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string_view>
#include <utility>

#include "common/check.hpp"

namespace semfpga::arch {
namespace {

/// Name -> spec, in the order the CLI help lists them.
constexpr std::array<std::pair<std::string_view, NetworkSpec>, 4> kPresets{{
    {"eth-100g", NetworkSpec{1.5, 12.5}},
    {"eth-10g", NetworkSpec{10.0, 1.25}},
    {"ib-hdr", NetworkSpec{1.0, 25.0}},
    {"fpga-serial", NetworkSpec{0.5, 5.0}},
}};

}  // namespace

void check_network(const NetworkSpec& network) {
  SEMFPGA_CHECK(network.latency_us >= 0.0 && network.bandwidth_gbs > 0.0,
                "network parameters must be sane");
}

double message_seconds(const NetworkSpec& network, double bytes) noexcept {
  return network.latency_us * 1e-6 + bytes / (network.bandwidth_gbs * 1e9);
}

double halo_seconds(const NetworkSpec& network, int n_neighbors,
                    std::int64_t halo_doubles) noexcept {
  return static_cast<double>(n_neighbors) * network.latency_us * 1e-6 +
         static_cast<double>(halo_doubles) * 8.0 / (network.bandwidth_gbs * 1e9);
}

double allreduce_seconds(const NetworkSpec& network, int ranks) noexcept {
  if (ranks <= 1) {
    return 0.0;
  }
  const double hops = std::ceil(std::log2(static_cast<double>(ranks)));
  return 2.0 * hops * network.latency_us * 1e-6;
}

double overlap_remainder(double halo_seconds, double budget_seconds) noexcept {
  return std::max(0.0, halo_seconds - budget_seconds);
}

NetworkSpec network(const std::string& name) {
  for (const auto& [known, spec] : kPresets) {
    if (known == name) {
      return spec;
    }
  }
  SEMFPGA_CHECK(false, "unknown network '" + name + "' (known: " +
                           known_networks_joined() + ")");
  return {};
}

std::vector<std::string> known_networks() {
  std::vector<std::string> names;
  names.reserve(kPresets.size());
  for (const auto& [name, spec] : kPresets) {
    names.emplace_back(name);
  }
  return names;
}

std::string known_networks_joined() {
  std::string joined;
  for (const std::string& name : known_networks()) {
    if (!joined.empty()) {
      joined += '|';
    }
    joined += name;
  }
  return joined;
}

NetworkSpec parse_network_flag(const std::string& value) {
  const std::size_t colon = value.find(':');
  if (colon == std::string::npos) {
    return network(value);
  }
  const std::string lat = value.substr(0, colon);
  const std::string bw = value.substr(colon + 1);
  NetworkSpec spec;
  std::size_t used_lat = 0;
  std::size_t used_bw = 0;
  try {
    spec.latency_us = std::stod(lat, &used_lat);
    spec.bandwidth_gbs = std::stod(bw, &used_bw);
  } catch (const std::exception&) {
    used_lat = 0;
  }
  SEMFPGA_CHECK(used_lat == lat.size() && used_bw == bw.size() && !lat.empty() &&
                    !bw.empty() && spec.latency_us >= 0.0 && spec.bandwidth_gbs > 0.0,
                "malformed network '" + value + "': expected a preset (" +
                    known_networks_joined() + ") or LAT_US:BW_GBS");
  return spec;
}

}  // namespace semfpga::arch
