#pragma once
/// \file network.hpp
/// The interconnect: its description, the closed-form cost of every
/// network operation, the named presets and the shared `--network=` flag
/// parser.
///
/// One definition for every consumer of arch::NetworkSpec — the analytic
/// cluster projection (arch/cluster_model.hpp), the real-time
/// runtime::ModeledNetworkPolicy, and the NetworkChargingBackend ledger —
/// so a CLI `--network=eth-100g` means the same interconnect everywhere
/// and every consumer charges the same seconds for the same operation.
///
/// Flag grammar:  a preset name ("eth-100g") or an inline
/// "LAT_US:BW_GBS" pair ("1.5:12.5" = 1.5 us latency, 12.5 GB/s links).

#include <cstdint>
#include <string>
#include <vector>

namespace semfpga::arch {

/// Interconnect description (per link, MPI-like).
struct NetworkSpec {
  double latency_us = 1.5;      ///< per-message latency
  double bandwidth_gbs = 12.5;  ///< per-link bandwidth (100 Gb/s default)
};

/// Throws std::invalid_argument unless latency >= 0 and bandwidth > 0.
void check_network(const NetworkSpec& network);

/// One point-to-point message: latency + bytes / bandwidth.
[[nodiscard]] double message_seconds(const NetworkSpec& network, double bytes) noexcept;

/// One rank's halo exchange: one latency per grid neighbour plus the
/// rank's total halo bytes (`halo_doubles` * 8) over the link.  0 for a
/// rank without neighbours.
[[nodiscard]] double halo_seconds(const NetworkSpec& network, int n_neighbors,
                                  std::int64_t halo_doubles) noexcept;

/// One ordered allreduce over `ranks`: 2 * ceil(log2 ranks) hop latencies
/// (fan-in + fan-out tree).  0 for a single rank.
[[nodiscard]] double allreduce_seconds(const NetworkSpec& network, int ranks) noexcept;

/// The halo time left serialised when interior compute of
/// `budget_seconds` runs while the messages fly: max(0, halo - budget).
[[nodiscard]] double overlap_remainder(double halo_seconds,
                                       double budget_seconds) noexcept;

/// Returns the named preset.  Throws std::invalid_argument for unknown
/// names, listing the built-in ones.
[[nodiscard]] NetworkSpec network(const std::string& name);

/// Preset names, in table order:
///   eth-100g    1.5 us, 12.5 GB/s  (100 Gb/s Ethernet; the NetworkSpec
///                                   defaults, so "eth-100g" == NetworkSpec{})
///   eth-10g     10 us,  1.25 GB/s  (commodity 10 Gb/s Ethernet)
///   ib-hdr      1.0 us, 25 GB/s    (HDR InfiniBand, 200 Gb/s)
///   fpga-serial 0.5 us, 5 GB/s     (point-to-point FPGA serial links,
///                                   Noctua-style direct topology)
/// Site-specific interconnects use the inline LAT_US:BW_GBS form.
[[nodiscard]] std::vector<std::string> known_networks();

/// `known_networks()` joined with '|' — for CLI help strings.
[[nodiscard]] std::string known_networks_joined();

/// Parses a `--network=` value: preset name or inline "LAT_US:BW_GBS".
/// Throws std::invalid_argument for anything else, listing the presets.
[[nodiscard]] NetworkSpec parse_network_flag(const std::string& value);

}  // namespace semfpga::arch
