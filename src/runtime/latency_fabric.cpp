#include "runtime/latency_fabric.hpp"

#include <chrono>
#include <thread>

#include "common/check.hpp"
#include "runtime/fault.hpp"

namespace semfpga::runtime {
namespace {

void sleep_seconds(double seconds) {
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

}  // namespace

double FaultDelayPolicy::send_delay_seconds(int from, int to, std::size_t /*bytes*/) {
  return injector_.take_send_delay(from, to);
}

double FaultDelayPolicy::collective_delay_seconds(int /*rank*/) { return 0.0; }

ModeledNetworkPolicy::ModeledNetworkPolicy(const arch::NetworkSpec& network,
                                           int n_ranks)
    : network_(network) {
  arch::check_network(network);
  SEMFPGA_CHECK(n_ranks >= 1, "network policy needs at least one rank");
  collective_seconds_ = arch::allreduce_seconds(network, n_ranks);
}

double ModeledNetworkPolicy::send_delay_seconds(int /*from*/, int /*to*/,
                                                std::size_t bytes) {
  return arch::message_seconds(network_, static_cast<double>(bytes));
}

double ModeledNetworkPolicy::collective_delay_seconds(int /*rank*/) {
  return collective_seconds_;
}

void LatencyFabric::add_policy(std::unique_ptr<LatencyPolicy> policy) {
  SEMFPGA_CHECK(policy != nullptr, "latency policy must not be null");
  policies_.push_back(std::move(policy));
}

void LatencyFabric::sleep_send_delays(int from, int to, std::size_t bytes) {
  double seconds = 0.0;
  for (const auto& policy : policies_) {
    // detlint: allow(raw-fp-accumulation) wall-clock sleep budget, not numerics
    seconds += policy->send_delay_seconds(from, to, bytes);
  }
  sleep_seconds(seconds);
}

void LatencyFabric::sleep_collective_delays(int rank) {
  double seconds = 0.0;
  for (const auto& policy : policies_) {
    // detlint: allow(raw-fp-accumulation) wall-clock sleep budget, not numerics
    seconds += policy->collective_delay_seconds(rank);
  }
  sleep_seconds(seconds);
}

void LatencyFabric::send(int from, int to, std::span<const double> data) {
  sleep_send_delays(from, to, data.size() * sizeof(double));
  inner_.send(from, to, data);
}

void LatencyFabric::recv(int from, int to, std::span<double> out) {
  inner_.recv(from, to, out);
}

double LatencyFabric::allreduce_ordered(int rank, std::size_t slot_begin,
                                        std::span<const double> contribution) {
  sleep_collective_delays(rank);
  return inner_.allreduce_ordered(rank, slot_begin, contribution);
}

double LatencyFabric::allreduce_ordered(int rank, std::span<const std::int64_t> slots,
                                        std::span<const double> contribution) {
  sleep_collective_delays(rank);
  return inner_.allreduce_ordered(rank, slots, contribution);
}

}  // namespace semfpga::runtime
