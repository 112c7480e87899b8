#include "backend/network_backend.hpp"

#include <utility>

#include "common/check.hpp"

namespace semfpga::backend {

NetworkChargingBackend::NetworkChargingBackend(std::unique_ptr<Backend> inner,
                                               const NetworkChargeSpec& spec)
    : inner_(std::move(inner)), spec_(spec) {
  SEMFPGA_CHECK(inner_ != nullptr, "network decorator needs a backend to wrap");
  arch::check_network(spec.network);
  SEMFPGA_CHECK(spec.n_ranks >= 1 && spec.n_neighbors >= 0 && spec.halo_doubles >= 0,
                "network charge spec must describe a real rank");
  name_ = std::string("network[") + inner_->name() + "]";
  halo_full_seconds_ =
      arch::halo_seconds(spec.network, spec.n_neighbors, spec.halo_doubles);
  allreduce_seconds_ = arch::allreduce_seconds(spec.network, spec.n_ranks);
}

FpgaTimeline& NetworkChargingBackend::ledger() noexcept {
  FpgaTimeline* inner = inner_->mutable_timeline();
  return inner != nullptr ? *inner : timeline_;
}

const FpgaTimeline* NetworkChargingBackend::timeline() const noexcept {
  const FpgaTimeline* inner = inner_->timeline();
  return inner != nullptr ? inner : &timeline_;
}

FpgaTimeline* NetworkChargingBackend::mutable_timeline() noexcept { return &ledger(); }

void NetworkChargingBackend::charge_halo(bool use_budget) {
  if (halo_full_seconds_ <= 0.0) {
    return;
  }
  FpgaTimeline& t = ledger();
  // The overlap budget is the modeled interior compute of one apply: the
  // runtime posts the halo after the surface pass and computes the
  // interior while the messages fly, so only the positive remainder is
  // serialised network time.
  const double budget =
      use_budget && spec_.overlap ? spec_.interior_fraction * t.per_apply_seconds : 0.0;
  const double charged = arch::overlap_remainder(halo_full_seconds_, budget);
  t.network_halo_exchanges += 1;
  t.network_halo_seconds += charged;
  t.network_overlap_saved_seconds += halo_full_seconds_ - charged;
}

void NetworkChargingBackend::apply(std::span<const double> u, std::span<double> w) {
  inner_->apply(u, w);
  charge_halo(/*use_budget=*/true);
}

void NetworkChargingBackend::apply_unmasked(std::span<const double> u,
                                            std::span<double> w) {
  inner_->apply_unmasked(u, w);
  charge_halo(/*use_budget=*/true);
}

void NetworkChargingBackend::qqt(std::span<double> local) {
  inner_->qqt(local);
  // A standalone gather-scatter has no interior compute to hide behind.
  charge_halo(/*use_budget=*/false);
}

double NetworkChargingBackend::reduce(PassCost cost, ReduceBody body) {
  const double result = inner_->reduce(cost, body);
  if (allreduce_seconds_ > 0.0) {
    ledger().network_allreduce_seconds += allreduce_seconds_;
  }
  return result;
}

void NetworkChargingBackend::solve_end() {
  inner_->solve_end();
  // The inner backend published its own ledger (with our charges in it)
  // if it keeps one; otherwise the network terms live in ours.
  if (inner_->mutable_timeline() == nullptr &&
      (timeline_.network_halo_exchanges > 0 ||
       timeline_.network_allreduce_seconds > 0.0)) {
    obs_publish_fpga_timeline(timeline_);
  }
}

}  // namespace semfpga::backend
