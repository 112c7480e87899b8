#include "backend/cpu_backend.hpp"

#include <vector>

#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace semfpga::backend {

CpuBackend::CpuBackend(const solver::PoissonSystem& system, int vector_threads)
    : system_(system),
      vector_threads_(vector_threads < 0 ? system.threads() : vector_threads) {}

int CpuBackend::threads() const noexcept { return vector_threads_; }

void CpuBackend::apply(std::span<const double> u, std::span<double> w) {
  system_.apply(u, w);
}

void CpuBackend::apply_unmasked(std::span<const double> u, std::span<double> w) {
  system_.apply_unmasked(u, w);
}

void CpuBackend::qqt(std::span<double> local) {
  OBS_SPAN("gs.qqt");
  system_.gs().qqt(local, system_.threads());
}

void CpuBackend::apply_mask(std::span<double> w) {
  const auto& m = system_.mask();
  parallel_for(w.size(), vector_threads_, [&](std::size_t p) { w[p] *= m[p]; });
}

double CpuBackend::reduce(PassCost /*cost*/, ReduceBody body) {
  // Per-thread scratch survives across calls, so the CG loop's reductions
  // pay no allocation.  Not a member: growing the backend object shifted
  // the allocator's heap layout and measured 2 MB more peak RSS on the
  // nekbone-n7 benchmark.
  static thread_local std::vector<double> partials;
  return segmented_reduce(system_.n_local(), system_.reduction_segment(),
                          vector_threads_, body, partials);
}

void CpuBackend::vector_pass(PassCost /*cost*/, PassBody body) {
  parallel_blocks(system_.n_local(), vector_threads_,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    body(begin, end);
                  });
}

std::int64_t CpuBackend::operator_flops() const {
  // Virtual on the system: a HelmholtzSystem reports the BK5 kernel's
  // count, so CgResult::flops stays honest for every operator kind.
  return system_.operator_flops();
}

std::int64_t CpuBackend::global_dofs() const {
  return static_cast<std::int64_t>(system_.n_local());
}

void CpuBackend::gather(std::span<const double> global,
                        std::span<double> local) const {
  system_.gs().gather(global, local, system_.threads());
}

}  // namespace semfpga::backend
