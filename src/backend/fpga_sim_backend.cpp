#include "backend/fpga_sim_backend.hpp"

#include "common/check.hpp"
#include "model/kernel_cost.hpp"
#include "model/throughput.hpp"
#include "obs/obs.hpp"

namespace semfpga::backend {

fpga::DeviceSpec fpga_device_by_name(const std::string& name) {
  if (name == "gx2800" || name == "stratix10-gx2800") {
    return fpga::stratix10_gx2800();
  }
  if (name == "agilex-027") {
    return fpga::agilex_027();
  }
  if (name == "stratix10-10m") {
    return fpga::stratix10_10m();
  }
  if (name == "stratix10-10m-enhanced") {
    return fpga::stratix10_10m_enhanced();
  }
  if (name == "ideal-cfd") {
    return fpga::ideal_cfd_fpga();
  }
  throw std::invalid_argument(
      "unknown FPGA device preset '" + name +
      "' (known: gx2800, agilex-027, stratix10-10m, stratix10-10m-enhanced, "
      "ideal-cfd)");
}

FpgaSimOptions fpga_sim_options(const MakeOptions& options) {
  FpgaSimOptions fpga;
  fpga.device = options.fpga_device;
  fpga.pcie_gbs = options.pcie_gbs;
  fpga.use_measured_calibration = options.use_measured_calibration;
  fpga.pcie_latency_s = options.pcie_latency_s;
  return fpga;
}

namespace {

/// One definition of "the banked kernel of this kind", so the backend's
/// per-apply charges and the standalone modeled_apply() cannot drift apart.
fpga::KernelConfig banked_config(int degree, bool helmholtz) {
  fpga::KernelConfig config = fpga::KernelConfig::banked(degree);
  if (helmholtz) {
    config.kind = fpga::KernelKind::kHelmholtz;
  }
  return config;
}

}  // namespace

FpgaCostModel::FpgaCostModel(const FpgaSimOptions& options, int degree,
                             std::size_t n_elements, bool helmholtz)
    : device_(fpga_device_by_name(options.device)),
      accelerator_(device_, banked_config(degree, helmholtz)),
      memory_(device_.memory, fpga::MemAllocation::kBanked),
      pcie_bytes_per_sec_(options.pcie_gbs * 1e9),
      pcie_latency_s_(options.pcie_latency_s) {
  SEMFPGA_CHECK(options.pcie_gbs > 0.0, "PCIe bandwidth must be positive");
  SEMFPGA_CHECK(options.pcie_latency_s >= 0.0, "PCIe latency must be >= 0");
  accelerator_.set_use_measured_calibration(options.use_measured_calibration);
  per_apply_ = accelerator_.estimate(n_elements);
  // The closed-form Section IV point for the same (N, kernel, device):
  // evaluated at the paper's 300 MHz projection clock and the
  // single-dimension unroll the synthesized kernels use — what bench/fig3
  // plots as "model@300MHz".
  const model::KernelCost cost =
      helmholtz ? model::helmholtz_cost(degree) : model::poisson_cost(degree);
  const model::DeviceEnvelope env = device_.envelope(300.0);
  const model::Throughput t =
      model::max_throughput(cost, env, model::UnrollPolicy::kInnerDim);
  model_peak_gflops_ = model::peak_flops(cost, t, env.clock_hz) / 1e9;
}

void FpgaCostModel::charge_apply(FpgaTimeline& t) const {
  ++t.operator_applies;
  t.operator_seconds += per_apply_.seconds;
}

double FpgaCostModel::pass_seconds(std::size_t n, PassCost cost) const {
  const int streams = cost.reads + cost.writes;
  if (streams <= 0 || n == 0) {
    return 0.0;
  }
  // Full-length vectors stream contiguously: per-stream burst = the whole
  // vector, so the efficiency model sits at its banked steady plateau.
  const double burst = static_cast<double>(n) * 8.0;
  const double eff = memory_.steady_efficiency(burst, streams);
  return cost.bytes(n) / (eff * memory_.spec().peak_bytes_per_sec());
}

void FpgaCostModel::charge_pass(FpgaTimeline& t, std::size_t n, PassCost cost) const {
  if (cost.reads + cost.writes <= 0 || n == 0) {
    return;
  }
  ++t.vector_passes;
  t.vector_seconds += pass_seconds(n, cost);
}

void FpgaCostModel::charge_gather_scatter(FpgaTimeline& t,
                                          std::size_t n_shared_copies) const {
  if (n_shared_copies == 0) {
    return;
  }
  // The owner-computes sweep reads and writes every shared copy once.
  const double bytes = static_cast<double>(n_shared_copies) * 8.0 * 2.0;
  const double eff = memory_.steady_efficiency(static_cast<double>(n_shared_copies) * 8.0, 2);
  ++t.gather_scatters;
  t.gather_scatter_seconds += bytes / (eff * memory_.spec().peak_bytes_per_sec());
}

void FpgaCostModel::charge_pcie(FpgaTimeline& t, double bytes) const {
  ++t.pcie_transfers;
  t.pcie_bytes += bytes;
  t.pcie_seconds += pcie_latency_s_ + bytes / pcie_bytes_per_sec_;
}

void FpgaCostModel::charge_mask(FpgaTimeline& t, std::size_t n) const {
  charge_pass(t, n, PassCost{2, 1});
}

void FpgaCostModel::charge_solve_begin(FpgaTimeline& t, std::size_t n) const {
  charge_pcie(t, 2.0 * static_cast<double>(n) * 8.0);
}

void FpgaCostModel::charge_solve_end(FpgaTimeline& t, std::size_t n) const {
  charge_pcie(t, static_cast<double>(n) * 8.0);
}

void FpgaCostModel::stamp(FpgaTimeline& t) const {
  t.per_apply_seconds = per_apply_.seconds;
  t.per_apply_gflops = per_apply_.gflops;
  t.model_peak_gflops = model_peak_gflops_;
  t.clock_mhz = per_apply_.clock_mhz;
  t.device = device_.name;
}

fpga::RunStats modeled_apply(const FpgaSimOptions& options, int degree,
                             std::size_t n_elements, bool helmholtz, bool steady) {
  const fpga::DeviceSpec device = fpga_device_by_name(options.device);
  fpga::SemAccelerator accelerator(device, banked_config(degree, helmholtz));
  accelerator.set_use_measured_calibration(options.use_measured_calibration);
  return steady ? accelerator.estimate_steady(n_elements)
                : accelerator.estimate(n_elements);
}

FpgaSimBackend::FpgaSimBackend(const solver::PoissonSystem& system,
                               FpgaSimOptions options, int vector_threads)
    : CpuBackend(system, vector_threads),
      cost_(options, system.ref().n1d() - 1, system.geom().n_elements,
            system.operator_kind() == solver::OperatorKind::kHelmholtz) {
  cost_.stamp(timeline_);
}

void FpgaSimBackend::apply(std::span<const double> u, std::span<double> w) {
  CpuBackend::apply(u, w);
  cost_.charge_apply(timeline_);
}

void FpgaSimBackend::apply_unmasked(std::span<const double> u, std::span<double> w) {
  CpuBackend::apply_unmasked(u, w);
  cost_.charge_apply(timeline_);
}

void FpgaSimBackend::qqt(std::span<double> local) {
  CpuBackend::qqt(local);
  cost_.charge_gather_scatter(timeline_, system().gs().n_shared_copies());
}

void FpgaSimBackend::apply_mask(std::span<double> w) {
  CpuBackend::apply_mask(w);
  cost_.charge_mask(timeline_, w.size());
}

double FpgaSimBackend::reduce(PassCost cost, ReduceBody body) {
  const double result = CpuBackend::reduce(cost, body);
  cost_.charge_pass(timeline_, n_local(), cost);
  return result;
}

void FpgaSimBackend::vector_pass(PassCost cost, PassBody body) {
  CpuBackend::vector_pass(cost, body);
  cost_.charge_pass(timeline_, n_local(), cost);
}

void FpgaSimBackend::solve_begin() {
  if (in_session_) {
    return;  // the session's bulk download already covered this solve
  }
  cost_.charge_solve_begin(timeline_, n_local());
}

void FpgaSimBackend::solve_end() {
  if (in_session_) {
    return;  // the session's bulk upload covers it; session_end publishes
  }
  cost_.charge_solve_end(timeline_, n_local());
  obs_publish_fpga_timeline(timeline_);
}

void FpgaSimBackend::session_begin(std::size_t n_solves) {
  SEMFPGA_CHECK(!in_session_, "device session already open");
  SEMFPGA_CHECK(n_solves >= 1, "device session needs at least one solve");
  in_session_ = true;
  // One bulk download: every solve's b + x0 in a single transfer — the
  // same bytes as n_solves per-solve downloads, one latency charge.
  cost_.charge_solve_begin(timeline_,
                           n_solves * static_cast<std::size_t>(n_local()));
}

void FpgaSimBackend::session_end(std::size_t n_solves) {
  SEMFPGA_CHECK(in_session_, "no device session open");
  in_session_ = false;
  cost_.charge_solve_end(timeline_,
                         n_solves * static_cast<std::size_t>(n_local()));
  obs_publish_fpga_timeline(timeline_);
}

void obs_publish_fpga_timeline(const FpgaTimeline& timeline) {
  if (!obs::enabled()) {
    return;
  }
  std::vector<obs::ModeledSegment> segments;
  if (timeline.operator_seconds > 0.0) {
    segments.push_back(obs::ModeledSegment{"operator", timeline.operator_seconds});
  }
  if (timeline.gather_scatter_seconds > 0.0) {
    segments.push_back(
        obs::ModeledSegment{"gather-scatter", timeline.gather_scatter_seconds});
  }
  if (timeline.vector_seconds > 0.0) {
    segments.push_back(obs::ModeledSegment{"vector", timeline.vector_seconds});
  }
  if (timeline.pcie_seconds > 0.0) {
    segments.push_back(obs::ModeledSegment{"pcie", timeline.pcie_seconds});
  }
  if (timeline.network_halo_seconds > 0.0 || timeline.network_allreduce_seconds > 0.0) {
    segments.push_back(obs::ModeledSegment{
        "network", timeline.network_halo_seconds + timeline.network_allreduce_seconds});
  }
  obs::add_modeled_track(obs::thread_rank(), "fpga (modeled)", std::move(segments));
}

}  // namespace semfpga::backend
