#pragma once
/// \file fpga_sim_backend.hpp
/// The simulated-FPGA execution backend.
///
/// Computes the same bitwise-identical numerics as CpuBackend (every method
/// delegates to the host engine), while charging *modeled* time for each
/// operation into an FpgaTimeline:
///
///  * operator applies — the accelerator simulator's per-invocation
///    estimate (fpga::SemAccelerator::estimate: kernel cycles at the
///    measured/modeled fmax, external-memory transfer at the banked
///    efficiency, invocation overhead) for the system's kernel kind —
///    the BK5 Helmholtz kernel (one more geometric-factor stream, and
///    the quantisation penalty it brings) when the adapted system is a
///    solver::HelmholtzSystem,
///  * vector passes and reductions — streaming the pass's read/write
///    vectors through the device's external memory at its modeled steady
///    efficiency,
///  * gather-scatter — streaming the shared-copy surface,
///  * solve begin/end — moving the solve vectors across PCIe.
///
/// A real solve through this backend therefore emits a modeled-FPGA
/// timeline next to the measured CPU time of the same code path — the
/// single-program model-vs-measured comparison of bench/fig3.  The
/// timeline also records the Section IV model point (model::max_throughput
/// → peak_flops) for the same (N, device), so consumers can cross-check
/// the cycle-level simulation against the closed-form projection without
/// re-deriving either.

#include <string>

#include "backend/cpu_backend.hpp"
#include "fpga/accelerator.hpp"
#include "fpga/memory.hpp"

namespace semfpga::backend {

/// Configuration of the modeled device (subset of MakeOptions).
struct FpgaSimOptions {
  std::string device = "gx2800";  ///< preset name, see fpga_device_by_name
  double pcie_gbs = 12.0;         ///< host<->device link, effective GB/s
  bool use_measured_calibration = true;
  /// Per-transfer PCIe setup latency (DMA descriptor + doorbell), charged
  /// on every charge_pcie call on top of the bytes/bandwidth term.  The
  /// default 0 keeps every previously modeled number bitwise unchanged;
  /// the solve service sets a realistic ~20 us so batched sessions have
  /// per-transfer overhead to amortise.
  double pcie_latency_s = 0.0;
};

/// Named FPGA device presets ("gx2800", "agilex-027", "stratix10-10m",
/// "stratix10-10m-enhanced", "ideal-cfd").  Throws std::invalid_argument
/// for unknown names, listing the known ones.
[[nodiscard]] fpga::DeviceSpec fpga_device_by_name(const std::string& name);

/// The modeled-device subset of MakeOptions — the single conversion point,
/// so the registry and the distributed runtime cannot drift apart.
[[nodiscard]] FpgaSimOptions fpga_sim_options(const MakeOptions& options);

/// Modeled-time ledger of one solve on the simulated device.
struct FpgaTimeline {
  std::int64_t operator_applies = 0;
  double operator_seconds = 0.0;   ///< modeled kernel + memory time
  std::int64_t vector_passes = 0;  ///< reduce() + vector_pass() calls
  double vector_seconds = 0.0;     ///< modeled external-memory streaming
  std::int64_t gather_scatters = 0;
  double gather_scatter_seconds = 0.0;
  std::int64_t pcie_transfers = 0;
  double pcie_bytes = 0.0;
  double pcie_seconds = 0.0;

  /// The standalone predictions this timeline is built from, recorded so a
  /// consumer can verify consistency without reconstructing the models:
  double per_apply_seconds = 0.0;  ///< SemAccelerator::estimate(E).seconds
  double per_apply_gflops = 0.0;   ///< SemAccelerator::estimate(E).gflops
  double model_peak_gflops = 0.0;  ///< Section IV peak at (N, device), 300 MHz
  double clock_mhz = 0.0;
  std::string device;

  /// Modeled cluster-network terms (charged by NetworkChargingBackend on
  /// top of the device terms above; all zero on single-device solves).
  std::int64_t network_halo_exchanges = 0;
  double network_halo_seconds = 0.0;  ///< non-overlapped halo message time
  double network_allreduce_seconds = 0.0;  ///< log-tree collective latency
  /// Halo time hidden behind interior compute (informational; already
  /// subtracted from network_halo_seconds).
  double network_overlap_saved_seconds = 0.0;

  [[nodiscard]] double total_seconds() const noexcept {
    return operator_seconds + vector_seconds + gather_scatter_seconds + pcie_seconds +
           network_halo_seconds + network_allreduce_seconds;
  }
};

/// Converts operations on (degree, n_elements) into modeled seconds on one
/// device.  Shared by FpgaSimBackend and the distributed backend's per-rank
/// charging; the benches consume it through modeled_apply().
///
/// `helmholtz` switches the accelerator to the BK5 Helmholtz kernel
/// (fpga::KernelKind::kHelmholtz) and the Section IV peak to
/// model::helmholtz_cost — the one extra geometric-factor stream whose
/// traffic and quantisation penalty the paper discusses.
class FpgaCostModel {
 public:
  FpgaCostModel(const FpgaSimOptions& options, int degree, std::size_t n_elements,
                bool helmholtz = false);

  void charge_apply(FpgaTimeline& t) const;
  void charge_pass(FpgaTimeline& t, std::size_t n, PassCost cost) const;
  /// Modeled external-memory seconds of one vector pass over n entries —
  /// what charge_pass adds (0 for an empty pass).
  [[nodiscard]] double pass_seconds(std::size_t n, PassCost cost) const;
  void charge_gather_scatter(FpgaTimeline& t, std::size_t n_shared_copies) const;
  void charge_pcie(FpgaTimeline& t, double bytes) const;
  /// Standalone Dirichlet mask sweep: read w + mask, write w.
  void charge_mask(FpgaTimeline& t, std::size_t n) const;
  /// Solve begin/end: download b + initial x / upload the solution over
  /// PCIe.  One definition, so the single-device and per-rank cluster
  /// charging cannot drift apart.
  void charge_solve_begin(FpgaTimeline& t, std::size_t n) const;
  void charge_solve_end(FpgaTimeline& t, std::size_t n) const;

  /// Seeds the prediction fields of a fresh timeline.
  void stamp(FpgaTimeline& t) const;

  [[nodiscard]] const fpga::SemAccelerator& accelerator() const noexcept {
    return accelerator_;
  }
  [[nodiscard]] const fpga::RunStats& per_apply() const noexcept { return per_apply_; }
  [[nodiscard]] double model_peak_gflops() const noexcept { return model_peak_gflops_; }

 private:
  fpga::DeviceSpec device_;
  fpga::SemAccelerator accelerator_;
  fpga::ExternalMemoryModel memory_;
  fpga::RunStats per_apply_;
  double model_peak_gflops_ = 0.0;
  double pcie_bytes_per_sec_ = 0.0;
  double pcie_latency_s_ = 0.0;
};

/// Modeled per-apply stats for one kernel at (degree, elements) on a named
/// device — the same numbers FpgaSimBackend charges per operator apply.
/// `steady` excludes the invocation overhead (the paper's Table I
/// methodology); `helmholtz` models the BK5-style kernel instead of Ax.
[[nodiscard]] fpga::RunStats modeled_apply(const FpgaSimOptions& options, int degree,
                                           std::size_t n_elements, bool helmholtz = false,
                                           bool steady = false);

/// Publishes `timeline`'s modeled segments (operator / vector / gather-
/// scatter / pcie) as the calling rank's synthetic "fpga (modeled)" obs
/// track, drawn next to the measured host spans in the Chrome trace.
/// Replaces any earlier publish of the same rank (a resilient solve calls
/// solve_end once per attempt with a cumulative timeline).  No-op when obs
/// is off.
void obs_publish_fpga_timeline(const FpgaTimeline& timeline);

/// CpuBackend numerics + FpgaCostModel charging.
class FpgaSimBackend final : public CpuBackend {
 public:
  FpgaSimBackend(const solver::PoissonSystem& system, FpgaSimOptions options,
                 int vector_threads = -1);

  [[nodiscard]] const char* name() const noexcept override { return "fpga-sim"; }

  void apply(std::span<const double> u, std::span<double> w) override;
  void apply_unmasked(std::span<const double> u, std::span<double> w) override;
  void qqt(std::span<double> local) override;
  void apply_mask(std::span<double> w) override;
  double reduce(PassCost cost, ReduceBody body) override;
  void vector_pass(PassCost cost, PassBody body) override;
  void solve_begin() override;
  void solve_end() override;

  /// --- Device session (batched dispatch) ---
  ///
  /// By default every solve pays its own PCIe begin/end charge (download
  /// b + x0, upload the solution), exactly as before.  A batcher that runs
  /// `n_solves` back-to-back solves on one device instead brackets them
  /// with session_begin/session_end: the whole batch's vectors move as one
  /// download and one upload (2 PCIe transfers instead of 4 * n_solves),
  /// and the per-solve solve_begin/solve_end charges inside the session
  /// are suppressed.  Bytes are identical to the per-solve path; only the
  /// transfer count — and hence the pcie_latency_s overhead — is
  /// amortised.  Numerics are untouched either way.
  void session_begin(std::size_t n_solves);
  void session_end(std::size_t n_solves);
  [[nodiscard]] bool in_session() const noexcept { return in_session_; }

  [[nodiscard]] const FpgaTimeline* timeline() const noexcept override {
    return &timeline_;
  }
  [[nodiscard]] FpgaTimeline* mutable_timeline() noexcept override { return &timeline_; }
  [[nodiscard]] const FpgaCostModel& cost_model() const noexcept { return cost_; }

 private:
  FpgaCostModel cost_;
  FpgaTimeline timeline_;
  bool in_session_ = false;
};

}  // namespace semfpga::backend
