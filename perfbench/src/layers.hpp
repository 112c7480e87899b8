#pragma once
/// \file layers.hpp
/// Outside-in layer timing: a forwarding Backend decorator registered from
/// benchmark code, plus the two metric records every workload reports.
///
/// The decorator times each call the CG loop makes into the backend seam
/// (operator apply, canonical reductions, vector passes) and counts them.
/// It forwards every call unchanged, so a traced solve is bitwise equal to
/// the plain one; the workloads check that on every traced run.  Each
/// instance publishes its counters to a process-wide ledger when it is
/// destroyed, one entry per rank.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "backend/backend.hpp"
#include "backend/fpga_sim_backend.hpp"
#include "bench.hpp"
#include "solver/poisson_system.hpp"

namespace perfbench {

/// Counters of one decorated backend over its lifetime.
struct LayerCounters {
  int rank = 0;
  std::int64_t apply_calls = 0;
  double apply_s = 0.0;
  std::int64_t reduce_calls = 0;
  double reduce_s = 0.0;
  std::int64_t pass_calls = 0;
  double pass_s = 0.0;
  double vector_bytes = 0.0;  ///< computed from PassCost, reduce + pass
  /// Calls between the second and the last operator apply: every CG
  /// iteration starts with one apply, so these cover whole iterations only.
  std::int64_t steady_iterations = 0;
  std::int64_t steady_reduces = 0;
  std::int64_t steady_passes = 0;
  int halo_messages = 0;          ///< messages this rank sends per exchange
  std::int64_t halo_doubles = 0;  ///< doubles this rank sends per exchange
  std::optional<semfpga::backend::FpgaTimeline> timeline;
};

/// Registers "traced-cpu" and "traced-fpga-sim" in both backend registries.
void register_traced_backends();

/// Returns and clears every published LayerCounters entry.
[[nodiscard]] std::vector<LayerCounters> take_layer_counters();

/// Per-solve view of the counters of one traced solve (all ranks).
struct SolveLayers {
  double apply_s = 0.0;   ///< max over ranks
  double apply_calls = 0.0;
  double reduce_s = 0.0;  ///< max over ranks
  double pass_s = 0.0;    ///< max over ranks
  double reduce_calls_per_iter = 0.0;
  double pass_calls_per_iter = 0.0;
  double vector_gbs = 0.0;  ///< computed bytes of all ranks / slowest rank's time
  double rank_apply_max = 0.0, rank_apply_min = 0.0;
  double rank_reduce_max = 0.0, rank_reduce_min = 0.0;
  double halo_msgs_per_iter = 0.0;
  double halo_bytes_per_iter = 0.0;
  double allreduce_calls_per_iter = 0.0;
  double fpga_solve_s = 0.0;  ///< slowest rank's modeled ledger
  double fpga_apply_s = 0.0;
};
/// Folds the entries of `solves` identical traced solves into one solve.
[[nodiscard]] SolveLayers fold_counters(const std::vector<LayerCounters>& entries,
                                        int solves, bool collective);

/// Timed calls into the element kernel and the gather-scatter of a system.
struct KernelProbe {
  double apply_ms = 0.0;
  double gflops = 0.0;
  double flop_per_byte = 0.0;
  double gflops_1t = 0.0;
  double qqt_ms = 0.0;
  double gs_gbs = 0.0;
};
[[nodiscard]] KernelProbe probe_kernel(semfpga::solver::PoissonSystem& system,
                                       int threads, std::uint64_t seed);

/// Every per-layer metric; a layer a workload does not exercise stays 0.
struct LayerReport {
  SolveLayers solve;
  double iterations = 0.0;
  KernelProbe kernel;
  double triad_gbs = 0.0;
  double setup_mesh_s = 0.0, setup_system_s = 0.0, setup_backend_s = 0.0;
  double svc_queue_wait_p50_s = 0.0, svc_queue_wait_p99_s = 0.0;
  double svc_service_p50_s = 0.0, svc_cache_hit_ratio = 0.0, svc_batch_mean = 0.0;
  double svc_backlog_end = 0.0, svc_gen_lateness_p99_s = 0.0;
  double svc_latency_p99_s = 0.0, svc_latency_p99_near_cap_s = 0.0;
  double svc_max_rate_rps = 0.0;
  double trace_overhead_ratio = 0.0, obs_overhead_ratio = 0.0;
};
void report_layers(const LayerReport& report, RunResult& result);

/// Every end-to-end metric (see README.md for the per-workload meaning).
struct EndToEndReport {
  double solve_s = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
};
void report_end_to_end(const EndToEndReport& report, RunResult& result);

/// Runs the standard trace-run measurements shared by the solve
/// workloads: sustained bandwidth over arrays four times the LLC.
[[nodiscard]] double measure_triad(RunResult& result);

}  // namespace perfbench
