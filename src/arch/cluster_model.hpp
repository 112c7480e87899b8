#pragma once
/// \file cluster_model.hpp
/// Partition-aware scaling model for clusters of accelerators running the
/// SEM CG solve — an extension of the paper's single-device study to its
/// own deployment context (Noctua is an FPGA cluster; Nek5000 runs at
/// scale).
///
/// Per CG iteration each rank performs one Ax on its block, the CG vector
/// passes over its local DOFs (solver::passes_per_iteration), the halo
/// exchange with its grid neighbours, and the global reductions the CG
/// loop issues (solver::reductions_per_iteration).  The model composes
/// per-device kernel-time and pass-time functions with the
/// arch/network.hpp cost of each network operation — the same functions
/// backend::NetworkChargingBackend charges at runtime — and reports time,
/// speedup and parallel efficiency.

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/network.hpp"
#include "backend/backend.hpp"
#include "runtime/partition.hpp"

namespace semfpga::arch {

/// Seconds one device needs for an Ax apply on `n_elements` elements.
using DeviceKernelTime = std::function<double(std::int64_t n_elements)>;

/// Seconds one device needs for one CG vector pass of shape `cost` over
/// `n_local` element-local DOFs (backend::FpgaCostModel::pass_seconds for
/// the modeled FPGA).
using DevicePassTime = std::function<double(std::size_t n_local, backend::PassCost cost)>;

/// One point of the partition-aware cluster projection (the model behind
/// bench/cluster_projection and bench/cluster_scaling): per CG iteration
/// the worst rank pays its kernel time, its vector passes and the
/// non-overlapped remainder of its halo, and every rank pays one log-tree
/// ordered allreduce per reduction of the Jacobi-preconditioned CG
/// iteration — term for term the fpga-sim rank ledger of one iteration.
/// With `overlap`, the interior fraction of the kernel time hides halo
/// time (the runtime's post-surface/compute-interior schedule), and the
/// credit is reported.
struct ProjectionPoint {
  int ranks = 1;
  runtime::GridShape grid;         ///< rank grid the partition chose
  std::int64_t max_elements = 0;   ///< busiest rank's element count
  double ax_seconds = 0.0;         ///< worst rank's kernel time
  double vector_seconds = 0.0;     ///< worst rank's CG vector passes
  double halo_full_seconds = 0.0;  ///< worst rank's halo before overlap
  double halo_seconds = 0.0;       ///< charged (non-overlapped) halo time
  double overlap_saved_seconds = 0.0;  ///< halo hidden behind compute
  double allreduce_seconds = 0.0;  ///< the iteration's dot-product reductions
  double iteration_seconds = 0.0;
  double speedup = 1.0;   ///< vs the 1-rank iteration time
  double efficiency = 1.0;
};

/// Strong scaling: the fixed global box split by partition_blocks(kind)
/// over each rank count.  rank_counts should start at 1 so speedup and
/// efficiency are anchored.
[[nodiscard]] std::vector<ProjectionPoint> projected_strong_scaling(
    const sem::BoxMeshSpec& spec, const DeviceKernelTime& kernel,
    const DevicePassTime& pass, const NetworkSpec& network, const std::vector<int>& rank_counts,
    runtime::PartitionKind partition, bool overlap);

/// Weak scaling: `spec` is the per-rank box; the global box tiles it by
/// the partition's ideal rank grid, so every rank keeps a constant block
/// and efficiency = t(1)/t(r) attributes all loss to the halo and the
/// deepening allreduce tree.
[[nodiscard]] std::vector<ProjectionPoint> projected_weak_scaling(
    const sem::BoxMeshSpec& spec, const DeviceKernelTime& kernel,
    const DevicePassTime& pass, const NetworkSpec& network, const std::vector<int>& rank_counts,
    runtime::PartitionKind partition, bool overlap);

}  // namespace semfpga::arch
