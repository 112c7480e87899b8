#include "arch/cluster_model.hpp"

#include "common/check.hpp"
#include "solver/cg.hpp"

namespace semfpga::arch {
namespace {

/// One rank count through the partition-aware model: the worst rank's
/// kernel + vector passes + non-overlapped halo, plus the global allreduce
/// tree.
ProjectionPoint project_one(const sem::BoxMeshSpec& spec, const DeviceKernelTime& kernel,
                            const DevicePassTime& pass, const NetworkSpec& network,
                            int ranks, runtime::PartitionKind partition, bool overlap) {
  const runtime::BlockPartition part =
      runtime::partition_blocks(spec, ranks, partition);
  // The CG iteration the projection is validated against
  // (bench/cluster_projection runs default CgOptions: Jacobi).
  const solver::CgOptions cg;
  const std::vector<backend::PassCost> passes = solver::passes_per_iteration(cg);
  const std::size_t n1d = static_cast<std::size_t>(spec.degree) + 1;

  ProjectionPoint pt;
  pt.ranks = ranks;
  pt.grid = runtime::GridShape{part.px, part.py, part.pz};
  double worst = -1.0;
  for (const runtime::RankBlock& rb : part.ranks) {
    const double ax = kernel(rb.n_elements);
    const std::size_t n_local = static_cast<std::size_t>(rb.n_elements) * n1d * n1d * n1d;
    double vec = 0.0;
    for (const backend::PassCost& cost : passes) {
      vec += pass(n_local, cost);
    }
    const double halo = halo_seconds(network, rb.n_neighbors, rb.halo_doubles);
    const double interior =
        rb.n_elements == 0 ? 0.0
                           : static_cast<double>(rb.n_interior_elements) /
                                 static_cast<double>(rb.n_elements);
    const double charged = overlap_remainder(halo, overlap ? ax * interior : 0.0);
    const double time = ax + vec + charged;
    // Ties happen whenever overlap hides every rank's halo (equal blocks,
    // equal kernel time): break them toward the largest full halo so the
    // reported overlap credit is the interior rank's, not a corner's.
    if (time > worst || (time == worst && halo > pt.halo_full_seconds)) {
      worst = time;
      pt.ax_seconds = ax;
      pt.vector_seconds = vec;
      pt.halo_full_seconds = halo;
      pt.halo_seconds = charged;
      pt.overlap_saved_seconds = halo - charged;
      pt.max_elements = rb.n_elements;
    }
  }
  pt.allreduce_seconds =
      static_cast<double>(solver::reductions_per_iteration(cg)) *
      allreduce_seconds(network, ranks);
  pt.iteration_seconds =
      pt.ax_seconds + pt.vector_seconds + pt.halo_seconds + pt.allreduce_seconds;
  return pt;
}

/// Sweeps `rank_counts`, building each point's box with `box_for(ranks)`;
/// speedup = t(1)/t(r), efficiency = speedup / ranks (strong) or the
/// speedup itself (weak: perfect growth keeps the iteration time flat).
template <typename BoxFor>
std::vector<ProjectionPoint> sweep(const DeviceKernelTime& kernel,
                                   const DevicePassTime& pass,
                                   const NetworkSpec& network,
                                   const std::vector<int>& rank_counts,
                                   runtime::PartitionKind partition, bool overlap,
                                   bool weak, BoxFor box_for) {
  SEMFPGA_CHECK(static_cast<bool>(kernel), "kernel time function must be callable");
  SEMFPGA_CHECK(static_cast<bool>(pass), "pass time function must be callable");
  check_network(network);
  std::vector<ProjectionPoint> points;
  double t1 = 0.0;
  for (const int ranks : rank_counts) {
    ProjectionPoint pt =
        project_one(box_for(ranks), kernel, pass, network, ranks, partition, overlap);
    if (points.empty() && ranks == 1) {
      t1 = pt.iteration_seconds;
    }
    if (t1 > 0.0) {
      pt.speedup = t1 / pt.iteration_seconds;
      pt.efficiency = weak ? pt.speedup : pt.speedup / ranks;
    }
    points.push_back(pt);
  }
  return points;
}

}  // namespace

std::vector<ProjectionPoint> projected_strong_scaling(
    const sem::BoxMeshSpec& spec, const DeviceKernelTime& kernel,
    const DevicePassTime& pass, const NetworkSpec& network, const std::vector<int>& rank_counts,
    runtime::PartitionKind partition, bool overlap) {
  return sweep(kernel, pass, network, rank_counts, partition, overlap, /*weak=*/false,
               [&spec](int) { return spec; });
}

std::vector<ProjectionPoint> projected_weak_scaling(
    const sem::BoxMeshSpec& spec, const DeviceKernelTime& kernel,
    const DevicePassTime& pass, const NetworkSpec& network, const std::vector<int>& rank_counts,
    runtime::PartitionKind partition, bool overlap) {
  // Tile the per-rank box by the ideal rank grid: every rank keeps a
  // constant block, so all efficiency loss is network-attributed.
  return sweep(kernel, pass, network, rank_counts, partition, overlap, /*weak=*/true,
               [&spec, partition](int ranks) {
                 const runtime::GridShape grid = runtime::ideal_grid(ranks, partition);
                 sem::BoxMeshSpec grown = spec;
                 grown.nelx = spec.nelx * grid.px;
                 grown.nely = spec.nely * grid.py;
                 grown.nelz = spec.nelz * grid.pz;
                 return grown;
               });
}

}  // namespace semfpga::arch
