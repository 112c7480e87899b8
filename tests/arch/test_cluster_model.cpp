/// The partition-aware cluster model on z-slabs: scaling shape (linear on
/// a free network, bounded and decaying efficiency, a latency floor),
/// network terms that follow the interface area and vanish on one rank,
/// flat weak scaling, and input validation.

#include "arch/cluster_model.hpp"

#include <gtest/gtest.h>

#include "solver/cg.hpp"

namespace semfpga::arch {
namespace {

constexpr runtime::PartitionKind kSlab = runtime::PartitionKind::kSlab;

/// A device whose vector passes are free: isolates the kernel and network
/// terms the scaling-shape tests are about.
double free_pass(std::size_t /*n_local*/, backend::PassCost /*cost*/) { return 0.0; }

std::vector<ProjectionPoint> strong(const sem::BoxMeshSpec& spec,
                                    const DeviceKernelTime& kernel,
                                    const NetworkSpec& network,
                                    const std::vector<int>& ranks,
                                    const DevicePassTime& pass = free_pass) {
  return projected_strong_scaling(spec, kernel, pass, network, ranks, kSlab,
                                  /*overlap=*/false);
}

std::vector<ProjectionPoint> weak(const sem::BoxMeshSpec& spec,
                                  const DeviceKernelTime& kernel,
                                  const NetworkSpec& network,
                                  const std::vector<int>& ranks) {
  return projected_weak_scaling(spec, kernel, free_pass, network, ranks, kSlab,
                                /*overlap=*/false);
}

sem::BoxMeshSpec big_spec() {
  sem::BoxMeshSpec spec;
  spec.degree = 7;
  spec.nelx = spec.nely = 16;
  spec.nelz = 32;
  return spec;
}

/// A simple linear-time device: t = overhead + n * per_element.
DeviceKernelTime linear_kernel(double overhead_s, double per_element_s) {
  return [overhead_s, per_element_s](std::int64_t n) {
    return overhead_s + per_element_s * static_cast<double>(n);
  };
}

TEST(ClusterModel, PerfectScalingWithoutNetworkCosts) {
  NetworkSpec free_net;
  free_net.latency_us = 0.0;
  free_net.bandwidth_gbs = 1e9;
  const auto points =
      strong(big_spec(), linear_kernel(0.0, 1e-6), free_net, {1, 2, 4, 8});
  for (const ProjectionPoint& p : points) {
    EXPECT_NEAR(p.speedup, static_cast<double>(p.ranks), 1e-6) << p.ranks;
    EXPECT_NEAR(p.efficiency, 1.0, 1e-6) << p.ranks;
  }
}

TEST(ClusterModel, SpeedupIsBoundedByRanks) {
  const NetworkSpec net;
  const auto points =
      strong(big_spec(), linear_kernel(10e-6, 1e-6), net, {1, 2, 4, 8, 16, 32});
  for (const ProjectionPoint& p : points) {
    EXPECT_LE(p.speedup, static_cast<double>(p.ranks) + 1e-9) << p.ranks;
    EXPECT_GT(p.speedup, 0.0);
  }
}

TEST(ClusterModel, EfficiencyDecreasesWithRanks) {
  const NetworkSpec net;
  const auto points =
      strong(big_spec(), linear_kernel(10e-6, 1e-6), net, {1, 2, 4, 8, 16, 32});
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].efficiency, points[i - 1].efficiency + 1e-9)
        << points[i].ranks;
  }
}

TEST(ClusterModel, LatencyFloorsTheIterationTime) {
  // With a very fast device, the iteration time at scale approaches the
  // network terms alone.
  NetworkSpec net;
  net.latency_us = 5.0;
  const auto points = strong(big_spec(), linear_kernel(0.0, 1e-9), net, {1, 32});
  const ProjectionPoint& p32 = points.back();
  EXPECT_GT(p32.allreduce_seconds + p32.halo_seconds,
            0.9 * p32.iteration_seconds);
}

TEST(ClusterModel, HaloBytesScaleWithTheInterfaceArea) {
  const NetworkSpec net;
  sem::BoxMeshSpec small = big_spec();
  small.nelx = small.nely = 4;
  const auto big = strong(big_spec(), linear_kernel(0.0, 1e-6), net, {1, 4});
  const auto little = strong(small, linear_kernel(0.0, 1e-6), net, {1, 4});
  // 16x the interface area -> larger halo time.
  EXPECT_GT(big.back().halo_seconds, little.back().halo_seconds);
}

TEST(ClusterModel, SingleRankHasNoNetworkTerms) {
  const NetworkSpec net;
  const auto points = strong(big_spec(), linear_kernel(1e-5, 1e-6), net, {1});
  EXPECT_DOUBLE_EQ(points[0].halo_seconds, 0.0);
  EXPECT_DOUBLE_EQ(points[0].allreduce_seconds, 0.0);
}

TEST(ClusterModel, WeakScalingIsFlatWithoutNetworkCosts) {
  // Constant layers per rank + linear kernel + free network: the iteration
  // time never changes, so weak efficiency stays at 1.
  NetworkSpec free_net;
  free_net.latency_us = 0.0;
  free_net.bandwidth_gbs = 1e9;
  sem::BoxMeshSpec per_rank = big_spec();
  per_rank.nelz = 4;  // layers each rank keeps
  const auto points =
      weak(per_rank, linear_kernel(0.0, 1e-6), free_net, {1, 2, 4, 8});
  for (const ProjectionPoint& p : points) {
    EXPECT_NEAR(p.efficiency, 1.0, 1e-9) << p.ranks;
    EXPECT_NEAR(p.iteration_seconds, points[0].iteration_seconds, 1e-12) << p.ranks;
  }
}

TEST(ClusterModel, WeakScalingEfficiencyDecaysWithTheAllreduceDepth) {
  const NetworkSpec net;  // real latency
  sem::BoxMeshSpec per_rank = big_spec();
  per_rank.nelz = 2;
  const auto points =
      weak(per_rank, linear_kernel(0.0, 1e-6), net, {1, 2, 4, 8, 16});
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i].efficiency, 1.0) << points[i].ranks;
    EXPECT_LE(points[i].efficiency, points[i - 1].efficiency + 1e-12)
        << points[i].ranks;
    // The per-rank slab, and with it the kernel term, never changes.
    EXPECT_DOUBLE_EQ(points[i].ax_seconds, points[0].ax_seconds);
  }
}

TEST(ClusterModel, RejectsBadInputs) {
  const NetworkSpec net;
  EXPECT_THROW((void)strong(big_spec(), DeviceKernelTime{}, net, {1}),
               std::invalid_argument);
  EXPECT_THROW((void)strong(big_spec(), linear_kernel(0.0, 1e-6), net, {1},
                            DevicePassTime{}),
               std::invalid_argument);
  NetworkSpec bad = net;
  bad.bandwidth_gbs = 0.0;
  EXPECT_THROW((void)strong(big_spec(), linear_kernel(0.0, 1e-6), bad, {1}),
               std::invalid_argument);
  // More slab ranks than z element layers cannot be partitioned.
  EXPECT_THROW((void)strong(big_spec(), linear_kernel(0.0, 1e-6), net, {1, 64}),
               std::invalid_argument);
}

TEST(ClusterModel, ChargesTheClosedFormNetworkTermsOfTheWorstRank) {
  // 4 slabs of 8 layers: the middle ranks are the worst, with two
  // neighbours, each sent one raw-copy plane of nelx(N+1) x nely(N+1)
  // doubles.  The allreduce term is the Jacobi CG iteration's three
  // reductions.
  const NetworkSpec net{10.0, 1.0};
  const sem::BoxMeshSpec spec = big_spec();
  const auto points = strong(spec, linear_kernel(0.0, 1e-6), net, {4});
  const ProjectionPoint& p = points.front();
  const std::int64_t plane = (spec.nelx * (spec.degree + 1)) *
                             static_cast<std::int64_t>(spec.nely * (spec.degree + 1));
  EXPECT_EQ(p.grid.pz, 4);
  EXPECT_EQ(p.max_elements, 16 * 16 * 8);
  EXPECT_DOUBLE_EQ(p.halo_full_seconds, halo_seconds(net, 2, 2 * plane));
  EXPECT_DOUBLE_EQ(p.halo_seconds, p.halo_full_seconds);  // overlap off
  EXPECT_DOUBLE_EQ(p.allreduce_seconds, 3.0 * allreduce_seconds(net, 4));
  EXPECT_DOUBLE_EQ(p.vector_seconds, 0.0);  // free passes
  EXPECT_DOUBLE_EQ(p.iteration_seconds,
                   p.ax_seconds + p.halo_seconds + p.allreduce_seconds);
}

TEST(ClusterModel, ChargesTheCgVectorPassesOfTheWorstRank) {
  // A bandwidth-only device: every pass costs its bytes over 10 GB/s.  The
  // worst rank's vector term is the Jacobi CG iteration's passes over its
  // element-local DOFs, and it enters the iteration time.
  const NetworkSpec net{10.0, 1.0};
  const sem::BoxMeshSpec spec = big_spec();
  const DevicePassTime pass = [](std::size_t n, backend::PassCost cost) {
    return cost.bytes(n) / 10e9;
  };
  const ProjectionPoint p =
      strong(spec, linear_kernel(0.0, 1e-6), net, {4}, pass).front();
  const std::size_t n1d = static_cast<std::size_t>(spec.degree) + 1;
  const std::size_t n_local = static_cast<std::size_t>(p.max_elements) * n1d * n1d * n1d;
  double want = 0.0;
  for (const backend::PassCost& cost : solver::passes_per_iteration(solver::CgOptions{})) {
    want += pass(n_local, cost);
  }
  EXPECT_GT(want, 0.0);
  EXPECT_DOUBLE_EQ(p.vector_seconds, want);
  EXPECT_DOUBLE_EQ(p.iteration_seconds,
                   p.ax_seconds + p.vector_seconds + p.halo_seconds + p.allreduce_seconds);
  // One rank owns every DOF: the vector term scales with the block.
  const ProjectionPoint p1 =
      strong(spec, linear_kernel(0.0, 1e-6), net, {1}, pass).front();
  EXPECT_DOUBLE_EQ(p1.vector_seconds, 4.0 * p.vector_seconds);
}

}  // namespace
}  // namespace semfpga::arch
