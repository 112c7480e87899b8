/// The Backend seam across the SPMD runtime: distributed solves route
/// through DistributedBackend (solver::solve_cg is the only CG loop), stay
/// bitwise identical to the single-rank CpuBackend solve at any rank
/// count, and the fpga-sim flavour charges a per-rank modeled timeline
/// without touching the numerics.

#include <cmath>

#include <gtest/gtest.h>

#include "backend/cpu_backend.hpp"
#include "runtime/distributed_cg.hpp"
#include "solver/cg.hpp"
#include "solver/nekbone.hpp"

namespace semfpga {
namespace {

constexpr double kPi = 3.14159265358979323846;

double forcing(double x, double y, double z) {
  return std::sin(kPi * x) * std::sin(kPi * y) * std::sin(kPi * z);
}

runtime::DistributedSolveConfig base_config() {
  runtime::DistributedSolveConfig config;
  config.spec.degree = 3;
  config.spec.nelx = 2;
  config.spec.nely = 2;
  config.spec.nelz = 4;
  config.cg.max_iterations = 15;
  config.cg.tolerance = 0.0;
  config.cg.use_jacobi = true;
  config.cg.record_history = true;
  config.forcing = forcing;
  return config;
}

TEST(DistributedBackend, FpgaSimRanksMatchSingleRankCpuBitwise) {
  runtime::DistributedSolveConfig cpu1 = base_config();
  cpu1.ranks = 1;
  const runtime::DistributedSolveResult ref = runtime::solve_distributed_poisson(cpu1);
  EXPECT_EQ(ref.modeled_seconds, 0.0);

  for (const int ranks : {2, 4}) {
    runtime::DistributedSolveConfig fpga = base_config();
    fpga.ranks = ranks;
    fpga.threads = ranks;
    fpga.backend = "fpga-sim";
    const runtime::DistributedSolveResult got = runtime::solve_distributed_poisson(fpga);

    ASSERT_EQ(ref.cg.iterations, got.cg.iterations) << "ranks=" << ranks;
    ASSERT_EQ(ref.cg.residual_history.size(), got.cg.residual_history.size());
    for (std::size_t i = 0; i < ref.cg.residual_history.size(); ++i) {
      ASSERT_EQ(ref.cg.residual_history[i], got.cg.residual_history[i])
          << "ranks=" << ranks << " iteration " << i;
    }
    ASSERT_EQ(ref.x.size(), got.x.size());
    for (std::size_t i = 0; i < ref.x.size(); ++i) {
      ASSERT_EQ(ref.x[i], got.x[i]) << "ranks=" << ranks << " dof " << i;
    }
    // The rank charged a modeled device for its slab.
    EXPECT_GT(got.modeled_seconds, 0.0) << "ranks=" << ranks;
    // Global FLOP accounting is rank-count invariant.
    EXPECT_EQ(ref.cg.flops, got.cg.flops);
  }
}

TEST(DistributedBackend, ModeledSecondsIsTheSlowestRanksLedger) {
  // Three one-layer z-slabs: every rank models the same device work, but
  // the middle rank exchanges two halo planes per apply and the end ranks
  // one.  The ranks meet at every allreduce, so the modeled solve lasts as
  // long as the middle rank.
  constexpr int kIterations = 4;
  runtime::DistributedSolveConfig config = base_config();
  config.spec.nelz = 3;
  config.ranks = 3;
  config.threads = 3;
  config.backend = "fpga-sim";
  config.cg.max_iterations = kIterations;
  const double device_only = runtime::solve_distributed_poisson(config).modeled_seconds;
  config.network = "10:1";  // 10 us, 1 GB/s
  const double networked = runtime::solve_distributed_poisson(config).modeled_seconds;

  const double latency = 10e-6;
  const double bytes_per_second = 1e9;
  // One raw-copy plane per interface: nelx(N+1) x nely(N+1) doubles.
  const double plane_bytes = 8.0 * (2 * 4) * (2 * 4);
  const double middle_halo = 2.0 * latency + 2.0 * plane_bytes / bytes_per_second;
  // Jacobi CG: one apply and two reductions to start, then one apply and
  // three reductions per iteration; each reduction is a 2*ceil(log2 3) =
  // 4-hop allreduce.
  const double applies = 1.0 + kIterations;
  const double reductions = 2.0 + 3.0 * kIterations;
  const double expected =
      device_only + applies * middle_halo + reductions * 4.0 * latency;
  EXPECT_NEAR(networked, expected, 1e-12 * expected);
}

TEST(DistributedBackend, RejectsUnknownBackendNames) {
  runtime::DistributedSolveConfig config = base_config();
  config.ranks = 2;
  config.backend = "warp-drive";
  EXPECT_THROW((void)runtime::solve_distributed_poisson(config),
               std::invalid_argument);
}

TEST(DistributedBackend, NekboneProxyRoutesBackendThroughRanks) {
  solver::NekboneConfig config;
  config.degree = 3;
  config.nelx = config.nely = 2;
  config.nelz = 4;
  config.cg_iterations = 10;

  config.ranks = 1;
  config.backend = "cpu";
  const solver::NekboneResult single = solver::run_nekbone(config);
  EXPECT_EQ(single.modeled_seconds, 0.0);

  config.ranks = 2;
  config.backend = "fpga-sim";
  const solver::NekboneResult dist = solver::run_nekbone(config);
  EXPECT_EQ(single.final_residual, dist.final_residual)
      << "fpga-sim over ranks must not perturb the iterates";
  EXPECT_GT(dist.modeled_seconds, 0.0);
  EXPECT_GT(dist.modeled_gflops, 0.0);

  config.backend = "hal9000";
  EXPECT_THROW((void)solver::run_nekbone(config), std::invalid_argument);
}

}  // namespace
}  // namespace semfpga
