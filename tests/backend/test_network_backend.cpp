/// NetworkChargingBackend contracts: the decorator charges exactly the
/// NetworkSpec terms (halo latency + bytes, log-tree allreduce), the
/// overlap budget hides only the interior fraction of the modeled apply —
/// and only on apply paths, never on the standalone qqt — no bit of any
/// numeric result changes, and the worst rank's per-iteration ledger of a
/// real distributed solve equals what the cluster model projects.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "arch/cluster_model.hpp"
#include "backend/backend.hpp"
#include "backend/fpga_sim_backend.hpp"
#include "backend/network_backend.hpp"
#include "runtime/distributed_cg.hpp"
#include "solver/poisson_system.hpp"

namespace semfpga::backend {
namespace {

sem::Mesh make_mesh() {
  sem::BoxMeshSpec spec;
  spec.degree = 3;
  spec.nelx = spec.nely = spec.nelz = 2;
  return sem::box_mesh(spec);
}

aligned_vector<double> make_field(const solver::PoissonSystem& system) {
  const std::size_t n = system.n_local();
  aligned_vector<double> u(n);
  system.sample(
      [](double x, double y, double z) { return x * x + 0.5 * y - 0.25 * z; },
      std::span<double>(u.data(), n));
  return u;
}

/// The rank this test models: 4 ranks, 2 neighbours, 1000 doubles per
/// exchange, half the elements interior, over a 10 us / 1 GB/s link.
NetworkChargeSpec test_spec(bool overlap) {
  NetworkChargeSpec spec;
  spec.network = arch::NetworkSpec{10.0, 1.0};
  spec.n_ranks = 4;
  spec.n_neighbors = 2;
  spec.halo_doubles = 1000;
  spec.interior_fraction = 0.5;
  spec.overlap = overlap;
  return spec;
}

// 2 neighbour latencies + 8000 bytes over 1 GB/s.
constexpr double kHaloFull = 2.0 * 10.0e-6 + 1000.0 * 8.0 / 1e9;
// 2 * ceil(log2 4) hop latencies per reduction.
constexpr double kAllreduce = 2.0 * 2.0 * 10.0e-6;

TEST(NetworkChargingBackend, ChargesHaloAndAllreduceTerms) {
  const sem::Mesh mesh = make_mesh();
  solver::PoissonSystem system(mesh);
  NetworkChargingBackend be(make("cpu", system), test_spec(/*overlap=*/false));
  EXPECT_STREQ(be.name(), "network[cpu]");

  const aligned_vector<double> u = make_field(system);
  aligned_vector<double> w(system.n_local());

  // The cpu backend keeps no ledger, so charges land in the decorator's.
  FpgaTimeline* t = be.mutable_timeline();
  ASSERT_NE(t, nullptr);

  be.apply(std::span<const double>(u.data(), u.size()),
           std::span<double>(w.data(), w.size()));
  EXPECT_EQ(t->network_halo_exchanges, 1);
  EXPECT_DOUBLE_EQ(t->network_halo_seconds, kHaloFull);
  EXPECT_DOUBLE_EQ(t->network_overlap_saved_seconds, 0.0);

  aligned_vector<double> raw = u;
  be.qqt(std::span<double>(raw.data(), raw.size()));
  EXPECT_EQ(t->network_halo_exchanges, 2);
  EXPECT_DOUBLE_EQ(t->network_halo_seconds, 2.0 * kHaloFull);

  (void)be.dot(std::span<const double>(u.data(), u.size()),
               std::span<const double>(u.data(), u.size()));
  EXPECT_DOUBLE_EQ(t->network_allreduce_seconds, kAllreduce);
}

TEST(NetworkChargingBackend, OverlapHidesTheInteriorFractionOnApplyOnly) {
  const sem::Mesh mesh = make_mesh();
  solver::PoissonSystem system(mesh);
  NetworkChargingBackend be(make("cpu", system), test_spec(/*overlap=*/true));

  const aligned_vector<double> u = make_field(system);
  aligned_vector<double> w(system.n_local());
  FpgaTimeline* t = be.mutable_timeline();
  ASSERT_NE(t, nullptr);

  // No modeled apply time yet: nothing to hide behind, full charge.
  be.apply(std::span<const double>(u.data(), u.size()),
           std::span<double>(w.data(), w.size()));
  EXPECT_DOUBLE_EQ(t->network_halo_seconds, kHaloFull);
  EXPECT_DOUBLE_EQ(t->network_overlap_saved_seconds, 0.0);

  // With a modeled apply of 4e-5 s and half the elements interior, 2e-5 s
  // of the halo hides; only the remainder is serialised.
  t->per_apply_seconds = 4.0e-5;
  const double budget = 0.5 * 4.0e-5;
  be.apply(std::span<const double>(u.data(), u.size()),
           std::span<double>(w.data(), w.size()));
  EXPECT_DOUBLE_EQ(t->network_halo_seconds, kHaloFull + (kHaloFull - budget));
  EXPECT_DOUBLE_EQ(t->network_overlap_saved_seconds, budget);

  // The standalone gather-scatter has no interior compute: full charge
  // even with overlap on.
  aligned_vector<double> raw = u;
  be.qqt(std::span<double>(raw.data(), raw.size()));
  EXPECT_DOUBLE_EQ(t->network_halo_seconds,
                   kHaloFull + (kHaloFull - budget) + kHaloFull);
  EXPECT_DOUBLE_EQ(t->network_overlap_saved_seconds, budget);
}

TEST(NetworkChargingBackend, NumericsPassThroughBitwise) {
  const sem::Mesh mesh = make_mesh();
  solver::PoissonSystem system(mesh);
  std::unique_ptr<Backend> bare = make("cpu", system);
  NetworkChargingBackend wrapped(make("cpu", system), test_spec(/*overlap=*/true));

  const aligned_vector<double> u = make_field(system);
  const std::size_t n = u.size();
  aligned_vector<double> w_bare(n), w_wrapped(n);
  bare->apply(std::span<const double>(u.data(), n),
              std::span<double>(w_bare.data(), n));
  wrapped.apply(std::span<const double>(u.data(), n),
                std::span<double>(w_wrapped.data(), n));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(w_wrapped[i], w_bare[i]) << "dof " << i;
  }
  EXPECT_EQ(wrapped.dot(std::span<const double>(u.data(), n),
                        std::span<const double>(w_wrapped.data(), n)),
            bare->dot(std::span<const double>(u.data(), n),
                      std::span<const double>(w_bare.data(), n)));
}

TEST(NetworkChargingBackend, SingleRankChargesNothing) {
  const sem::Mesh mesh = make_mesh();
  solver::PoissonSystem system(mesh);
  NetworkChargeSpec spec;
  spec.network = arch::NetworkSpec{10.0, 1.0};
  spec.n_ranks = 1;  // no neighbours, no tree
  NetworkChargingBackend be(make("cpu", system), spec);

  const aligned_vector<double> u = make_field(system);
  aligned_vector<double> w(system.n_local());
  be.apply(std::span<const double>(u.data(), u.size()),
           std::span<double>(w.data(), w.size()));
  (void)be.dot(std::span<const double>(u.data(), u.size()),
               std::span<const double>(u.data(), u.size()));
  const FpgaTimeline* t = be.timeline();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->network_halo_exchanges, 0);
  EXPECT_DOUBLE_EQ(t->network_halo_seconds, 0.0);
  EXPECT_DOUBLE_EQ(t->network_allreduce_seconds, 0.0);
}

void expect_relative(double got, double want, const std::string& what) {
  EXPECT_LE(std::abs(got - want), 1e-12 * std::max(std::abs(got), std::abs(want)))
      << what << ": ledger " << got << " vs model " << want;
}

/// The model is pinned to the ledger: small distributed fpga-sim solves
/// with a network, per partition kind x overlap.  A rank's per-iteration
/// charge is the difference of its ledgers after k+1 and k iterations.
/// The worst rank is chosen from the ledgers alone by the model's own rule
/// (its full per-iteration ledger, ties toward the larger full halo); its
/// vector, halo and allreduce terms and its per-iteration total must equal
/// project_one's, with the ledger's per-apply device time as the model's
/// kernel time and the device's pass time as the model's pass time.
TEST(NetworkChargingBackend, WorstRankLedgerMatchesTheClusterProjection) {
  constexpr int kIterations = 3;
  const std::string flag = "10:1";  // 10 us, 1 GB/s: halo ~ apply time
  struct Case {
    runtime::PartitionKind kind;
    int ranks;
  };
  // 6^3 elements: uneven slabs (2,2,1,1 layers), 2x2 pencils and 2x2x2
  // blocks (both with interior elements to overlap).
  const Case cases[] = {{runtime::PartitionKind::kSlab, 4},
                        {runtime::PartitionKind::kPencil, 4},
                        {runtime::PartitionKind::kBlock3d, 8}};
  for (const Case& c : cases) {
    for (const bool overlap : {false, true}) {
      const std::string label = std::string(runtime::partition_kind_name(c.kind)) +
                                (overlap ? " overlap" : " no-overlap");
      runtime::DistributedSolveConfig config;
      config.spec.degree = 2;
      config.spec.nelx = config.spec.nely = config.spec.nelz = 6;
      config.ranks = c.ranks;
      config.threads = c.ranks;
      config.partition = c.kind;
      config.overlap = overlap;
      config.backend = "fpga-sim";
      config.network = flag;
      config.cg.tolerance = 0.0;
      config.forcing = [](double x, double y, double z) {
        return std::sin(x) * std::cos(y) + z;
      };
      config.cg.max_iterations = kIterations;
      const runtime::DistributedSolveResult k = runtime::solve_distributed_poisson(config);
      config.cg.max_iterations = kIterations + 1;
      const runtime::DistributedSolveResult k1 = runtime::solve_distributed_poisson(config);
      ASSERT_EQ(k1.rank_timelines.size(), static_cast<std::size_t>(c.ranks)) << label;

      const runtime::BlockPartition part =
          runtime::partition_blocks(config.spec, c.ranks, c.kind);
      std::map<std::int64_t, double> kernel_by_elements;
      int worst = -1;
      double worst_time = -1.0;
      double worst_full = 0.0;
      for (int r = 0; r < c.ranks; ++r) {
        const FpgaTimeline& before = k.rank_timelines[static_cast<std::size_t>(r)];
        const FpgaTimeline& after = k1.rank_timelines[static_cast<std::size_t>(r)];
        const std::int64_t elements = part.ranks[static_cast<std::size_t>(r)].n_elements;
        const auto [it, fresh] =
            kernel_by_elements.emplace(elements, after.per_apply_seconds);
        ASSERT_TRUE(fresh || it->second == after.per_apply_seconds)
            << label << ": per-apply time must depend on the element count only";
        const double halo = after.network_halo_seconds - before.network_halo_seconds;
        const double full = halo + after.network_overlap_saved_seconds -
                            before.network_overlap_saved_seconds;
        const double time = after.total_seconds() - before.total_seconds();
        if (time > worst_time || (time == worst_time && full > worst_full)) {
          worst = r;
          worst_time = time;
          worst_full = full;
        }
      }
      // The reported modeled time is the slowest rank's ledger.
      double slowest = 0.0;
      for (const FpgaTimeline& t : k1.rank_timelines) {
        slowest = std::max(slowest, t.total_seconds());
      }
      EXPECT_EQ(k1.modeled_seconds, slowest) << label;

      const arch::DeviceKernelTime kernel = [&](std::int64_t n) {
        return kernel_by_elements.at(n);
      };
      const FpgaCostModel device(fpga_sim_options(config.backend_options),
                                 config.spec.degree, 1);
      const arch::DevicePassTime pass = [&device](std::size_t n, PassCost cost) {
        return device.pass_seconds(n, cost);
      };
      const arch::ProjectionPoint pt =
          arch::projected_strong_scaling(config.spec, kernel, pass,
                                         arch::parse_network_flag(flag), {c.ranks},
                                         c.kind, overlap)
              .front();
      const FpgaTimeline& before = k.rank_timelines[static_cast<std::size_t>(worst)];
      const FpgaTimeline& after = k1.rank_timelines[static_cast<std::size_t>(worst)];
      EXPECT_EQ(after.per_apply_seconds, pt.ax_seconds) << label;
      EXPECT_EQ(after.operator_applies - before.operator_applies, 1) << label;
      expect_relative(after.vector_seconds - before.vector_seconds, pt.vector_seconds,
                      label + " vector passes");
      expect_relative(after.network_halo_seconds - before.network_halo_seconds,
                      pt.halo_seconds, label + " halo");
      expect_relative(after.network_overlap_saved_seconds -
                          before.network_overlap_saved_seconds,
                      pt.overlap_saved_seconds, label + " overlap credit");
      expect_relative(after.network_allreduce_seconds - before.network_allreduce_seconds,
                      pt.allreduce_seconds, label + " allreduce");
      // Nothing else lands in an iteration's ledger: no gather-scatter or
      // PCIe charge, so the totals agree, not just the terms.
      EXPECT_EQ(after.gather_scatter_seconds, before.gather_scatter_seconds) << label;
      EXPECT_EQ(after.pcie_seconds, before.pcie_seconds) << label;
      expect_relative(after.total_seconds() - before.total_seconds(), pt.iteration_seconds,
                      label + " iteration");
      EXPECT_GT(pt.vector_seconds, 0.0) << label;
      EXPECT_GT(pt.halo_seconds, 0.0) << label;
      if (overlap && c.kind != runtime::PartitionKind::kSlab) {
        // Not vacuous: overlap hides part, not all, of the worst halo.
        EXPECT_GT(pt.overlap_saved_seconds, 0.0) << label;
      }
    }
  }
}

}  // namespace
}  // namespace semfpga::backend
