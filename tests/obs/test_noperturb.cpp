/// The observability hard contract: any --obs setting is bitwise
/// non-perturbing.  Every backend tier runs the same solve twice — obs off
/// vs obs fully armed (summary + trace + prom) — and the solution vector,
/// final residual, and the whole per-iteration residual history must match
/// to the bit.  Spans observe the solve; they never participate in it.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/backend.hpp"
#include "common/aligned.hpp"
#include "obs/obs.hpp"
#include "runtime/distributed_cg.hpp"
#include "sem/mesh.hpp"
#include "solver/cg.hpp"
#include "solver/poisson_system.hpp"

namespace semfpga {
namespace {

constexpr double kPi = 3.14159265358979323846;

double forcing(double px, double py, double pz) {
  return std::sin(kPi * px) * std::sin(kPi * py) * std::sin(kPi * pz);
}

struct SolveOutput {
  aligned_vector<double> x;
  solver::CgResult cg;
};

/// One fixed-iteration solve through the Backend seam.
SolveOutput run_backend_solve(const std::string& backend_name, int threads) {
  sem::BoxMeshSpec spec;
  spec.degree = 4;
  spec.nelx = spec.nely = spec.nelz = 3;
  const sem::Mesh mesh = sem::box_mesh(spec);
  solver::PoissonSystem system(mesh);
  system.set_threads(threads);

  const std::size_t n = system.n_local();
  aligned_vector<double> f(n);
  aligned_vector<double> b(n);
  SolveOutput out;
  out.x.assign(n, 0.0);
  system.sample(forcing, std::span<double>(f.data(), n));
  system.assemble_rhs(std::span<const double>(f.data(), n),
                      std::span<double>(b.data(), n));

  solver::CgOptions options;
  options.max_iterations = 25;
  options.tolerance = 0.0;
  options.record_history = true;
  const std::unique_ptr<backend::Backend> be = backend::make(backend_name, system);
  out.cg = solver::solve_cg(*be, std::span<const double>(b.data(), n),
                            std::span<double>(out.x.data(), n), options);
  return out;
}

/// The distributed tier (in-process SPMD ranks, halo exchange, ordered
/// allreduce) of the same solve.
SolveOutput run_distributed_solve(int ranks, int threads) {
  runtime::DistributedSolveConfig config;
  config.spec.degree = 4;
  config.spec.nelx = config.spec.nely = config.spec.nelz = 4;
  config.ranks = ranks;
  config.threads = threads;
  config.cg.max_iterations = 25;
  config.cg.tolerance = 0.0;
  config.cg.record_history = true;
  config.forcing = forcing;
  runtime::DistributedSolveResult solve = runtime::solve_distributed_poisson(config);
  SolveOutput out;
  out.x = std::move(solve.x);
  out.cg = std::move(solve.cg);
  return out;
}

/// Bitwise equality — memcmp, not ==, so a -0.0/0.0 or NaN drift fails too.
void expect_bitwise_equal(const SolveOutput& off, const SolveOutput& on) {
  ASSERT_EQ(off.x.size(), on.x.size());
  EXPECT_EQ(std::memcmp(off.x.data(), on.x.data(), off.x.size() * sizeof(double)), 0)
      << "solution vector perturbed by obs";
  EXPECT_EQ(std::memcmp(&off.cg.final_residual, &on.cg.final_residual,
                        sizeof(double)),
            0)
      << "final residual perturbed by obs";
  ASSERT_EQ(off.cg.residual_history.size(), on.cg.residual_history.size());
  if (!off.cg.residual_history.empty()) {
    EXPECT_EQ(std::memcmp(off.cg.residual_history.data(),
                          on.cg.residual_history.data(),
                          off.cg.residual_history.size() * sizeof(double)),
              0)
        << "residual history perturbed by obs";
  }
  EXPECT_EQ(off.cg.iterations, on.cg.iterations);
  EXPECT_EQ(off.cg.flops, on.cg.flops);
}

/// Arms every obs output at once: summary + chrome trace + prometheus.
obs::ObsConfig armed(const std::string& tag) {
  obs::ObsConfig config;
  config.summary = true;
  config.trace_path = "obs_noperturb_" + tag + ".json";
  config.prom_path = "obs_noperturb_" + tag + ".prom";
  return config;
}

void cleanup(const obs::ObsConfig& config) {
  // The exports themselves must still work after the solve (and get
  // removed so test reruns start clean).
  ASSERT_TRUE(obs::write_chrome_trace(config.trace_path));
  ASSERT_TRUE(obs::write_prometheus(config.prom_path));
  std::remove(config.trace_path.c_str());
  std::remove(config.prom_path.c_str());
  obs::reset_for_tests();
}

class NoPerturbTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset_for_tests(); }
  void TearDown() override { obs::reset_for_tests(); }
};

TEST_F(NoPerturbTest, CpuBackendIsBitwiseIdenticalUnderObs) {
  const SolveOutput off = run_backend_solve("cpu", /*threads=*/2);
  const obs::ObsConfig config = armed("cpu");
  obs::configure(config);
  const SolveOutput on = run_backend_solve("cpu", /*threads=*/2);
  cleanup(config);
  expect_bitwise_equal(off, on);
}

TEST_F(NoPerturbTest, FusedApplyRecordsItsElementAndSurfacePasses) {
  const obs::ObsConfig config = armed("passes");
  obs::configure(config);
  (void)run_backend_solve("cpu", /*threads=*/2);
  int element = 0;
  int surface = 0;
  int apply = 0;
  for (const obs::TaggedEvent& e : obs::collected_events()) {
    const std::string name = e.event.name;
    element += name == "apply.element" ? 1 : 0;
    surface += name == "apply.surface" ? 1 : 0;
    apply += name == "cg.apply" ? 1 : 0;
  }
  cleanup(config);
  // One element pass and one surface pass inside every operator apply.
  EXPECT_GT(apply, 0);
  EXPECT_EQ(element, apply);
  EXPECT_EQ(surface, apply);
}

TEST_F(NoPerturbTest, FpgaSimBackendIsBitwiseIdenticalUnderObs) {
  const SolveOutput off = run_backend_solve("fpga-sim", /*threads=*/1);
  const obs::ObsConfig config = armed("fpga");
  obs::configure(config);
  const SolveOutput on = run_backend_solve("fpga-sim", /*threads=*/1);
  // The fpga-sim tier additionally publishes its modeled timeline as a
  // synthetic trace track — presence must not perturb either.
  EXPECT_FALSE(obs::modeled_tracks().empty());
  cleanup(config);
  expect_bitwise_equal(off, on);
}

TEST_F(NoPerturbTest, DistributedSolveIsBitwiseIdenticalUnderObs) {
  const SolveOutput off = run_distributed_solve(/*ranks=*/2, /*threads=*/2);
  const obs::ObsConfig config = armed("dist");
  obs::configure(config);
  const SolveOutput on = run_distributed_solve(/*ranks=*/2, /*threads=*/2);
  cleanup(config);
  expect_bitwise_equal(off, on);
  // And the armed run actually recorded the distributed instrumentation.
  // (cleanup reset the tracer; assert on the off-vs-on equality above and
  // re-run a tiny armed solve to keep this check self-contained.)
  obs::configure(armed("dist2"));
  (void)run_distributed_solve(/*ranks=*/2, /*threads=*/2);
  bool saw_halo = false;
  bool saw_allreduce = false;
  bool saw_qqt = false;
  for (const obs::TaggedEvent& e : obs::collected_events()) {
    const std::string name = e.event.name;
    saw_halo = saw_halo || name.rfind("halo.", 0) == 0;
    saw_allreduce = saw_allreduce || name == "fabric.allreduce";
    saw_qqt = saw_qqt || name == "gs.qqt";
  }
  std::remove(armed("dist2").trace_path.c_str());
  std::remove(armed("dist2").prom_path.c_str());
  EXPECT_TRUE(saw_halo);
  EXPECT_TRUE(saw_allreduce);
  EXPECT_TRUE(saw_qqt);  // the rank's split apply: local fold + halo
}

}  // namespace
}  // namespace semfpga
