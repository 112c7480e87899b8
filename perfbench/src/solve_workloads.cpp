/// The two solve workloads.
///
///  * nekbone-n7: Poisson, N = 7, 8^3 elements (262k local DOFs, a working
///    set inside the last-level cache), one rank on kNekboneThreads threads,
///    unpreconditioned CG to a relative tolerance of 1e-8 from seeded
///    uniform nodal forcing.  The element kernel does most of the work.
///  * bk5-n3-ranks4: Helmholtz (BK5), N = 3, 32^3 elements (2.1M local
///    DOFs, a working set several times the last-level cache), 4 ranks x 1
///    thread on 3d blocks with halo/compute overlap, Jacobi CG to 1e-8 from
///    a seeded forcing field.  Vector passes, gather-scatter, halo and the
///    allreduces dominate.
///
/// The end-to-end run repeats setup and solve in-process and reports
/// medians; the traced run times each layer through the forwarding backend
/// of layers.hpp and checks every decorated solve bitwise against the plain
/// one.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "bench.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "runtime/distributed_cg.hpp"
#include "runtime/partition.hpp"
#include "runtime/rank_system.hpp"
#include "runtime/spmd.hpp"
#include "sem/mesh.hpp"
#include "service/server.hpp"
#include "solver/cg.hpp"
#include "solver/helmholtz_system.hpp"

namespace perfbench {
namespace {

using namespace semfpga;

constexpr int kSetupRepeats = 6;  ///< the first one warms the allocator up
constexpr int kMinSolves = 4;
constexpr int kSolvesPerRound = 3;
constexpr int kMaxIterations = 5000;
constexpr double kRelTolerance = 1e-8;
/// The true residual, recomputed with another operator path, may sit a few
/// ulps of the recurrence above the recursive one the solver stopped on.
constexpr double kTrueResidualSlack = 1.01;

constexpr int kNekboneDegree = 7;
constexpr int kNekboneNel = 8;
constexpr int kNekboneThreads = 4;

constexpr int kBk5Degree = 3;
constexpr int kBk5Nel = 32;
constexpr int kBk5Ranks = 4;
constexpr double kBk5Lambda = 1.0;

/// Computed bytes one CG iteration streams: the CG vectors, the dot weight
/// and mask, the geometric factors, and the gather-scatter schedule.
double working_set_bytes(std::size_t n_local, std::size_t n_global, int cg_vectors,
                         int geom_per_point) {
  return 8.0 * static_cast<double>(n_local) * (cg_vectors + 2 + geom_per_point + 1) +
         8.0 * static_cast<double>(n_global + 1);
}

void record_host(RunResult& result, double working_set, bool must_fit_llc) {
  const double llc = static_cast<double>(llc_bytes());
  result.context("llc_bytes", llc);
  result.context("working_set_bytes", working_set);
  if (llc > 0.0) {
    result.check(must_fit_llc ? working_set < llc : working_set > 2.0 * llc,
                 must_fit_llc ? "working set fits the last-level cache"
                              : "working set exceeds twice the last-level cache");
  }
}

/// |b - A x|_c / |b|_c with an operator path the solve did not use
/// (split Ax -> qqt -> mask instead of the fused sweep, mxm kernel variant).
double true_relative_residual(solver::PoissonSystem& checker, std::span<const double> b,
                              std::span<const double> x) {
  checker.set_fused(false);
  checker.set_ax_variant(kernels::AxVariant::kMxm);
  aligned_vector<double> r(b.size());
  checker.apply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = b[i] - r[i];
  }
  return std::sqrt(checker.weighted_dot(r, r) / checker.weighted_dot(b, b));
}

// --------------------------------------------------------------------------
// nekbone-n7
// --------------------------------------------------------------------------

struct Nekbone {
  std::unique_ptr<sem::Mesh> mesh;
  std::unique_ptr<solver::PoissonSystem> system;
  std::unique_ptr<backend::Backend> backend;
  double mesh_s = 0.0, system_s = 0.0, backend_s = 0.0;
};

sem::BoxMeshSpec nekbone_spec() {
  sem::BoxMeshSpec spec;
  spec.degree = kNekboneDegree;
  spec.nelx = spec.nely = spec.nelz = kNekboneNel;
  return spec;
}

Nekbone build_nekbone() {
  Nekbone n;
  const double t0 = now_seconds();
  n.mesh = std::make_unique<sem::Mesh>(sem::box_mesh(nekbone_spec()));
  const double t1 = now_seconds();
  n.system = std::make_unique<solver::PoissonSystem>(*n.mesh);
  n.system->set_threads(kNekboneThreads);
  const double t2 = now_seconds();
  n.backend = backend::make("cpu", *n.system);
  const double t3 = now_seconds();
  n.mesh_s = t1 - t0;
  n.system_s = t2 - t1;
  n.backend_s = t3 - t2;
  return n;
}

struct Solved {
  solver::CgResult cg;
  aligned_vector<double> x;
  double seconds = 0.0;
};

Solved solve_on(backend::Backend& backend, std::span<const double> b,
                const solver::CgOptions& options) {
  Solved s;
  s.x.assign(b.size(), 0.0);
  const double t0 = now_seconds();
  s.cg = solver::solve_cg(backend, b, s.x, options);
  s.seconds = now_seconds() - t0;
  return s;
}

void run_nekbone_traced(const RunOptions& o, RunResult& result) {
  LayerReport report;
  report.triad_gbs = measure_triad(result);

  std::vector<double> mesh_s, system_s, backend_s;
  Nekbone nb;
  for (int i = 0; i < kSetupRepeats; ++i) {
    nb = Nekbone{};
    nb = build_nekbone();
    if (i > 0) {
      mesh_s.push_back(nb.mesh_s);
      system_s.push_back(nb.system_s);
      backend_s.push_back(nb.backend_s);
    }
  }
  report.setup_mesh_s = median(mesh_s);
  report.setup_system_s = median(system_s);
  report.setup_backend_s = median(backend_s);

  const std::size_t n = nb.system->n_local();
  aligned_vector<double> f(n);
  aligned_vector<double> b(n);
  service::fill_forcing(sub_seed(o.seed, 1), f);
  nb.system->assemble_rhs(f, b);
  solver::CgOptions options;
  options.max_iterations = kMaxIterations;
  options.use_jacobi = false;
  options.tolerance = kRelTolerance * std::sqrt(nb.system->weighted_dot(b, b));

  const Solved ref = solve_on(*nb.backend, b, options);
  result.check(ref.cg.converged, "nekbone reference solve converged");
  report.iterations = ref.cg.iterations;

  const auto same_as_ref = [&](const Solved& s, const std::string& what) {
    result.check(s.cg.converged && s.cg.iterations == ref.cg.iterations &&
                     bitwise_equal(s.x, ref.x),
                 what + " solve is bitwise equal to the plain cpu solve");
  };

  // Alternate plain and traced solves for half the run.
  std::vector<double> plain_s, traced_s;
  const double start = now_seconds();
  while (traced_s.size() < 3 || now_seconds() - start < 0.5 * o.seconds) {
    const Solved plain = solve_on(*nb.backend, b, options);
    same_as_ref(plain, "repeated cpu");
    plain_s.push_back(plain.seconds);
    const auto traced_backend = backend::make("traced-cpu", *nb.system);
    const Solved traced = solve_on(*traced_backend, b, options);
    same_as_ref(traced, "traced-cpu");
    traced_s.push_back(traced.seconds);
  }
  report.solve =
      fold_counters(take_layer_counters(), static_cast<int>(traced_s.size()), false);
  report.trace_overhead_ratio = median(traced_s) / median(plain_s);

  obs::configure(obs::parse_obs("summary"));
  const Solved observed = solve_on(*nb.backend, b, options);
  obs::configure(obs::ObsConfig{});
  same_as_ref(observed, "obs-on cpu");
  report.obs_overhead_ratio = observed.seconds / median(plain_s);

  {
    const auto fpga = backend::make("traced-fpga-sim", *nb.system);
    same_as_ref(solve_on(*fpga, b, options), "fpga-sim");
  }
  const SolveLayers model = fold_counters(take_layer_counters(), 1, false);
  report.solve.fpga_solve_s = model.fpga_solve_s;
  report.solve.fpga_apply_s = model.fpga_apply_s;

  report.kernel = probe_kernel(*nb.system, kNekboneThreads, sub_seed(o.seed, 9));
  report_layers(report, result);
}

// --------------------------------------------------------------------------
// bk5-n3-ranks4
// --------------------------------------------------------------------------

sem::BoxMeshSpec bk5_spec() {
  sem::BoxMeshSpec spec;
  spec.degree = kBk5Degree;
  spec.nelx = spec.nely = spec.nelz = kBk5Nel;
  return spec;
}

runtime::DistributedSolveConfig bk5_config(std::uint64_t seed) {
  runtime::DistributedSolveConfig c;
  c.spec = bk5_spec();
  c.ranks = kBk5Ranks;
  c.threads = kBk5Ranks;
  c.partition = runtime::PartitionKind::kBlock3d;
  c.overlap = true;
  c.operator_kind = solver::OperatorKind::kHelmholtz;
  c.helmholtz_lambda = kBk5Lambda;
  c.backend = "cpu";
  c.cg.max_iterations = kMaxIterations;
  c.cg.use_jacobi = true;
  const std::uint64_t forcing_seed = sub_seed(seed, 2);
  c.forcing = [forcing_seed](double x, double y, double z) {
    return hashed_forcing(forcing_seed, x, y, z);
  };
  return c;
}

/// Runs the whole distributed solve once with x0 = 0 and no iterations: the
/// reported residual is then |b|_c, from which the tolerance is set.
double bk5_rhs_norm(runtime::DistributedSolveConfig config) {
  config.cg.max_iterations = 0;
  return runtime::solve_distributed_poisson(config).cg.final_residual;
}

/// Checks the reference solution against an independently assembled
/// single-rank Helmholtz system; returns false on any mismatch.
void check_bk5_solution(const runtime::DistributedSolveConfig& config, double rhs_norm,
                        std::span<const double> x, RunResult& result) {
  const sem::Mesh mesh = sem::box_mesh(config.spec);
  solver::HelmholtzSystem checker(mesh, config.helmholtz_lambda);
  checker.set_threads(kBk5Ranks);
  const std::size_t n = checker.n_local();
  aligned_vector<double> f(n);
  aligned_vector<double> b(n);
  checker.sample(config.forcing, f);
  checker.assemble_rhs(f, b);
  const double single_rank_norm = std::sqrt(checker.weighted_dot(b, b));
  result.check(std::abs(single_rank_norm - rhs_norm) <= 1e-12 * rhs_norm,
               "distributed and single-rank right-hand sides agree");
  const double rel = true_relative_residual(checker, b, x);
  result.context("true_relative_residual", rel);
  result.check(rel <= kRelTolerance * kTrueResidualSlack,
               "bk5 true relative residual within tolerance");
}

struct Bk5Setup {
  double mesh_s = 0.0, system_s = 0.0, backend_s = 0.0;
};

/// The distributed setup phase by phase: global mesh and partition, then
/// each rank's system and backend (the slowest rank sets the time).
Bk5Setup time_bk5_setup(const runtime::DistributedSolveConfig& config) {
  Bk5Setup s;
  const double t0 = now_seconds();
  const sem::Mesh mesh = sem::box_mesh(config.spec);
  const runtime::BlockPartition part =
      runtime::partition_blocks(config.spec, config.ranks, config.partition);
  s.mesh_s = now_seconds() - t0;
  runtime::InProcessFabric fabric(config.ranks, mesh.n_elements());
  std::vector<double> system_s(static_cast<std::size_t>(config.ranks));
  std::vector<double> backend_s(system_s.size());
  runtime::spmd_run(fabric, config.threads, [&](const runtime::RankEnv& env) {
    const double t1 = now_seconds();
    runtime::RankSystem rs(mesh, part, env.rank, fabric, env.team_threads,
                           {config.operator_kind, config.helmholtz_lambda, config.overlap});
    const double t2 = now_seconds();
    const auto be = backend::make_rank(config.backend, rs, config.backend_options);
    const auto r = static_cast<std::size_t>(env.rank);
    system_s[r] = t2 - t1;
    backend_s[r] = now_seconds() - t2;
  });
  s.system_s = *std::max_element(system_s.begin(), system_s.end());
  s.backend_s = *std::max_element(backend_s.begin(), backend_s.end());
  return s;
}

void run_bk5_traced(const RunOptions& o, RunResult& result) {
  LayerReport report;
  report.triad_gbs = measure_triad(result);

  runtime::DistributedSolveConfig config = bk5_config(o.seed);
  config.cg.tolerance = kRelTolerance * bk5_rhs_norm(config);
  const runtime::DistributedSolveResult ref = runtime::solve_distributed_poisson(config);
  result.check(ref.cg.converged, "bk5 reference solve converged");
  report.iterations = ref.cg.iterations;

  const auto run_with = [&](const std::string& backend_name) {
    runtime::DistributedSolveConfig c = config;
    c.backend = backend_name;
    runtime::DistributedSolveResult r = runtime::solve_distributed_poisson(c);
    result.check(r.cg.converged && r.cg.iterations == ref.cg.iterations &&
                     bitwise_equal(r.x, ref.x),
                 backend_name + " distributed solve is bitwise equal to the plain cpu solve");
    return r.solve_seconds;
  };

  constexpr int kTracedSolves = 2;
  std::vector<double> plain_s, traced_s;
  for (int k = 0; k < kTracedSolves; ++k) {
    plain_s.push_back(run_with("cpu"));
    traced_s.push_back(run_with("traced-cpu"));
  }
  report.solve = fold_counters(take_layer_counters(), kTracedSolves, true);
  report.trace_overhead_ratio = median(traced_s) / median(plain_s);

  obs::configure(obs::parse_obs("summary"));
  const double observed_s = run_with("cpu");
  obs::configure(obs::ObsConfig{});
  report.obs_overhead_ratio = observed_s / median(plain_s);

  run_with("traced-fpga-sim");
  const SolveLayers model = fold_counters(take_layer_counters(), 1, true);
  report.solve.fpga_solve_s = model.fpga_solve_s;
  report.solve.fpga_apply_s = model.fpga_apply_s;

  std::vector<double> mesh_s, system_s, backend_s;
  for (int i = 0; i < 3; ++i) {
    const Bk5Setup s = time_bk5_setup(config);
    mesh_s.push_back(s.mesh_s);
    system_s.push_back(s.system_s);
    backend_s.push_back(s.backend_s);
  }
  report.setup_mesh_s = median(mesh_s);
  report.setup_system_s = median(system_s);
  report.setup_backend_s = median(backend_s);

  // The element kernel and gather-scatter of the whole BK5 problem on one
  // system, threaded across the ranks' cores.
  const sem::Mesh mesh = sem::box_mesh(config.spec);
  solver::HelmholtzSystem system(mesh, config.helmholtz_lambda);
  report.kernel = probe_kernel(system, kBk5Ranks, sub_seed(o.seed, 9));
  report_layers(report, result);
}

}  // namespace

void run_nekbone(const RunOptions& o, RunResult& result) {
  {
    const sem::Mesh mesh = sem::box_mesh(nekbone_spec());
    const std::size_t n = mesh.n_local();
    const solver::GatherScatter gs(mesh);
    record_host(result, working_set_bytes(n, gs.n_global(), 5, 6), true);
  }
  result.context("threads", kNekboneThreads);
  result.context("relative_tolerance", kRelTolerance);
  if (o.trace) {
    run_nekbone_traced(o, result);
    return;
  }

  // Rounds of a fresh setup followed by a few solves on it, so the medians
  // span several allocations of the problem, not one.
  std::vector<double> setup_s, solve_s;
  const std::size_t n = sem::box_mesh(nekbone_spec()).n_local();
  aligned_vector<double> f(n);
  aligned_vector<double> b(n);
  service::fill_forcing(sub_seed(o.seed, 1), f);
  solver::CgOptions options;
  options.max_iterations = kMaxIterations;
  options.use_jacobi = false;
  Solved ref;
  Nekbone nb = build_nekbone();  // warms the allocator up
  const double start = now_seconds();
  for (int round = 0; solve_s.size() < kMinSolves || now_seconds() - start < o.seconds;
       ++round) {
    nb = Nekbone{};
    nb = build_nekbone();
    setup_s.push_back(nb.mesh_s + nb.system_s + nb.backend_s);
    if (round == 0) {
      nb.system->assemble_rhs(f, b);
      options.tolerance = kRelTolerance * std::sqrt(nb.system->weighted_dot(b, b));
      // Warm-up solve; it is also the reference every later solve must equal.
      ref = solve_on(*nb.backend, b, options);
      result.check(ref.cg.converged, "nekbone solve converged");
      result.context("iterations", ref.cg.iterations);
    }
    for (int k = 0; k < kSolvesPerRound; ++k) {
      const Solved s = solve_on(*nb.backend, b, options);
      result.check(s.cg.converged && s.cg.iterations == ref.cg.iterations &&
                       bitwise_equal(s.x, ref.x),
                   "nekbone solve repeats the reference bitwise");
      solve_s.push_back(s.seconds);
    }
  }

  EndToEndReport report;
  report.peak_rss_mb = peak_rss_mb();
  report.solve_s = median(solve_s);
  report.setup_s = median(setup_s);
  result.context("solves", static_cast<double>(solve_s.size()));

  nb = Nekbone{};
  Nekbone checker = build_nekbone();
  const double rel = true_relative_residual(*checker.system, b, ref.x);
  result.context("true_relative_residual", rel);
  result.check(rel <= kRelTolerance * kTrueResidualSlack,
               "nekbone true relative residual within tolerance");
  report_end_to_end(report, result);
}

void run_bk5(const RunOptions& o, RunResult& result) {
  {
    const sem::Mesh mesh = sem::box_mesh(bk5_spec());
    const solver::GatherScatter gs(mesh);
    record_host(result, working_set_bytes(mesh.n_local(), gs.n_global(), 7, 7), false);
  }
  result.context("ranks", kBk5Ranks);
  result.context("relative_tolerance", kRelTolerance);
  if (o.trace) {
    run_bk5_traced(o, result);
    return;
  }

  runtime::DistributedSolveConfig config = bk5_config(o.seed);
  // Warm-up: one whole distributed run, which also yields |b|_c.
  const double rhs_norm = bk5_rhs_norm(config);
  config.cg.tolerance = kRelTolerance * rhs_norm;
  std::vector<double> setup_s, solve_s;
  runtime::DistributedSolveResult ref;
  const double start = now_seconds();
  while (solve_s.size() < kMinSolves || now_seconds() - start < o.seconds) {
    const double t0 = now_seconds();
    runtime::DistributedSolveResult r = runtime::solve_distributed_poisson(config);
    const double wall = now_seconds() - t0;
    const double solve_seconds = r.solve_seconds;
    if (solve_s.empty()) {
      result.check(r.cg.converged, "bk5 solve converged");
      result.context("iterations", r.cg.iterations);
      ref = std::move(r);
    } else {
      result.check(r.cg.converged && r.cg.iterations == ref.cg.iterations &&
                       bitwise_equal(r.x, ref.x),
                   "bk5 solve repeats the reference bitwise");
    }
    // Everything but the barrier-to-barrier solve: mesh, partition, rank
    // team, rank systems, right-hand side and backends.
    setup_s.push_back(wall - solve_seconds);
    solve_s.push_back(solve_seconds);
  }
  EndToEndReport report;
  report.peak_rss_mb = peak_rss_mb();
  report.solve_s = median(solve_s);
  report.setup_s = median(setup_s);
  result.context("solves", static_cast<double>(solve_s.size()));
  const double llc_mb = static_cast<double>(llc_bytes()) / 1e6;
  result.check(report.peak_rss_mb >= 4.0 * llc_mb,
               "bk5 memory footprint is at least four times the last-level cache");
  check_bk5_solution(config, rhs_norm, ref.x, result);
  report_end_to_end(report, result);
}

}  // namespace perfbench
