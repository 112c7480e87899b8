#include "solver/cg.hpp"

#include <cmath>

#include "backend/cpu_backend.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace semfpga::solver {
namespace {

/// Pairs solve_begin with solve_end on every exit path (cost-charging
/// backends account the host<->device vector movement there).
struct SolveScope {
  explicit SolveScope(backend::Backend& b) : backend(b) { backend.solve_begin(); }
  ~SolveScope() { backend.solve_end(); }
  backend::Backend& backend;
};

/// P = I: z aliases r and rho == rr, so the preconditioner pass vanishes.
bool identity_preconditioned(const CgOptions& options) {
  return !options.preconditioner && !options.use_jacobi;
}

/// Stream shapes of the iteration's passes (see passes_per_iteration).
constexpr backend::PassCost kCustomPrecondPass{3, 0};  // <in, z>_c after P^{-1}
constexpr backend::PassCost kJacobiPass{3, 1};          // z = in / diag, <in, z>_c
constexpr backend::PassCost kUpdatePass{4, 3};          // x, r axpys, <r, r>_c
constexpr backend::PassCost kPUpdatePass{2, 1};         // p = z + beta p

}  // namespace

int reductions_per_iteration(const CgOptions& options) {
  return identity_preconditioned(options) ? 2 : 3;
}

std::vector<backend::PassCost> passes_per_iteration(const CgOptions& options) {
  std::vector<backend::PassCost> passes = {backend::kDotPassCost, kUpdatePass};
  if (!identity_preconditioned(options)) {
    passes.push_back(options.preconditioner ? kCustomPrecondPass : kJacobiPass);
  }
  passes.push_back(kPUpdatePass);
  return passes;
}

/// Each CG iteration is three fused passes plus the operator:
///   1. w = A p, pw = <p, w>_c           (operator + one weighted dot; the
///      operator itself is the fused qqt-in-operator sweep — gather-scatter
///      and mask run in the Ax epilogue, so no separate qqt pass re-reads
///      the local DOFs — unless the system was built with set_fused(false);
///      on a collective backend the halo exchange completes the sum)
///   2. x += alpha p, r -= alpha w,      (both axpys fused with the
///      rr = <r, r>_c                     residual-norm reduction)
///   3. z = P^{-1} r, rho = <r, z>_c     (preconditioner fused with its dot;
///      p = z + beta p                    skipped entirely when P = I, where
///                                        z aliases r and rho == rr)
/// Compared to the textbook loop this removes one full residual-norm pass
/// per iteration and the z = r copy of the identity-preconditioner branch.
/// Every reduction runs through the backend's canonical layer-segmented
/// fold, so iterates are bitwise identical at any thread or rank count.
CgResult solve_cg(backend::Backend& backend, std::span<const double> b,
                  std::span<double> x, const CgOptions& options) {
  const std::size_t n = backend.n_local();
  SEMFPGA_CHECK(b.size() == n && x.size() == n, "vector sizes must match the system");
  SEMFPGA_CHECK(options.max_iterations >= 0, "max_iterations must be non-negative");
  SEMFPGA_CHECK(!(options.preconditioner && backend.collective()),
                "custom preconditioners are not supported by the distributed solve");
  SEMFPGA_CHECK(options.resume == nullptr ||
                    (options.resume->r.size() == n && options.resume->p.size() == n &&
                     options.resume->iteration >= 0),
                "resume state must match the system size");

  const auto& diag = backend.jacobi_diagonal();
  const auto& c = backend.inv_multiplicity();
  const bool identity_precond = identity_preconditioned(options);

  aligned_vector<double> r(n);
  aligned_vector<double> z(identity_precond ? 0 : n);
  aligned_vector<double> p(n);
  aligned_vector<double> w(n);

  CgResult result;
  const std::int64_t ax_cost = backend.operator_flops();
  // Vector updates per iteration: 2 axpy + 1 xpay (6n) + 2 dots (4n) + precond (n),
  // counted over the global problem so every tier reports the same FLOPs.
  const std::int64_t vec_cost = 11 * backend.global_dofs();

  OBS_SPAN("cg.solve");
  SolveScope scope(backend);

  // z = P^{-1} in, fused with the <in, z>_c reduction.  With P = I the
  // vector z is never materialised; callers use `in` and the returned rr.
  auto precondition_dot = [&](const aligned_vector<double>& in) {
    OBS_SPAN("cg.precond");
    if (options.preconditioner) {
      options.preconditioner(std::span<const double>(in.data(), n),
                             std::span<double>(z.data(), n));
      return backend.reduce(kCustomPrecondPass,
                            [&](std::size_t begin, std::size_t end) {
                              double acc = 0.0;
                              for (std::size_t i = begin; i < end; ++i) {
                                acc += in[i] * z[i] * c[i];
                              }
                              return acc;
                            });
    }
    return backend.reduce(kJacobiPass,
                          [&](std::size_t begin, std::size_t end) {
                            double acc = 0.0;
                            for (std::size_t i = begin; i < end; ++i) {
                              const double zi = in[i] / diag[i];
                              z[i] = zi;
                              acc += in[i] * zi * c[i];
                            }
                            return acc;
                          });
  };

  const aligned_vector<double>& z_like = identity_precond ? r : z;
  double rr = 0.0;
  double rho = 0.0;
  double res_norm = 0.0;

  if (options.resume == nullptr) {
    // r = b - A x (x may carry an initial guess), fused with rr = <r, r>_c.
    {
      OBS_SPAN("cg.apply");
      backend.apply(x, std::span<double>(w.data(), n));
    }
    result.flops += ax_cost;
    {
      OBS_SPAN("cg.update");
      rr = backend.reduce(backend::PassCost{3, 1},
                          [&](std::size_t begin, std::size_t end) {
                            double acc = 0.0;
                            for (std::size_t i = begin; i < end; ++i) {
                              const double ri = b[i] - w[i];
                              r[i] = ri;
                              acc += ri * ri * c[i];
                            }
                            return acc;
                          });
    }
    if (options.guard_numerics && !std::isfinite(rr)) {
      throw CgNumericalFault(0, "initial residual norm is not finite");
    }
    rho = identity_precond ? rr : precondition_dot(r);
    {
      OBS_SPAN("cg.p_update");
      backend.vector_pass(backend::PassCost{1, 1},
                          [&](std::size_t begin, std::size_t end) {
                            for (std::size_t i = begin; i < end; ++i) {
                              p[i] = z_like[i];
                            }
                          });
    }
    res_norm = std::sqrt(std::abs(rr));
    if (options.record_history) {
      result.residual_history.push_back(res_norm);
    }
  } else {
    // Pure copies of the checkpointed state — no arithmetic, so the
    // iterations below are exactly the ones the undisturbed loop would
    // have run after its own iteration `resume->iteration`.
    const CgResumeState& resume = *options.resume;
    std::copy(resume.r.begin(), resume.r.end(), r.begin());
    std::copy(resume.p.begin(), resume.p.end(), p.begin());
    rr = resume.rr;
    rho = resume.rho;
    res_norm = resume.res_norm;
    result.iterations = resume.iteration;
    result.flops = resume.flops;
    if (options.record_history) {
      result.residual_history = resume.residual_history;
    }
  }

  result.final_residual = res_norm;
  if (res_norm <= options.tolerance) {
    result.converged = true;
    return result;
  }

  const auto notify_hook = [&](int iteration, double rho_now, bool converged_now) {
    if (!options.iteration_hook) {
      return;
    }
    CgIterationView view;
    view.iteration = iteration;
    view.res_norm = res_norm;
    view.rr = rr;
    view.rho = rho_now;
    view.flops = result.flops;
    view.converged = converged_now;
    view.x = std::span<const double>(x.data(), n);
    view.r = std::span<const double>(r.data(), n);
    view.p = std::span<const double>(p.data(), n);
    view.residual_history = std::span<const double>(result.residual_history.data(),
                                                    result.residual_history.size());
    options.iteration_hook(view);
  };

  for (int it = options.resume != nullptr ? options.resume->iteration : 0;
       it < options.max_iterations; ++it) {
    {
      OBS_SPAN("cg.apply");
      backend.apply(std::span<const double>(p.data(), n),
                    std::span<double>(w.data(), n));
    }
    double pw = 0.0;
    {
      OBS_SPAN("cg.dot");
      pw = backend.dot(std::span<const double>(p.data(), n),
                       std::span<const double>(w.data(), n));
    }
    if (options.guard_numerics && !(std::isfinite(pw) && pw > 0.0)) {
      throw CgNumericalFault(it + 1, "<p, Ap> lost finite positive definiteness");
    }
    SEMFPGA_CHECK(pw > 0.0, "operator lost positive definiteness (check mesh/mask)");
    const double alpha = rho / pw;
    {
      OBS_SPAN("cg.update");
      rr = backend.reduce(kUpdatePass,
                          [&](std::size_t begin, std::size_t end) {
                            double acc = 0.0;
                            for (std::size_t i = begin; i < end; ++i) {
                              x[i] += alpha * p[i];
                              const double ri = r[i] - alpha * w[i];
                              r[i] = ri;
                              acc += ri * ri * c[i];
                            }
                            return acc;
                          });
    }
    result.flops += ax_cost + vec_cost;
    result.iterations = it + 1;

    if (options.guard_numerics && !std::isfinite(rr)) {
      throw CgNumericalFault(it + 1, "residual norm is not finite");
    }
    res_norm = std::sqrt(std::abs(rr));
    if (options.record_history) {
      result.residual_history.push_back(res_norm);
    }
    result.final_residual = res_norm;
    if (res_norm <= options.tolerance) {
      result.converged = true;
      notify_hook(it + 1, rho, /*converged_now=*/true);
      break;
    }

    const double rho_new = identity_precond ? rr : precondition_dot(r);
    const double beta = rho_new / rho;
    rho = rho_new;
    {
      OBS_SPAN("cg.p_update");
      backend.vector_pass(kPUpdatePass,
                          [&](std::size_t begin, std::size_t end) {
                            for (std::size_t i = begin; i < end; ++i) {
                              p[i] = z_like[i] + beta * p[i];
                            }
                          });
    }
    // Post-p-update: {x, r, p, rho} is exactly the state the next
    // iteration starts from — what a checkpoint must capture.
    notify_hook(it + 1, rho, /*converged_now=*/false);
  }
  return result;
}

CgNumericalFault::CgNumericalFault(int iteration, const std::string& reason)
    : std::runtime_error("cg numerical fault at iteration " +
                         std::to_string(iteration) + ": " + reason),
      iteration_(iteration) {}

CgResult solve_cg(const PoissonSystem& system, std::span<const double> b,
                  std::span<double> x, const CgOptions& options) {
  backend::CpuBackend cpu(system, options.threads);
  return solve_cg(cpu, b, x, options);
}

}  // namespace semfpga::solver
