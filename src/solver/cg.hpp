#pragma once
/// \file cg.hpp
/// Preconditioned conjugate gradients on a PoissonSystem.
///
/// The paper's target workload is "an iterative solver evaluating the
/// discretized system in a matrix-free fashion" (Section I) — in Nekbone
/// that solver is CG with the Ax kernel inside.  This is a faithful C++
/// port of that loop, with multiplicity-weighted inner products so local
/// vectors behave exactly like the assembled global system.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "backend/backend.hpp"
#include "solver/poisson_system.hpp"

namespace semfpga::solver {

/// Custom preconditioner: z = P^{-1} r.  Must be SPD on the masked
/// subspace (ChebyshevPreconditioner::apply qualifies).
using PreconditionerFn =
    std::function<void(std::span<const double> r, std::span<double> z)>;

/// Thrown by solve_cg (with CgOptions::guard_numerics) when an iteration
/// produces a non-finite reduction or loses positive definiteness — the
/// *recoverable* spelling of what SEMFPGA_CHECK treats as a programming
/// error.  On a collective backend the offending scalar came out of the
/// deterministic allreduce, so every rank throws at the same iteration
/// and a rollback stays collective.  solve_cg_resilient catches these and
/// retries from the last checkpoint (resilient_cg.hpp).
class CgNumericalFault : public std::runtime_error {
 public:
  CgNumericalFault(int iteration, const std::string& reason);
  /// Iteration that faulted (1-based; 0 = the initial residual).
  [[nodiscard]] int iteration() const noexcept { return iteration_; }

 private:
  int iteration_;
};

/// Read-only view of the loop state at an iteration boundary, handed to
/// CgOptions::iteration_hook.  When `converged` is false the spans hold
/// resume-ready state: copying {x, r, p} plus the scalars into a
/// CgResumeState and re-entering solve_cg continues the undisturbed
/// trajectory bitwise.
struct CgIterationView {
  int iteration = 0;        ///< iterations completed (1-based)
  double res_norm = 0.0;    ///< weighted residual norm after this iteration
  double rr = 0.0;          ///< <r, r>_c behind res_norm
  double rho = 0.0;         ///< current preconditioned dot (post-update)
  std::int64_t flops = 0;   ///< CgResult::flops accumulated so far
  bool converged = false;   ///< true on the final, convergence-check call
  std::span<const double> x, r, p;
  std::span<const double> residual_history;  ///< empty unless record_history
};

/// Called at the bottom of every CG iteration (and once, with
/// converged = true, before the convergence break).  The hook must not
/// mutate solver state; pure observation/copies keep the iterates bitwise
/// identical to a hook-free solve.  It may throw — solve_cg does not
/// catch — which is how the resilient wrapper aborts a poisoned
/// trajectory at a deterministic point.
using CgIterationHook = std::function<void(const CgIterationView&)>;

/// Checkpointed loop state to continue a solve from (CgOptions::resume).
/// All spans must stay valid for the duration of the call; solve_cg copies
/// them into its working vectors before iterating.  Restoring {x from the
/// same checkpoint} + this state re-runs the exact iterations the
/// undisturbed loop would have run — bitwise, since no arithmetic is
/// involved in the restore.
struct CgResumeState {
  int iteration = 0;        ///< iterations already completed
  std::span<const double> r, p;
  double rho = 0.0;
  double rr = 0.0;
  double res_norm = 0.0;
  std::int64_t flops = 0;
  std::vector<double> residual_history;  ///< history up to `iteration`
};

/// Options for solve_cg.
struct CgOptions {
  int max_iterations = 200;
  double tolerance = 1e-10;    ///< on the weighted residual norm
  bool use_jacobi = true;      ///< diagonal preconditioning
  bool record_history = false; ///< keep per-iteration residual norms
  PreconditionerFn preconditioner;  ///< overrides use_jacobi when set
  /// Worker threads for CG's own vector passes (fused axpy/dot sweeps):
  /// -1 = inherit the system's thread count (PoissonSystem::set_threads,
  /// which also governs the operator and gather-scatter), 1 = serial,
  /// 0 = all hardware threads, k = k threads.  Reductions use a fixed
  /// chunk decomposition, so iterates are bitwise identical for any value.
  /// Only read by the PoissonSystem convenience overload (it seeds the
  /// CpuBackend's vector threads); the solve_cg(Backend&) overload runs
  /// the passes on the backend's own thread configuration — pass the
  /// count to backend::MakeOptions::vector_threads / the backend ctor
  /// instead.  (Collective backends always use their rank team.)
  int threads = -1;
  /// Convert non-finite reductions and lost positive definiteness into
  /// typed, recoverable CgNumericalFault throws instead of the
  /// invalid_argument programming-error check.  Read-only comparisons;
  /// iterates stay bitwise identical.
  bool guard_numerics = false;
  /// Observation hook at every iteration boundary (see CgIterationHook).
  CgIterationHook iteration_hook;
  /// Continue a previous solve from checkpointed state instead of starting
  /// at the initial residual (not owned; may be null).  The caller must
  /// restore x from the same checkpoint.
  const CgResumeState* resume = nullptr;
};

/// Outcome of a CG solve.
struct CgResult {
  int iterations = 0;
  bool converged = false;
  double final_residual = 0.0;
  std::int64_t flops = 0;  ///< Ax plus vector-update FLOPs, Nekbone-style count
  std::vector<double> residual_history;
};

/// Global reductions one solve_cg iteration issues — each one an ordered
/// allreduce on a collective backend: <p, Ap>, <r, r>, and the
/// preconditioned <r, z> unless P = I lets rho reuse rr.  So 3 for Jacobi
/// (and custom) preconditioning, 2 for identity.  The cluster model
/// (arch/cluster_model.hpp) charges this many allreduces per iteration.
[[nodiscard]] int reductions_per_iteration(const CgOptions& options);

/// Memory-stream shapes of the reduce()/vector_pass() calls one full
/// solve_cg iteration issues, in issue order: <p, Ap>, the fused
/// x/r update with <r, r>, the preconditioner with <r, z> (absent when
/// P = I), and the p update.  Cost-charging backends charge exactly these
/// per iteration; the cluster model projects the same bytes.
[[nodiscard]] std::vector<backend::PassCost> passes_per_iteration(
    const CgOptions& options);

/// Solves the backend's operator equation apply(x) == b for x (overwritten;
/// initial guess honoured).  This is THE CG loop: every execution tier —
/// host engine (CpuBackend), modeled FPGA (FpgaSimBackend), SPMD rank
/// (DistributedBackend) — runs this one implementation; the backend decides
/// where each pass executes and what it costs.  On a collective backend the
/// call is collective (one invocation per rank) and every rank returns the
/// same CgResult scalars; custom preconditioners are rejected there (they
/// would need their own distributed completion).
/// \pre b is continuous and masked (assemble_rhs output qualifies).
[[nodiscard]] CgResult solve_cg(backend::Backend& backend, std::span<const double> b,
                                std::span<double> x, const CgOptions& options = {});

/// Convenience overload: solves over a CpuBackend adapter of `system` —
/// bitwise identical to the pre-backend direct-engine solve at every
/// variant × threads × fused/split combination.
[[nodiscard]] CgResult solve_cg(const PoissonSystem& system, std::span<const double> b,
                                std::span<double> x, const CgOptions& options = {});

}  // namespace semfpga::solver
