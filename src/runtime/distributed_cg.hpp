#pragma once
/// \file distributed_cg.hpp
/// Distributed conjugate gradients over the SPMD runtime.
///
/// The same fused three-pass CG iteration as solver::solve_cg, with the
/// operator completed by the halo exchange and every dot product routed
/// through the fabric's ordered allreduce.  Because the canonical
/// summation order (layer-split gather-scatter rows, layer-segmented
/// tree-folded reductions) never depends on the rank count, the converged
/// solution and the per-iteration residual history are bitwise identical
/// to the single-rank solve at any rank × thread-team combination, for
/// the fused and the split operator alike — the determinism claim the
/// ctest suites pin down.
///
/// `distributed_cg` is the rank-level loop (call it from inside an
/// spmd_run body, one RankSystem per rank); `solve_distributed_poisson`
/// is the whole-problem driver: partition (slabs, pencils or 3D blocks),
/// launch the rank team, assemble the forcing, solve, and scatter the
/// per-rank block solutions into one global vector.

#include <functional>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/fpga_sim_backend.hpp"
#include "runtime/fabric.hpp"
#include "runtime/rank_system.hpp"
#include "runtime/spmd.hpp"
#include "solver/cg.hpp"
#include "solver/resilient_cg.hpp"

namespace semfpga::runtime {

/// Rank-level distributed CG: solves the global system for this rank's
/// slice x given its slice b.  Collective; every rank receives the same
/// CgResult (identical scalars by construction).  Jacobi and identity
/// preconditioning are supported; custom preconditioners are not (they
/// would need their own distributed completion).  Since the Backend seam
/// this is solver::solve_cg over a DistributedBackend — one CG loop for
/// every tier, not a mirrored copy.
[[nodiscard]] solver::CgResult distributed_cg(RankSystem& rs, std::span<const double> b,
                                              std::span<double> x,
                                              const solver::CgOptions& options = {});

/// Same loop over an already-constructed rank backend (e.g. a
/// DistributedBackend charging modeled FPGA time).  `backend` must be
/// collective; the call is collective across its fabric.
[[nodiscard]] solver::CgResult distributed_cg(backend::Backend& backend,
                                              std::span<const double> b,
                                              std::span<double> x,
                                              const solver::CgOptions& options = {});

/// Whole-problem configuration of the distributed solve (Poisson by
/// default; the BK5 Helmholtz operator via `operator_kind`).
struct DistributedSolveConfig {
  sem::BoxMeshSpec spec;          ///< global box (must fit `partition` at `ranks`)
  int ranks = 1;                  ///< grid ranks (one thread team each)
  int threads = 1;                ///< total thread budget, split across ranks
  kernels::AxVariant ax_variant = kernels::AxVariant::kFixed;
  bool fused = true;              ///< fused qqt-in-operator sweep per rank
  /// How the global box splits across the ranks: z-slabs (the historical
  /// decomposition), x/y pencils, or full 3D blocks.  Bitwise identical
  /// solution and residual history for every kind (the raw-copy halo
  /// replays the canonical fold).
  PartitionKind partition = PartitionKind::kSlab;
  /// Post halo messages right after each rank's surface elements and
  /// compute the interior while they fly.  Bitwise identical either way.
  bool overlap = false;
  /// Modeled interconnect, "" = none.  A preset name (arch::known_networks:
  /// "eth-100g", ...) or inline "LAT_US:BW_GBS".  When set, each rank's
  /// backend is wrapped in a backend::NetworkChargingBackend, so
  /// DistributedSolveResult::rank_timelines include the network terms
  /// (halo latency+bytes, log-tree allreduces, minus the overlap credit).
  /// Numerics are untouched.
  std::string network;
  /// Operator each rank assembles over its slab: kPoisson, or kHelmholtz
  /// with mass coefficient `helmholtz_lambda` (the distributed BK5 solve;
  /// the interface-corrected Jacobi diagonal picks up the mass term, and
  /// iterates stay bitwise identical to the single-rank HelmholtzSystem
  /// solve at any ranks × threads combination).
  solver::OperatorKind operator_kind = solver::OperatorKind::kPoisson;
  double helmholtz_lambda = 1.0;
  /// Execution backend per rank, resolved through the rank-backend
  /// registry (backend::make_rank): "cpu" runs the host engine,
  /// "fpga-sim" additionally charges modeled FPGA time for each rank's
  /// slab (one modeled device per rank — the paper's cluster-of-FPGAs
  /// projection), and backend::register_rank_backend plugs custom
  /// backends into this same path.  Numerics are bitwise identical for
  /// any conforming backend.
  std::string backend = "cpu";
  /// Deadline of every blocking fabric call; <= 0 waits forever.  A hung
  /// or dead peer then surfaces as FabricTimeoutError instead of a
  /// deadlock (see fabric.hpp).
  double fabric_timeout_seconds = InProcessFabric::kDefaultTimeoutSeconds;
  /// Device/link options of the "fpga-sim" backend.
  backend::MakeOptions backend_options;
  solver::CgOptions cg;           ///< threads field is ignored (teams rule)
  /// Forcing sampled at the nodes; the RHS is assembled exactly as the
  /// single-rank PoissonSystem::assemble_rhs does.
  std::function<double(double, double, double)> forcing;
};

/// Outcome of a distributed solve.
struct DistributedSolveResult {
  solver::CgResult cg;            ///< identical on every rank; rank 0's copy
  aligned_vector<double> x;       ///< global element-local solution
  std::size_t n_local = 0;        ///< global element-local DOF count
  int ranks = 1;
  int threads_per_rank = 1;
  double solve_seconds = 0.0;     ///< CG wall time, barrier-to-barrier
  std::int64_t halo_dofs = 0;     ///< max per-rank doubles per exchange
  /// Each rank's modeled ledger ("fpga-sim" device terms and/or the
  /// configured network's terms), indexed by rank; all-zero entries for
  /// ranks whose backend keeps no ledger.
  std::vector<backend::FpgaTimeline> rank_timelines;
  /// Modeled solve time: the slowest rank's ledger total (the ranks meet
  /// at every allreduce, so the solve lasts as long as its worst rank).
  /// 0 on the cpu backend without a network.
  double modeled_seconds = 0.0;
};

/// Builds the global mesh, partitions it by `config.partition`, runs the
/// rank team and returns the gathered solution.  Bitwise identical to the
/// single-rank system + solve_cg path for any partition × ranks × threads
/// × overlap combination, for the Poisson and the Helmholtz operator alike
/// (the name predates the operator_kind knob; it is the whole-problem
/// driver for both).
[[nodiscard]] DistributedSolveResult solve_distributed_poisson(
    const DistributedSolveConfig& config);

/// Whole-problem configuration of the *resilient* distributed solve: the
/// plain solve plus scripted faults, checkpointing, and recovery budgets.
struct ResilientSolveConfig {
  DistributedSolveConfig base;
  /// Scripted fault plan (fault.hpp grammar, e.g. "crash@r2:i5"); "" runs
  /// fault-free — and then the solve is bitwise identical to
  /// solve_distributed_poisson (checkpoints are pure copies).
  std::string faults;
  /// Global checkpoint period in CG iterations; 0 disables checkpointing
  /// (recovery then restarts from the initial guess).
  int checkpoint_every = 8;
  /// Recovery attempts (numerical rollbacks, timeout or same-size crash
  /// restarts) before giving up.  Rank shrinks are budgeted separately by
  /// min_ranks.
  int max_retries = 3;
  /// First backoff sleep before a retry; doubles per retry.
  double retry_backoff_seconds = 0.0;
  /// Residual-divergence threshold of the numerical guard.
  double divergence_factor = 1e8;
  /// Consecutive non-improving iterations before a stagnation fault;
  /// 0 = off.
  int stagnation_window = 0;
  /// Shrink-and-resolve floor: a crash with more than this many surviving
  /// ranks re-partitions over ranks-1; at the floor it retries in place.
  int min_ranks = 1;
};

/// Outcome of a resilient distributed solve.
struct ResilientSolveResult {
  DistributedSolveResult solve;  ///< cg.iterations counts all committed work
  solver::ResilienceReport report;
  int final_ranks = 1;           ///< ranks the solve finished on
};

/// Supervised whole-problem driver: partitions, launches the rank team
/// with a bounded-wait fabric and the scripted FaultInjector, commits a
/// globally consistent checkpoint of x every checkpoint_every iterations,
/// and recovers: numerical faults roll back inside the solve
/// (solver::solve_cg_resilient); a rank crash shrinks the partition over
/// the survivors and re-enters from the last committed checkpoint; a
/// fabric timeout retries at the same size.  Throws
/// solver::ResilienceExhaustedError (carrying the report) when the
/// budgets run out.  With no faults scripted the result is bitwise
/// identical to solve_distributed_poisson at every ranks × threads ×
/// backend combination.
[[nodiscard]] ResilientSolveResult solve_distributed_resilient(
    const ResilientSolveConfig& config);

}  // namespace semfpga::runtime
