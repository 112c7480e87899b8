#pragma once
/// \file backend.hpp
/// The hardware-neutral execution interface of the solve path.
///
/// The paper's central exercise runs the *same* SEM solve on two execution
/// targets — the CPU host and a modeled FPGA pipeline — and compares
/// measured against projected performance.  That only stays tractable when
/// the solver is written against a hardware-neutral operator/execution
/// surface (Karp et al., arXiv:2108.12188); this header is that seam.
///
/// A Backend owns everything one CG/Chebyshev iteration executes:
///
///  * the assembled operator apply (fused qqt-in-operator or split
///    Ax → qqt → mask, per the underlying system's setting),
///  * the gather-scatter (qqt) and the Dirichlet mask on their own,
///  * the Jacobi diagonal and multiplicity weights,
///  * the canonical vector passes: `reduce` runs a chunk body over the
///    fixed kReductionChunk grid segmented per z element layer and folds
///    the segment partials through the fixed binary tree (bitwise
///    identical for any thread *and rank* count — see common/parallel.hpp),
///    `vector_pass` runs an elementwise body (axpy-style updates).
///
/// Solvers (solver::solve_cg, solver::ChebyshevPreconditioner,
/// runtime::distributed_cg) are written once against this interface; the
/// implementations decide where the work runs and what it costs:
///
///  * CpuBackend        — thin adapter over the execution engine; bitwise
///                        identical to the pre-backend direct calls.
///  * FpgaSimBackend    — same bitwise numerics on the host, but every
///                        operation additionally charges modeled time from
///                        fpga::/model:: (kernel cycles, external-memory
///                        bandwidth, PCIe transfers) into an FpgaTimeline.
///  * DistributedBackend— one rank's slice of the SPMD runtime: operator
///                        completed by the halo exchange, reductions routed
///                        through the fabric's ordered allreduce.
///
/// `make()` is the string registry the CLI (`--backend=cpu|fpga-sim`) and
/// the runtime plumb through; `register_backend` is the seam future real
/// device or simulated-latency backends plug into.
///
/// The kernel *kind* plumbs through the system, not the registry: factories
/// take a `const solver::PoissonSystem&`, and a derived system (e.g.
/// solver::HelmholtzSystem, the BK5 workload) dispatches its own operator
/// apply and FLOP count virtually while cost-charging backends read
/// `operator_kind()` to model the matching kernel — so `--backend=fpga-sim`
/// charges model::helmholtz_cost for a Helmholtz solve with zero new
/// registry entries.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/aligned.hpp"

namespace semfpga::solver {
class PoissonSystem;
}

namespace semfpga::runtime {
class RankSystem;
}

namespace semfpga::backend {

/// Non-owning callable reference: lets the virtual pass interfaces accept
/// arbitrary capturing lambdas without a std::function allocation per call.
/// The referee must outlive the FnRef (pass bodies are always stack lambdas
/// consumed within the call).
template <class Sig>
class FnRef;

template <class R, class... Args>
class FnRef<R(Args...)> {
 public:
  template <class F, class = std::enable_if_t<!std::is_same_v<std::decay_t<F>, FnRef>>>
  FnRef(F&& f) noexcept  // NOLINT(google-explicit-constructor): by design
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// Chunk body of a canonical reduction: returns the partial sum of local
/// indices [begin, end).  May also update vectors (fused axpy+dot passes).
using ReduceBody = FnRef<double(std::size_t, std::size_t)>;
/// Body of an elementwise vector pass over local indices [begin, end).
using PassBody = FnRef<void(std::size_t, std::size_t)>;

/// Memory-stream shape of one vector pass: how many full-length vectors the
/// body reads and writes.  Purely descriptive on the CPU; cost-charging
/// backends convert it to modeled external-memory time.
struct PassCost {
  int reads = 0;
  int writes = 0;
  [[nodiscard]] double bytes(std::size_t n) const noexcept {
    return static_cast<double>(reads + writes) * static_cast<double>(n) * 8.0;
  }
};

/// Shape of Backend::dot: reads a, b and the multiplicity weights.
inline constexpr PassCost kDotPassCost{3, 0};

struct FpgaTimeline;  // defined in fpga_sim_backend.hpp

/// The per-solve execution surface.  All spans are element-local vectors of
/// n_local() entries unless noted.
class Backend {
 public:
  virtual ~Backend();

  /// Stable backend name ("cpu", "fpga-sim", "distributed[cpu]", ...).
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Element-local DOFs of this backend's (rank-local) vectors.
  [[nodiscard]] virtual std::size_t n_local() const noexcept = 0;
  /// Worker threads of the vector passes (operator threading is owned by
  /// the underlying system/engine).  Results never depend on this value.
  [[nodiscard]] virtual int threads() const noexcept = 0;
  /// True when the backend's reduce() is a collective over ranks — such
  /// backends reject solver features that would need their own distributed
  /// completion (custom preconditioners, global gathers).
  [[nodiscard]] virtual bool collective() const noexcept { return false; }
  /// This backend's rank within its fabric; 0 on single-rank backends.
  /// The resilient solve uses it to address per-rank fault coordinates.
  [[nodiscard]] virtual int rank() const noexcept { return 0; }

  /// Assembled, masked Jacobi diagonal (1 on masked DOFs).
  [[nodiscard]] virtual const aligned_vector<double>& jacobi_diagonal() const = 0;
  /// 1 / global multiplicity — the `c` weight of every dot product.
  [[nodiscard]] virtual const aligned_vector<double>& inv_multiplicity() const = 0;
  /// Element-local Dirichlet mask: 0 on boundary DOFs, 1 elsewhere.
  [[nodiscard]] virtual const aligned_vector<double>& mask() const = 0;

  /// Full operator: w = mask(QQ^T(A_local u)).  Fused or split per the
  /// underlying system's setting; collective backends complete the sum
  /// across rank interfaces.
  virtual void apply(std::span<const double> u, std::span<double> w) = 0;
  /// Assembled operator without the Dirichlet mask.
  virtual void apply_unmasked(std::span<const double> u, std::span<double> w) = 0;
  /// Direct-stiffness summation on its own: local = QQ^T local.
  virtual void qqt(std::span<double> local) = 0;
  /// Dirichlet mask on its own: w[p] *= mask[p].
  virtual void apply_mask(std::span<double> w) = 0;

  /// Canonical reduction over [0, n_local()): the body sums fixed chunks,
  /// partials are segmented per z element layer and tree-folded.  On a
  /// collective backend this is the fabric's ordered allreduce and returns
  /// the *global* sum (identical on every rank, bitwise equal to the
  /// single-rank fold).
  virtual double reduce(PassCost cost, ReduceBody body) = 0;
  /// Elementwise pass over [0, n_local()); bitwise independent of the
  /// partitioning, so any thread count gives identical vectors.
  virtual void vector_pass(PassCost cost, PassBody body) = 0;

  /// Multiplicity-weighted dot product <a, b>_c via reduce().
  [[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

  /// Solve-lifecycle hooks: cost-charging backends account the host<->device
  /// movement of the solve vectors here.  No-ops on the CPU.
  virtual void solve_begin() {}
  virtual void solve_end() {}

  /// Nekbone-style FLOPs of one operator apply over the *global* problem
  /// (all ranks), so CgResult::flops matches on every tier.
  [[nodiscard]] virtual std::int64_t operator_flops() const = 0;
  /// Global element-local DOF count (all ranks), for the vector-pass FLOPs.
  [[nodiscard]] virtual std::int64_t global_dofs() const = 0;

  /// Number of unique global DOFs and the gather local = Q global — used by
  /// the lambda-max power iteration to build continuous start vectors.
  /// Collective backends throw (no distributed completion).
  [[nodiscard]] virtual std::size_t n_global() const = 0;
  virtual void gather(std::span<const double> global, std::span<double> local) const = 0;

  /// Modeled-time ledger of a cost-charging backend; null on backends that
  /// execute for real only.
  [[nodiscard]] virtual const FpgaTimeline* timeline() const noexcept { return nullptr; }
  /// Writable ledger for decorators that charge additional modeled terms
  /// (the network-charging tier); null when the backend keeps no ledger.
  [[nodiscard]] virtual FpgaTimeline* mutable_timeline() noexcept { return nullptr; }
};

/// Options of the string factory.
struct MakeOptions {
  /// Worker threads for the backend's vector passes: -1 = inherit the
  /// system's thread count, 0 = all hardware threads, k = k threads.
  int vector_threads = -1;
  /// FPGA device preset for cost-charging backends ("gx2800", "agilex-027",
  /// "stratix10-10m", "stratix10-10m-enhanced", "ideal-cfd").
  std::string fpga_device = "gx2800";
  /// Modeled host<->device interconnect bandwidth (PCIe gen3 x16 effective).
  double pcie_gbs = 12.0;
  /// Use the paper's measured fmax/memory-efficiency fixture where it
  /// exists (GX2800 banked kernels at synthesized degrees).
  bool use_measured_calibration = true;
  /// Per-transfer PCIe setup latency for the modeled device, seconds
  /// (0 = the historical pure bytes/bandwidth model, bitwise unchanged).
  double pcie_latency_s = 0.0;
};

using Factory = std::function<std::unique_ptr<Backend>(const solver::PoissonSystem&,
                                                       const MakeOptions&)>;

/// Registered backend names, in registration order ("cpu", "fpga-sim", ...).
[[nodiscard]] std::vector<std::string> known_backends();

/// `known_backends()` joined with '|' — for CLI help strings.
[[nodiscard]] std::string known_backends_joined();

/// Throws std::invalid_argument (listing the known names) unless `name` is
/// a registered backend.  Binaries validate `--backend` with this before
/// doing any work, matching the CLI's unknown-value hardening.
void require_known(const std::string& name);

/// Creates the named backend over `system`.  Throws std::invalid_argument
/// for unknown names, listing the registered ones.
[[nodiscard]] std::unique_ptr<Backend> make(const std::string& name,
                                            const solver::PoissonSystem& system,
                                            const MakeOptions& options = {});

/// Registers (or replaces) a factory under `name` — the plug-in seam for
/// future real-device or simulated-latency backends.
void register_backend(const std::string& name, Factory factory);

/// Factory of one rank's backend in the distributed tier: adapts the
/// rank's RankSystem (not owned; outlives the backend) to the Backend
/// interface.  The returned backend must be collective() and route its
/// reduce() through the rank system's ordered allreduce, or the
/// distributed CG's determinism contract breaks.
using RankFactory = std::function<std::unique_ptr<Backend>(runtime::RankSystem&,
                                                           const MakeOptions&)>;

/// Registered rank-backend names, in registration order.  "cpu" and
/// "fpga-sim" are built in (both construct a DistributedBackend; the
/// latter charges modeled FPGA time per rank).
[[nodiscard]] std::vector<std::string> known_rank_backends();

/// `known_rank_backends()` joined with '|' — for CLI help strings.
[[nodiscard]] std::string known_rank_backends_joined();

/// Throws std::invalid_argument (listing the known names) unless `name`
/// is a registered rank backend.  The distributed drivers validate the
/// configured backend with this *before* spawning the rank team.
void require_known_rank(const std::string& name);

/// Creates the named rank backend over `rs`.  Called once per rank inside
/// the SPMD body; throws std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<Backend> make_rank(const std::string& name,
                                                 runtime::RankSystem& rs,
                                                 const MakeOptions& options = {});

/// Registers (or replaces) a rank-backend factory under `name`, so custom
/// backends participate in the distributed tier exactly like the built-in
/// ones ("--backend=<name> --ranks=N" end to end).
void register_rank_backend(const std::string& name, RankFactory factory);

}  // namespace semfpga::backend
