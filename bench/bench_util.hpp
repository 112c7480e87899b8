#pragma once
/// \file bench_util.hpp
/// Shared helpers for the CPU-side Ax benchmarks: synthetic operand setup
/// and the warm-up-then-repeat timing protocol.  Kept in one place so
/// cpu_microbench and opt_ladder measure with an identical protocol and
/// their numbers stay comparable.

#include <cmath>
#include <cstddef>
#include <memory>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "kernels/ax_dispatch.hpp"
#include "sem/reference_element.hpp"
#include "solver/helmholtz_system.hpp"
#include "solver/poisson_system.hpp"

namespace semfpga::bench {

/// Synthetic element-shaped operands (mesh validity is irrelevant to FLOPs).
struct AxOperands {
  AxOperands(int degree, std::size_t n_elements) : ref(degree) {
    const std::size_t ppe = ref.points_per_element();
    const std::size_t n = n_elements * ppe;
    u.resize(n);
    w.assign(n, 0.0);
    g.resize(n_elements * sem::geom_block_size(ppe));
    SplitMix64 rng(7);
    for (double& v : u) {
      v = rng.uniform(-1.0, 1.0);
    }
    for (double& v : g) {
      v = rng.uniform(0.1, 1.0);
    }
    args.u = u;
    args.w = w;
    args.g = g;
    args.dx = std::span<const double>(ref.deriv().d.data(), ref.deriv().d.size());
    args.dxt = std::span<const double>(ref.deriv().dt.data(), ref.deriv().dt.size());
    args.n1d = ref.n1d();
    args.n_elements = n_elements;
  }
  sem::ReferenceElement ref;
  aligned_vector<double> u, w, g;
  kernels::AxArgs args;
};

/// Times one (variant, threads) configuration: one untimed warm-up apply
/// (pages, caches, OpenMP pool), then repeat until `min_time` accumulates;
/// returns mean seconds per apply.
inline double time_apply(kernels::AxVariant variant, const kernels::AxArgs& args,
                         int threads, double min_time) {
  const kernels::AxExecPolicy policy{threads};
  kernels::ax_run(variant, args, policy);
  Timer timer;
  int iters = 0;
  do {
    kernels::ax_run(variant, args, policy);
    ++iters;
  } while (timer.seconds() < min_time);
  return timer.seconds() / iters;
}

/// Assembled-operator operands for the fused-vs-split rungs: a real box
/// mesh (nearest cube to `target_elements`) plus its assembled system, so
/// the timed apply is the solver's actual w = mask(QQ^T(A u)) hot path with
/// a genuine gather-scatter schedule — not just the element kernel.  The
/// operator defaults to Poisson (BK3/Nekbone); kHelmholtz times the BK5
/// operator H = A + lambda B through the same protocol.
struct SystemOperands {
  explicit SystemOperands(int degree, std::size_t target_elements,
                          solver::OperatorKind kind = solver::OperatorKind::kPoisson,
                          double lambda = 1.0)
      : mesh(make_mesh(degree, target_elements)),
        system_ptr(kind == solver::OperatorKind::kHelmholtz
                       ? std::make_unique<solver::HelmholtzSystem>(mesh, lambda)
                       : std::make_unique<solver::PoissonSystem>(mesh)),
        system(*system_ptr) {
    const std::size_t n = system.n_local();
    u.resize(n);
    w.assign(n, 0.0);
    SplitMix64 rng(11);
    for (double& v : u) {
      v = rng.uniform(-1.0, 1.0);
    }
  }
  SystemOperands(const SystemOperands&) = delete;
  SystemOperands& operator=(const SystemOperands&) = delete;

  [[nodiscard]] std::size_t n_elements() const { return mesh.n_elements(); }

  static sem::Mesh make_mesh(int degree, std::size_t target_elements) {
    const int nel = static_cast<int>(
        std::lround(std::cbrt(static_cast<double>(target_elements))));
    sem::BoxMeshSpec spec;
    spec.degree = degree;
    spec.nelx = spec.nely = spec.nelz = nel > 1 ? nel : 1;
    return sem::box_mesh(spec);
  }

  sem::Mesh mesh;
  std::unique_ptr<solver::PoissonSystem> system_ptr;
  solver::PoissonSystem& system;
  aligned_vector<double> u, w;
};

/// Times the full assembled apply under the system's current fused/threads
/// settings, with the same warm-up-then-repeat protocol as time_apply.
inline double time_system_apply(SystemOperands& ops, double min_time) {
  const std::span<const double> u(ops.u.data(), ops.u.size());
  const std::span<double> w(ops.w.data(), ops.w.size());
  ops.system.apply(u, w);
  Timer timer;
  int iters = 0;
  do {
    ops.system.apply(u, w);
    ++iters;
  } while (timer.seconds() < min_time);
  return timer.seconds() / iters;
}

}  // namespace semfpga::bench
