#include <cstddef>
#include <vector>

#include "kernels/ax.hpp"
#include "kernels/ax_dispatch.hpp"

namespace semfpga::kernels {
namespace {

/// Compile-time-size element body, restructured for CPU SIMD: every inner
/// loop runs over the fastest index i with unit stride, and with NX a
/// constant the compiler fully unrolls the length-NX contraction loops —
/// the CPU analogue of the paper's HLS `#pragma unroll` on the dot-product
/// loops, plus the register blocking HLS gets from its shift registers.
template <int NX>
void ax_element_fixed(const double* __restrict u, double* __restrict w,
                      const double* __restrict g, const double* __restrict dx,
                      const double* __restrict dxt, double* __restrict shur,
                      double* __restrict shus, double* __restrict shut) {
  constexpr std::size_t n = NX;
  constexpr std::size_t n2 = n * n;
  constexpr std::size_t ppe = n2 * n;
  const double* __restrict grr = g + sem::geom_row_offset(ppe, sem::kGrr);
  const double* __restrict grs = g + sem::geom_row_offset(ppe, sem::kGrs);
  const double* __restrict grt = g + sem::geom_row_offset(ppe, sem::kGrt);
  const double* __restrict gss = g + sem::geom_row_offset(ppe, sem::kGss);
  const double* __restrict gst = g + sem::geom_row_offset(ppe, sem::kGst);
  const double* __restrict gtt = g + sem::geom_row_offset(ppe, sem::kGtt);
  // Gradient phase, one SIMD lane per i: each lane keeps its three
  // directional derivatives in registers across the unrolled l-contraction
  // and contracts them with its unit-stride G entries at once.  Derivative
  // rows accumulated in stack arrays instead get split by GCC into xmm
  // halves, spilled and reloaded as ymm — a store-forwarding stall that
  // measured 20-35% slower at NX = 4.  omp simd pins the vector dimension
  // to i; without it GCC vectorises the l-reduction instead, which
  // measures ~5x slower at NX = 8.
  for (int k = 0; k < NX; ++k) {
    for (int j = 0; j < NX; ++j) {
      const std::size_t row = n * static_cast<std::size_t>(j) + n2 * static_cast<std::size_t>(k);
      // d/dr: broadcast u[l,j,k], stream D^T rows; d/ds and d/dt:
      // broadcast the D entry, stream u rows.
      const double* u_r = u + row;
      const double* d_j = dx + n * static_cast<std::size_t>(j);
      const double* d_k = dx + n * static_cast<std::size_t>(k);
      const double* u_s = u + n2 * static_cast<std::size_t>(k);
      const double* u_t = u + n * static_cast<std::size_t>(j);
#pragma omp simd
      for (int i = 0; i < NX; ++i) {
        double r = 0.0;
        double s = 0.0;
        double t = 0.0;
        for (int l = 0; l < NX; ++l) {
          const std::size_t ll = static_cast<std::size_t>(l);
          r += u_r[ll] * dxt[n * ll + static_cast<std::size_t>(i)];
          s += d_j[ll] * u_s[n * ll + static_cast<std::size_t>(i)];
          t += d_k[ll] * u_t[n2 * ll + static_cast<std::size_t>(i)];
        }
        const std::size_t ijk = static_cast<std::size_t>(i) + row;
        shur[ijk] = grr[ijk] * r + grs[ijk] * s + grt[ijk] * t;
        shus[ijk] = grs[ijk] * r + gss[ijk] * s + gst[ijk] * t;
        shut[ijk] = grt[ijk] * r + gst[ijk] * s + gtt[ijk] * t;
      }
    }
  }
  // Divergence phase: w = D^T shur + D^T shus + D^T shut, again with all
  // inner loops unit-stride over i.
  for (int k = 0; k < NX; ++k) {
    for (int j = 0; j < NX; ++j) {
      const std::size_t row = n * static_cast<std::size_t>(j) + n2 * static_cast<std::size_t>(k);
      double acc[NX] = {};
      for (int l = 0; l < NX; ++l) {
        const double r_l = shur[static_cast<std::size_t>(l) + row];
        const double* dx_l = dx + static_cast<std::size_t>(l) * n;
        const double dt_jl = dxt[static_cast<std::size_t>(j) * n + l];
        const double dt_kl = dxt[static_cast<std::size_t>(k) * n + l];
        const double* s_row = shus + n * static_cast<std::size_t>(l) + n2 * static_cast<std::size_t>(k);
        const double* t_row = shut + n * static_cast<std::size_t>(j) + n2 * static_cast<std::size_t>(l);
#pragma omp simd
        for (int i = 0; i < NX; ++i) {
          acc[i] += r_l * dx_l[i] + dt_jl * s_row[i] + dt_kl * t_row[i];
        }
      }
      for (int i = 0; i < NX; ++i) {
        w[static_cast<std::size_t>(i) + row] = acc[i];
      }
    }
  }
}

}  // namespace

template <int N1D>
void ax_fixed_n1d(const AxArgs& args, std::size_t e_begin, std::size_t e_end) {
  constexpr std::size_t ppe = static_cast<std::size_t>(N1D) * N1D * N1D;
  // Per-thread scratch survives across calls, so short ranges (the fused
  // sweep's cache-sized chunks) pay no allocation.
  static thread_local std::vector<double> shur(ppe), shus(ppe), shut(ppe);
  for (std::size_t e = e_begin; e < e_end; ++e) {
    ax_element_fixed<N1D>(args.u.data() + e * ppe, args.w.data() + e * ppe,
                          args.geom(e), args.dx.data(), args.dxt.data(), shur.data(),
                          shus.data(), shut.data());
  }
}

template void ax_fixed_n1d<2>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<3>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<4>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<5>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<6>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<7>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<8>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<9>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<10>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<11>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<12>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<13>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<14>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<15>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<16>(const AxArgs&, std::size_t, std::size_t);
template void ax_fixed_n1d<17>(const AxArgs&, std::size_t, std::size_t);

void ax_fixed(const AxArgs& args) {
  args.validate();
  ax_run_range(AxVariant::kFixed, args, 0, args.n_elements);
}

}  // namespace semfpga::kernels
