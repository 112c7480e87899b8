/// Cross-layout oracle: the element-blocked geometric-factor layout must not
/// change a single bit of any Ax variant.
///
/// This file keeps test-local copies of the Ax element bodies as they were
/// written against the interleaved layout g[(e*ppe + ijk)*6 + c] (paper
/// Listing 1's `gxyz`): the Listing-1 reference body, the compile-time
/// i-vectorised fixed body, and the Nekbone mxm structure.  They run on an
/// interleaved transposition of the library's element-blocked factors and
/// must reproduce the library's reference, fixed, mxm and mxm_blocked
/// outputs exactly, for every order the fixed dispatch instantiates.

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "kernels/ax_dispatch.hpp"
#include "kernels/mxm.hpp"
#include "sem/geometry.hpp"

namespace semfpga::kernels {
namespace {

constexpr std::size_t kComps = sem::kGeomComponents;

/// Listing-1 reference body over interleaved G.
void interleaved_reference(const double* u, double* w, const double* g, const double* dx,
                           const double* dxt, int nx) {
  const std::size_t n = static_cast<std::size_t>(nx);
  std::vector<double> shur(n * n * n), shus(n * n * n), shut(n * n * n);
  for (int k = 0; k < nx; ++k) {
    for (int j = 0; j < nx; ++j) {
      for (int i = 0; i < nx; ++i) {
        const std::size_t ijk = static_cast<std::size_t>(i) + n * j + n * n * k;
        double rtmp = 0.0;
        double stmp = 0.0;
        double ttmp = 0.0;
        for (int l = 0; l < nx; ++l) {
          rtmp += dx[static_cast<std::size_t>(i) * n + l] *
                  u[static_cast<std::size_t>(l) + n * j + n * n * k];
          stmp += dx[static_cast<std::size_t>(j) * n + l] *
                  u[static_cast<std::size_t>(i) + n * l + n * n * k];
          ttmp += dx[static_cast<std::size_t>(k) * n + l] *
                  u[static_cast<std::size_t>(i) + n * j + n * n * l];
        }
        const double* gp = g + ijk * kComps;
        shur[ijk] = gp[sem::kGrr] * rtmp + gp[sem::kGrs] * stmp + gp[sem::kGrt] * ttmp;
        shus[ijk] = gp[sem::kGrs] * rtmp + gp[sem::kGss] * stmp + gp[sem::kGst] * ttmp;
        shut[ijk] = gp[sem::kGrt] * rtmp + gp[sem::kGst] * stmp + gp[sem::kGtt] * ttmp;
      }
    }
  }
  for (int k = 0; k < nx; ++k) {
    for (int j = 0; j < nx; ++j) {
      for (int i = 0; i < nx; ++i) {
        const std::size_t ijk = static_cast<std::size_t>(i) + n * j + n * n * k;
        double acc = 0.0;
        for (int l = 0; l < nx; ++l) {
          acc += dxt[static_cast<std::size_t>(i) * n + l] *
                 shur[static_cast<std::size_t>(l) + n * j + n * n * k];
          acc += dxt[static_cast<std::size_t>(j) * n + l] *
                 shus[static_cast<std::size_t>(i) + n * l + n * n * k];
          acc += dxt[static_cast<std::size_t>(k) * n + l] *
                 shut[static_cast<std::size_t>(i) + n * j + n * n * l];
        }
        w[ijk] = acc;
      }
    }
  }
}

/// The compile-time-order fixed body over interleaved G: derivative rows
/// built in rtmp/stmp/ttmp arrays, vectorised over i.
template <int NX>
void interleaved_fixed(const double* __restrict u, double* __restrict w,
                       const double* __restrict g, const double* __restrict dx,
                       const double* __restrict dxt) {
  constexpr std::size_t n = NX;
  constexpr std::size_t n2 = n * n;
  std::vector<double> shur_v(n2 * n), shus_v(n2 * n), shut_v(n2 * n);
  double* __restrict shur = shur_v.data();
  double* __restrict shus = shus_v.data();
  double* __restrict shut = shut_v.data();
  for (int k = 0; k < NX; ++k) {
    for (int j = 0; j < NX; ++j) {
      const std::size_t row = n * static_cast<std::size_t>(j) + n2 * static_cast<std::size_t>(k);
      double rtmp[NX] = {};
      double stmp[NX] = {};
      double ttmp[NX] = {};
      for (int l = 0; l < NX; ++l) {
        const double u_l = u[static_cast<std::size_t>(l) + row];
        const double* dxt_l = dxt + static_cast<std::size_t>(l) * n;
        const double d_jl = dx[static_cast<std::size_t>(j) * n + l];
        const double d_kl = dx[static_cast<std::size_t>(k) * n + l];
        const double* u_s = u + n * static_cast<std::size_t>(l) + n2 * static_cast<std::size_t>(k);
        const double* u_t = u + n * static_cast<std::size_t>(j) + n2 * static_cast<std::size_t>(l);
#pragma omp simd
        for (int i = 0; i < NX; ++i) {
          rtmp[i] += u_l * dxt_l[i];
          stmp[i] += d_jl * u_s[i];
          ttmp[i] += d_kl * u_t[i];
        }
      }
#pragma omp simd
      for (int i = 0; i < NX; ++i) {
        const std::size_t ijk = static_cast<std::size_t>(i) + row;
        const double* gp = g + ijk * kComps;
        shur[ijk] = gp[sem::kGrr] * rtmp[i] + gp[sem::kGrs] * stmp[i] + gp[sem::kGrt] * ttmp[i];
        shus[ijk] = gp[sem::kGrs] * rtmp[i] + gp[sem::kGss] * stmp[i] + gp[sem::kGst] * ttmp[i];
        shut[ijk] = gp[sem::kGrt] * rtmp[i] + gp[sem::kGst] * stmp[i] + gp[sem::kGtt] * ttmp[i];
      }
    }
  }
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

/// Runtime n1d -> interleaved_fixed<NX> over [kAxFixedMinN1d, kAxFixedMaxN1d].
template <int... Ns>
void interleaved_fixed_dispatch(std::integer_sequence<int, Ns...>, int nx, const double* u,
                                double* w, const double* g, const double* dx,
                                const double* dxt) {
  const bool hit = ((nx == Ns + kAxFixedMinN1d
                         ? (interleaved_fixed<Ns + kAxFixedMinN1d>(u, w, g, dx, dxt), true)
                         : false) ||
                    ...);
  ASSERT_TRUE(hit) << "no fixed body for n1d " << nx;
}

/// Nekbone local_grad3 structure over interleaved G.
void interleaved_mxm(const double* u, double* w, const double* g, const double* dx,
                     const double* dxt, int nx, bool blocked) {
  const std::size_t n = static_cast<std::size_t>(nx);
  const std::size_t n2 = n * n;
  const std::size_t ppe = n2 * n;
  const auto product = [blocked](const double* a, std::size_t n1, const double* b,
                                 std::size_t nn2, double* c, std::size_t n3) {
    blocked ? mxm_blocked(a, n1, b, nn2, c, n3) : mxm(a, n1, b, nn2, c, n3);
  };
  const auto product_acc = [blocked](const double* a, std::size_t n1, const double* b,
                                     std::size_t nn2, double* c, std::size_t n3) {
    blocked ? mxm_blocked_acc(a, n1, b, nn2, c, n3) : mxm_acc(a, n1, b, nn2, c, n3);
  };
  std::vector<double> ur(ppe), us(ppe), ut(ppe);
  product(u, n2, dxt, n, ur.data(), n);
  for (std::size_t k = 0; k < n; ++k) {
    product(dx, n, u + k * n2, n, us.data() + k * n2, n);
  }
  product(dx, n, u, n, ut.data(), n2);
  for (std::size_t p = 0; p < ppe; ++p) {
    const double* gp = g + p * kComps;
    const double r = ur[p];
    const double s = us[p];
    const double t = ut[p];
    ur[p] = gp[sem::kGrr] * r + gp[sem::kGrs] * s + gp[sem::kGrt] * t;
    us[p] = gp[sem::kGrs] * r + gp[sem::kGss] * s + gp[sem::kGst] * t;
    ut[p] = gp[sem::kGrt] * r + gp[sem::kGst] * s + gp[sem::kGtt] * t;
  }
  product(ur.data(), n2, dx, n, w, n);
  for (std::size_t k = 0; k < n; ++k) {
    product_acc(dxt, n, us.data() + k * n2, n, w + k * n2, n);
  }
  product_acc(dxt, n, ut.data(), n, w, n2);
}

/// Interleaved transposition of the element-blocked factors.
std::vector<double> interleave(const sem::GeomFactors& gf) {
  std::vector<double> out(gf.g.size());
  for (std::size_t e = 0; e < gf.n_elements; ++e) {
    for (std::size_t ijk = 0; ijk < gf.ppe; ++ijk) {
      for (int c = 0; c < sem::kGeomComponents; ++c) {
        out[(e * gf.ppe + ijk) * kComps + static_cast<std::size_t>(c)] = gf.at(e, ijk, c);
      }
    }
  }
  return out;
}

void expect_bitwise(const std::vector<double>& got, const std::vector<double>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t p = 0; p < got.size(); ++p) {
    ASSERT_EQ(std::memcmp(&got[p], &want[p], sizeof(double)), 0)
        << what << " dof " << p << ": " << got[p] << " vs " << want[p];
  }
}

using OracleCase = std::tuple<int, sem::Deformation>;

class LayoutOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(LayoutOracle, InterleavedBodiesMatchEveryVariantBitwise) {
  const auto [degree, deformation] = GetParam();
  const sem::ReferenceElement ref(degree);
  sem::BoxMeshSpec spec;
  spec.degree = degree;
  spec.nelx = spec.nely = spec.nelz = 2;
  spec.deformation = deformation;
  spec.deformation_amplitude = 0.04;
  const sem::Mesh mesh(spec, ref);
  const sem::GeomFactors gf = sem::geometric_factors(mesh, ref);
  const std::vector<double> gi = interleave(gf);

  const std::size_t n = mesh.n_local();
  const std::size_t ppe = gf.ppe;
  const int nx = ref.n1d();
  std::vector<double> u(n);
  SplitMix64 rng(4000 + static_cast<std::uint64_t>(degree));
  for (double& v : u) {
    v = rng.uniform(-1.0, 1.0);
  }
  const double* dx = ref.deriv().d.data();
  const double* dxt = ref.deriv().dt.data();

  std::vector<double> old_ref(n), old_fixed(n), old_mxm(n), old_mxm_blocked(n);
  for (std::size_t e = 0; e < gf.n_elements; ++e) {
    const double* ue = u.data() + e * ppe;
    const double* ge = gi.data() + e * ppe * kComps;
    interleaved_reference(ue, old_ref.data() + e * ppe, ge, dx, dxt, nx);
    interleaved_fixed_dispatch(
        std::make_integer_sequence<int, kAxFixedMaxN1d - kAxFixedMinN1d + 1>{}, nx, ue,
        old_fixed.data() + e * ppe, ge, dx, dxt);
    interleaved_mxm(ue, old_mxm.data() + e * ppe, ge, dx, dxt, nx, /*blocked=*/false);
    interleaved_mxm(ue, old_mxm_blocked.data() + e * ppe, ge, dx, dxt, nx,
                    /*blocked=*/true);
  }

  AxArgs args;
  args.u = u;
  args.g = std::span<const double>(gf.g.data(), gf.g.size());
  args.dx = std::span<const double>(ref.deriv().d.data(), ref.deriv().d.size());
  args.dxt = std::span<const double>(ref.deriv().dt.data(), ref.deriv().dt.size());
  args.n1d = nx;
  args.n_elements = gf.n_elements;
  const std::pair<AxVariant, const std::vector<double>*> checks[] = {
      {AxVariant::kReference, &old_ref},
      {AxVariant::kFixed, &old_fixed},
      {AxVariant::kMxm, &old_mxm},
      {AxVariant::kMxmBlocked, &old_mxm_blocked},
  };
  for (const auto& [variant, want] : checks) {
    for (const int threads : {1, 3}) {
      std::vector<double> w(n, -1.0);
      args.w = w;
      ax_run(variant, args, AxExecPolicy{threads});
      expect_bitwise(w, *want,
                     std::string(ax_variant_name(variant)) + " threads " +
                         std::to_string(threads));
    }
  }
  // The single-element helper reads the same layout.
  std::vector<double> w_one(ppe);
  ax_single_element(ref, gf, gf.n_elements - 1,
                    std::span<const double>(u.data() + (gf.n_elements - 1) * ppe, ppe),
                    w_one);
  expect_bitwise(w_one,
                 std::vector<double>(old_ref.end() - static_cast<long>(ppe), old_ref.end()),
                 "ax_single_element");
}

INSTANTIATE_TEST_SUITE_P(
    AllFixedOrders, LayoutOracle,
    ::testing::Combine(::testing::Range(1, 17),
                       ::testing::Values(sem::Deformation::kSine,
                                         sem::Deformation::kTwist)),
    [](const ::testing::TestParamInfo<OracleCase>& tpi) {
      std::string name = "N";
      name += std::to_string(std::get<0>(tpi.param));
      name += std::get<1>(tpi.param) == sem::Deformation::kSine ? "_sine" : "_twist";
      return name;
    });

}  // namespace
}  // namespace semfpga::kernels
