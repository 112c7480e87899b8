#include "sem/geometry.hpp"

#include <cmath>

#include "common/check.hpp"

namespace semfpga::sem {

GeomFactors geometric_factors(const Mesh& mesh, const ReferenceElement& ref) {
  SEMFPGA_CHECK(ref.degree() == mesh.degree(), "reference element degree mismatch");
  const int n1d = mesh.n1d();
  const std::size_t ppe = mesh.points_per_element();
  const std::size_t ne = mesh.n_elements();

  GeomFactors gf;
  gf.n1d = n1d;
  gf.n_elements = ne;
  gf.ppe = ppe;
  gf.g.assign(ne * geom_block_size(ppe), 0.0);
  gf.mass.assign(ne * ppe, 0.0);
  gf.jac_det.assign(ne * ppe, 0.0);

  const auto& d = ref.deriv().d;
  const auto& xs = mesh.x();
  const auto& ys = mesh.y();
  const auto& zs = mesh.z();

  // Derivative of a nodal coordinate field along one tensor direction.
  auto dtensor = [&](const aligned_vector<double>& f, std::size_t base, int i, int j,
                     int k, int dir) {
    double acc = 0.0;
    for (int l = 0; l < n1d; ++l) {
      double dv = 0.0;
      std::size_t idx = 0;
      switch (dir) {
        case 0:
          dv = d[static_cast<std::size_t>(i) * n1d + l];
          idx = ref.index(l, j, k);
          break;
        case 1:
          dv = d[static_cast<std::size_t>(j) * n1d + l];
          idx = ref.index(i, l, k);
          break;
        default:
          dv = d[static_cast<std::size_t>(k) * n1d + l];
          idx = ref.index(i, j, l);
          break;
      }
      acc += dv * f[base + idx];
    }
    return acc;
  };

  for (std::size_t e = 0; e < ne; ++e) {
    const std::size_t base = e * ppe;
    for (int k = 0; k < n1d; ++k) {
      for (int j = 0; j < n1d; ++j) {
        for (int i = 0; i < n1d; ++i) {
          const std::size_t ijk = ref.index(i, j, k);

          // Jacobian J[a][b] = d x_a / d xi_b at this node.
          double jm[3][3];
          for (int b = 0; b < 3; ++b) {
            jm[0][b] = dtensor(xs, base, i, j, k, b);
            jm[1][b] = dtensor(ys, base, i, j, k, b);
            jm[2][b] = dtensor(zs, base, i, j, k, b);
          }

          const double det = jm[0][0] * (jm[1][1] * jm[2][2] - jm[1][2] * jm[2][1]) -
                             jm[0][1] * (jm[1][0] * jm[2][2] - jm[1][2] * jm[2][0]) +
                             jm[0][2] * (jm[1][0] * jm[2][1] - jm[1][1] * jm[2][0]);
          SEMFPGA_CHECK(det > 0.0,
                        "element Jacobian must be positive (mesh is tangled or "
                        "deformation amplitude too large)");

          // Inverse Jacobian (d xi / d x) via the adjugate.
          double inv[3][3];
          inv[0][0] = (jm[1][1] * jm[2][2] - jm[1][2] * jm[2][1]) / det;
          inv[0][1] = (jm[0][2] * jm[2][1] - jm[0][1] * jm[2][2]) / det;
          inv[0][2] = (jm[0][1] * jm[1][2] - jm[0][2] * jm[1][1]) / det;
          inv[1][0] = (jm[1][2] * jm[2][0] - jm[1][0] * jm[2][2]) / det;
          inv[1][1] = (jm[0][0] * jm[2][2] - jm[0][2] * jm[2][0]) / det;
          inv[1][2] = (jm[0][2] * jm[1][0] - jm[0][0] * jm[1][2]) / det;
          inv[2][0] = (jm[1][0] * jm[2][1] - jm[1][1] * jm[2][0]) / det;
          inv[2][1] = (jm[0][1] * jm[2][0] - jm[0][0] * jm[2][1]) / det;
          inv[2][2] = (jm[0][0] * jm[1][1] - jm[0][1] * jm[1][0]) / det;

          const double w = ref.weight3d(i, j, k);
          const double scale = w * det;

          // G_ab = scale * sum_c inv[a][c] * inv[b][c]  (a,b index r,s,t).
          auto gab = [&inv, scale](int a, int b) {
            return scale * (inv[a][0] * inv[b][0] + inv[a][1] * inv[b][1] +
                            inv[a][2] * inv[b][2]);
          };

          double* ge = gf.g.data() + geom_block_offset(ppe, e) + ijk;
          ge[geom_row_offset(ppe, kGrr)] = gab(0, 0);
          ge[geom_row_offset(ppe, kGrs)] = gab(0, 1);
          ge[geom_row_offset(ppe, kGrt)] = gab(0, 2);
          ge[geom_row_offset(ppe, kGss)] = gab(1, 1);
          ge[geom_row_offset(ppe, kGst)] = gab(1, 2);
          ge[geom_row_offset(ppe, kGtt)] = gab(2, 2);

          gf.mass[base + ijk] = scale;
          gf.jac_det[base + ijk] = det;
        }
      }
    }
  }
  return gf;
}

}  // namespace semfpga::sem
