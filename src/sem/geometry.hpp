#pragma once
/// \file geometry.hpp
/// Geometric factors for the local Poisson operator.
///
/// Paper Section II: the matrix-free operator is w = D^T G D u per element,
/// where G holds, at every quadrature node, the symmetric 3x3 tensor
///   G = w_ijk |det J| J^{-1} J^{-T}
/// (J = d(x,y,z)/d(r,s,t)).  Six unique entries per DOF are stored, c in
/// {rr, rs, rt, ss, st, tt}.
///
/// Layout.  Listing 1 of the paper streams one interleaved array,
/// gxyz[c + 6*ijk]; its Section III-B splits that stream into six
/// per-component streams so the kernel reads every component with unit
/// stride.  This repository stores that split per element: element e owns
/// one contiguous block of 6*ppe doubles holding six component rows of ppe
/// entries each,
///     g[(e*6 + c)*ppe + ijk],
/// so an element body reads G exactly like it reads u (unit stride over
/// ijk, one row per component) and an element range is still one
/// contiguous slice of g.  Address g only through the helpers below.

#include <cstddef>

#include "common/aligned.hpp"
#include "sem/mesh.hpp"
#include "sem/reference_element.hpp"

namespace semfpga::sem {

/// Index of each unique entry of the symmetric geometric tensor.
enum GeomComponent : int {
  kGrr = 0,
  kGrs = 1,
  kGrt = 2,
  kGss = 3,
  kGst = 4,
  kGtt = 5,
};
inline constexpr int kGeomComponents = 6;

/// Doubles of geometric factors one element owns (six rows of ppe).
[[nodiscard]] constexpr std::size_t geom_block_size(std::size_t ppe) noexcept {
  return kGeomComponents * ppe;
}

/// Offset of element e's block in the element-blocked layout.
[[nodiscard]] constexpr std::size_t geom_block_offset(std::size_t ppe,
                                                      std::size_t e) noexcept {
  return e * geom_block_size(ppe);
}

/// Offset of component c's row inside one element block.
[[nodiscard]] constexpr std::size_t geom_row_offset(std::size_t ppe, int c) noexcept {
  return static_cast<std::size_t>(c) * ppe;
}

/// Index of entry (e, ijk, c): g[(e*6 + c)*ppe + ijk].
[[nodiscard]] constexpr std::size_t geom_index(std::size_t ppe, std::size_t e,
                                               std::size_t ijk, int c) noexcept {
  return geom_block_offset(ppe, e) + geom_row_offset(ppe, c) + ijk;
}

/// Geometric factors of every element of a mesh.
struct GeomFactors {
  int n1d = 0;
  std::size_t n_elements = 0;
  std::size_t ppe = 0;  ///< points per element

  /// Element-blocked component rows: g[(e*6 + c)*ppe + ijk] (see above).
  aligned_vector<double> g;

  /// Quadrature mass factor w_ijk * |det J| per DOF (used by the BK5-style
  /// Helmholtz variant and by right-hand-side assembly): [e*ppe + ijk].
  aligned_vector<double> mass;

  /// Raw Jacobian determinant per DOF (diagnostics / mesh validity checks).
  aligned_vector<double> jac_det;

  [[nodiscard]] double at(std::size_t e, std::size_t ijk, int c) const noexcept {
    return g[geom_index(ppe, e, ijk, c)];
  }

  /// Element e's block: six unit-stride component rows of ppe entries.
  [[nodiscard]] const double* element(std::size_t e) const noexcept {
    return g.data() + geom_block_offset(ppe, e);
  }
};

/// Computes geometric factors from nodal coordinates.  Derivatives of the
/// coordinate fields are taken with the spectral differentiation matrix, so
/// curved (deformed) elements are handled exactly up to interpolation order.
/// \throws std::invalid_argument if any nodal Jacobian determinant is <= 0.
[[nodiscard]] GeomFactors geometric_factors(const Mesh& mesh, const ReferenceElement& ref);

}  // namespace semfpga::sem
