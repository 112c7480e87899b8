#pragma once
/// \file fused_sweep.hpp
/// Library-internal core of the fused qqt-in-operator sweep.
///
/// One generic two-pass driver shared by the Poisson (`ax_run_fused`) and
/// the BK5 Helmholtz (`helmholtz_run_fused`) entry points: pass 1 runs the
/// engine's element batch in cache-sized chunks, hands each chunk to a
/// caller-supplied epilogue (the Helmholtz mass term; a no-op for Ax) and
/// then multiplies the chunk's Dirichlet interior DOFs by 0.0 while they
/// are still hot; pass 2 is the surface-only owner-computes reduction over
/// the shared CSR rows in the canonical layer-split order.
///
/// The epilogue contract is what keeps fused == split bitwise for any
/// operator built on this driver: it must perform, on elements
/// [e_begin, e_end), the identical per-DOF arithmetic the operator's split
/// batch performs — per-DOF independent work commutes with any element
/// partitioning, so chunking cannot change a single bit.

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/split_fold.hpp"
#include "kernels/ax_dispatch.hpp"
#include "obs/obs.hpp"

namespace semfpga::kernels::detail {

/// Elements per operator/epilogue interleave inside one worker block: large
/// enough to amortise per-range dispatch, small enough that the epilogues'
/// per-DOF updates find w still cache-hot.
inline constexpr std::size_t kFusedChunk = 8;

/// Validates the schedule bundle; returns true when the Dirichlet mask is
/// folded into the sweep (zero schedule + shared row mask supplied).
inline bool fused_sweep_validate(const AxArgs& args, const AxFusedScatter& fused) {
  SEMFPGA_CHECK(!fused.shared_offsets.empty(), "fused schedule has no shared rows");
  SEMFPGA_CHECK(fused.shared_positions.size() ==
                    static_cast<std::size_t>(fused.shared_offsets.back()),
                "fused schedule offsets and positions disagree");
  SEMFPGA_CHECK(fused.shared_splits.size() == fused.shared_offsets.size() - 1,
                "fused schedule needs one layer split per shared row");
  SEMFPGA_CHECK(fused.shared_positions32.empty() ||
                    fused.shared_positions32.size() == fused.shared_positions.size(),
                "32-bit shared schedule must mirror the 64-bit one");
  // A mesh can have no shared DOFs (single element), so the zero schedule —
  // always n_elements + 1 offsets when masking — is the masked indicator.
  const bool masked = !fused.zero_offsets.empty();
  SEMFPGA_CHECK(!masked || (fused.shared_mask.size() == fused.shared_offsets.size() - 1 &&
                            fused.zero_offsets.size() == args.n_elements + 1),
                "mask schedule has the wrong size");
  SEMFPGA_CHECK(masked || fused.shared_mask.empty(),
                "shared_mask and the zero schedule must be supplied together");
  return masked;
}

/// Pass 2 body over either index width: owner-computes sum of each shared
/// row of w in the canonical layer-split order — bitwise the sum qqt
/// computes — written back to every copy, scaled by the row's mask value
/// (all copies of a global DOF share it).  Workers own disjoint rows, so
/// this touches only the mesh surface instead of re-walking all n_local
/// DOFs (and the interior global offsets) the way the split qqt + mask
/// passes do.
template <class Index>
void fused_surface_pass(const AxArgs& args, const AxFusedScatter& fused,
                        std::span<const Index> positions, bool masked,
                        const AxExecPolicy& policy) {
  const std::size_t n_shared = fused.shared_offsets.size() - 1;
  parallel_for(n_shared, policy.threads, [&](std::size_t s) {
    const std::int64_t begin = fused.shared_offsets[s];
    const std::int64_t end = fused.shared_offsets[s + 1];
    // split_row_fold is the solver-wide canonical association — sharing it
    // with GatherScatter is what keeps fused == split bitwise.
    const double sum =
        split_row_fold<Index>(args.w, positions, begin, fused.shared_splits[s], end);
    const double out = masked ? sum * fused.shared_mask[s] : sum;
    for (std::int64_t k = begin; k < end; ++k) {
      args.w[static_cast<std::size_t>(positions[static_cast<std::size_t>(k)])] = out;
    }
  });
}

/// The generic fused operator + direct-stiffness sweep.  `epilogue(b, e)`
/// runs after the engine body on each element chunk [b, e), before the
/// chunk's Dirichlet zeroing — exactly where a per-DOF operator tail (the
/// Helmholtz mass term) must act so the masked values match the split
/// path's mask sweep bit for bit.  Callers validate `args` beforehand.
template <class ChunkEpilogue>
void fused_sweep(AxVariant variant, const AxArgs& args, const AxFusedScatter& fused,
                 const AxExecPolicy& policy, ChunkEpilogue&& epilogue) {
  const bool masked = fused_sweep_validate(args, fused);

  // Pass 1 (element-parallel): apply the local operator and the epilogue;
  // the Dirichlet zeroing multiplies the chunk's masked interior DOFs by
  // 0.0 while they are cache-hot — bitwise exactly what the split mask
  // sweep does to them, since multiplying the remaining DOFs by 1.0 would
  // change nothing.  Shared DOFs keep their unmasked values for the
  // owner-computes sum.  The two passes are separate spans, so a trace
  // shows how an apply splits between the element kernel and the surface.
  obs::Span element_span("apply.element");
  parallel_blocks(args.n_elements, policy.threads,
                  [&](std::size_t /*part*/, std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; c += kFusedChunk) {
      const std::size_t chunk_end = c + kFusedChunk < end ? c + kFusedChunk : end;
      ax_run_range(variant, args, c, chunk_end);
      epilogue(c, chunk_end);
      if (masked) {
        for (std::int64_t k = fused.zero_offsets[c]; k < fused.zero_offsets[chunk_end];
             ++k) {
          args.w[static_cast<std::size_t>(
              fused.zero_positions[static_cast<std::size_t>(k)])] *= 0.0;
        }
      }
    }
  });

  element_span.end();

  // Pass 2 (shared-DOF-parallel): the surface sweep, through the 32-bit
  // position schedule when the caller supplied one (half the index bytes,
  // identical positions and order).
  OBS_SPAN("apply.surface");
  if (!fused.shared_positions32.empty()) {
    fused_surface_pass<std::int32_t>(args, fused, fused.shared_positions32, masked,
                                     policy);
  } else {
    fused_surface_pass<std::int64_t>(args, fused, fused.shared_positions, masked,
                                     policy);
  }
}

}  // namespace semfpga::kernels::detail
