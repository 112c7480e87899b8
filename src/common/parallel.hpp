#pragma once
/// \file parallel.hpp
/// Thread-parallel execution helpers for the host hot path.
///
/// The paper's CPU baseline runs Nekbone one-MPI-rank-per-core; here the
/// same element-level parallelism is expressed with OpenMP threads.  Two
/// primitives cover every hot loop in the repository:
///
///  * parallel_for     — a static-schedule loop over [0, n)
///  * chunked_reduce   — a sum reduction with a *fixed* chunk decomposition,
///                       so the result is bitwise identical for any thread
///                       count (partials are combined serially in chunk
///                       order).  This keeps CG iteration counts and
///                       residual histories independent of --threads.
///  * segmented_reduce — the distributed-ready reduction: fixed segments
///                       (the solver uses one z element layer per segment)
///                       each produce a chunk-order partial, and the
///                       segment partials combine through a fixed binary
///                       tree (tree_fold).  A z-slab rank always owns whole
///                       segments, so the SPMD runtime's allreduce — gather
///                       every rank's segment partials, tree-fold them in
///                       canonical segment order — is bitwise identical to
///                       the single-rank reduction at any rank count.
///
/// Thread-count convention used across the library: 1 = serial, k > 1 = k
/// OpenMP threads, 0 = all hardware threads.  Without OpenMP every call
/// degrades to the serial loop.

#include <cstddef>
#include <utility>
#include <vector>

#if defined(SEMFPGA_HAVE_OPENMP)
#include <omp.h>
#endif

namespace semfpga {

/// Threads available to OpenMP (1 when built without OpenMP).
[[nodiscard]] inline int hardware_threads() noexcept {
#if defined(SEMFPGA_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Maps the 0-means-everything convention to a concrete positive count.
[[nodiscard]] inline int resolve_threads(int requested) noexcept {
  return requested > 0 ? requested : hardware_threads();
}

/// Runs fn(i) for i in [0, n), statically partitioned over `threads`
/// (unused on the serial fallback built without OpenMP).
template <class Fn>
void parallel_for(std::size_t n, [[maybe_unused]] int threads, Fn&& fn) {
#if defined(SEMFPGA_HAVE_OPENMP)
  const int t = resolve_threads(threads);
  if (t > 1 && n > 1) {
#pragma omp parallel for schedule(static) num_threads(t)
    for (long long i = 0; i < static_cast<long long>(n); ++i) {
      fn(static_cast<std::size_t>(i));
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    fn(i);
  }
}

/// Partitions [0, n) into `parts` near-equal contiguous ranges and runs
/// fn(part_index, begin, end) for each in parallel.  Used where each worker
/// wants private scratch amortised over a whole block of iterations.
template <class Fn>
void parallel_blocks(std::size_t n, int threads, Fn&& fn) {
  const int t = resolve_threads(threads);
  const std::size_t parts = static_cast<std::size_t>(t) < n ? static_cast<std::size_t>(t)
                                                            : (n > 0 ? n : 1);
  parallel_for(parts, threads, [&](std::size_t p) {
    const std::size_t begin = n * p / parts;
    const std::size_t end = n * (p + 1) / parts;
    if (begin < end) {
      fn(p, begin, end);
    }
  });
}

/// Fixed chunk length of chunked_reduce; independent of the thread count so
/// reductions are deterministic under re-threading.
inline constexpr std::size_t kReductionChunk = 4096;

/// Sum reduction over [0, n): chunk_fn(begin, end) returns the partial sum
/// of one fixed-size chunk; partials are accumulated serially in chunk
/// order.  The chunk bodies may also update vectors (fused axpy+dot passes).
template <class ChunkFn>
[[nodiscard]] double chunked_reduce(std::size_t n, int threads, ChunkFn&& chunk_fn) {
  if (n == 0) {
    return 0.0;
  }
  const std::size_t n_chunks = (n + kReductionChunk - 1) / kReductionChunk;
  if (n_chunks == 1 || resolve_threads(threads) <= 1) {
    double acc = 0.0;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t begin = c * kReductionChunk;
      const std::size_t end = begin + kReductionChunk < n ? begin + kReductionChunk : n;
      acc += chunk_fn(begin, end);
    }
    return acc;
  }
  std::vector<double> partial(n_chunks);
  parallel_for(n_chunks, threads, [&](std::size_t c) {
    const std::size_t begin = c * kReductionChunk;
    const std::size_t end = begin + kReductionChunk < n ? begin + kReductionChunk : n;
    partial[c] = chunk_fn(begin, end);
  });
  double acc = 0.0;
  for (const double p : partial) {
    acc += p;
  }
  return acc;
}

/// Deterministic binary-tree fold of `values` in place: adjacent pairs sum
/// level by level (an odd tail element passes through).  The association
/// depends only on values.size(), never on thread or rank counts, so the
/// single-rank solve and the SPMD runtime's allreduce — which both fold the
/// same canonical vector of segment partials — agree bit for bit.
[[nodiscard]] inline double tree_fold(std::vector<double>& values) noexcept {
  if (values.empty()) {
    return 0.0;
  }
  std::size_t n = values.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    for (std::size_t i = 0; i < half; ++i) {
      values[i] = values[2 * i] + values[2 * i + 1];
    }
    if (n % 2 != 0) {
      values[half] = values[n - 1];
    }
    n = half + n % 2;
  }
  return values[0];
}

/// Fills `partials[s]` with the chunk-order partial sum of segment s —
/// chunk_fn(begin, end) over the fixed kReductionChunk grid *anchored at
/// the segment start* — for the ceil(n / segment) segments of [0, n).
/// Chunks never span a segment boundary, so a rank that owns segments
/// [s0, s1) of a larger vector computes, from its local slice alone, the
/// exact partials the single-rank sweep computes for those segments.
/// All (segment, chunk) pairs run in parallel; partials are deterministic
/// for any thread count.
template <class ChunkFn>
void segment_partials(std::size_t n, std::size_t segment, int threads,
                      ChunkFn&& chunk_fn, std::vector<double>& partials) {
  const std::size_t n_segments = segment > 0 ? (n + segment - 1) / segment : 0;
  partials.assign(n_segments, 0.0);
  if (n == 0 || n_segments == 0) {
    return;
  }
  const std::size_t chunks_per_segment =
      (segment + kReductionChunk - 1) / kReductionChunk;
  // One flat index space over (segment, chunk) so short segments still fill
  // every worker; per-chunk sums land in a fixed slot and combine serially
  // per segment, in chunk order.  With one chunk per segment (every element
  // of order N <= 15) the slots are the partials themselves, combined in
  // place, and nothing is allocated.
  const std::size_t n_tasks = n_segments * chunks_per_segment;
  std::vector<double> scratch(chunks_per_segment > 1 ? n_tasks : 0, 0.0);
  std::vector<double>& chunk_sums = chunks_per_segment > 1 ? scratch : partials;
  parallel_for(n_tasks, threads, [&](std::size_t t) {
    const std::size_t s = t / chunks_per_segment;
    const std::size_t c = t % chunks_per_segment;
    const std::size_t seg_begin = s * segment;
    const std::size_t seg_end = seg_begin + segment < n ? seg_begin + segment : n;
    const std::size_t begin = seg_begin + c * kReductionChunk;
    if (begin >= seg_end) {
      return;
    }
    const std::size_t end =
        begin + kReductionChunk < seg_end ? begin + kReductionChunk : seg_end;
    chunk_sums[t] = chunk_fn(begin, end);
  });
  for (std::size_t s = 0; s < n_segments; ++s) {
    double acc = 0.0;
    for (std::size_t c = 0; c < chunks_per_segment; ++c) {
      const std::size_t begin = s * segment + c * kReductionChunk;
      if (begin >= n || begin >= (s + 1) * segment) {
        break;
      }
      acc += chunk_sums[s * chunks_per_segment + c];
    }
    partials[s] = acc;
  }
}

/// Segment-hierarchical sum reduction over [0, n): per-segment chunk-order
/// partials combined by tree_fold.  The solver's canonical dot product —
/// segment = one element — and the building block the SPMD runtime's
/// distributed dots reproduce exactly (see segment_partials).  `partials`
/// is caller-owned scratch, so a caller that reduces every iteration
/// (CpuBackend) allocates it once.
template <class ChunkFn>
[[nodiscard]] double segmented_reduce(std::size_t n, std::size_t segment, int threads,
                                      ChunkFn&& chunk_fn, std::vector<double>& partials) {
  if (n == 0) {
    return 0.0;
  }
  if (segment == 0 || segment >= n) {
    return chunked_reduce(n, threads, chunk_fn);
  }
  segment_partials(n, segment, threads, chunk_fn, partials);
  return tree_fold(partials);
}

/// segmented_reduce with its own scratch.
template <class ChunkFn>
[[nodiscard]] double segmented_reduce(std::size_t n, std::size_t segment, int threads,
                                      ChunkFn&& chunk_fn) {
  std::vector<double> partials;
  return segmented_reduce(n, segment, threads, std::forward<ChunkFn>(chunk_fn), partials);
}

}  // namespace semfpga
