#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/flat_matrix.hpp"
#include "linalg/simd/simd.hpp"

namespace atm::exec {
class ThreadPool;
class CancellationToken;
}
namespace atm::obs {
class MetricsRegistry;
}

namespace atm::cluster {

/// Dynamic-time-warping dissimilarity between two series (Section III-A).
///
/// Implements the paper's recurrence exactly:
///   λ(i,j) = d(p_i, q_j) + min{λ(i−1,j−1), λ(i−1,j), λ(i,j−1)}
/// with squared pointwise distance d(p_i, q_j) = (p_i − q_j)².
/// Returns λ(n, m), the cumulative cost of the optimal warping path.
/// An empty series yields +infinity against a non-empty one and 0 against
/// another empty one.
///
/// `band` restricts the warp to a Sakoe–Chiba band of half-width `band`
/// around the diagonal (after length normalization); band < 0 (default)
/// means unconstrained. Banding is an optimization the paper does not
/// discuss; with band < 0 the result is the textbook DTW value.
///
/// The scratch overload reuses `scratch`'s DP rows instead of
/// allocating fresh storage (one scratch serves calls of any sizes); the
/// banded kernel touches only the band window, so it is O(band) per row
/// instead of O(m). Both overloads return bit-identical values. The pair
/// runs as a batch of one through the active path's
/// simd::KernelTable::dtw_distance_batch, which is bit-identical on every
/// path for finite inputs (simd.hpp's FP policy).
double dtw_distance(std::span<const double> p, std::span<const double> q,
                    int band, simd::DtwScratch& scratch);
double dtw_distance(std::span<const double> p, std::span<const double> q,
                    int band = -1);

/// Number of DP cells `dtw_distance` evaluates for series lengths (n, m)
/// at the given band — the unit of DTW work the metrics report counts.
/// Mirrors the banded loop bounds exactly, so instrumented cell counters
/// are exact, deterministic, and O(n) to compute (vs O(n·m) to run).
std::uint64_t dtw_cell_count(std::size_t n, std::size_t m, int band = -1);

/// Pairwise DTW distance matrix over a set of series, as one contiguous
/// n x n block. Symmetric with a zero diagonal; only the upper triangle
/// is computed. O(n² · len²) — the dominant cost of the DTW signature
/// search. When `pool` is non-null the upper triangle's pairs are split
/// into balanced contiguous chunks computed on the pool (each (i, j) cell
/// is written by exactly one chunk, so the result is bit-identical for
/// any worker count); each chunk reuses one simd::DtwScratch across its
/// pairs, keeping the pair loop allocation-free. When `metrics` is
/// non-null each chunk records `cluster.dtw.pairs` and
/// `cluster.dtw.cells` counters (from its worker thread — counters only,
/// per the obs determinism convention; totals are chunking-invariant).
/// When `cancel` is non-null it is checked once per pair ("search.dtw")
/// so a cancelled box abandons the O(n² · len²) loop promptly.
/// When `pool` is null and `scratch` is non-null, the serial pair loop
/// runs on the caller's scratch instead of a fresh one — the fleet
/// scheduler passes each worker's arena-backed scratch here so box after
/// box reuses the same high-water buffers (bit-identity is unaffected;
/// the scratch carries nothing between calls).
la::FlatMatrix dtw_distance_matrix(
    const std::vector<std::vector<double>>& series, int band = -1,
    exec::ThreadPool* pool = nullptr, obs::MetricsRegistry* metrics = nullptr,
    const exec::CancellationToken* cancel = nullptr,
    simd::DtwScratch* scratch = nullptr);

}  // namespace atm::cluster
