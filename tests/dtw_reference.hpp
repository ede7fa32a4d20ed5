#pragma once

// Test-local DTW oracles shared by test_kernels and test_simd: the
// paper's recurrence written out plainly, with no lanes, no scratch reuse
// and no band-window-only resets. Per-cell arithmetic (one subtract, one
// multiply, a three-way min, one add) is the kernel's, so every path must
// match these bit for bit on finite inputs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace atm::test {

inline constexpr double kDtwInf = std::numeric_limits<double>::infinity();

/// Textbook full-table DTW: λ(i, j) = (p_i − q_j)² + min{λ(i−1, j−1),
/// λ(i−1, j), λ(i, j−1)} over the whole (n+1) × (m+1) table, no band.
inline double reference_dtw_full(std::span<const double> p,
                                 std::span<const double> q) {
    const std::size_t n = p.size();
    const std::size_t m = q.size();
    if (n == 0 && m == 0) return 0.0;
    if (n == 0 || m == 0) return kDtwInf;
    std::vector<std::vector<double>> table(n + 1,
                                           std::vector<double>(m + 1, kDtwInf));
    table[0][0] = 0.0;
    for (std::size_t i = 1; i <= n; ++i) {
        for (std::size_t j = 1; j <= m; ++j) {
            const double diff = p[i - 1] - q[j - 1];
            const double d = diff * diff;
            const double best =
                std::min({table[i - 1][j - 1], table[i - 1][j], table[i][j - 1]});
            table[i][j] = best == kDtwInf ? kDtwInf : d + best;
        }
    }
    return table[n][m];
}

/// Banded row DP: per-call row allocations and a full O(m) reset of
/// every DP row. The Sakoe–Chiba window of half-width `band` is centred
/// on the length-normalized diagonal; band < 0 means unconstrained.
inline double reference_dtw_banded(std::span<const double> p,
                                   std::span<const double> q, int band) {
    const std::size_t n = p.size();
    const std::size_t m = q.size();
    if (n == 0 && m == 0) return 0.0;
    if (n == 0 || m == 0) return kDtwInf;
    std::vector<double> prev(m + 1, kDtwInf);
    std::vector<double> curr(m + 1, kDtwInf);
    prev[0] = 0.0;
    const double slope =
        n > 1 ? static_cast<double>(m) / static_cast<double>(n) : 1.0;
    for (std::size_t i = 1; i <= n; ++i) {
        std::fill(curr.begin(), curr.end(), kDtwInf);
        std::size_t j_lo = 1;
        std::size_t j_hi = m;
        if (band >= 0) {
            const double center = slope * static_cast<double>(i);
            const auto lo = static_cast<long long>(std::floor(center)) - band;
            const auto hi = static_cast<long long>(std::ceil(center)) + band;
            j_lo = static_cast<std::size_t>(std::max(1LL, lo));
            j_hi = static_cast<std::size_t>(
                std::min(static_cast<long long>(m), hi));
        }
        for (std::size_t j = j_lo; j <= j_hi; ++j) {
            const double diff = p[i - 1] - q[j - 1];
            const double d = diff * diff;
            const double best = std::min({prev[j - 1], prev[j], curr[j - 1]});
            curr[j] = best == kDtwInf ? kDtwInf : d + best;
        }
        std::swap(prev, curr);
    }
    return prev[m];
}

}  // namespace atm::test
