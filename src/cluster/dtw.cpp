#include "cluster/dtw.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exec/cancel.hpp"
#include "exec/thread_pool.hpp"
#include "linalg/simd/simd.hpp"
#include "obs/metrics.hpp"

namespace atm::cluster {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

double dtw_distance(std::span<const double> p, std::span<const double> q,
                    int band, simd::DtwScratch& scratch) {
    const std::size_t n = p.size();
    const std::size_t m = q.size();
    if (n == 0 && m == 0) return 0.0;
    if (n == 0 || m == 0) return kInf;
    const double* ps = p.data();
    const double* qs = q.data();
    double out = 0.0;
    simd::active_kernels().dtw_distance_batch(&ps, &qs, 1, n, m, band, scratch,
                                              &out);
    return out;
}

double dtw_distance(std::span<const double> p, std::span<const double> q, int band) {
    simd::DtwScratch scratch;
    return dtw_distance(p, q, band, scratch);
}

std::uint64_t dtw_cell_count(std::size_t n, std::size_t m, int band) {
    if (n == 0 || m == 0) return 0;
    if (band < 0) return static_cast<std::uint64_t>(n) * m;
    const double slope =
        n > 1 ? static_cast<double>(m) / static_cast<double>(n) : 1.0;
    std::uint64_t total = 0;
    for (std::size_t i = 1; i <= n; ++i) {
        const double center = slope * static_cast<double>(i);
        const auto lo = static_cast<long long>(std::floor(center)) - band;
        const auto hi = static_cast<long long>(std::ceil(center)) + band;
        const auto j_lo = std::max(1LL, lo);
        const auto j_hi = std::min(static_cast<long long>(m), hi);
        if (j_hi >= j_lo) total += static_cast<std::uint64_t>(j_hi - j_lo + 1);
    }
    return total;
}

la::FlatMatrix dtw_distance_matrix(
    const std::vector<std::vector<double>>& series, int band,
    exec::ThreadPool* pool, obs::MetricsRegistry* metrics,
    const exec::CancellationToken* cancel, simd::DtwScratch* caller_scratch) {
    const std::size_t n = series.size();
    la::FlatMatrix dist(n, n, 0.0);
    if (n < 2) return dist;

    // Balanced split of the upper triangle: the old one-task-per-row split
    // gave row i exactly n−i−1 pairs, so the first tasks carried most of
    // the load. Chunking the linearized pair index instead gives every
    // task within one pair of the same amount of work. Each pair writes
    // only its own cells (i, j) / (j, i), which no other chunk touches, so
    // the parallel and serial fills are bit-identical for any worker count
    // and chunk size. Metric writes from chunk tasks are integer counters
    // whose totals are chunking-invariant, so their merge is exact too.
    const std::uint64_t pairs =
        static_cast<std::uint64_t>(n) * (n - 1) / 2;
    const std::size_t participants = pool != nullptr ? pool->size() + 1 : 1;
    const auto chunks = static_cast<std::size_t>(
        std::min<std::uint64_t>(pairs, std::max<std::size_t>(1, 4 * participants)));
    const std::uint64_t per_chunk = (pairs + chunks - 1) / chunks;

    exec::parallel_for_each(pool, chunks, 0, [&](unsigned, std::size_t c) {
        const std::uint64_t begin = static_cast<std::uint64_t>(c) * per_chunk;
        const std::uint64_t end = std::min(pairs, begin + per_chunk);
        if (begin >= end) return;
        // Locate (i, j) of linear pair index `begin`: row i owns the
        // n−i−1 pair indices starting at offset(i).
        std::size_t i = 0;
        std::uint64_t offset = 0;
        while (offset + (n - i - 1) <= begin) {
            offset += n - i - 1;
            ++i;
        }
        std::size_t j = i + 1 + static_cast<std::size_t>(begin - offset);

        // Reused across the chunk's pairs. Serial runs (no pool) borrow
        // the caller's scratch when offered — the per-worker
        // arena-backed scratch of the fleet scheduler — so repeated
        // matrices stop re-growing DP rows. Pooled chunks run on
        // different threads and keep private scratch.
        simd::DtwScratch local_scratch;
        simd::DtwScratch& scratch =
            (pool == nullptr && caller_scratch != nullptr) ? *caller_scratch
                                                           : local_scratch;
        // Cell counting is only observable through the registry, and
        // dtw_cell_count walks every row — skip it entirely without a
        // registry and memoize per shape with one (consecutive pairs
        // nearly always share lengths).
        std::uint64_t cells = 0;
        std::size_t cc_n = std::numeric_limits<std::size_t>::max();
        std::size_t cc_m = std::numeric_limits<std::size_t>::max();
        std::uint64_t cc = 0;

        // Consecutive pairs with the same lengths flush through the
        // lane-batched kernel (one pair per SIMD lane, each lane's result
        // independent of its lane-mates — simd.hpp), so results and
        // counters are identical for any grouping, worker count, or path.
        const simd::KernelTable& kernels = simd::active_kernels();
        constexpr std::size_t kMaxBatch = 16;
        const std::size_t width = std::min(kernels.dtw_batch_width, kMaxBatch);
        const double* batch_p[kMaxBatch];
        const double* batch_q[kMaxBatch];
        std::size_t batch_i[kMaxBatch];
        std::size_t batch_j[kMaxBatch];
        std::size_t pending = 0;
        std::size_t batch_n = 0;
        std::size_t batch_m = 0;
        const auto flush = [&] {
            if (pending == 0) return;
            double out[kMaxBatch];
            kernels.dtw_distance_batch(batch_p, batch_q, pending, batch_n,
                                       batch_m, band, scratch, out);
            for (std::size_t b = 0; b < pending; ++b) {
                dist(batch_i[b], batch_j[b]) = out[b];
                dist(batch_j[b], batch_i[b]) = out[b];
            }
            pending = 0;
        };

        for (std::uint64_t k = begin; k < end; ++k) {
            // Cancellation point: one atomic load per O(len²) pair. The
            // exception is delivered by parallel_for_each after in-flight
            // chunks finish their current pair (a pending batch of other
            // pairs is abandoned uncomputed with the rest of the matrix).
            exec::checkpoint(cancel, "search.dtw");
            const std::size_t pn = series[i].size();
            const std::size_t qm = series[j].size();
            if (metrics != nullptr) {
                if (pn != cc_n || qm != cc_m) {
                    cc = dtw_cell_count(pn, qm, band);
                    cc_n = pn;
                    cc_m = qm;
                }
                cells += cc;
            }
            if (pn == 0 || qm == 0) {
                const double d = (pn == 0 && qm == 0) ? 0.0 : kInf;
                dist(i, j) = d;
                dist(j, i) = d;
            } else {
                if (pending == width ||
                    (pending > 0 && (pn != batch_n || qm != batch_m))) {
                    flush();
                }
                batch_n = pn;
                batch_m = qm;
                batch_p[pending] = series[i].data();
                batch_q[pending] = series[j].data();
                batch_i[pending] = i;
                batch_j[pending] = j;
                ++pending;
            }
            if (++j == n) {
                ++i;
                j = i + 1;
            }
        }
        flush();
        if (metrics != nullptr) {
            metrics->add("cluster.dtw.pairs", end - begin);
            metrics->add("cluster.dtw.cells", cells);
        }
    });
    return dist;
}

}  // namespace atm::cluster
