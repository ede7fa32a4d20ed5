// Differential/property suite for the SIMD kernel layer (ctest -L simd),
// under the policy documented in linalg/simd/simd.hpp: DTW distances of
// every compiled-and-supported path, scalar included, are bit-identical
// to the test-local row DP (dtw_reference.hpp) at every batch occupancy,
// and lane-batched MLP training is bit-identical to the scalar path.
// Shapes are chosen to hit every tail/remainder case of every lane width
// (2, 4, 8), batch sizes every partial/refilled lane pattern, and DTW
// inputs include NaN-gap series run through the pipeline's repair step.
//
// The whole binary also runs correctly with ATM_SIMD forced (CI does
// scalar + each runner ISA): differential tests compare explicit paths
// via simd::kernels_for and never depend on the ambient dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cluster/dtw.hpp"
#include "dtw_reference.hpp"
#include "forecast/nn.hpp"
#include "linalg/flat_matrix.hpp"
#include "linalg/simd/simd.hpp"
#include "obs/metrics.hpp"
#include "timeseries/repair.hpp"

namespace atm::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Restores the ambient dispatch on scope exit, so tests that call
/// set_path cannot leak a forced path into later tests.
class PathGuard {
  public:
    PathGuard() : saved_(active_path()) {}
    PathGuard(const PathGuard&) = delete;
    PathGuard& operator=(const PathGuard&) = delete;
    ~PathGuard() { set_path(saved_); }

  private:
    Path saved_;
};

const KernelTable& scalar_table() { return kernels_for(Path::kScalar); }

std::vector<Path> vector_paths() {
    std::vector<Path> paths;
    for (Path p : supported_paths()) {
        if (p != Path::kScalar) paths.push_back(p);
    }
    return paths;
}

std::vector<double> random_series(std::mt19937& rng, std::size_t len,
                                  double lo = 0.0, double hi = 100.0) {
    std::uniform_real_distribution<double> dist(lo, hi);
    std::vector<double> xs(len);
    for (double& x : xs) x = dist(rng);
    return xs;
}

// ---------------------------------------------------------------------
// Dispatch plumbing

TEST(SimdDispatchTest, PathNamesRoundTrip) {
    for (Path p : {Path::kScalar, Path::kAvx2, Path::kAvx512, Path::kNeon}) {
        EXPECT_EQ(parse_path(to_string(p)), p);
    }
    EXPECT_THROW(parse_path("sse2"), std::invalid_argument);
    EXPECT_THROW(parse_path(""), std::invalid_argument);
    EXPECT_THROW(parse_path("AVX2"), std::invalid_argument);
}

TEST(SimdDispatchTest, ScalarIsAlwaysCompiledAndSupported) {
    const std::vector<Path> compiled = compiled_paths();
    ASSERT_FALSE(compiled.empty());
    EXPECT_EQ(compiled.front(), Path::kScalar);
    const std::vector<Path> supported = supported_paths();
    ASSERT_FALSE(supported.empty());
    EXPECT_EQ(supported.front(), Path::kScalar);
    // Supported is a subset of compiled.
    for (Path p : supported) {
        EXPECT_NE(std::find(compiled.begin(), compiled.end(), p),
                  compiled.end());
    }
}

TEST(SimdDispatchTest, ActivePathIsSupportedAndTableMatches) {
    const Path active = active_path();
    const std::vector<Path> supported = supported_paths();
    EXPECT_NE(std::find(supported.begin(), supported.end(), active),
              supported.end());
    EXPECT_EQ(active_kernels().path, active);
    EXPECT_EQ(kernels_for(active).path, active);
}

TEST(SimdDispatchTest, SetPathForcesEveryCompiledSupportedPath) {
    const PathGuard guard;
    for (Path p : supported_paths()) {
        set_path(p);
        EXPECT_EQ(active_path(), p);
        EXPECT_EQ(active_kernels().path, p);
    }
}

TEST(SimdDispatchTest, UncompiledOrUnsupportedPathThrows) {
    // At most one of avx512/neon is available on any one machine, so at
    // least one of them must be rejected.
    const std::vector<Path> supported = supported_paths();
    int rejected = 0;
    for (Path p : {Path::kAvx2, Path::kAvx512, Path::kNeon}) {
        if (std::find(supported.begin(), supported.end(), p) !=
            supported.end()) {
            continue;
        }
        EXPECT_THROW(kernels_for(p), std::invalid_argument);
        EXPECT_THROW(set_path(p), std::invalid_argument);
        ++rejected;
    }
    EXPECT_GE(rejected, 1);
}

TEST(SimdDispatchTest, UlpDistance) {
    EXPECT_EQ(ulp_distance(1.0, 1.0), 0u);
    EXPECT_EQ(ulp_distance(0.0, -0.0), 0u);
    EXPECT_EQ(ulp_distance(1.0, std::nextafter(1.0, 2.0)), 1u);
    EXPECT_EQ(ulp_distance(1.0, std::nextafter(1.0, 0.0)), 1u);
    EXPECT_EQ(ulp_distance(kInf, kInf), 0u);
    EXPECT_EQ(ulp_distance(std::nan(""), 1.0), ~std::uint64_t{0});
    // Sign crossings are huge, never "close".
    EXPECT_GT(ulp_distance(-1.0, 1.0), std::uint64_t{1} << 60);
}

// ---------------------------------------------------------------------
// DTW: every path, scalar included, bit-identical to the reference

/// `kernels`' DTW of the pairs (ps[b], qs[b]), all of lengths n × m, as
/// one batch on `scratch`.
std::vector<double> dtw_batch(const KernelTable& kernels,
                              const std::vector<const double*>& ps,
                              const std::vector<const double*>& qs,
                              std::size_t n, std::size_t m, int band,
                              DtwScratch& scratch) {
    std::vector<double> out(ps.size(), -1.0);
    kernels.dtw_distance_batch(ps.data(), qs.data(), ps.size(), n, m, band,
                               scratch, out.data());
    return out;
}

/// Runs one (p, q, band) case through every path's batch kernel in every
/// lane, at each occupancy 1..dtw_batch_width, and requires each lane to
/// equal the reference row DP exactly (infinity included: narrow bands on
/// skewed lengths legitimately produce +inf). Each occupancy runs twice:
/// with one p shared by every lane (the kernel's broadcast branch) and
/// with a private copy of p per lane (its staged branch).
void expect_dtw_bitwise(const std::vector<double>& p,
                        const std::vector<double>& q, int band) {
    const double expected = test::reference_dtw_banded(p, q, band);
    if (band < 0) {
        ASSERT_EQ(expected, test::reference_dtw_full(p, q));
    }
    for (Path path : supported_paths()) {
        const KernelTable& kernels = kernels_for(path);
        DtwScratch scratch;
        for (std::size_t count = 1; count <= kernels.dtw_batch_width;
             ++count) {
            const std::vector<std::vector<double>> copies(count, p);
            for (const bool shared : {true, false}) {
                std::vector<const double*> ps;
                for (std::size_t b = 0; b < count; ++b) {
                    ps.push_back(shared ? p.data() : copies[b].data());
                }
                const std::vector<double> out =
                    dtw_batch(kernels, ps,
                              std::vector<const double*>(count, q.data()),
                              p.size(), q.size(), band, scratch);
                for (std::size_t b = 0; b < count; ++b) {
                    // EXPECT_EQ on doubles is bitwise here: values are
                    // either finite (never -0.0: sums of squares) or +inf.
                    EXPECT_EQ(expected, out[b])
                        << to_string(path) << " diverged at n=" << p.size()
                        << " m=" << q.size() << " band=" << band
                        << " count=" << count << " lane=" << b
                        << (shared ? " shared p" : " staged p");
                }
            }
        }
    }
}

TEST(SimdDtwTest, EqualLengthsAllBandsBitwise) {
    std::mt19937 rng(20160621);
    // Lengths straddle every vector width's tail cases (multiples of 2,
    // 4, 8 plus off-by-one on both sides) up to the fleet's 480.
    for (const std::size_t len : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{4},
                                  std::size_t{5}, std::size_t{7},
                                  std::size_t{8}, std::size_t{9},
                                  std::size_t{15}, std::size_t{16},
                                  std::size_t{17}, std::size_t{31},
                                  std::size_t{33}, std::size_t{96},
                                  std::size_t{100}, std::size_t{480}}) {
        const std::vector<double> p = random_series(rng, len);
        const std::vector<double> q = random_series(rng, len);
        for (const int band : {-1, 0, 1, 2, 3, 8, 17, 64, 1000}) {
            expect_dtw_bitwise(p, q, band);
        }
    }
}

TEST(SimdDtwTest, UnequalLengthsBitwise) {
    std::mt19937 rng(7);
    std::uniform_int_distribution<std::size_t> len_dist(1, 130);
    std::uniform_int_distribution<int> band_dist(-1, 20);
    for (int it = 0; it < 60; ++it) {
        const std::vector<double> p = random_series(rng, len_dist(rng));
        const std::vector<double> q = random_series(rng, len_dist(rng));
        expect_dtw_bitwise(p, q, band_dist(rng));
    }
}

TEST(SimdDtwTest, ExtremeSlopeEmptyDiagonalsBitwise) {
    // Narrow bands on very skewed lengths give consecutive row windows
    // that barely overlap, or not at all, so the rows' border resets
    // decide the result. Several of these are +inf end to end.
    std::mt19937 rng(99);
    for (const auto& [n, m] : std::vector<std::pair<std::size_t, std::size_t>>{
             {3, 100}, {100, 3}, {1, 5}, {5, 1}, {1, 1}, {2, 97}, {97, 2}}) {
        const std::vector<double> p = random_series(rng, n);
        const std::vector<double> q = random_series(rng, m);
        for (int band = 0; band <= 5; ++band) {
            expect_dtw_bitwise(p, q, band);
        }
    }
}

TEST(SimdDtwTest, RepairedGapSeriesBitwise) {
    // The pipeline's DTW inputs are repaired monitoring series: inject
    // zero-run gaps (how outages appear in traces), repair them, and
    // check the kernels on the result — values with flat interpolated
    // runs and exact repeats, adjacent to what were NaN-like gaps.
    std::mt19937 rng(4242);
    for (const std::size_t len :
         {std::size_t{96}, std::size_t{97}, std::size_t{192}}) {
        std::vector<double> p = random_series(rng, len, 1.0, 100.0);
        std::vector<double> q = random_series(rng, len, 1.0, 100.0);
        // Gaps at the front, middle, and back; min_run for find_gaps is 2.
        for (std::vector<double>* s : {&p, &q}) {
            (*s)[0] = 0.0;
            (*s)[1] = 0.0;
            const std::size_t mid = len / 2;
            (*s)[mid] = 0.0;
            (*s)[mid + 1] = 0.0;
            (*s)[len - 2] = 0.0;
            (*s)[len - 1] = 0.0;
        }
        const std::vector<double> pr =
            ts::repair_series(p, ts::RepairMethod::kSeasonal, 96);
        const std::vector<double> qr =
            ts::repair_series(q, ts::RepairMethod::kLinear, 96);
        for (const int band : {-1, 8}) {
            expect_dtw_bitwise(pr, qr, band);
        }
    }
}

TEST(SimdDtwTest, WorkspaceReuseAcrossSizesAndPaths) {
    // One scratch reused across wildly varying sizes, bands and batch
    // occupancies must still give the reference answer, on every path.
    // Lanes alternate between p and a copy of it, so every occupancy
    // above one stages p through the reused lane buffers.
    std::mt19937 rng(11);
    std::vector<std::pair<std::vector<double>, std::vector<double>>> cases;
    for (const std::size_t len : {std::size_t{63}, std::size_t{5},
                                  std::size_t{128}, std::size_t{1},
                                  std::size_t{31}}) {
        cases.emplace_back(random_series(rng, len), random_series(rng, len));
    }
    for (Path path : supported_paths()) {
        const KernelTable& kernels = kernels_for(path);
        DtwScratch reused;
        for (const auto& [p, q] : cases) {
            const std::vector<double> p_copy = p;
            for (const int band : {-1, 3}) {
                const double expected = test::reference_dtw_banded(p, q, band);
                for (std::size_t count = 1; count <= kernels.dtw_batch_width;
                     ++count) {
                    std::vector<const double*> ps;
                    for (std::size_t b = 0; b < count; ++b) {
                        ps.push_back(b % 2 == 0 ? p.data() : p_copy.data());
                    }
                    const std::vector<double> out =
                        dtw_batch(kernels, ps,
                                  std::vector<const double*>(count, q.data()),
                                  p.size(), q.size(), band, reused);
                    for (std::size_t b = 0; b < count; ++b) {
                        EXPECT_EQ(expected, out[b])
                            << to_string(path) << " n=" << p.size()
                            << " band=" << band << " count=" << count
                            << " lane=" << b;
                    }
                }
            }
        }
    }
}

TEST(SimdDtwTest, BatchKernelMatchesScalarPerPairBitwise) {
    // The batch kernel must reproduce the reference row DP per pair
    // bit-for-bit in every lane, for every occupancy count up to the
    // path's width, with a different pair in each lane, on shapes that
    // hit full windows, narrow bands, and extreme length ratios.
    std::mt19937 rng(31415);
    const std::vector<std::pair<std::size_t, std::size_t>> shapes{
        {1, 1}, {5, 5}, {17, 17}, {96, 96}, {480, 480}, {3, 100}, {97, 2}};
    for (Path path : supported_paths()) {
        const KernelTable& kernels = kernels_for(path);
        ASSERT_GE(kernels.dtw_batch_width, std::size_t{1}) << to_string(path);
        DtwScratch batch_scratch;  // reused across every call below
        for (const auto& [n, m] : shapes) {
            for (std::size_t count = 1; count <= kernels.dtw_batch_width;
                 ++count) {
                std::vector<std::vector<double>> p_data;
                std::vector<std::vector<double>> q_data;
                std::vector<const double*> ps;
                std::vector<const double*> qs;
                for (std::size_t b = 0; b < count; ++b) {
                    p_data.push_back(random_series(rng, n));
                    q_data.push_back(random_series(rng, m));
                    ps.push_back(p_data.back().data());
                    qs.push_back(q_data.back().data());
                }
                for (const int band : {-1, 0, 2, 8}) {
                    const std::vector<double> out =
                        dtw_batch(kernels, ps, qs, n, m, band, batch_scratch);
                    for (std::size_t b = 0; b < count; ++b) {
                        const double expected = test::reference_dtw_banded(
                            p_data[b], q_data[b], band);
                        EXPECT_EQ(expected, out[b])
                            << to_string(path) << " n=" << n << " m=" << m
                            << " band=" << band << " count=" << count
                            << " lane=" << b;
                    }
                }
            }
        }
    }
}

TEST(SimdDtwTest, DistanceMatrixMixedLengthsAndEmptiesAcrossPaths) {
    // Mixed lengths force the matrix loop to flush partial batches on
    // every shape change, and empty series must bypass the batch kernel
    // with the historical 0 / +inf results — all bit-identical to the
    // scalar path, counters included.
    std::mt19937 rng(777);
    std::vector<std::vector<double>> series;
    series.push_back(random_series(rng, 96));
    series.push_back(random_series(rng, 96));
    series.push_back(random_series(rng, 40));
    series.push_back({});
    series.push_back(random_series(rng, 96));
    series.push_back(random_series(rng, 40));
    series.push_back({});

    const PathGuard guard;
    set_path(Path::kScalar);
    obs::MetricsRegistry scalar_metrics;
    const la::FlatMatrix expected =
        cluster::dtw_distance_matrix(series, 8, nullptr, &scalar_metrics);
    for (Path path : vector_paths()) {
        set_path(path);
        obs::MetricsRegistry metrics;
        const la::FlatMatrix actual =
            cluster::dtw_distance_matrix(series, 8, nullptr, &metrics);
        for (std::size_t i = 0; i < series.size(); ++i) {
            for (std::size_t j = 0; j < series.size(); ++j) {
                EXPECT_EQ(expected(i, j), actual(i, j))
                    << to_string(path) << " (" << i << ", " << j << ")";
            }
        }
        EXPECT_EQ(scalar_metrics.snapshot().counters,
                  metrics.snapshot().counters)
            << to_string(path);
    }
}

TEST(SimdDtwTest, DistanceMatrixAndCellCountersIdenticalAcrossPaths) {
    // End-to-end through cluster::dtw_distance_matrix: forcing each path
    // must leave every matrix entry and the cluster.dtw.* counters
    // bit-identical (the acceptance criterion for cluster.dtw.cells).
    std::mt19937 rng(2016);
    std::vector<std::vector<double>> series;
    for (int s = 0; s < 6; ++s) series.push_back(random_series(rng, 96));

    const PathGuard guard;
    set_path(Path::kScalar);
    obs::MetricsRegistry scalar_metrics;
    const la::FlatMatrix expected =
        cluster::dtw_distance_matrix(series, 8, nullptr, &scalar_metrics);
    const auto scalar_counters = scalar_metrics.snapshot().counters;
    ASSERT_NE(scalar_counters.find("cluster.dtw.cells"),
              scalar_counters.end());

    for (Path path : vector_paths()) {
        set_path(path);
        obs::MetricsRegistry metrics;
        const la::FlatMatrix actual =
            cluster::dtw_distance_matrix(series, 8, nullptr, &metrics);
        for (std::size_t i = 0; i < series.size(); ++i) {
            for (std::size_t j = 0; j < series.size(); ++j) {
                EXPECT_EQ(expected(i, j), actual(i, j)) << to_string(path);
            }
        }
        EXPECT_EQ(scalar_counters, metrics.snapshot().counters)
            << to_string(path);
    }
}

// ---------------------------------------------------------------------
// MLP activations: accuracy against libm, special values, and every path
// bitwise equal to scalar

/// `activation` over `xs` through `path`'s table.
std::vector<double> activate_on(Path path, MlpActivation activation,
                                const std::vector<double>& xs) {
    std::vector<double> out(xs.size());
    kernels_for(path).mlp_activate(activation, xs.data(), out.data(), xs.size());
    return out;
}

/// 200001 points spread evenly over [−25, 25] (non-dyadic step, so the
/// points carry full mantissas), plus both neighbours of tanh's branch
/// point ±0.625.
std::vector<double> activation_sweep() {
    std::vector<double> xs;
    const std::size_t n = 200001;
    for (std::size_t i = 0; i < n; ++i) {
        xs.push_back(-25.0 + 50.0 * static_cast<double>(i) /
                                 static_cast<double>(n - 1));
    }
    for (double b : {0.625, -0.625}) {
        xs.push_back(b);
        xs.push_back(std::nextafter(b, 0.0));
        xs.push_back(std::nextafter(b, 2.0 * b));
    }
    return xs;
}

/// Inputs where the activations must not go through their main formula
/// unchanged: signed zeros, subnormals, infinities, NaNs (payload and
/// sign bits set too), the huge and the saturated.
std::vector<double> activation_specials() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double sub = std::numeric_limits<double>::denorm_min();
    const double dmin = std::numeric_limits<double>::min();
    const double dmax = std::numeric_limits<double>::max();
    return {0.0,   -0.0,   sub,    -sub,   dmin / 3.0, -dmin / 3.0,
            dmin,  -dmin,  kInf,   -kInf,  nan,        -nan,
            std::bit_cast<double>(std::uint64_t{0x7FF8000000000FFF}),
            19.1,  -19.1,  44.0,   -44.0,  700.0,      -700.0,
            708.5, -708.5, 1e300,  -1e300, dmax,       -dmax};
}

std::uint64_t max_ulps(const std::vector<double>& xs,
                       const std::vector<double>& got, double (*ref)(double)) {
    std::uint64_t worst = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        worst = std::max(worst, ulp_distance(got[i], ref(xs[i])));
    }
    return worst;
}

double libm_sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

TEST(SimdActivationTest, TanhWithinTwoUlpOfLibmOnDenseSweep) {
    const std::vector<double> xs = activation_sweep();
    const std::vector<double> got =
        activate_on(Path::kScalar, MlpActivation::kTanh, xs);
    EXPECT_LE(max_ulps(xs, got, [](double x) { return std::tanh(x); }), 2u);
    bool below = false;
    bool above = false;
    for (double x : xs) {
        below |= std::fabs(x) <= 0.625 && x != 0.0;
        above |= std::fabs(x) > 0.625 && std::fabs(x) < 19.1;
    }
    EXPECT_TRUE(below && above) << "sweep must cover both branches";
}

TEST(SimdActivationTest, TanhSpecialValues) {
    for (Path path : supported_paths()) {
        const std::vector<double> xs = activation_specials();
        const std::vector<double> got =
            activate_on(path, MlpActivation::kTanh, xs);
        for (std::size_t i = 0; i < xs.size(); ++i) {
            const double x = xs[i];
            const double y = got[i];
            SCOPED_TRACE(std::string(to_string(path)) + " x=" + std::to_string(x));
            if (std::isnan(x)) {
                EXPECT_TRUE(std::isnan(y));
            } else if (std::fabs(x) >= 19.1) {
                EXPECT_EQ(y, std::copysign(1.0, x));  // ±inf included
            } else if (std::fabs(x) < std::numeric_limits<double>::min()) {
                // ±0 and subnormals: tanh(x) = x, sign included.
                EXPECT_EQ(std::bit_cast<std::uint64_t>(y),
                          std::bit_cast<std::uint64_t>(x));
            } else {
                EXPECT_LE(ulp_distance(y, std::tanh(x)), 2u);
            }
        }
    }
    // Saturation starts by 19.1: every sweep point past it is exactly ±1.
    const std::vector<double> xs = activation_sweep();
    const std::vector<double> got =
        activate_on(Path::kScalar, MlpActivation::kTanh, xs);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (std::fabs(xs[i]) >= 19.1) {
            ASSERT_EQ(got[i], std::copysign(1.0, xs[i])) << xs[i];
        }
    }
}

TEST(SimdActivationTest, SigmoidWithinTwoUlpOfLibmOnDenseSweep) {
    const std::vector<double> xs = activation_sweep();
    const std::vector<double> got =
        activate_on(Path::kScalar, MlpActivation::kSigmoid, xs);
    EXPECT_LE(max_ulps(xs, got, libm_sigmoid), 2u);
    // The exponential stays within 2 ULP out to where it saturates.
    const std::vector<double> wide{-708.0, -700.0, -500.0, -100.0, -30.0,
                                   30.0,   100.0,  500.0,  708.0};
    EXPECT_LE(max_ulps(wide,
                       activate_on(Path::kScalar, MlpActivation::kSigmoid, wide),
                       libm_sigmoid),
              2u);
}

TEST(SimdActivationTest, SigmoidSpecialValues) {
    for (Path path : supported_paths()) {
        const std::vector<double> xs = activation_specials();
        const std::vector<double> got =
            activate_on(path, MlpActivation::kSigmoid, xs);
        for (std::size_t i = 0; i < xs.size(); ++i) {
            const double x = xs[i];
            const double y = got[i];
            SCOPED_TRACE(std::string(to_string(path)) + " x=" + std::to_string(x));
            if (std::isnan(x)) {
                EXPECT_TRUE(std::isnan(y));
            } else if (x > 708.0) {
                EXPECT_EQ(y, 1.0);
            } else if (x < -708.0) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(y), 0u);  // +0
            } else if (std::fabs(x) < std::numeric_limits<double>::min()) {
                EXPECT_EQ(y, 0.5);
            } else {
                EXPECT_LE(ulp_distance(y, libm_sigmoid(x)), 2u);
            }
        }
    }
}

TEST(SimdActivationTest, ReluIsExactlyTheSelect) {
    std::vector<double> xs = activation_sweep();
    const std::vector<double> specials = activation_specials();
    xs.insert(xs.end(), specials.begin(), specials.end());
    for (Path path : supported_paths()) {
        const std::vector<double> got = activate_on(path, MlpActivation::kRelu, xs);
        for (std::size_t i = 0; i < xs.size(); ++i) {
            // x > 0 ? x : +0 — so −0, −inf and NaN all give +0.
            const double want = xs[i] > 0.0 ? xs[i] : 0.0;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                      std::bit_cast<std::uint64_t>(want))
                << to_string(path) << " x=" << xs[i];
        }
    }
}

TEST(SimdActivationTest, EveryPathBitwiseEqualToScalar) {
    std::vector<double> xs = activation_sweep();
    const std::vector<double> specials = activation_specials();
    xs.insert(xs.end(), specials.begin(), specials.end());
    for (MlpActivation activation :
         {MlpActivation::kTanh, MlpActivation::kRelu, MlpActivation::kSigmoid}) {
        const std::vector<double> expected =
            activate_on(Path::kScalar, activation, xs);
        for (Path path : vector_paths()) {
            const std::vector<double> got = activate_on(path, activation, xs);
            for (std::size_t i = 0; i < xs.size(); ++i) {
                if (std::isnan(expected[i])) {
                    ASSERT_TRUE(std::isnan(got[i])) << to_string(path);
                    continue;
                }
                ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                          std::bit_cast<std::uint64_t>(expected[i]))
                    << to_string(path) << " activation "
                    << static_cast<int>(activation) << " x=" << xs[i];
            }
            // Every tail length of every lane width, in place.
            for (std::size_t n = 1; n <= 17; ++n) {
                std::vector<double> buf(specials.begin(), specials.begin() + n);
                kernels_for(path).mlp_activate(activation, buf.data(),
                                               buf.data(), n);
                for (std::size_t i = 0; i < n; ++i) {
                    const std::size_t at = xs.size() - specials.size() + i;
                    EXPECT_TRUE(std::isnan(expected[at])
                                    ? std::isnan(buf[i])
                                    : std::bit_cast<std::uint64_t>(buf[i]) ==
                                          std::bit_cast<std::uint64_t>(expected[at]))
                        << to_string(path) << " n=" << n << " i=" << i;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lane-batched MLP training

/// `count` equally long datasets of lag-like features in [0, 1] (one per
/// job, all different), with noisy targets so early stopping fires at
/// different epochs for different jobs.
struct MlpDatasets {
    std::vector<la::FlatMatrix> features;
    std::vector<std::vector<double>> targets;
};

MlpDatasets make_datasets(std::size_t count, std::size_t rows,
                          std::size_t cols, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    MlpDatasets data;
    for (std::size_t k = 0; k < count; ++k) {
        la::FlatMatrix x(rows, cols);
        std::vector<double> y(rows);
        const double noise = 0.05 + 0.3 * unit(rng);
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < cols; ++c) x[r][c] = unit(rng);
            y[r] = 0.6 * x[r][0] - 0.3 * x[r][cols - 1] +
                   0.2 * std::sin(6.0 * x[r][1]) + noise * (unit(rng) - 0.5);
        }
        data.features.push_back(std::move(x));
        data.targets.push_back(std::move(y));
    }
    return data;
}

/// Options of job k: mixed epoch caps (the daemon's cold 40 vs warm 8),
/// patience from 1 up so lanes stop at different epochs, distinct seeds.
forecast::MlpTrainOptions job_options(std::size_t k) {
    forecast::MlpTrainOptions options;
    options.epochs = k % 3 == 1 ? 8 : 40;
    options.patience = 1 + static_cast<int>(k % 5);
    options.seed = 1000 + static_cast<unsigned>(k) * 7919;
    return options;
}

/// Networks for the jobs; every third one is warm-started (pre-trained
/// for a few epochs on its data, on the scalar path) so the batch also
/// starts from non-zero velocities.
std::vector<forecast::MlpNetwork> make_networks(
    const std::vector<int>& layers, forecast::Activation activation,
    const MlpDatasets& data) {
    const PathGuard guard;
    set_path(Path::kScalar);
    std::vector<forecast::MlpNetwork> nets;
    for (std::size_t k = 0; k < data.features.size(); ++k) {
        nets.emplace_back(layers, activation, 17 + static_cast<unsigned>(k));
        if (k % 3 == 2) {
            forecast::MlpTrainOptions warm;
            warm.epochs = 3;
            warm.seed = 5 + static_cast<unsigned>(k);
            nets.back().train(data.features[k], data.targets[k], warm);
        }
    }
    return nets;
}

void expect_networks_bitwise(const forecast::MlpNetwork& expected,
                             const forecast::MlpNetwork& actual,
                             const la::FlatMatrix& probe,
                             const std::string& where) {
    const std::span<const double> e = expected.parameters();
    const std::span<const double> a = actual.parameters();
    ASSERT_EQ(e.size(), a.size()) << where;
    for (std::size_t i = 0; i < e.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(e[i]),
                  std::bit_cast<std::uint64_t>(a[i]))
            << where << " parameter " << i;
    }
    for (std::size_t r = 0; r < probe.rows(); r += 7) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(expected.predict(probe[r])),
                  std::bit_cast<std::uint64_t>(actual.predict(probe[r])))
            << where << " prediction on row " << r;
    }
}

/// Trains every network of `data` once per path with one train_batch
/// call and checks each against its own scalar-path MlpNetwork::train:
/// weights, loss, predictions and epoch counters bit-identical.
void check_batch_against_scalar(const std::vector<int>& layers,
                                forecast::Activation activation,
                                std::size_t count, unsigned seed) {
    const std::size_t rows = 120;
    const auto cols = static_cast<std::size_t>(layers.front());
    const MlpDatasets data = make_datasets(count, rows, cols, seed);
    const std::vector<forecast::MlpNetwork> initial =
        make_networks(layers, activation, data);

    const PathGuard guard;
    set_path(Path::kScalar);
    std::vector<forecast::MlpNetwork> expected = initial;
    std::vector<double> expected_loss(count);
    obs::MetricsRegistry expected_metrics;
    for (std::size_t k = 0; k < count; ++k) {
        forecast::MlpTrainOptions options = job_options(k);
        options.metrics = &expected_metrics;
        expected_loss[k] =
            expected[k].train(data.features[k], data.targets[k], options);
    }

    for (Path path : supported_paths()) {
        set_path(path);
        std::vector<forecast::MlpNetwork> nets = initial;
        obs::MetricsRegistry metrics;
        std::vector<forecast::MlpTrainJob> jobs;
        for (std::size_t k = 0; k < count; ++k) {
            forecast::MlpTrainOptions options = job_options(k);
            options.metrics = &metrics;
            jobs.push_back(forecast::MlpTrainJob{&nets[k], &data.features[k],
                                                 data.targets[k], options});
        }
        forecast::MlpWorkspace workspace;
        forecast::MlpNetwork::train_batch(jobs, &workspace);
        set_path(Path::kScalar);  // predictions are path-free; pin anyway
        for (std::size_t k = 0; k < count; ++k) {
            const std::string where = std::string(to_string(path)) + " K=" +
                                      std::to_string(count) + " job " +
                                      std::to_string(k);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(expected_loss[k]),
                      std::bit_cast<std::uint64_t>(jobs[k].loss))
                << where;
            expect_networks_bitwise(expected[k], nets[k], data.features[k],
                                    where);
        }
        EXPECT_EQ(expected_metrics.snapshot().counters,
                  metrics.snapshot().counters)
            << to_string(path) << " K=" << count;
    }
}

TEST(SimdMlpBatchTest, BatchedTrainingMatchesScalarBitwiseForEveryBatchSize) {
    // K = 1, partial, exactly one AVX-512 register, and refilled lanes
    // (13, 21 jobs through ≤ 8 lanes) on the serve/pipeline topology.
    for (const std::size_t count : {1, 3, 8, 13, 21}) {
        check_batch_against_scalar({7, 12, 1}, forecast::Activation::kTanh,
                                   count, 100 + static_cast<unsigned>(count));
    }
}

TEST(SimdMlpBatchTest, EveryActivationAndDeepTopologyMatchScalarBitwise) {
    check_batch_against_scalar({8, 6, 4, 1}, forecast::Activation::kTanh, 5, 7);
    check_batch_against_scalar({3, 5, 1}, forecast::Activation::kRelu, 11, 8);
    check_batch_against_scalar({4, 9, 1}, forecast::Activation::kSigmoid, 6, 9);
    check_batch_against_scalar({5, 1}, forecast::Activation::kTanh, 9, 10);
}

TEST(SimdMlpBatchTest, EpochCountersShowLanesStoppingAtDifferentEpochs) {
    // The differential test above is only meaningful if early stopping
    // really desynchronizes the lanes: check the fixture does that.
    const MlpDatasets data = make_datasets(8, 120, 7, 55);
    std::vector<forecast::MlpNetwork> nets =
        make_networks({7, 12, 1}, forecast::Activation::kTanh, data);
    std::set<int> epochs_run;
    for (std::size_t k = 0; k < nets.size(); ++k) {
        obs::MetricsRegistry metrics;
        forecast::MlpTrainOptions options = job_options(k);
        options.metrics = &metrics;
        nets[k].train(data.features[k], data.targets[k], options);
        epochs_run.insert(static_cast<int>(
            metrics.snapshot().counters.at("forecast.mlp.epochs")));
    }
    EXPECT_GE(epochs_run.size(), 3u);
}

TEST(SimdMlpBatchTest, StoppedLaneIsNeverWrittenAfterItStops) {
    // Kernel level, every path: job 0 stops after one epoch while the
    // others keep training (no pending job to refill its lane). The epoch
    // hook snapshots job 0's parameter and velocity arrays on every later
    // epoch of the other jobs; each snapshot must already equal the final
    // arrays, which must equal a one-job scalar run.
    const std::vector<int> layers{7, 12, 1};
    const simd::MlpShape shape{layers.data(), layers.size(),
                               MlpActivation::kTanh};
    const std::size_t np = mlp_parameter_count(shape);
    const MlpDatasets data = make_datasets(4, 60, 7, 77);
    std::vector<double> init(np);
    std::mt19937 rng(3);
    std::uniform_real_distribution<double> dist(-0.5, 0.5);
    for (double& w : init) w = dist(rng);

    const auto make_job = [&](std::size_t k, std::vector<double>& params,
                              std::vector<double>& velocity) {
        params = init;
        velocity.assign(np, 0.0);
        MlpBatchJob job;
        job.params = params.data();
        job.velocity = velocity.data();
        job.features = data.features[k].data().data();
        job.targets = data.targets[k].data();
        job.epochs = k == 0 ? 1 : 30;
        job.learning_rate = 0.05;
        job.momentum = 0.9;
        job.lr_decay = 0.98;
        job.weight_decay = 1e-5;
        job.patience = 100;
        job.seed = 11 + static_cast<unsigned>(k);
        return job;
    };
    MlpBatch batch;
    batch.shape = shape;
    batch.rows = 60;
    batch.train_rows = 51;

    std::vector<double> ref_params;
    std::vector<double> ref_velocity;
    MlpBatchJob ref = make_job(0, ref_params, ref_velocity);
    MlpScratch ref_scratch;
    scalar_table().mlp_train_batch(batch, &ref, 1, ref_scratch);
    ASSERT_EQ(ref.epochs_run, 1);

    struct Probe {
        const std::vector<double>* params = nullptr;
        const std::vector<double>* velocity = nullptr;
        std::vector<int> calls;
        std::vector<std::vector<double>> snapshots;
    };
    for (Path path : supported_paths()) {
        std::vector<std::vector<double>> params(4);
        std::vector<std::vector<double>> velocity(4);
        std::vector<MlpBatchJob> jobs;
        for (std::size_t k = 0; k < 4; ++k) {
            jobs.push_back(make_job(k, params[k], velocity[k]));
        }
        Probe probe;
        probe.params = &params[0];
        probe.velocity = &velocity[0];
        probe.calls.assign(4, 0);
        MlpBatch hooked = batch;
        hooked.context = &probe;
        hooked.on_epoch = [](void* context, std::size_t job) {
            auto& p = *static_cast<Probe*>(context);
            // Epoch ≥ 2 of job 1 starts after job 0's only epoch ended.
            if (job == 1 && ++p.calls[1] >= 2) {
                p.snapshots.push_back(*p.params);
                p.snapshots.push_back(*p.velocity);
            }
        };
        MlpScratch scratch;
        // On tables narrower than the batch, job 0's lane is refilled
        // (or, one lane wide, jobs run in turn); job 1 still sees 29
        // epochs after job 0 stopped either way.
        kernels_for(path).mlp_train_batch(hooked, jobs.data(), jobs.size(),
                                          scratch);
        EXPECT_EQ(jobs[0].epochs_run, 1) << to_string(path);
        EXPECT_EQ(jobs[1].epochs_run, 30) << to_string(path);
        EXPECT_EQ(params[0], ref_params) << to_string(path);
        EXPECT_EQ(velocity[0], ref_velocity) << to_string(path);
        ASSERT_EQ(probe.snapshots.size(), 2u * 29u) << to_string(path);
        for (std::size_t i = 0; i < probe.snapshots.size(); i += 2) {
            EXPECT_EQ(probe.snapshots[i], params[0]) << to_string(path);
            EXPECT_EQ(probe.snapshots[i + 1], velocity[0]) << to_string(path);
        }
    }
}

TEST(SimdMlpBatchTest, TrainBatchRejectsMismatchedJobsBeforeTraining) {
    const MlpDatasets data = make_datasets(2, 40, 3, 5);
    const MlpDatasets shorter = make_datasets(1, 39, 3, 6);
    forecast::MlpNetwork a({3, 4, 1}, forecast::Activation::kTanh, 1);
    forecast::MlpNetwork b({3, 4, 1}, forecast::Activation::kTanh, 2);
    forecast::MlpNetwork wide({3, 5, 1}, forecast::Activation::kTanh, 3);
    forecast::MlpNetwork relu({3, 4, 1}, forecast::Activation::kRelu, 4);
    const std::vector<double> before(a.parameters().begin(),
                                     a.parameters().end());
    const forecast::MlpTrainOptions options;
    const auto run = [&](forecast::MlpNetwork& second,
                         const la::FlatMatrix& x, std::span<const double> y,
                         forecast::MlpTrainOptions second_options) {
        std::vector<forecast::MlpTrainJob> jobs{
            {&a, &data.features[0], data.targets[0], options},
            {&second, &x, y, second_options}};
        forecast::MlpNetwork::train_batch(jobs);
    };
    EXPECT_THROW(run(wide, data.features[1], data.targets[1], options),
                 std::invalid_argument);
    EXPECT_THROW(run(relu, data.features[1], data.targets[1], options),
                 std::invalid_argument);
    EXPECT_THROW(run(b, shorter.features[0], shorter.targets[0], options),
                 std::invalid_argument);
    EXPECT_THROW(run(b, data.features[1],
                     std::span<const double>(data.targets[1]).first(39),
                     options),
                 std::invalid_argument);
    forecast::MlpTrainOptions no_validation = options;
    no_validation.validation_fraction = 0.0;
    EXPECT_THROW(run(b, data.features[1], data.targets[1], no_validation),
                 std::invalid_argument);
    EXPECT_TRUE(std::equal(before.begin(), before.end(),
                           a.parameters().begin()));
}

TEST(SimdMlpTest, NetworkPredictAndTrainCloseAcrossPaths) {
    // End-to-end through forecast::MlpNetwork::train (a batch of one): an
    // identical seed trained under each path gives the same network bit
    // for bit — the lane kernel never reassociates.
    std::mt19937 rng(31415);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    const std::size_t examples = 24;
    std::vector<std::vector<double>> inputs;
    std::vector<double> targets;
    for (std::size_t e = 0; e < examples; ++e) {
        std::vector<double> x(8);
        for (double& v : x) v = dist(rng);
        targets.push_back(0.3 * x[0] + 0.5 * x[7] + 0.05 * dist(rng));
        inputs.push_back(std::move(x));
    }
    forecast::MlpTrainOptions options;
    options.epochs = 5;
    options.validation_fraction = 0.0;
    options.seed = 97;

    const PathGuard guard;
    set_path(Path::kScalar);
    forecast::MlpNetwork scalar_net({8, 12, 1},
                                    forecast::Activation::kTanh, 7);
    const double scalar_loss = scalar_net.train(inputs, targets, options);
    const double scalar_pred = scalar_net.predict(inputs[0]);

    for (Path path : vector_paths()) {
        set_path(path);
        forecast::MlpNetwork net({8, 12, 1}, forecast::Activation::kTanh, 7);
        EXPECT_EQ(scalar_loss, net.train(inputs, targets, options))
            << to_string(path);
        EXPECT_EQ(scalar_pred, net.predict(inputs[0])) << to_string(path);
        EXPECT_TRUE(std::equal(scalar_net.parameters().begin(),
                               scalar_net.parameters().end(),
                               net.parameters().begin()))
            << to_string(path);
    }
}

}  // namespace
}  // namespace atm::simd
