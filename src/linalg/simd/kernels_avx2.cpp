// AVX2 instantiation of the generic DTW and MLP kernels. Compiled with
// -mavx2 -ffp-contract=off (and deliberately NOT -mfma: contraction of
// mul+add into FMA would change results and break the bit-identity
// contract). Only dispatched after __builtin_cpu_supports("avx2").

#include <immintrin.h>

#include "linalg/simd/kernels_generic.hpp"
#include "linalg/simd/simd.hpp"

namespace atm::simd {
namespace {

struct VecAvx2 {
    static constexpr std::size_t kWidth = 4;
    using Reg = __m256d;
    static Reg zero() { return _mm256_setzero_pd(); }
    static Reg set1(double x) { return _mm256_set1_pd(x); }
    static Reg loadu(const double* p) { return _mm256_loadu_pd(p); }
    static void storeu(double* p, Reg r) { _mm256_storeu_pd(p, r); }
    static Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm256_sub_pd(a, b); }
    static Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
    static Reg div(Reg a, Reg b) { return _mm256_div_pd(a, b); }
    static Reg min(Reg a, Reg b) { return _mm256_min_pd(a, b); }
    static Reg bit_and(Reg a, Reg b) { return _mm256_and_pd(a, b); }
    static Reg bit_andnot(Reg a, Reg b) { return _mm256_andnot_pd(a, b); }
    static Reg bit_or(Reg a, Reg b) { return _mm256_or_pd(a, b); }
    static Reg select_gt(Reg a, Reg b, Reg t, Reg f) {
        return _mm256_blendv_pd(f, t, _mm256_cmp_pd(a, b, _CMP_GT_OQ));
    }
    static Reg add_exponent(Reg y, Reg t) {
        return _mm256_castsi256_pd(
            _mm256_add_epi64(_mm256_castpd_si256(y),
                             _mm256_slli_epi64(_mm256_castpd_si256(t), 52)));
    }
};

}  // namespace

const KernelTable& avx2_kernel_table() {
    static const KernelTable table{
        Path::kAvx2,
        /*dtw_batch_width=*/VecAvx2::kWidth,
        dtw_distance_batch_vec<VecAvx2>,
        mlp_train_batch_vec<VecAvx2>,
        mlp_activate_array<VecAvx2>,
    };
    return table;
}

}  // namespace atm::simd
