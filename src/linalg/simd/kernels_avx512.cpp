// AVX-512 instantiation of the generic DTW and MLP kernels. Compiled
// with -mavx512f -ffp-contract=off (no -mfma — see kernels_avx2.cpp).
// Only dispatched after __builtin_cpu_supports("avx512f").
//
// min, andnot and the shift use the all-lanes zero-masked intrinsics:
// GCC builds the unmasked ones on an undefined pass-through register,
// which trips -Wmaybe-uninitialized; the masked form compiles to the
// same instruction.

#include <immintrin.h>

#include "linalg/simd/kernels_generic.hpp"
#include "linalg/simd/simd.hpp"

namespace atm::simd {
namespace {

struct VecAvx512 {
    static constexpr std::size_t kWidth = 8;
    using Reg = __m512d;
    static Reg zero() { return _mm512_setzero_pd(); }
    static Reg set1(double x) { return _mm512_set1_pd(x); }
    static Reg loadu(const double* p) { return _mm512_loadu_pd(p); }
    static void storeu(double* p, Reg r) { _mm512_storeu_pd(p, r); }
    static Reg add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm512_sub_pd(a, b); }
    static Reg mul(Reg a, Reg b) { return _mm512_mul_pd(a, b); }
    static Reg div(Reg a, Reg b) { return _mm512_div_pd(a, b); }
    static Reg min(Reg a, Reg b) { return _mm512_maskz_min_pd(kAll, a, b); }
    static Reg bit_and(Reg a, Reg b) {
        return as_pd(_mm512_and_epi64(as_si(a), as_si(b)));
    }
    static Reg bit_andnot(Reg a, Reg b) {
        return as_pd(_mm512_maskz_andnot_epi64(kAll, as_si(a), as_si(b)));
    }
    static Reg bit_or(Reg a, Reg b) {
        return as_pd(_mm512_or_epi64(as_si(a), as_si(b)));
    }
    static Reg select_gt(Reg a, Reg b, Reg t, Reg f) {
        return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(a, b, _CMP_GT_OQ), f, t);
    }
    static Reg add_exponent(Reg y, Reg t) {
        return as_pd(_mm512_add_epi64(
            as_si(y), _mm512_maskz_slli_epi64(kAll, as_si(t), 52)));
    }

private:
    static constexpr __mmask8 kAll = 0xFF;
    static __m512i as_si(Reg r) { return _mm512_castpd_si512(r); }
    static Reg as_pd(__m512i r) { return _mm512_castsi512_pd(r); }
};

}  // namespace

const KernelTable& avx512_kernel_table() {
    static const KernelTable table{
        Path::kAvx512,
        /*dtw_batch_width=*/VecAvx512::kWidth,
        dtw_distance_batch_vec<VecAvx512>,
        mlp_train_batch_vec<VecAvx512>,
        mlp_activate_array<VecAvx512>,
    };
    return table;
}

}  // namespace atm::simd
