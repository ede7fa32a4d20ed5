// NEON instantiation of the generic DTW and MLP kernels, compiled only
// on aarch64 where NEON is baseline (no runtime probe needed). Built
// with -ffp-contract=off and plain add/mul intrinsics — no vfma — to
// preserve the bit-identity contract (see kernels_avx2.cpp).

#include <arm_neon.h>

#include "linalg/simd/kernels_generic.hpp"
#include "linalg/simd/simd.hpp"

namespace atm::simd {
namespace {

struct VecNeon {
    static constexpr std::size_t kWidth = 2;
    using Reg = float64x2_t;
    static Reg zero() { return vdupq_n_f64(0.0); }
    static Reg set1(double x) { return vdupq_n_f64(x); }
    static Reg loadu(const double* p) { return vld1q_f64(p); }
    static void storeu(double* p, Reg r) { vst1q_f64(p, r); }
    static Reg add(Reg a, Reg b) { return vaddq_f64(a, b); }
    static Reg sub(Reg a, Reg b) { return vsubq_f64(a, b); }
    static Reg mul(Reg a, Reg b) { return vmulq_f64(a, b); }
    static Reg div(Reg a, Reg b) { return vdivq_f64(a, b); }
    static Reg min(Reg a, Reg b) { return vminq_f64(a, b); }
    static Reg bit_and(Reg a, Reg b) {
        return as_f64(vandq_u64(as_u64(a), as_u64(b)));
    }
    static Reg bit_andnot(Reg a, Reg b) {
        return as_f64(vbicq_u64(as_u64(b), as_u64(a)));  // b & ~a
    }
    static Reg bit_or(Reg a, Reg b) {
        return as_f64(vorrq_u64(as_u64(a), as_u64(b)));
    }
    static Reg select_gt(Reg a, Reg b, Reg t, Reg f) {
        return vbslq_f64(vcgtq_f64(a, b), t, f);
    }
    static Reg add_exponent(Reg y, Reg t) {
        return as_f64(vaddq_u64(as_u64(y), vshlq_n_u64(as_u64(t), 52)));
    }

private:
    static uint64x2_t as_u64(Reg r) { return vreinterpretq_u64_f64(r); }
    static Reg as_f64(uint64x2_t r) { return vreinterpretq_f64_u64(r); }
};

}  // namespace

const KernelTable& neon_kernel_table() {
    static const KernelTable table{
        Path::kNeon,
        /*dtw_batch_width=*/VecNeon::kWidth,
        dtw_distance_batch_vec<VecNeon>,
        mlp_train_batch_vec<VecNeon>,
        mlp_activate_array<VecNeon>,
    };
    return table;
}

}  // namespace atm::simd
