#pragma once

// Generic kernel bodies, parameterized over a vector-traits type V
// supplying:
//   V::kWidth                      lanes per register (doubles)
//   V::Reg                         register type
//   V::zero() / V::set1(x)         broadcast constructors
//   V::loadu(p) / V::storeu(p, r)  unaligned load/store
//   V::add / sub / mul / div / min lane-wise IEEE arithmetic
//   V::bit_and / bit_or(a, b)      bitwise a & b, a | b
//   V::bit_andnot(a, b)            bitwise ~a & b
//   V::select_gt(a, b, t, f)       per lane a > b ? t : f (f when either
//                                  of a, b is NaN)
//   V::add_exponent(y, t)          bits(y) + (bits(t) << 52) as 64-bit
//                                  integers: adds t's low mantissa bits
//                                  to y's exponent field
// Each ISA translation unit (kernels_avx2.cpp, …) defines its traits and
// instantiates these templates under the matching target flags; this
// header itself must stay ISA-agnostic. The scalar table instantiates
// the same templates with VecScalar (below), one lane wide, so every
// path runs one DTW recurrence and one MLP trainer: a path differs from
// another only in how many pairs or networks share a register.
//
// Everything here has internal linkage (the unnamed namespace below):
// each kernel TU gets its own copy of every instantiation, compiled
// under that TU's target flags, so the linker can never hand the scalar
// table an AVX-512 build of a shared template (or the reverse).

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "linalg/simd/simd.hpp"

namespace atm::simd {
namespace {

inline constexpr double kDtwInf = std::numeric_limits<double>::infinity();

/// Per-row band windows [jlo[i], jhi[i]], i in [1, n]: the Sakoe–Chiba
/// window of half-width `band` around the length-normalized diagonal
/// (the whole row when band < 0), evaluated once per call. Windows are
/// always non-empty and both endpoints are nondecreasing in i.
inline void compute_band_windows(std::size_t n, std::size_t m, int band,
                                 ScratchIdxVec& jlo, ScratchIdxVec& jhi) {
    grow(jlo, n + 1);
    grow(jhi, n + 1);
    const double slope =
        n > 1 ? static_cast<double>(m) / static_cast<double>(n) : 1.0;
    for (std::size_t i = 1; i <= n; ++i) {
        std::size_t lo = 1;
        std::size_t hi = m;
        if (band >= 0) {
            const double center = slope * static_cast<double>(i);
            const auto l = static_cast<long long>(std::floor(center)) - band;
            const auto h = static_cast<long long>(std::ceil(center)) + band;
            lo = static_cast<std::size_t>(std::max(1LL, l));
            hi = static_cast<std::size_t>(
                std::min(static_cast<long long>(m), h));
        }
        jlo[i] = lo;
        jhi[i] = hi;
    }
}

/// Batched DTW, the one DTW recurrence of every path:
///   λ(i, j) = (p_i − q_j)² + min{λ(i−1, j−1), λ(i−1, j), λ(i, j−1)}
/// over the band windows, row by row, one pair per SIMD lane (the scalar
/// table runs it one lane wide).
///
/// All `count` pairs share (n, m, band), so every lane has the same band
/// windows and visits the same (i, j) cells in the same order. Inputs and
/// the two rolling DP rows are lane-interleaved (`buf[index * kWidth +
/// lane]`) so every access is one contiguous unaligned load/store.
/// Per-cell arithmetic is one subtract, one multiply, a three-way min and
/// one add, never fused, so a lane's distance does not depend on the
/// path or on which pairs share its batch; for finite inputs it equals
/// the textbook row DP bit for bit. Unused lanes replay the last pair;
/// their results are discarded.
template <typename V>
void dtw_distance_batch_vec(const double* const* ps, const double* const* qs,
                            std::size_t count, std::size_t n, std::size_t m,
                            int band, DtwScratch& scratch, double* out) {
    constexpr std::size_t kW = V::kWidth;
    // The distance-matrix loop mostly batches pairs from one row of the
    // upper triangle, so all lanes usually share the same p series — a
    // broadcast then replaces the strided p staging entirely.
    bool shared_p = true;
    for (std::size_t b = 1; b < count; ++b) shared_p &= ps[b] == ps[0];
    if (!shared_p) {
        double* staged = grow(scratch.lanes_p, n * kW);
        for (std::size_t lane = 0; lane < kW; ++lane) {
            const double* p = ps[lane < count ? lane : count - 1];
            for (std::size_t i = 0; i < n; ++i) staged[i * kW + lane] = p[i];
        }
    }
    double* ql = grow(scratch.lanes_q, m * kW);
    for (std::size_t lane = 0; lane < kW; ++lane) {
        const double* q = qs[lane < count ? lane : count - 1];
        for (std::size_t j = 0; j < m; ++j) ql[j * kW + lane] = q[j];
    }
    const double* pl = scratch.lanes_p.data();

    const std::size_t row = (m + 1) * kW;
    const auto reset = [row](ScratchVec& a) {
        double* d = grow(a, row);
        std::fill(d, d + row, kDtwInf);
    };
    reset(scratch.prev);
    reset(scratch.curr);
    for (std::size_t lane = 0; lane < kW; ++lane) {
        scratch.prev[lane] = 0.0;  // λ(0, 0) in every lane
    }
    double* prev = scratch.prev.data();
    double* curr = scratch.curr.data();

    compute_band_windows(n, m, band, scratch.jlo, scratch.jhi);
    const auto infv = V::set1(kDtwInf);
    for (std::size_t i = 1; i <= n; ++i) {
        const std::size_t j_lo = scratch.jlo[i];
        const std::size_t j_hi = scratch.jhi[i];
        // Only the left border cell j_lo − 1 is reset: the compute loop
        // overwrites all of [j_lo, j_hi] anyway, cells right of the
        // window were never written (windows only move right, both
        // buffers start all-inf), and cells left of j_lo − 1 are never
        // read again (window monotonicity) — so every read sees what a
        // full per-row reset to +inf would have left there.
        V::storeu(curr + (j_lo - 1) * kW, infv);
        const auto pv =
            shared_p ? V::set1(ps[0][i - 1]) : V::loadu(pl + (i - 1) * kW);
        // The j recurrence chains through curr[j − 1]; carrying it in a
        // register keeps the chain to min + add, no store-to-load hop.
        auto left = infv;
        for (std::size_t j = j_lo; j <= j_hi; ++j) {
            const auto diff = V::sub(pv, V::loadu(ql + (j - 1) * kW));
            const auto cost = V::mul(diff, diff);
            const auto best = V::min(V::min(V::loadu(prev + (j - 1) * kW),
                                            V::loadu(prev + j * kW)),
                                     left);
            left = V::add(cost, best);
            V::storeu(curr + j * kW, left);
        }
        std::swap(prev, curr);
    }
    for (std::size_t b = 0; b < count; ++b) out[b] = prev[m * kW + b];
}

/// One-lane "vector" traits: the generic kernels' per-lane sequence on
/// plain doubles (the scalar table's DTW and trainer, and any table's
/// lone network).
struct VecScalar {
    static constexpr std::size_t kWidth = 1;
    using Reg = double;
    static Reg zero() { return 0.0; }
    static Reg set1(double x) { return x; }
    static Reg loadu(const double* p) { return *p; }
    static void storeu(double* p, Reg r) { *p = r; }
    static Reg add(Reg a, Reg b) { return a + b; }
    static Reg sub(Reg a, Reg b) { return a - b; }
    static Reg mul(Reg a, Reg b) { return a * b; }
    static Reg div(Reg a, Reg b) { return a / b; }
    static Reg min(Reg a, Reg b) { return std::min(a, b); }
    static Reg bit_and(Reg a, Reg b) { return from_bits(bits(a) & bits(b)); }
    static Reg bit_andnot(Reg a, Reg b) { return from_bits(~bits(a) & bits(b)); }
    static Reg bit_or(Reg a, Reg b) { return from_bits(bits(a) | bits(b)); }
    static Reg select_gt(Reg a, Reg b, Reg t, Reg f) { return a > b ? t : f; }
    static Reg add_exponent(Reg y, Reg t) {
        return from_bits(bits(y) + (bits(t) << 52));
    }

private:
    static std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }
    static double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }
};

// ---- MLP activations -------------------------------------------------------
//
// The hidden-unit activations every MLP kernel and simd::mlp_predict
// evaluate: a fixed sequence of the trait ops above (no FMA, no libm), so
// a lane of any table computes exactly what VecScalar computes and the
// results belong to this code rather than to the host's libm build.
// tanh and the exponential follow Cephes (tanh.c, exp.c); tanh and
// sigmoid stay within 2 ULP of glibc's tanh and 1 / (1 + exp(−x)) on
// [−25, 25] (tests/test_simd.cpp pins this).

/// e^r for r in [−708, 708]: Cody–Waite reduction r = n·ln2 + f with n
/// rounded to nearest by the 0x1.8p52 shifter (whose low mantissa bits
/// then hold n), a (3,3) Padé approximant e^f = 1 + 2f·P/(Q − f·P), and
/// the scale 2^n built by shifting n into the exponent of 1.0. Lanes
/// outside that range get meaningless values, which the callers select
/// away; a NaN lane stays NaN.
template <typename V>
typename V::Reg mlp_exp(typename V::Reg r) {
    using Reg = typename V::Reg;
    const Reg shifter = V::set1(0x1.8p52);
    const Reg t = V::add(V::mul(r, V::set1(1.4426950408889634073599)), shifter);
    const Reg n = V::sub(t, shifter);
    r = V::sub(r, V::mul(n, V::set1(6.93145751953125e-1)));
    r = V::sub(r, V::mul(n, V::set1(1.42860682030941723212e-6)));
    const Reg rr = V::mul(r, r);
    Reg p = V::add(V::mul(V::set1(1.26177193074810590878e-4), rr),
                   V::set1(3.02994407707441961300e-2));
    p = V::mul(r, V::add(V::mul(p, rr), V::set1(9.99999999999999999910e-1)));
    Reg q = V::add(V::mul(V::set1(3.00198505138664455042e-6), rr),
                   V::set1(2.52448340349684104192e-3));
    q = V::add(V::mul(q, rr), V::set1(2.27265548208155028766e-1));
    q = V::add(V::mul(q, rr), V::set1(2.00000000000000000009e0));
    Reg y = V::div(p, V::sub(q, p));
    y = V::add(V::set1(1.0), V::add(y, y));
    return V::mul(y, V::add_exponent(V::set1(1.0), t));
}

/// tanh on |x|, sign ORed back last (so ±0 and subnormals keep their
/// sign and value): |x| ≤ 0.625 takes |x| + |x|·z·P(z)/Q(z) with
/// z = x², larger |x| takes 1 − 2/(e^{2|x|} + 1) with 2|x| clamped at 44
/// (every |x| ≥ 19.1 rounds to exactly 1). A NaN lane fails the
/// comparison and takes the polynomial branch, which never goes through
/// min (whose NaN rule differs between x86 and NEON), so it stays NaN.
template <typename V>
typename V::Reg mlp_tanh(typename V::Reg x) {
    using Reg = typename V::Reg;
    const Reg sign_bit = V::set1(-0.0);
    const Reg one = V::set1(1.0);
    const Reg a = V::bit_andnot(sign_bit, x);
    const Reg z = V::mul(a, a);
    Reg p = V::add(V::mul(V::set1(-9.64399179425052238628e-1), z),
                   V::set1(-9.92877231001918586564e1));
    p = V::add(V::mul(p, z), V::set1(-1.61468768441708447952e3));
    Reg q = V::add(z, V::set1(1.12811678491632931402e2));
    q = V::add(V::mul(q, z), V::set1(2.23548839060100448583e3));
    q = V::add(V::mul(q, z), V::set1(4.84406305325125486048e3));
    const Reg small = V::add(a, V::mul(V::mul(a, z), V::div(p, q)));
    const Reg e = mlp_exp<V>(V::min(V::add(a, a), V::set1(44.0)));
    const Reg large = V::sub(one, V::div(V::set1(2.0), V::add(e, one)));
    const Reg t = V::select_gt(a, V::set1(0.625), large, small);
    return V::bit_or(t, V::bit_and(sign_bit, x));
}

/// 1 / (1 + e^−x). |x| > 708 gives exactly 1 (x > 0) or 0 (x < 0), the
/// latter where libm's exp(−x) would still be finite up to −709.78; a NaN
/// lane fails that comparison and carries its NaN through the exp.
template <typename V>
typename V::Reg mlp_sigmoid(typename V::Reg x) {
    using Reg = typename V::Reg;
    const Reg zero = V::zero();
    const Reg one = V::set1(1.0);
    const Reg r = V::div(one, V::add(one, mlp_exp<V>(V::sub(zero, x))));
    const Reg saturated = V::select_gt(x, zero, one, zero);
    const Reg a = V::bit_andnot(V::set1(-0.0), x);
    return V::select_gt(a, V::set1(708.0), saturated, r);
}

template <typename V>
typename V::Reg mlp_activate(MlpActivation activation, typename V::Reg x) {
    switch (activation) {
        case MlpActivation::kTanh: return mlp_tanh<V>(x);
        case MlpActivation::kRelu: return V::select_gt(x, V::zero(), x, V::zero());
        case MlpActivation::kSigmoid: return mlp_sigmoid<V>(x);
    }
    return x;
}

/// KernelTable::mlp_activate: out[i] = activation(in[i]), kWidth at a
/// time; the tail runs through one zero-padded register.
template <typename V>
void mlp_activate_array(MlpActivation activation, const double* in,
                        double* out, std::size_t n) {
    constexpr std::size_t kW = V::kWidth;
    std::size_t i = 0;
    for (; i + kW <= n; i += kW) {
        V::storeu(out + i, mlp_activate<V>(activation, V::loadu(in + i)));
    }
    if (i < n) {
        alignas(64) std::array<double, kW> tail{};
        std::copy(in + i, in + n, tail.begin());
        V::storeu(tail.data(), mlp_activate<V>(activation, V::loadu(tail.data())));
        std::copy(tail.begin(), tail.begin() + static_cast<std::ptrdiff_t>(n - i),
                  out + i);
    }
}

/// Per-layer offsets into the lane buffers, in lane-free units (multiply
/// by the lane width): acts offset of layer l, deltas offset of
/// weight layer l's units, params offset of weight layer l.
struct MlpOffsets {
    const std::size_t* act;
    const std::size_t* unit;
    const std::size_t* param;
    std::size_t acts_total;
    std::size_t units_total;
    std::size_t params_total;
};

inline MlpOffsets mlp_offsets(const MlpShape& shape, ScratchIdxVec& buf) {
    const std::size_t n = shape.num_layers;
    std::size_t* act = grow(buf, 3 * n);
    std::size_t* unit = act + n;
    std::size_t* param = unit + n;
    std::size_t a = 0;
    std::size_t u = 0;
    std::size_t p = 0;
    for (std::size_t l = 0; l < n; ++l) {
        act[l] = a;
        a += static_cast<std::size_t>(shape.layer_sizes[l]);
        if (l + 1 < n) {
            const auto fan_in = static_cast<std::size_t>(shape.layer_sizes[l]);
            const auto fan_out =
                static_cast<std::size_t>(shape.layer_sizes[l + 1]);
            unit[l] = u;
            param[l] = p;
            u += fan_out;
            p += fan_out * (fan_in + 1);
        }
    }
    return MlpOffsets{act, unit, param, a, u, p};
}

/// One layer of mlp_forward_lanes (the buffers never overlap).
template <typename V>
void mlp_forward_layer_lanes(const double* __restrict w,
                             const double* __restrict in,
                             double* __restrict out, std::size_t fan_in,
                             std::size_t fan_out, bool hidden,
                             MlpActivation activation) {
    constexpr std::size_t kW = V::kWidth;
    const double* bias = w + fan_out * fan_in * kW;
    for (std::size_t j = 0; j < fan_out; ++j) {
        auto acc = V::loadu(bias + j * kW);
        const double* row = w + j * fan_in * kW;
        for (std::size_t i = 0; i < fan_in; ++i) {
            acc = V::add(acc, V::mul(V::loadu(row + i * kW), V::loadu(in + i * kW)));
        }
        // Hidden units take the activation in every lane at once; the
        // output unit is linear.
        V::storeu(out + j * kW, hidden ? mlp_activate<V>(activation, acc) : acc);
    }
}

/// Forward pass of V::kWidth lane-interleaved networks (element e of lane
/// b at buf[e * kWidth + b]). The first layer_sizes[0] activations hold
/// the inputs. Per lane this is the scalar sequence: pre = bias, then
/// pre += w[i] * in[i] for ascending i, unfused; hidden units then take
/// mlp_activate. Idle lanes sit on zeroed parameters, so they compute
/// activation(0) and stay finite.
template <typename V>
void mlp_forward_lanes(const MlpShape& shape, const MlpOffsets& off,
                       const double* params, double* acts) {
    constexpr std::size_t kW = V::kWidth;
    for (std::size_t l = 0; l + 1 < shape.num_layers; ++l) {
        mlp_forward_layer_lanes<V>(
            params + off.param[l] * kW, acts + off.act[l] * kW,
            acts + off.act[l + 1] * kW,
            static_cast<std::size_t>(shape.layer_sizes[l]),
            static_cast<std::size_t>(shape.layer_sizes[l + 1]),
            l + 2 < shape.num_layers, shape.activation);
    }
}

/// Hidden-layer backprop on lane-interleaved buffers (never overlapping):
/// delta[j] = (Σ_k next_w[k*width + j] * next_delta[k], k ascending from
/// 0.0) × the activation gradient at act[j] (ReLU's 1-or-0 factor reads
/// act > 0, which holds exactly where its pre-activation was > 0).
template <typename V>
void mlp_backprop_layer_lanes(const double* __restrict next_w,
                              const double* __restrict next_delta,
                              const double* __restrict act,
                              double* __restrict delta, std::size_t width,
                              std::size_t next_fan_out,
                              MlpActivation activation) {
    constexpr std::size_t kW = V::kWidth;
    const auto zero = V::zero();
    const auto one = V::set1(1.0);
    for (std::size_t j = 0; j < width; ++j) {
        auto acc = V::zero();
        for (std::size_t k = 0; k < next_fan_out; ++k) {
            acc = V::add(acc, V::mul(V::loadu(next_w + (k * width + j) * kW),
                                     V::loadu(next_delta + k * kW)));
        }
        const auto a = V::loadu(act + j * kW);
        switch (activation) {
            case MlpActivation::kTanh:
                acc = V::mul(acc, V::sub(one, V::mul(a, a)));
                break;
            case MlpActivation::kSigmoid:
                acc = V::mul(acc, V::mul(a, V::sub(one, a)));
                break;
            case MlpActivation::kRelu:
                acc = V::mul(acc, V::select_gt(a, zero, one, zero));
                break;
        }
        V::storeu(delta + j * kW, acc);
    }
}

/// One layer's SGD + momentum update on lane-interleaved buffers (the
/// arrays never overlap): per lane and weight, grad = delta*in +
/// weight_decay*w; vel = momentum*vel − lr*grad; w += vel; then the
/// biases with grad = delta.
template <typename V>
void mlp_sgd_layer_lanes(double* __restrict w, double* __restrict v,
                         const double* __restrict in,
                         const double* __restrict delta, std::size_t fan_in,
                         std::size_t fan_out, typename V::Reg lr,
                         typename V::Reg momentum, typename V::Reg decay) {
    constexpr std::size_t kW = V::kWidth;
    double* __restrict bias = w + fan_out * fan_in * kW;
    double* __restrict bias_v = v + fan_out * fan_in * kW;
    for (std::size_t j = 0; j < fan_out; ++j) {
        const auto d = V::loadu(delta + j * kW);
        double* row = w + j * fan_in * kW;
        double* vel = v + j * fan_in * kW;
        for (std::size_t i = 0; i < fan_in; ++i) {
            const auto wi = V::loadu(row + i * kW);
            const auto grad =
                V::add(V::mul(d, V::loadu(in + i * kW)), V::mul(decay, wi));
            const auto vi =
                V::sub(V::mul(momentum, V::loadu(vel + i * kW)), V::mul(lr, grad));
            V::storeu(vel + i * kW, vi);
            V::storeu(row + i * kW, V::add(wi, vi));
        }
        const auto bv =
            V::sub(V::mul(momentum, V::loadu(bias_v + j * kW)), V::mul(lr, d));
        V::storeu(bias_v + j * kW, bv);
        V::storeu(bias + j * kW, V::add(V::loadu(bias + j * kW), bv));
    }
}

/// Lane-batched MLP training (KernelTable::mlp_train_batch): one network
/// per SIMD lane, every lane stepping through the same row *position* of
/// its own shuffle order in lockstep. Lanes differ only in data — their
/// rows, targets, seeds, learning rates and stopping state — never in
/// control flow inside an epoch, and all per-lane arithmetic is the
/// scalar sequence documented on MlpBatchJob, so each network comes out
/// bit-identical to training it alone. Early stopping is a lane mask:
/// a finished lane's network is written back once and the lane is
/// refilled with the next pending job at the same epoch boundary; with
/// nothing left to load it idles on zeroed parameters (and zero rates)
/// so its arithmetic stays finite and cheap. With kWidth == 1 this is
/// the plain one-network-at-a-time loop of the scalar table, which
/// every table also uses for a batch of one.
template <typename V>
void mlp_train_batch_vec(const MlpBatch& batch, MlpBatchJob* jobs,
                         std::size_t count, MlpScratch& scratch) {
    if constexpr (V::kWidth > 1) {
        // A lone network has no lane-mates: train it one lane wide (the
        // same per-lane sequence, minus the idle lanes' vector work).
        if (count == 1) {
            mlp_train_batch_vec<VecScalar>(batch, jobs, count, scratch);
            return;
        }
    }
    constexpr std::size_t kW = V::kWidth;
    constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
    const MlpShape& shape = batch.shape;
    const MlpOffsets off = mlp_offsets(shape, scratch.offsets);
    const auto inputs = static_cast<std::size_t>(shape.layer_sizes[0]);
    const std::size_t rows = batch.rows;
    const std::size_t train_rows = batch.train_rows;
    const std::size_t val_rows = rows - train_rows;
    const std::size_t out_unit = off.units_total - 1;
    const std::size_t out_act = off.acts_total - 1;

    const auto zeroed = [](ScratchVec& buf, std::size_t size) {
        double* d = grow(buf, size);
        std::fill(d, d + size, 0.0);
        return d;
    };
    double* params = zeroed(scratch.params, off.params_total * kW);
    double* velocity = zeroed(scratch.velocity, off.params_total * kW);
    double* acts = zeroed(scratch.acts, off.acts_total * kW);
    double* deltas = zeroed(scratch.deltas, off.units_total * kW);
    std::size_t* orders = grow(scratch.order, train_rows * kW);

    std::array<std::size_t, kW> job_of{};
    alignas(64) std::array<double, kW> lr{};
    alignas(64) std::array<double, kW> momentum{};
    alignas(64) std::array<double, kW> weight_decay{};
    alignas(64) std::array<double, kW> target{};
    alignas(64) std::array<double, kW> sums{};
    std::array<double, kW> best{};
    std::array<int, kW> since_best{};
    std::array<std::size_t, kW> live{};
    std::size_t num_live = 0;
    const double empty_loss =
        val_rows > 0 ? std::numeric_limits<double>::infinity() : 0.0;

    // Stores lane b's network back into its job and parks the lane on
    // zeroed parameters and rates.
    const auto unload = [&](std::size_t b) {
        MlpBatchJob& job = jobs[job_of[b]];
        for (std::size_t e = 0; e < off.params_total; ++e) {
            job.params[e] = params[e * kW + b];
            job.velocity[e] = velocity[e * kW + b];
            params[e * kW + b] = 0.0;
            velocity[e * kW + b] = 0.0;
        }
        lr[b] = 0.0;
        momentum[b] = 0.0;
        weight_decay[b] = 0.0;
        job_of[b] = kIdle;
    };
    std::size_t next = 0;
    // Loads the next pending job with epochs to run into lane b (jobs
    // with none finish untouched), or leaves the lane idle.
    const auto refill = [&](std::size_t b) {
        while (next < count) {
            MlpBatchJob& job = jobs[next];
            job.epochs_run = 0;
            job.loss = empty_loss;
            if (job.epochs <= 0) {
                ++next;
                continue;
            }
            job_of[b] = next++;
            for (std::size_t e = 0; e < off.params_total; ++e) {
                params[e * kW + b] = job.params[e];
                velocity[e * kW + b] = job.velocity[e];
            }
            lr[b] = job.learning_rate;
            momentum[b] = job.momentum;
            weight_decay[b] = job.weight_decay;
            best[b] = std::numeric_limits<double>::infinity();
            since_best[b] = 0;
            mlp_seed_lane(scratch, b, job.seed);
            std::size_t* order = orders + b * train_rows;
            for (std::size_t k = 0; k < train_rows; ++k) order[k] = k;
            return;
        }
        job_of[b] = kIdle;
    };
    // Copies row `row` of every live lane's own dataset (for lane b, row
    // `rows_of(b)`) into the input activations and the target slots.
    const auto gather = [&](auto rows_of) {
        for (std::size_t k = 0; k < num_live; ++k) {
            const std::size_t b = live[k];
            const MlpBatchJob& job = jobs[job_of[b]];
            const std::size_t row = rows_of(b);
            const double* x = job.features + row * inputs;
            for (std::size_t i = 0; i < inputs; ++i) acts[i * kW + b] = x[i];
            target[b] = job.targets[row];
        }
    };

    for (std::size_t b = 0; b < kW; ++b) refill(b);
    while (true) {
        num_live = 0;
        for (std::size_t b = 0; b < kW; ++b) {
            if (job_of[b] != kIdle) live[num_live++] = b;
        }
        if (num_live == 0) break;
        // Top of epoch, per live lane: hook, count, reshuffle.
        for (std::size_t k = 0; k < num_live; ++k) {
            const std::size_t b = live[k];
            if (batch.on_epoch != nullptr) batch.on_epoch(batch.context, job_of[b]);
            ++jobs[job_of[b]].epochs_run;
            std::size_t* order = orders + b * train_rows;
            mlp_shuffle_lane(scratch, b, order, train_rows);
        }

        const auto lrv = V::loadu(lr.data());
        const auto mov = V::loadu(momentum.data());
        const auto wdv = V::loadu(weight_decay.data());
        auto loss = V::zero();
        for (std::size_t step = 0; step < train_rows; ++step) {
            gather([&](std::size_t b) { return orders[b * train_rows + step]; });
            mlp_forward_lanes<V>(shape, off, params, acts);
            const auto err =
                V::sub(V::loadu(acts + out_act * kW), V::loadu(target.data()));
            loss = V::add(loss, V::mul(err, err));

            // Backprop: the output delta is the plain error (linear
            // output, MSE); hidden deltas are the ascending-k weighted
            // sums times the activation gradient.
            V::storeu(deltas + out_unit * kW, err);
            for (std::size_t l = shape.num_layers - 2; l-- > 0;) {
                mlp_backprop_layer_lanes<V>(
                    params + off.param[l + 1] * kW, deltas + off.unit[l + 1] * kW,
                    acts + off.act[l + 1] * kW, deltas + off.unit[l] * kW,
                    static_cast<std::size_t>(shape.layer_sizes[l + 1]),
                    static_cast<std::size_t>(shape.layer_sizes[l + 2]),
                    shape.activation);
            }
            // SGD + momentum, every layer after all deltas are known.
            for (std::size_t l = 0; l + 1 < shape.num_layers; ++l) {
                mlp_sgd_layer_lanes<V>(
                    params + off.param[l] * kW, velocity + off.param[l] * kW,
                    acts + off.act[l] * kW, deltas + off.unit[l] * kW,
                    static_cast<std::size_t>(shape.layer_sizes[l]),
                    static_cast<std::size_t>(shape.layer_sizes[l + 1]), lrv,
                    mov, wdv);
            }
        }
        V::storeu(sums.data(), loss);
        alignas(64) std::array<double, kW> train_loss = sums;

        if (val_rows > 0) {
            auto val = V::zero();
            for (std::size_t row = train_rows; row < rows; ++row) {
                gather([row](std::size_t) { return row; });
                mlp_forward_lanes<V>(shape, off, params, acts);
                const auto err = V::sub(V::loadu(acts + out_act * kW),
                                        V::loadu(target.data()));
                val = V::add(val, V::mul(err, err));
            }
            V::storeu(sums.data(), val);
        }

        // Epoch end, per live lane: decay, early stopping, refill.
        for (std::size_t k = 0; k < num_live; ++k) {
            const std::size_t b = live[k];
            MlpBatchJob& job = jobs[job_of[b]];
            lr[b] *= job.lr_decay;
            bool stop = false;
            if (val_rows > 0) {
                const double v = sums[b] / static_cast<double>(val_rows);
                if (v < best[b] - 1e-12) {
                    best[b] = v;
                    since_best[b] = 0;
                } else if (++since_best[b] >= job.patience) {
                    stop = true;
                }
                job.loss = best[b];
            } else {
                job.loss = train_loss[b] / static_cast<double>(train_rows);
            }
            if (stop || job.epochs_run >= job.epochs) {
                unload(b);
                refill(b);
            }
        }
    }
}

}  // namespace
}  // namespace atm::simd
