// The scalar kernel table: the generic DTW recurrence and MLP trainer of
// kernels_generic.hpp instantiated one lane wide (VecScalar), one pair
// and one network at a time. It is the path every binary carries and the
// one ATM_SIMD=scalar forces; the tests pin it, like every vector path,
// against their own textbook DTW and MLP references.

#include <algorithm>
#include <cstddef>

#include "linalg/simd/kernels_generic.hpp"
#include "linalg/simd/simd.hpp"

namespace atm::simd {

const KernelTable& scalar_kernel_table() {
    static const KernelTable table{
        Path::kScalar,
        /*dtw_batch_width=*/VecScalar::kWidth,
        dtw_distance_batch_vec<VecScalar>,
        mlp_train_batch_vec<VecScalar>,
        mlp_activate_array<VecScalar>,
    };
    return table;
}

double mlp_predict(const MlpShape& shape, const double* params,
                   const double* inputs, MlpScratch& scratch) {
    const MlpOffsets off = mlp_offsets(shape, scratch.offsets);
    if (scratch.acts.size() < off.acts_total) scratch.acts.resize(off.acts_total);
    const auto in = static_cast<std::size_t>(shape.layer_sizes[0]);
    std::copy(inputs, inputs + in, scratch.acts.begin());
    mlp_forward_lanes<VecScalar>(shape, off, params, scratch.acts.data());
    return scratch.acts[off.acts_total - 1];
}

}  // namespace atm::simd
