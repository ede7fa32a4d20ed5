#pragma once

#include <cstdint>
#include <cstddef>
#include <random>
#include <string>
#include <vector>

#include "exec/arena.hpp"

/// Runtime-dispatched SIMD kernels for the two pipeline hot loops: the
/// banded DTW recurrence and MLP training (DESIGN.md §7.13).
///
/// Dispatch model: every binary carries the scalar kernels plus
/// whichever vector translation units the target architecture compiles
/// (AVX2/AVX-512 on x86-64, NEON on aarch64). The active path is chosen
/// once — CPUID probe for the best supported ISA, overridable with the
/// ATM_SIMD environment variable or the CLI `--simd` flag — and every
/// kernel call goes through one function-pointer table, so any path can
/// be forced for testing, reproduction, and differential comparison.
///
/// FP policy (the contract tests/test_simd.cpp and the golden suite
/// enforce): every kernel is **bit-identical on every path**, so results
/// never depend on the machine's best ISA.
///   * DTW: every path, scalar included, runs one row recurrence with one
///     pair per lane (the scalar path is one lane wide). Each cell is one
///     subtract, one multiply, a three-way min and one add, never fused
///     (-ffp-contract=off), so a pair's distance does not depend on the
///     path or on its lane-mates.
///   * MLP: vector paths train one network per SIMD lane. Each lane runs
///     the scalar operation sequence — ascending-index dot products
///     seeded with the bias, unfused multiply/add, and the project's own
///     activations (KernelTable::mlp_activate: IEEE add/sub/mul/div, min,
///     bitwise ops and lane selects, no libm) — so nothing is ever
///     reassociated and every lane's weights equal a one-network scalar
///     run bit for bit, on any host's libm.
namespace atm::simd {

/// Instruction-set paths a build may carry. kScalar, the generic kernels
/// one lane wide, is always compiled; the vector paths exist only on
/// their architecture.
enum class Path : int {
    kScalar = 0,
    kAvx2,
    kAvx512,
    kNeon,
};

/// Grown-on-demand buffer types for kernel scratch: default-constructed
/// they are plain heap vectors; constructed over an exec::Arena they
/// draw slab memory instead (per-worker workspaces, DESIGN.md §7.14).
using ScratchVec = exec::ArenaVector<double>;
using ScratchIdxVec = exec::ArenaVector<std::size_t>;

/// Grows `buf` to at least `size` elements (never shrinks) and returns
/// its data. Defined out of line in the portable simd.cpp, like the MLP
/// lane-shuffle helpers below, so the vector kernel objects carry no
/// weak copy of a library template that the linker could pick for every
/// path.
double* grow(ScratchVec& buf, std::size_t size);
std::size_t* grow(ScratchIdxVec& buf, std::size_t size);

/// Reusable scratch for the DTW kernel, grown on demand and never shrunk
/// (steady-state calls allocate nothing): the two lane-interleaved
/// rolling DP rows (`prev`/`curr`), the input series staged
/// lane-interleaved (`lanes_p`/`lanes_q`) and the per-row band windows
/// (`jlo`/`jhi`). Each call re-initializes every cell it reads, so one
/// scratch serves calls of any sizes. Not thread-safe: one scratch per
/// thread/task.
struct DtwScratch {
    DtwScratch() = default;
    /// Arena-backed scratch for workspace-lifetime reuse. The arena must
    /// outlive the scratch; see exec/arena.hpp's lifetime rules.
    explicit DtwScratch(exec::Arena* arena)
        : prev(exec::ArenaAllocator<double>(arena)),
          curr(exec::ArenaAllocator<double>(arena)),
          lanes_p(exec::ArenaAllocator<double>(arena)),
          lanes_q(exec::ArenaAllocator<double>(arena)),
          jlo(exec::ArenaAllocator<std::size_t>(arena)),
          jhi(exec::ArenaAllocator<std::size_t>(arena)) {}

    ScratchVec prev;
    ScratchVec curr;
    ScratchVec lanes_p;
    ScratchVec lanes_q;
    ScratchIdxVec jlo;
    ScratchIdxVec jhi;
};

/// Hidden-unit activation of an MLP (forecast::Activation is this type).
enum class MlpActivation : int {
    kTanh,
    kRelu,
    kSigmoid,
};

/// Topology shared by every network of one lane batch. A network's
/// parameters live in one flat array: for each weight layer l in order,
/// its fan_out × fan_in weights (weights[j * fan_in + i] from input i to
/// unit j) followed by its fan_out biases. Velocities use the same
/// layout. The output layer is linear; hidden layers use `activation`.
struct MlpShape {
    const int* layer_sizes = nullptr;  ///< {inputs, hidden..., outputs}
    std::size_t num_layers = 0;        ///< entries of layer_sizes, >= 2
    MlpActivation activation = MlpActivation::kTanh;
};

/// Flat parameter count of one network of `shape` (weights + biases).
inline std::size_t mlp_parameter_count(const MlpShape& shape) {
    std::size_t count = 0;
    for (std::size_t l = 0; l + 1 < shape.num_layers; ++l) {
        const auto fan_in = static_cast<std::size_t>(shape.layer_sizes[l]);
        const auto fan_out = static_cast<std::size_t>(shape.layer_sizes[l + 1]);
        count += fan_out * (fan_in + 1);
    }
    return count;
}

/// What every job of one mlp_train_batch call shares: the shape (single
/// output unit) and the row split of its equally long datasets.
struct MlpBatch {
    MlpShape shape;
    std::size_t rows = 0;        ///< examples per job, > 0
    /// Leading rows trained on, in (0, rows]; the trailing rows
    /// (chronologically last) are the early-stopping validation set.
    std::size_t train_rows = 0;
    /// Called at the top of each epoch of job `job` (before its shuffle);
    /// may throw, which abandons the whole batch mid-flight (cooperative
    /// cancellation). Null disables the hook.
    void (*on_epoch)(void* context, std::size_t job) = nullptr;
    void* context = nullptr;
};

/// One network of a lane batch and its training options. Per network the
/// kernel runs: order = 0..train_rows−1, rng = mt19937(seed), lr =
/// learning_rate; each epoch (at most `epochs`) calls on_epoch, shuffles
/// `order` in place with rng, and for each row runs forward, MSE
/// backprop of err = out − target, and per layer the SGD+momentum update
///   grad = delta*in + weight_decay*w;  vel = momentum*vel − lr*grad;
///   w += vel;  bias_vel = momentum*bias_vel − lr*delta;  b += bias_vel
/// then lr *= lr_decay; with validation rows it stops once the mean
/// validation error has not improved by more than 1e-12 for `patience`
/// consecutive epochs. Final weights are kept (not the best epoch's).
struct MlpBatchJob {
    double* params = nullptr;          ///< in/out, MlpShape layout
    double* velocity = nullptr;        ///< in/out, MlpShape layout
    const double* features = nullptr;  ///< rows × inputs, row-major
    const double* targets = nullptr;   ///< rows
    int epochs = 0;
    double learning_rate = 0.0;
    double momentum = 0.0;
    double lr_decay = 1.0;
    double weight_decay = 0.0;
    int patience = 0;
    unsigned seed = 0;
    int epochs_run = 0;  ///< out
    /// Out: best validation MSE, or the last epoch's training MSE when
    /// the batch has no validation rows.
    double loss = 0.0;
};

/// Reusable MLP scratch, grown on demand and never shrunk, so a reused
/// scratch trains and predicts allocation-free. Lane buffers are
/// interleaved (`buf[element * width + lane]`); `order` holds each lane's
/// shuffle order contiguously. Not thread-safe: one per thread/task.
struct MlpScratch {
    MlpScratch() = default;
    /// Arena-backed scratch (exec/arena.hpp lifetime rules apply).
    explicit MlpScratch(exec::Arena* arena)
        : params(exec::ArenaAllocator<double>(arena)),
          velocity(exec::ArenaAllocator<double>(arena)),
          acts(exec::ArenaAllocator<double>(arena)),
          deltas(exec::ArenaAllocator<double>(arena)),
          order(exec::ArenaAllocator<std::size_t>(arena)),
          offsets(exec::ArenaAllocator<std::size_t>(arena)) {}

    ScratchVec params;
    ScratchVec velocity;
    ScratchVec acts;    ///< activations, every layer incl. the inputs
    ScratchVec deltas;  ///< backprop deltas, layers 1..L
    ScratchIdxVec order;
    ScratchIdxVec offsets;  ///< per-layer acts/unit/param offsets
    std::vector<std::mt19937> rngs;  ///< per-lane shuffle streams
};

/// Reseeds lane `lane`'s shuffle stream (mt19937(seed)) as a job enters it.
void mlp_seed_lane(MlpScratch& scratch, std::size_t lane, unsigned seed);
/// std::shuffle of order[0..n) with lane `lane`'s stream.
void mlp_shuffle_lane(MlpScratch& scratch, std::size_t lane,
                      std::size_t* order, std::size_t n);

/// Output of one network of `shape` on `inputs` (layer_sizes[0] values).
/// The same forward pass, per lane, as the training kernels on every
/// path, so a prediction never depends on the dispatched path.
double mlp_predict(const MlpShape& shape, const double* params,
                   const double* inputs, MlpScratch& scratch);

/// The per-path kernel table. All pointers are non-null in every
/// registered table.
struct KernelTable {
    Path path;

    /// Pairs the DTW kernel folds into one pass (1 on the scalar path,
    /// the register lane count on vector paths). Callers size their
    /// flush groups with this.
    std::size_t dtw_batch_width;

    /// Banded DTW over `count` ≤ dtw_batch_width pairs of non-empty
    /// series (the caller handles empty ones) that all share the same
    /// lengths (n, m) and band (< 0 = unconstrained): writes out[b] =
    /// λ(n, m) of (ps[b], qs[b]) for b < count. The one DTW recurrence of
    /// every path — the row DP with one pair per lane — so each result is
    /// bit-identical on every path and for any lane-mates, for finite
    /// inputs (NaN propagation is unspecified: the pipeline repairs
    /// series before DTW). A single pair is a batch of one.
    void (*dtw_distance_batch)(const double* const* ps,
                               const double* const* qs, std::size_t count,
                               std::size_t n, std::size_t m, int band,
                               DtwScratch& scratch, double* out);

    /// Lane-batched MLP training: fits every job of `jobs[0..count)`
    /// (all sharing `batch`'s shape and row split) with per-sample SGD +
    /// momentum, keeping at most one network per SIMD lane in flight and
    /// refilling a lane with the next pending job at the epoch boundary
    /// where its network stops. Each job's parameters, velocities,
    /// epochs_run and loss end bit-identical to a one-job scalar call
    /// (see MlpBatchJob for the per-network algorithm). The scalar table
    /// trains the jobs one after another.
    void (*mlp_train_batch)(const MlpBatch& batch, MlpBatchJob* jobs,
                            std::size_t count, MlpScratch& scratch);

    /// out[i] = activation(in[i]) for i < n: the hidden-unit activation
    /// every MLP kernel and mlp_predict evaluate, bit-identical on every
    /// path. tanh is within 2 ULP of glibc's on [−25, 25], keeps ±0,
    /// subnormals and NaN, and is exactly ±1 from |x| ≥ 19.1; sigmoid is
    /// 1 / (1 + e^−x) through the same exponential (exactly 0 below
    /// x = −708); relu is x > 0 ? x : 0. `in` and `out` may be equal.
    void (*mlp_activate)(MlpActivation activation, const double* in,
                         double* out, std::size_t n);
};

/// ULP distance between two finite doubles (0 when bit-equal, including
/// across ±0.0); max() when either is NaN or they differ in sign.
std::uint64_t ulp_distance(double a, double b);

const char* to_string(Path path);

/// Parses "scalar" | "avx2" | "avx512" | "neon". Throws
/// std::invalid_argument on anything else.
Path parse_path(const std::string& name);

/// Paths whose kernels are compiled into this binary (always includes
/// kScalar), in ascending preference order.
std::vector<Path> compiled_paths();

/// Compiled paths this machine's CPU can actually execute.
std::vector<Path> supported_paths();

/// The most-preferred supported path (what auto-dispatch picks).
Path best_supported_path();

/// The active path. First use resolves it: the ATM_SIMD environment
/// variable if set (throwing std::invalid_argument on unknown or
/// unsupported values), otherwise best_supported_path().
Path active_path();

/// The active path's kernel table (same resolution as active_path()).
const KernelTable& active_kernels();

/// Forces the active path; throws std::invalid_argument if `path` is not
/// compiled in or not supported by this CPU. Takes effect for subsequent
/// kernel calls process-wide (the fleet driver records the path in its
/// metrics report, and the checkpoint journal header binds it, so a
/// resumed run never mixes paths).
void set_path(Path path);

/// Kernel table for an explicitly chosen path (throws like set_path).
/// Lets tests and benchmarks compare paths without mutating the global.
const KernelTable& kernels_for(Path path);

}  // namespace atm::simd
