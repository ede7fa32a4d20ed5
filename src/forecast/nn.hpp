#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "exec/arena.hpp"
#include "linalg/flat_matrix.hpp"
#include "linalg/simd/simd.hpp"

namespace atm::exec {
class CancellationToken;
}
namespace atm::obs {
class MetricsRegistry;
}

namespace atm::forecast {

/// Activation function for hidden layers of the MLP (the kernel layer's
/// enum, so networks hand it to the SIMD trainer unchanged).
using Activation = simd::MlpActivation;

/// Training hyper-parameters for MlpNetwork::train.
struct MlpTrainOptions {
    int epochs = 80;
    double learning_rate = 0.05;
    double momentum = 0.9;
    /// Multiplicative learning-rate decay applied each epoch.
    double lr_decay = 0.98;
    /// Fraction of examples held out (from the end, before shuffling) for
    /// early stopping. 0 disables early stopping.
    double validation_fraction = 0.15;
    /// Stop if validation loss has not improved for this many epochs.
    int patience = 10;
    /// L2 weight penalty.
    double weight_decay = 1e-5;
    unsigned seed = 42;
    /// Optional stage-metrics sink (not owned): train() records
    /// `forecast.mlp.epochs` / `forecast.mlp.examples` counters. Early
    /// stopping is seed-deterministic, so both counters are too.
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional cooperative-cancellation token (not owned): train()
    /// checks it at the top of every epoch ("forecast.mlp.epoch") and
    /// aborts with exec::OperationCancelled when tripped. Null disables
    /// the check.
    const exec::CancellationToken* cancel = nullptr;
};

/// Reusable training/prediction scratch for MlpNetwork: the kernel
/// layer's lane buffers (simd::MlpScratch), grown for whichever topology
/// and batch uses it and never shrunk — results never depend on what the
/// workspace held before, and a reused workspace makes training and
/// prediction allocation-free. One workspace per thread/task; sharing one
/// instance across concurrent predict/train calls is a race.
class MlpWorkspace {
  public:
    MlpWorkspace() = default;
    /// Arena-backed buffers (per-worker workspaces; the arena must
    /// outlive the workspace — exec/arena.hpp's lifetime rules).
    explicit MlpWorkspace(exec::Arena* arena) : scratch(arena) {}

  private:
    friend class MlpNetwork;

    simd::MlpScratch scratch;
};

class MlpNetwork;

/// One network of an MlpNetwork::train_batch call: train `network` on
/// the rows of `features` against `targets` under `options`. `loss`
/// receives what MlpNetwork::train would return.
struct MlpTrainJob {
    MlpNetwork* network = nullptr;
    const la::FlatMatrix* features = nullptr;
    std::span<const double> targets;
    MlpTrainOptions options;
    double loss = 0.0;  ///< out
};

/// A small fully-connected feed-forward network with one output unit,
/// trained with stochastic gradient descent + momentum and MSE loss.
///
/// This is the from-scratch stand-in for the neural-network temporal model
/// the paper plugs in for signature series (PRACTISE, reference [7]).
/// Hidden layers use the configured activation; the output is linear so
/// the network regresses unbounded targets.
///
/// Weights and biases live in one flat parameter array (simd::MlpShape
/// layout: per layer, weights[j*fan_in + i] from input i to unit j, then
/// the biases), momentum velocities in a second array of the same
/// layout. Training runs on the dispatched SIMD path's lane-batched
/// kernel, which is bit-identical to the scalar path, so a network's
/// weights and predictions never depend on the machine's ISA.
class MlpNetwork {
  public:
    /// `layer_sizes` = {inputs, hidden..., 1}. At least {in, 1}. The final
    /// size must be 1 (scalar regression). Weights are initialized with
    /// Xavier/Glorot uniform scaling from `seed`.
    MlpNetwork(std::vector<int> layer_sizes, Activation activation, unsigned seed);

    /// Forward pass; `inputs` length must equal the input layer size.
    /// The workspace overload is allocation-free once `workspace` has
    /// been sized (first call does that); the plain overload allocates a
    /// fresh local workspace and stays safe for concurrent callers.
    [[nodiscard]] double predict(std::span<const double> inputs) const;
    double predict(std::span<const double> inputs, MlpWorkspace& workspace) const;

    /// Trains on (inputs, target) pairs; returns the best (early-stopped)
    /// validation loss, or the final training loss if validation is off.
    /// A batch of one: exactly train_batch over this single job.
    /// `workspace` (optional, caller-owned) carries the kernel scratch;
    /// passing one reused across fits makes training allocation-free.
    /// Results are identical with or without it.
    double train(const la::FlatMatrix& inputs, std::span<const double> targets,
                 const MlpTrainOptions& options,
                 MlpWorkspace* workspace = nullptr);

    /// Nested-vector convenience overload: copies the examples into one
    /// row-major block, then trains exactly like the flat overload.
    double train(const std::vector<std::vector<double>>& inputs,
                 std::span<const double> targets,
                 const MlpTrainOptions& options,
                 MlpWorkspace* workspace = nullptr);

    /// Trains every job's network, one network per SIMD lane of the
    /// dispatched path, and stores each job's loss. Every network ends
    /// bit-identical to calling train() on it alone — on any path, in
    /// any batch composition. Jobs must share one topology and
    /// activation, one row count, and one validation split; anything
    /// else (or a malformed job) throws std::invalid_argument before any
    /// network is touched. Per-job metrics counters are recorded after
    /// the batch; a cancellation token tripping mid-batch propagates
    /// exec::OperationCancelled and leaves the networks partly trained.
    static void train_batch(std::span<MlpTrainJob> jobs,
                            MlpWorkspace* workspace = nullptr);

    [[nodiscard]] int input_size() const { return layer_sizes_.front(); }

    /// Total trainable parameter count (weights + biases).
    [[nodiscard]] std::size_t parameter_count() const;

    /// Every weight and bias, in simd::MlpShape layout.
    [[nodiscard]] std::span<const double> parameters() const { return params_; }

  private:
    [[nodiscard]] simd::MlpShape shape() const;

    std::vector<int> layer_sizes_;
    Activation activation_;
    std::vector<double> params_;    ///< simd::MlpShape layout
    std::vector<double> velocity_;  ///< momentum buffers, same layout
};

}  // namespace atm::forecast
