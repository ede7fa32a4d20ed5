#include "forecast/nn.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "exec/cancel.hpp"
#include "obs/metrics.hpp"

namespace atm::forecast {

MlpNetwork::MlpNetwork(std::vector<int> layer_sizes, Activation activation,
                       unsigned seed)
    : layer_sizes_(std::move(layer_sizes)), activation_(activation) {
    if (layer_sizes_.size() < 2) {
        throw std::invalid_argument("MlpNetwork: need at least input and output layer");
    }
    if (layer_sizes_.back() != 1) {
        throw std::invalid_argument("MlpNetwork: output layer must have size 1");
    }
    for (int s : layer_sizes_) {
        if (s < 1) throw std::invalid_argument("MlpNetwork: layer size must be >= 1");
    }
    params_.assign(simd::mlp_parameter_count(shape()), 0.0);
    velocity_.assign(params_.size(), 0.0);
    // Xavier/Glorot uniform weights, drawn layer by layer in row-major
    // order (unit j's row, then input i); biases stay zero.
    std::mt19937 rng(seed);
    double* layer = params_.data();
    for (std::size_t l = 0; l + 1 < layer_sizes_.size(); ++l) {
        const int fan_in = layer_sizes_[l];
        const int fan_out = layer_sizes_[l + 1];
        const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
        std::uniform_real_distribution<double> dist(-limit, limit);
        const auto weights =
            static_cast<std::size_t>(fan_out) * static_cast<std::size_t>(fan_in);
        for (std::size_t k = 0; k < weights; ++k) layer[k] = dist(rng);
        layer += weights + static_cast<std::size_t>(fan_out);
    }
}

simd::MlpShape MlpNetwork::shape() const {
    return simd::MlpShape{layer_sizes_.data(), layer_sizes_.size(), activation_};
}

double MlpNetwork::predict(std::span<const double> inputs,
                           MlpWorkspace& workspace) const {
    if (inputs.size() != static_cast<std::size_t>(layer_sizes_.front())) {
        throw std::invalid_argument("MlpNetwork::predict: input size mismatch");
    }
    return simd::mlp_predict(shape(), params_.data(), inputs.data(),
                             workspace.scratch);
}

double MlpNetwork::predict(std::span<const double> inputs) const {
    MlpWorkspace workspace;
    return predict(inputs, workspace);
}

std::size_t MlpNetwork::parameter_count() const { return params_.size(); }

double MlpNetwork::train(const la::FlatMatrix& inputs,
                         std::span<const double> targets,
                         const MlpTrainOptions& options,
                         MlpWorkspace* workspace) {
    MlpTrainJob job{this, &inputs, targets, options};
    train_batch(std::span<MlpTrainJob>(&job, 1), workspace);
    return job.loss;
}

double MlpNetwork::train(const std::vector<std::vector<double>>& inputs,
                         std::span<const double> targets,
                         const MlpTrainOptions& options,
                         MlpWorkspace* workspace) {
    for (const auto& x : inputs) {
        if (x.size() != static_cast<std::size_t>(layer_sizes_.front())) {
            throw std::invalid_argument("MlpNetwork::train: input size mismatch");
        }
    }
    const la::FlatMatrix rows(inputs);
    return train(rows, targets, options, workspace);
}

namespace {

/// Rows held out (from the end, before shuffling) for early stopping —
/// time-series aware: never validate on data older than training rows.
std::size_t validation_rows(std::size_t count, const MlpTrainOptions& options) {
    if (options.validation_fraction <= 0.0 || count < 10) return 0;
    const auto rows = static_cast<std::size_t>(options.validation_fraction *
                                               static_cast<double>(count));
    return std::min(rows, count - 1);
}

/// MlpBatch::on_epoch hook: the per-epoch cancellation point of each job.
void check_cancel(void* context, std::size_t job) {
    const auto* jobs = static_cast<const MlpTrainJob*>(context);
    exec::checkpoint(jobs[job].options.cancel, "forecast.mlp.epoch");
}

}  // namespace

void MlpNetwork::train_batch(std::span<MlpTrainJob> jobs,
                             MlpWorkspace* workspace) {
    if (jobs.empty()) return;
    const MlpNetwork* first = jobs.front().network;
    if (first == nullptr || jobs.front().features == nullptr) {
        throw std::invalid_argument("MlpNetwork::train_batch: null network or features");
    }
    const std::size_t rows = jobs.front().features->rows();
    const std::size_t val_rows = validation_rows(rows, jobs.front().options);
    for (const MlpTrainJob& job : jobs) {
        if (job.network == nullptr || job.features == nullptr) {
            throw std::invalid_argument("MlpNetwork::train_batch: null network or features");
        }
        const MlpNetwork& net = *job.network;
        if (net.layer_sizes_ != first->layer_sizes_ ||
            net.activation_ != first->activation_) {
            throw std::invalid_argument("MlpNetwork::train_batch: mismatched topology");
        }
        if (job.features->rows() != job.targets.size()) {
            throw std::invalid_argument("MlpNetwork::train: example count mismatch");
        }
        if (job.features->rows() == 0) {
            throw std::invalid_argument("MlpNetwork::train: no examples");
        }
        if (job.features->cols() != static_cast<std::size_t>(net.input_size())) {
            throw std::invalid_argument("MlpNetwork::train: input size mismatch");
        }
        if (job.features->rows() != rows) {
            throw std::invalid_argument("MlpNetwork::train_batch: mismatched row count");
        }
        if (validation_rows(rows, job.options) != val_rows) {
            throw std::invalid_argument("MlpNetwork::train_batch: mismatched validation split");
        }
    }

    // Per-call kernel job list (a few dozen bytes per network); the lane
    // buffers themselves come from the reused workspace.
    std::vector<simd::MlpBatchJob> lanes(jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        MlpTrainJob& job = jobs[k];
        const MlpTrainOptions& o = job.options;
        simd::MlpBatchJob& lane = lanes[k];
        lane.params = job.network->params_.data();
        lane.velocity = job.network->velocity_.data();
        lane.features = job.features->data().data();
        lane.targets = job.targets.data();
        lane.epochs = o.epochs;
        lane.learning_rate = o.learning_rate;
        lane.momentum = o.momentum;
        lane.lr_decay = o.lr_decay;
        lane.weight_decay = o.weight_decay;
        lane.patience = o.patience;
        lane.seed = o.seed;
    }
    simd::MlpBatch batch;
    batch.shape = first->shape();
    batch.rows = rows;
    batch.train_rows = rows - val_rows;
    batch.on_epoch = check_cancel;
    batch.context = jobs.data();

    MlpWorkspace local;
    MlpWorkspace& ws = workspace != nullptr ? *workspace : local;
    simd::active_kernels().mlp_train_batch(batch, lanes.data(), lanes.size(),
                                           ws.scratch);

    for (std::size_t k = 0; k < jobs.size(); ++k) {
        jobs[k].loss = lanes[k].loss;
        if (obs::MetricsRegistry* metrics = jobs[k].options.metrics) {
            metrics->add("forecast.mlp.fits");
            metrics->add("forecast.mlp.epochs",
                         static_cast<std::uint64_t>(lanes[k].epochs_run));
            metrics->add("forecast.mlp.examples", rows);
        }
    }
}

}  // namespace atm::forecast
