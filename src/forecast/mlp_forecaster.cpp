#include "forecast/mlp_forecaster.hpp"

#include <algorithm>
#include <stdexcept>

namespace atm::forecast {

MlpForecaster::MlpForecaster(MlpForecasterOptions options)
    : options_(std::move(options)) {
    if (options_.num_lags < 1) {
        throw std::invalid_argument("MlpForecaster: num_lags must be >= 1");
    }
    if (options_.seasonal_period < 0) {
        throw std::invalid_argument("MlpForecaster: negative seasonal period");
    }
}

void MlpForecaster::keep_history(std::span<const double> history) {
    // Only the last max(lags, period) samples feed any forecast feature.
    const std::size_t keep = std::min(
        history.size(), static_cast<std::size_t>(std::max(
                            options_.num_lags, options_.seasonal_period)));
    history_.assign(history.end() - static_cast<std::ptrdiff_t>(keep),
                    history.end());
}

std::optional<MlpTrainJob> MlpForecaster::prepare_fit(
    std::span<const double> history, la::FlatMatrix& features,
    std::vector<double>& targets, obs::MetricsRegistry* metrics,
    const exec::CancellationToken* cancel) {
    if (history.empty()) throw std::invalid_argument("MlpForecaster::fit: empty history");
    keep_history(history);

    scaler_.fit(history);
    const std::vector<double> scaled = scaler_.transform(history);

    // Flat lag dataset: one contiguous feature block instead of one
    // vector per example (same rows/values as make_lag_dataset).
    ts::make_lag_dataset_flat(scaled, options_.num_lags,
                              options_.seasonal_period, features, targets);
    // Degenerate cases: constant series or not enough history for even one
    // training example — predict the last value.
    const double lo = *std::min_element(history.begin(), history.end());
    const double hi = *std::max_element(history.begin(), history.end());
    if (features.rows() < 4 || hi - lo < 1e-12) {
        network_.reset();
        return std::nullopt;
    }

    const int input_size = static_cast<int>(features.cols());
    std::vector<int> layer_sizes;
    layer_sizes.push_back(input_size);
    for (int h : options_.hidden) layer_sizes.push_back(h);
    layer_sizes.push_back(1);

    network_.emplace(layer_sizes, options_.activation, options_.train.seed);
    MlpTrainJob job{&*network_, &features, targets, options_.train};
    job.options.metrics = metrics;
    job.options.cancel = cancel;
    return job;
}

void MlpForecaster::fit(std::span<const double> history) {
    MlpForecaster* const self = this;
    fit_batch(std::span(&self, 1), std::span(&history, 1), options_.train.metrics,
              options_.train.cancel);
}

void MlpForecaster::fit_batch(std::span<MlpForecaster* const> models,
                              std::span<const std::span<const double>> histories,
                              obs::MetricsRegistry* metrics,
                              const exec::CancellationToken* cancel) {
    if (models.size() != histories.size()) {
        throw std::invalid_argument("MlpForecaster::fit_batch: size mismatch");
    }
    // The lag datasets live only as long as the batch trains.
    std::vector<la::FlatMatrix> features(models.size());
    std::vector<std::vector<double>> targets(models.size());
    std::vector<MlpTrainJob> jobs;
    jobs.reserve(models.size());
    for (std::size_t k = 0; k < models.size(); ++k) {
        if (std::optional<MlpTrainJob> job =
                models[k]->prepare_fit(histories[k], features[k], targets[k],
                                       metrics, cancel)) {
            jobs.push_back(*job);
        }
    }
    if (jobs.empty()) return;
    MlpNetwork::train_batch(jobs, models.front()->options_.workspace);
}

std::size_t MlpForecaster::warm_update_batch(
    std::span<MlpForecaster* const> models,
    std::span<const std::span<const double>> histories,
    std::span<const unsigned> seeds, int warm_epochs,
    obs::MetricsRegistry* metrics, const exec::CancellationToken* cancel) {
    if (models.size() != histories.size() || models.size() != seeds.size()) {
        throw std::invalid_argument("MlpForecaster::warm_update_batch: size mismatch");
    }
    std::size_t cold = 0;
    std::vector<la::FlatMatrix> features(models.size());
    std::vector<std::vector<double>> targets(models.size());
    std::vector<MlpTrainJob> jobs;
    jobs.reserve(models.size());
    for (std::size_t k = 0; k < models.size(); ++k) {
        MlpForecaster& model = *models[k];
        const std::span<const double> history = histories[k];
        if (history.empty()) {
            throw std::invalid_argument("MlpForecaster::warm_update_batch: empty history");
        }
        model.options_.train.seed = seeds[k];
        const auto [lo, hi] = std::minmax_element(history.begin(), history.end());
        const double min = model.scaler_.min();
        const double span = model.scaler_.max() - min;
        if (!model.network_ || span < 1e-12 || *lo < min - 0.5 * span ||
            *hi > model.scaler_.max() + 0.5 * span) {
            ++cold;
            if (std::optional<MlpTrainJob> job =
                    model.prepare_fit(history, features[k], targets[k], metrics,
                                      cancel)) {
                jobs.push_back(*job);
            }
            continue;
        }
        model.keep_history(history);
        ts::make_lag_dataset_flat(model.scaler_.transform(history),
                                  model.options_.num_lags,
                                  model.options_.seasonal_period, features[k],
                                  targets[k]);
        if (features[k].rows() < 4) continue;  // too short: keep weights
        MlpTrainOptions options = model.options_.train;
        options.epochs = warm_epochs;
        options.metrics = metrics;
        options.cancel = cancel;
        jobs.push_back(
            MlpTrainJob{&*model.network_, &features[k], targets[k], options});
    }
    if (!jobs.empty()) {
        MlpNetwork::train_batch(jobs, models.front()->options_.workspace);
    }
    return cold;
}

std::vector<double> MlpForecaster::forecast(int horizon) const {
    return forecast_after(history_, horizon);
}

std::vector<double> MlpForecaster::forecast_after(std::span<const double> history,
                                                  int horizon) const {
    if (history_.empty()) {
        throw std::logic_error("MlpForecaster::forecast before fit");
    }
    if (history.empty()) {
        throw std::invalid_argument("MlpForecaster::forecast_after: empty history");
    }
    const auto steps = static_cast<std::size_t>(std::max(horizon, 0));
    if (!network_) return std::vector<double>(steps, history.back());

    // Scaled extended series: history then forecasts, so lag/seasonal
    // features for later steps can be looked up uniformly. Only the last
    // max(lags, period) samples feed any feature, so only they are scaled.
    const auto lags = static_cast<std::size_t>(options_.num_lags);
    const auto period = static_cast<std::size_t>(options_.seasonal_period);
    std::vector<double> extended =
        scaler_.transform(history.last(std::min(history.size(), std::max(lags, period))));
    extended.reserve(extended.size() + steps);
    std::vector<double> out;
    out.reserve(steps);

    // One workspace and feature buffer reused across the horizon: the
    // per-step loop below is allocation-free. A caller-provided
    // workspace (per-worker, arena-backed) is reused across boxes too.
    MlpWorkspace local_workspace;
    MlpWorkspace& workspace = options_.workspace != nullptr
                                  ? *options_.workspace
                                  : local_workspace;
    std::vector<double> features;
    features.reserve(lags + (period > 0 ? 1 : 0));
    for (std::size_t h = 0; h < steps; ++h) {
        features.clear();
        for (std::size_t k = lags; k >= 1; --k) {
            features.push_back(k <= extended.size() ? extended[extended.size() - k]
                                                    : extended.front());
        }
        if (period > 0) {
            features.push_back(period <= extended.size()
                                   ? extended[extended.size() - period]
                                   : extended.front());
        }
        // Clamp to the scaler's range: utilization-like series cannot run
        // away, and iterated feedback must not compound extrapolation.
        const double scaled_pred =
            std::clamp(network_->predict(features, workspace), -0.25, 1.25);
        extended.push_back(scaled_pred);
        out.push_back(scaler_.inverse(scaled_pred));
    }
    return out;
}

}  // namespace atm::forecast
