#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "forecast/forecaster.hpp"
#include "forecast/nn.hpp"
#include "timeseries/features.hpp"

namespace atm::forecast {

/// Configuration of the MLP temporal model.
struct MlpForecasterOptions {
    /// Consecutive lags fed to the network.
    int num_lags = 6;
    /// Seasonality in samples; > 0 adds one seasonal-lag input feature
    /// (96 = one day of 15-minute windows).
    int seasonal_period = 96;
    /// Hidden layer widths (empty = linear model trained by SGD).
    std::vector<int> hidden = {12};
    Activation activation = Activation::kTanh;
    MlpTrainOptions train;
    /// Optional caller-owned scratch (not owned) shared by fit() and
    /// forecast() — the fleet scheduler's per-worker arena-backed
    /// workspace, reused across boxes. Results are identical with or
    /// without it; null keeps per-call local scratch.
    MlpWorkspace* workspace = nullptr;
};

/// Neural-network forecaster: the paper's temporal model for signature
/// series (PRACTISE-style), realized as a small MLP over lag + seasonal
/// features with min-max-scaled inputs/targets.
///
/// Multi-step forecasts are produced by iterating one-step predictions and
/// feeding them back into the lag window, while seasonal features read
/// genuine history where available.
class MlpForecaster final : public Forecaster {
  public:
    explicit MlpForecaster(MlpForecasterOptions options = {});

    void fit(std::span<const double> history) override;

    /// Fits models[k] on histories[k] for every k — bitwise the models
    /// fit() would produce one by one — training all non-degenerate
    /// networks in one lane-batched MlpNetwork::train_batch call on
    /// models[0]'s workspace. The models must share num_lags,
    /// seasonal_period, hidden, activation and validation fraction, and
    /// the histories one length (std::invalid_argument otherwise).
    static void fit_batch(std::span<MlpForecaster* const> models,
                          std::span<const std::span<const double>> histories);
    [[nodiscard]] std::vector<double> forecast(int horizon) const override;
    [[nodiscard]] std::string name() const override { return "mlp"; }

    [[nodiscard]] const MlpForecasterOptions& options() const { return options_; }

  private:
    /// fit() up to training: scaler, lag dataset and a fresh network.
    /// Returns the network's training job, or nullopt for a degenerate
    /// history (constant, or too short for a dataset), which forecasts
    /// its last value without a network.
    std::optional<MlpTrainJob> prepare_fit(std::span<const double> history);

    MlpForecasterOptions options_;
    std::unique_ptr<MlpNetwork> network_;
    ts::MinMaxScaler scaler_;
    std::vector<double> history_;
    la::FlatMatrix features_;  ///< lag dataset of the last fit
    std::vector<double> targets_;
    bool degenerate_ = false;  ///< constant history: skip the network
    double constant_value_ = 0.0;
};

}  // namespace atm::forecast
