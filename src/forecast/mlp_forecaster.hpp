#pragma once

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
    /// `metrics` and `cancel` serve this call in place of the ones the
    /// models were built with (which only fit() uses).
    static void fit_batch(std::span<MlpForecaster* const> models,
                          std::span<const std::span<const double>> histories,
                          obs::MetricsRegistry* metrics,
                          const exec::CancellationToken* cancel);

    /// Continues every fitted models[k] on histories[k], a newer window
    /// of its series, and returns how many were refit cold instead. A
    /// warm model keeps its network and its scaler pinned at fit time and
    /// trains `warm_epochs` more epochs, shuffled by seeds[k]. A model
    /// without a network (degenerate fit), or whose window left the
    /// pinned range by more than half its span, is refit as fit() would
    /// with seed seeds[k]. `metrics` and `cancel` serve this call as in
    /// fit_batch. Every network trains in one lane batch on
    /// models[0]'s workspace; a cancelled batch leaves them partly
    /// trained, so callers that must not commit update copies.
    static std::size_t warm_update_batch(
        std::span<MlpForecaster* const> models,
        std::span<const std::span<const double>> histories,
        std::span<const unsigned> seeds, int warm_epochs,
        obs::MetricsRegistry* metrics, const exec::CancellationToken* cancel);

    [[nodiscard]] std::vector<double> forecast(int horizon) const override;

    /// Predicts `horizon` samples after `history` — the fitted history
    /// or a newer window of the same series — with the fitted network
    /// and scaler, without refitting. forecast(h) is
    /// forecast_after(fitted history, h).
    [[nodiscard]] std::vector<double> forecast_after(
        std::span<const double> history, int horizon) const;
    [[nodiscard]] std::string name() const override { return "mlp"; }

    [[nodiscard]] const MlpForecasterOptions& options() const { return options_; }

  private:
    /// fit() up to training: scaler, the lag dataset (into `features` and
    /// `targets`, which the returned job points at) and a fresh network.
    /// Returns the network's training job, or nullopt for a degenerate
    /// history (constant, or too short for a dataset), which forecasts
    /// the last value of its history without a network.
    std::optional<MlpTrainJob> prepare_fit(std::span<const double> history,
                                           la::FlatMatrix& features,
                                           std::vector<double>& targets,
                                           obs::MetricsRegistry* metrics,
                                           const exec::CancellationToken* cancel);
    /// Keeps the part of `history` forecasts read (its last
    /// max(num_lags, seasonal_period) samples).
    void keep_history(std::span<const double> history);

    MlpForecasterOptions options_;
    std::optional<MlpNetwork> network_;  ///< empty: degenerate history
    ts::MinMaxScaler scaler_;
    std::vector<double> history_;  ///< keep_history() of the last fit
};

}  // namespace atm::forecast
