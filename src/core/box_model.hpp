#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "core/pipeline.hpp"
#include "core/signature_search.hpp"
#include "core/spatial_model.hpp"
#include "forecast/forecaster.hpp"
#include "forecast/mlp_forecaster.hpp"
#include "resize/policies.hpp"
#include "tracegen/trace.hpp"

namespace atm::core {

/// Records one fired rung of the degradation ladder: an entry in
/// `degradations` plus a `robust.fallback.<stage>` counter in `metrics`
/// (either may be null). Nothing calls this on the clean path.
void note_degradation(std::vector<Degradation>* degradations,
                      obs::MetricsRegistry* metrics, PipelineErrorCode code,
                      std::string stage, std::string detail);

/// One box's ATM model (DESIGN.md §7.11): a signature set, the spatial
/// OLS model of every other series on it, and one temporal model per
/// signature, behind one degradation ladder. The batch pipeline fits one
/// per box and forecasts the evaluation day from it; the serve engine
/// keeps one per box, warm-updates it and forecasts every window.
///
/// `config` supplies the search options, temporal model, fault context,
/// cancellation token, metrics sink and workspace of each call. Histories
/// are the box's flat series (one row per series, equal lengths).
/// Cancellation propagates as exec::OperationCancelled: a cancelled
/// warm_update leaves the model as it was, a cancelled fit leaves it
/// unusable (serve fits a fresh model and keeps it only once fit returns).
class BoxModel {
  public:
    using Series = std::vector<std::vector<double>>;

    /// Training knobs the callers choose beyond PipelineConfig: one
    /// temporal-model seed per series (indexed like the history) and the
    /// MLP epoch caps, where 0 keeps MlpTrainOptions::epochs.
    struct Training {
        std::vector<unsigned> seeds;
        int epochs = 0;       ///< fit() and cold refits
        int warm_epochs = 0;  ///< warm_update() continuations
    };

    /// Signature search, spatial fit and the signatures' MLPs on
    /// `history`, replacing any previous fit; `windows_per_day` is the
    /// temporal models' seasonal period. A failed or degenerate search
    /// and a failed spatial fit fall back to the all-signature set, and
    /// dependents OLS cannot fit use ridge; each fired rung is recorded
    /// via note_degradation. With the MLP configured, every signature's
    /// network trains in one lane batch; a signature whose fit faults or
    /// fails starts forecast()'s ladder one rung down.
    void fit(const Series& history, int windows_per_day,
             const PipelineConfig& config, const Training& training,
             std::vector<Degradation>* degradations);

    /// Continues every signature MLP on `history`, a newer window of the
    /// fitted series, for `training.warm_epochs` epochs under its pinned
    /// scaler — or refits it cold when the window left that scaler's
    /// range — all in one lane batch, seeded by `training.seeds`. All or
    /// nothing: the updated networks replace the old ones only once every
    /// one has trained. Returns the number of cold refits.
    std::size_t warm_update(const Series& history, const PipelineConfig& config,
                            const Training& training);

    /// The `horizon` samples after `history` (the fitted history or a
    /// newer window of it) of every series: each signature's temporal
    /// forecast, reconstructed through the spatial model. Per signature
    /// the ladder runs the configured model (the fitted MLP, or any other
    /// model fitted on `history`), then AR, then seasonal naive, until
    /// one fits and forecasts finite values; a fallback is recorded via
    /// note_degradation. With `held` set, a non-finite signature or
    /// series forecast is instead replaced by that series' last sample
    /// and counted there — serve's rule, whose models forecast many
    /// windows between refits.
    [[nodiscard]] Series forecast(const Series& history, int horizon,
                                  const PipelineConfig& config,
                                  std::vector<Degradation>* degradations,
                                  std::uint64_t* held = nullptr) const;

    /// Capacities `policy` gives one resource of `box` for the per-VM
    /// `demands`: a budget of the box's capacity at `config.alpha`, each
    /// VM's current size as an extra candidate, discretization at
    /// `config.epsilon_pct` of each VM's size, and `lower_bounds` (empty
    /// for none). When an ATM policy comes back infeasible, or any policy
    /// throws (the ATM ones also at fault site "resize.mckp"), max-min
    /// fairness takes over, recorded as a "resize" degradation.
    static resize::ResizeResult resize(const trace::BoxTrace& box,
                                       ts::ResourceKind kind, Series demands,
                                       std::vector<double> lower_bounds,
                                       resize::ResizePolicy policy,
                                       const PipelineConfig& config,
                                       std::vector<Degradation>* degradations);

    /// The search result, with `signatures` set to the fitted set (the
    /// all-signature set after a search or spatial fallback).
    [[nodiscard]] const SignatureSearchResult& search() const { return search_; }
    [[nodiscard]] const std::vector<int>& signatures() const {
        return spatial_.signature_indices();
    }

  private:
    /// One signature's temporal state.
    struct Temporal {
        unsigned seed = 0;
        /// The fitted MLP; null when it is not the configured model, or
        /// when its fit faulted or failed (recorded in fit_code/fit_error).
        std::unique_ptr<forecast::MlpForecaster> mlp;
        PipelineErrorCode fit_code = PipelineErrorCode::kNone;
        std::string fit_error;
    };

    SignatureSearchResult search_;
    SpatialModel spatial_;
    std::vector<forecast::TemporalModel> ladder_;
    int seasonal_period_ = 96;
    std::vector<Temporal> temporal_;  ///< parallel to signatures()
};

}  // namespace atm::core
