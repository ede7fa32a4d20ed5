#include "core/box_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

namespace atm::core {
namespace {

/// Cancellation must escape the degradation ladder: every rung's catch
/// block calls this first, so a box cancelled mid-stage (deadline or
/// operator stop) aborts instead of "recovering" onto a fallback and
/// burning the rest of its budget. Only valid inside a catch block.
void rethrow_if_cancelled(const std::exception& e) {
    if (dynamic_cast<const exec::OperationCancelled*>(&e) != nullptr) throw;
}

/// Classifies an in-flight exception for degradation bookkeeping:
/// injected faults and PipelineErrors keep their own code; anything else
/// gets the rung's default code.
PipelineErrorCode classify_current(const std::exception& e,
                                   PipelineErrorCode fallback_code) {
    if (dynamic_cast<const exec::InjectedFault*>(&e) != nullptr) {
        return PipelineErrorCode::kFaultInjected;
    }
    if (const auto* pe = dynamic_cast<const PipelineError*>(&e)) {
        return pe->code();
    }
    return fallback_code;
}

forecast::MlpWorkspace* mlp_workspace(const PipelineConfig& config) {
    return config.workspace != nullptr ? &config.workspace->mlp : nullptr;
}

}  // namespace

void note_degradation(std::vector<Degradation>* degradations,
                      obs::MetricsRegistry* metrics, PipelineErrorCode code,
                      std::string stage, std::string detail) {
    if (metrics != nullptr) metrics->add("robust.fallback." + stage, 1);
    if (degradations != nullptr) {
        degradations->push_back(
            Degradation{code, std::move(stage), std::move(detail)});
    }
}

void BoxModel::fit(const Series& history, int windows_per_day,
                   const PipelineConfig& config, const Training& training,
                   std::vector<Degradation>* degradations) {
    obs::MetricsRegistry* metrics = config.metrics;
    // All-signature fallback shared by the search and spatial rungs: with
    // every series a signature there are no dependents, so neither
    // clustering nor regression can fail.
    const auto all_signatures = [&history] {
        std::vector<int> all(history.size());
        std::iota(all.begin(), all.end(), 0);
        return all;
    };

    // --- signature search --------------------------------------------------
    {
        obs::ScopedTimer timer(metrics, "stage.search");
        exec::checkpoint(config.cancel, "pipeline.search");
        ATM_FAULT_SITE(config.fault, "pipeline.search");
        SignatureSearchOptions search = config.search;
        search.metrics = metrics;
        search.cancel = config.cancel;
        if (config.workspace != nullptr) {
            search.dtw_scratch = &config.workspace->dtw;
        }
        try {
            ATM_FAULT_SITE(config.fault, "search.step1");
            search_ = find_signatures(history, search);
            if (search_.signatures.empty()) {
                throw PipelineError(PipelineErrorCode::kSearchDegenerate,
                                    "search", "empty signature set");
            }
            if (!std::isfinite(search_.silhouette)) {
                throw PipelineError(PipelineErrorCode::kSearchDegenerate,
                                    "search", "silhouette undefined");
            }
        } catch (const std::exception& e) {
            rethrow_if_cancelled(e);
            const PipelineErrorCode code =
                classify_current(e, PipelineErrorCode::kSearchDegenerate);
            search_ = SignatureSearchResult{};
            search_.signatures = all_signatures();
            search_.initial_signatures = search_.signatures;
            search_.num_clusters = static_cast<int>(search_.signatures.size());
            note_degradation(degradations, metrics, code, "search",
                             std::string(e.what()) +
                                 "; fell back to the all-signature set");
        }
    }

    // --- spatial model -----------------------------------------------------
    {
        obs::ScopedTimer timer(metrics, "stage.spatial_fit");
        exec::checkpoint(config.cancel, "pipeline.spatial");
        ATM_FAULT_SITE(config.fault, "pipeline.spatial");
        try {
            ATM_FAULT_SITE(config.fault, "spatial.ols");
            spatial_.fit(history, search_.signatures);
            if (spatial_.ridge_fallbacks() > 0) {
                note_degradation(degradations, metrics,
                                 PipelineErrorCode::kSolverSingular, "spatial",
                                 std::to_string(spatial_.ridge_fallbacks()) +
                                     " dependent series refit with ridge");
            }
        } catch (const std::exception& e) {
            rethrow_if_cancelled(e);
            // Even ridge failed (or a fault fired): collapse to the
            // all-signature set, which has no regressions left to solve.
            const PipelineErrorCode code =
                classify_current(e, PipelineErrorCode::kSolverSingular);
            search_.signatures = all_signatures();
            spatial_.fit(history, search_.signatures);
            note_degradation(degradations, metrics, code, "spatial",
                             std::string(e.what()) +
                                 "; fell back to the all-signature set");
        }
    }

    // --- the signatures' MLPs ----------------------------------------------
    obs::ScopedTimer timer(metrics, "stage.forecast");
    exec::checkpoint(config.cancel, "pipeline.forecast");
    ATM_FAULT_SITE(config.fault, "pipeline.forecast");
    seasonal_period_ = windows_per_day;
    // Per-signature ladder: the configured model, then AR, then
    // seasonal-naive (which cannot fail on finite input).
    ladder_.clear();
    for (const forecast::TemporalModel model :
         {config.temporal, forecast::TemporalModel::kAutoregressive,
          forecast::TemporalModel::kSeasonalNaive}) {
        if (std::find(ladder_.begin(), ladder_.end(), model) == ladder_.end()) {
            ladder_.push_back(model);
        }
    }
    const std::vector<int>& signatures = spatial_.signature_indices();
    temporal_.clear();
    temporal_.resize(signatures.size());
    for (std::size_t k = 0; k < signatures.size(); ++k) {
        temporal_[k].seed =
            training.seeds.at(static_cast<std::size_t>(signatures[k]));
    }
    if (ladder_[0] != forecast::TemporalModel::kNeuralNetwork) return;

    // Every signature's network trains at once, one per SIMD lane (bitwise
    // the per-signature fits). The fault site is drawn per signature
    // first; a faulted signature joins no batch, and a failing batch
    // sends all its members down the ladder.
    std::vector<forecast::MlpForecaster*> members;
    std::vector<std::span<const double>> histories;
    for (std::size_t k = 0; k < signatures.size(); ++k) {
        Temporal& t = temporal_[k];
        try {
            ATM_FAULT_SITE(config.fault, "forecast.fit");
            forecast::MlpForecasterOptions options;
            options.seasonal_period = windows_per_day;
            options.train.seed = t.seed;
            if (training.epochs > 0) options.train.epochs = training.epochs;
            options.workspace = mlp_workspace(config);
            t.mlp = std::make_unique<forecast::MlpForecaster>(options);
            members.push_back(t.mlp.get());
            histories.emplace_back(history[static_cast<std::size_t>(signatures[k])]);
        } catch (const std::exception& e) {
            rethrow_if_cancelled(e);
            t.fit_code = classify_current(e, PipelineErrorCode::kModelFitFailed);
            t.fit_error = e.what();
        }
    }
    try {
        obs::ScopedTimer fit_timer(metrics, "forecast.fit.mlp");
        forecast::MlpForecaster::fit_batch(members, histories, metrics,
                                           config.cancel);
    } catch (const std::exception& e) {
        rethrow_if_cancelled(e);
        for (Temporal& t : temporal_) {
            if (t.mlp == nullptr) continue;
            t.mlp.reset();
            t.fit_code = classify_current(e, PipelineErrorCode::kModelFitFailed);
            t.fit_error = e.what();
        }
    }
}

std::size_t BoxModel::warm_update(const Series& history,
                                  const PipelineConfig& config,
                                  const Training& training) {
    // Staged copies: the networks are swapped in only after the batch has
    // trained, so a cancelled update leaves the previous weights intact.
    std::vector<std::unique_ptr<forecast::MlpForecaster>> updated(temporal_.size());
    std::vector<forecast::MlpForecaster*> members;
    std::vector<std::span<const double>> histories;
    std::vector<unsigned> seeds;
    const std::vector<int>& signatures = spatial_.signature_indices();
    for (std::size_t k = 0; k < temporal_.size(); ++k) {
        if (temporal_[k].mlp == nullptr) continue;
        const auto series = static_cast<std::size_t>(signatures[k]);
        updated[k] = std::make_unique<forecast::MlpForecaster>(*temporal_[k].mlp);
        members.push_back(updated[k].get());
        histories.emplace_back(history[series]);
        seeds.push_back(training.seeds.at(series));
    }
    const std::size_t cold = forecast::MlpForecaster::warm_update_batch(
        members, histories, seeds, training.warm_epochs, config.metrics,
        config.cancel);
    for (std::size_t k = 0; k < temporal_.size(); ++k) {
        if (updated[k] != nullptr) temporal_[k].mlp = std::move(updated[k]);
    }
    return cold;
}

BoxModel::Series BoxModel::forecast(const Series& history, int horizon,
                                    const PipelineConfig& config,
                                    std::vector<Degradation>* degradations,
                                    std::uint64_t* held) const {
    const std::vector<int>& signatures = spatial_.signature_indices();
    Series signature_values(signatures.size());
    const auto finite = [](double v) { return std::isfinite(v); };
    {
        obs::ScopedTimer timer(config.metrics, "stage.forecast");
        for (std::size_t k = 0; k < signatures.size(); ++k) {
            const Temporal& t = temporal_[k];
            const std::vector<double>& series =
                history[static_cast<std::size_t>(signatures[k])];
            // First failure on this signature's ladder, for the
            // degradation entry of whichever rung finally succeeds.
            PipelineErrorCode first_code = t.fit_code;
            std::string first_error = t.fit_error;
            bool done = false;
            for (std::size_t rung = 0; rung < ladder_.size() && !done; ++rung) {
                const std::string name = forecast::to_string(ladder_[rung]);
                try {
                    std::vector<double> values;
                    if (rung == 0 && ladder_[0] == forecast::TemporalModel::kNeuralNetwork) {
                        if (t.mlp == nullptr) continue;  // faulted or failed fit
                        obs::ScopedTimer predict_timer(config.metrics,
                                                       "forecast.predict." + name);
                        values = t.mlp->forecast_after(series, horizon);
                    } else {
                        // Only the primary attempt carries a fault site —
                        // the fallbacks are the recovery path under test.
                        if (rung == 0) ATM_FAULT_SITE(config.fault, "forecast.fit");
                        auto model = forecast::make_forecaster(
                            ladder_[rung], seasonal_period_, t.seed, config.metrics,
                            config.cancel, mlp_workspace(config));
                        {
                            obs::ScopedTimer fit_timer(config.metrics,
                                                       "forecast.fit." + name);
                            model->fit(series);
                        }
                        obs::ScopedTimer predict_timer(config.metrics,
                                                       "forecast.predict." + name);
                        values = model->forecast(horizon);
                    }
                    if (!std::ranges::all_of(values, finite)) {
                        if (held == nullptr) {
                            throw PipelineError(PipelineErrorCode::kModelFitFailed,
                                                "forecast",
                                                "non-finite forecast from " + name);
                        }
                        std::ranges::replace_if(
                            values, [&](double v) { return !finite(v); },
                            series.back());
                        ++*held;
                    }
                    if (rung > 0) {
                        note_degradation(degradations, config.metrics, first_code,
                                         "forecast",
                                         "signature " + std::to_string(signatures[k]) +
                                             ": " + first_error + "; fell back to " +
                                             name);
                    }
                    signature_values[k] = std::move(values);
                    done = true;
                } catch (const std::exception& e) {
                    rethrow_if_cancelled(e);
                    if (first_code == PipelineErrorCode::kNone) {
                        first_code =
                            classify_current(e, PipelineErrorCode::kModelFitFailed);
                        first_error = e.what();
                    }
                }
            }
            if (!done) {
                throw PipelineError(PipelineErrorCode::kModelFitFailed, "forecast",
                                    "every temporal model failed for signature " +
                                        std::to_string(signatures[k]) + ": " +
                                        first_error);
            }
        }
    }

    // --- spatial reconstruction of every series ----------------------------
    exec::checkpoint(config.cancel, "pipeline.reconstruct");
    ATM_FAULT_SITE(config.fault, "pipeline.reconstruct");
    obs::ScopedTimer timer(config.metrics, "stage.reconstruct");
    Series full = spatial_.reconstruct(signature_values);
    if (held != nullptr) {
        for (std::size_t i = 0; i < full.size(); ++i) {
            if (std::ranges::all_of(full[i], finite)) continue;
            std::ranges::replace_if(
                full[i], [&](double v) { return !finite(v); }, history[i].back());
            ++*held;
        }
    }
    return full;
}

resize::ResizeResult BoxModel::resize(const trace::BoxTrace& box,
                                      ts::ResourceKind kind, Series demands,
                                      std::vector<double> lower_bounds,
                                      resize::ResizePolicy policy,
                                      const PipelineConfig& config,
                                      std::vector<Degradation>* degradations) {
    const std::size_t m = box.vms.size();
    resize::ResizeInput input;
    input.demands = std::move(demands);
    input.total_capacity = box.capacity(kind);
    input.alpha = config.alpha;
    input.lower_bounds = std::move(lower_bounds);
    input.metrics = config.metrics;
    input.cancel = config.cancel;
    input.current_capacities.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
        input.current_capacities[i] = box.vms[i].capacity(kind);
    }
    if (config.epsilon_pct > 0.0) {
        input.epsilons.resize(m);
        for (std::size_t i = 0; i < m; ++i) {
            input.epsilons[i] =
                config.epsilon_pct / 100.0 * box.vms[i].capacity(kind);
        }
    }

    obs::ScopedTimer policy_timer(config.metrics,
                                  "resize.policy." + resize::to_string(policy));
    // The ATM policies optimize against a capacity budget and can come
    // back infeasible (lower bounds alone exceed C) or be killed by an
    // injected fault; both degrade to the always-feasible max-min
    // water-filling. The baselines have no budget to violate, so their
    // (informational) feasible flag is passed through untouched.
    const bool is_atm = policy == resize::ResizePolicy::kAtmGreedy ||
                        policy == resize::ResizePolicy::kAtmGreedyNoDiscretization;
    PipelineErrorCode degrade_code = PipelineErrorCode::kNone;
    std::string degrade_detail;
    try {
        if (is_atm) ATM_FAULT_SITE(config.fault, "resize.mckp");
        resize::ResizeResult result = resize::apply_policy(policy, input);
        if (!is_atm || result.feasible) return result;
        degrade_code = PipelineErrorCode::kResizeInfeasible;
        degrade_detail =
            resize::to_string(policy) + " infeasible under capacity budget";
    } catch (const std::exception& e) {
        rethrow_if_cancelled(e);
        degrade_code = classify_current(e, PipelineErrorCode::kResizeInfeasible);
        degrade_detail = resize::to_string(policy) + " threw: " + e.what();
    }
    note_degradation(degradations, config.metrics, degrade_code, "resize",
                     degrade_detail + "; fell back to max-min fairness");
    return resize::max_min_fairness_resize(input);
}

}  // namespace atm::core
