#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/box_model.hpp"
#include "timeseries/repair.hpp"
#include "timeseries/stats.hpp"

namespace atm::core {
namespace {

/// Capacity of the VM+resource owning flat series index `flat`.
double series_capacity(const trace::BoxTrace& box, std::size_t flat) {
    const ts::SeriesId id = ts::SeriesId::from_flat(static_cast<int>(flat));
    return box.vms[static_cast<std::size_t>(id.vm_index)].capacity(id.resource);
}

/// Tickets before and after each of `policies` resizes the day of
/// `demands` that starts at sample `first`. Per resource in the config's
/// scope, the policies size the VMs for that day's `predicted` rows (the
/// actual rows when null), with lower bounds at the previous day's peak
/// when enabled and there is a previous day; tickets count on the actual
/// rows.
void resize_day(const trace::BoxTrace& box, const BoxModel::Series& demands,
                const BoxModel::Series* predicted, std::size_t first,
                std::size_t wpd, const std::vector<resize::ResizePolicy>& policies,
                const PipelineConfig& config, std::vector<PolicyTickets>& results,
                std::vector<Degradation>* degradations) {
    const std::size_t m = box.vms.size();
    for (ts::ResourceKind kind : {ts::ResourceKind::kCpu, ts::ResourceKind::kRam}) {
        // Skip resources excluded from the model scope.
        const bool in_scope =
            config.scope == ResourceScope::kInter ||
            (config.scope == ResourceScope::kIntraCpu && kind == ts::ResourceKind::kCpu) ||
            (config.scope == ResourceScope::kIntraRam && kind == ts::ResourceKind::kRam);
        if (!in_scope) continue;

        BoxModel::Series actual(m);
        BoxModel::Series sized(m);
        std::vector<double> lower_bounds;
        int before = 0;
        for (std::size_t i = 0; i < m; ++i) {
            const auto flat = static_cast<std::size_t>(
                ts::SeriesId{static_cast<int>(i), kind}.flat_index());
            const auto row = demands[flat].begin();
            actual[i].assign(row + static_cast<std::ptrdiff_t>(first),
                             row + static_cast<std::ptrdiff_t>(first + wpd));
            sized[i] = predicted != nullptr ? (*predicted)[flat] : actual[i];
            if (config.use_lower_bounds && first >= wpd) {
                lower_bounds.push_back(
                    *std::max_element(row + static_cast<std::ptrdiff_t>(first - wpd),
                                      row + static_cast<std::ptrdiff_t>(first)));
            }
            before += ticketing::count_demand_tickets(
                actual[i], box.vms[i].capacity(kind), config.alpha);
        }
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const resize::ResizeResult r = BoxModel::resize(
                box, kind, sized, lower_bounds, policies[p], config, degradations);
            const int after =
                resize::tickets_for_allocation(actual, r.capacities, config.alpha);
            if (kind == ts::ResourceKind::kCpu) {
                results[p].cpu_before = before;
                results[p].cpu_after = after;
            } else {
                results[p].ram_before = before;
                results[p].ram_after = after;
            }
        }
    }
}

}  // namespace

std::string PipelineConfig::validate() const {
    std::string problems;
    const auto add = [&problems](const std::string& p) {
        if (!problems.empty()) problems += "; ";
        problems += p;
    };
    // Written as !(in range) so NaN, which fails every comparison, is
    // rejected rather than slipping through a plain "out of range" test.
    if (!(alpha > 0.0 && alpha <= 1.0)) {
        add("alpha must be in (0, 1], got " + std::to_string(alpha));
    }
    if (train_days < 1) {
        add("train_days must be >= 1, got " + std::to_string(train_days));
    }
    if (!(epsilon_pct >= 0.0 && epsilon_pct < 100.0)) {
        add("epsilon_pct must be in [0, 100) (0 disables discretization), got " +
            std::to_string(epsilon_pct));
    }
    if (!(max_bad_sample_fraction >= 0.0 && max_bad_sample_fraction <= 1.0)) {
        add("max_bad_sample_fraction must be in [0, 1], got " +
            std::to_string(max_bad_sample_fraction));
    }
    return problems;
}

const std::vector<resize::ResizePolicy>& default_policies() {
    static const std::vector<resize::ResizePolicy> kDefault{
        resize::ResizePolicy::kAtmGreedy};
    return kDefault;
}

BoxPipelineResult run_pipeline_on_box(
    const trace::BoxTrace& box, int windows_per_day, const PipelineConfig& config,
    const std::vector<resize::ResizePolicy>& policies) {
    exec::checkpoint(config.cancel, "pipeline.start");
    ATM_FAULT_SITE(config.fault, "pipeline.start");
    if (box.vms.empty()) {
        throw PipelineError(PipelineErrorCode::kTraceInvalid, "input",
                            "run_pipeline_on_box: empty box");
    }
    const auto wpd = static_cast<std::size_t>(windows_per_day);
    const std::size_t train_len = static_cast<std::size_t>(config.train_days) * wpd;
    if (box.length() < train_len + wpd) {
        throw PipelineError(PipelineErrorCode::kTraceInvalid, "input",
                            "run_pipeline_on_box: trace too short for config");
    }

    std::vector<std::vector<double>> demands = box.demand_matrix();
    const std::vector<int> scope = scope_indices(demands.size(), config.scope);

    BoxPipelineResult result;
    obs::MetricsRegistry* metrics = config.metrics;

    // --- input sanitization (ladder rung 1) ----------------------------------
    // Real monitoring exports carry NaN/Inf/negative samples. Count them
    // over the scoped demand matrix; past the configured fraction the box
    // is not trustworthy and is rejected, otherwise bad samples are zeroed
    // and gap-repaired so every later stage sees finite, non-negative data.
    {
        exec::checkpoint(config.cancel, "pipeline.sanitize");
        ATM_FAULT_SITE(config.fault, "pipeline.sanitize");
        std::size_t total_samples = 0;
        std::size_t bad_samples = 0;
        for (int idx : scope) {
            const auto& row = demands[static_cast<std::size_t>(idx)];
            total_samples += row.size();
            for (const double x : row) {
                if (!std::isfinite(x) || x < 0.0) ++bad_samples;
            }
        }
        if (bad_samples > 0) {
            obs::ScopedTimer timer(metrics, "stage.sanitize");
            if (static_cast<double>(bad_samples) >
                config.max_bad_sample_fraction *
                    static_cast<double>(total_samples)) {
                throw PipelineError(
                    PipelineErrorCode::kTraceInvalid, "sanitize",
                    std::to_string(bad_samples) + " of " +
                        std::to_string(total_samples) +
                        " scoped demand samples are non-finite or negative "
                        "(max_bad_sample_fraction exceeded)");
            }
            std::size_t repaired_series = 0;
            for (int idx : scope) {
                auto& row = demands[static_cast<std::size_t>(idx)];
                // Explicit bad-sample runs (length >= 1): find_gaps's
                // default min_run of 2 deliberately ignores isolated
                // zero-ish samples, but a corrupted sample must be repaired
                // even when isolated.
                std::vector<ts::Gap> gaps;
                std::size_t row_bad = 0;
                for (std::size_t t = 0; t < row.size(); ++t) {
                    if (std::isfinite(row[t]) && row[t] >= 0.0) continue;
                    row[t] = 0.0;
                    ++row_bad;
                    if (!gaps.empty() &&
                        gaps.back().first + gaps.back().length == t) {
                        ++gaps.back().length;
                    } else {
                        gaps.push_back(ts::Gap{t, 1});
                    }
                }
                if (gaps.empty()) continue;
                row = ts::repair_gaps(row, gaps, ts::RepairMethod::kSeasonal,
                                      windows_per_day);
                if (row_bad == row.size()) {
                    note_degradation(&result.degradations, metrics,
                                     PipelineErrorCode::kRepairFailed,
                                     "sanitize",
                                     "series " + std::to_string(idx) +
                                         " had no valid sample; pinned to "
                                         "flat zeros");
                } else {
                    ++repaired_series;
                }
            }
            if (metrics != nullptr) {
                metrics->add("robust.sanitize.bad_samples", bad_samples);
            }
            if (repaired_series > 0) {
                note_degradation(&result.degradations, metrics,
                                 PipelineErrorCode::kTraceInvalid, "sanitize",
                                 "repaired " + std::to_string(bad_samples) +
                                     " bad samples across " +
                                     std::to_string(repaired_series) +
                                     " series");
            }
        }
    }

    std::vector<std::vector<double>> scoped_train;
    scoped_train.reserve(scope.size());
    for (int idx : scope) {
        const auto& row = demands[static_cast<std::size_t>(idx)];
        scoped_train.emplace_back(row.begin(),
                                  row.begin() + static_cast<std::ptrdiff_t>(train_len));
    }

    // Batch temporal seeds: the box seed plus the scoped series index.
    BoxModel::Training training;
    training.seeds.resize(scoped_train.size());
    for (std::size_t s = 0; s < scoped_train.size(); ++s) {
        training.seeds[s] = config.seed + static_cast<unsigned>(s);
    }
    BoxModel model;
    model.fit(scoped_train, windows_per_day, config, training,
              &result.degradations);
    result.search = model.search();
    const BoxModel::Series scoped_pred = model.forecast(
        scoped_train, windows_per_day, config, &result.degradations);

    // Predicted demands in the full flattened layout (unscoped rows empty).
    result.predicted_demands.assign(demands.size(), {});
    for (std::size_t k = 0; k < scope.size(); ++k) {
        result.predicted_demands[static_cast<std::size_t>(scope[k])] = scoped_pred[k];
    }

    // --- prediction accuracy on the evaluation day ---------------------------
    exec::checkpoint(config.cancel, "pipeline.accuracy");
    ATM_FAULT_SITE(config.fault, "pipeline.accuracy");
    obs::ScopedTimer accuracy_timer(metrics, "stage.accuracy");
    double ape_sum = 0.0;
    std::size_t ape_count = 0;
    double peak_sum = 0.0;
    std::size_t peak_count = 0;
    for (std::size_t k = 0; k < scope.size(); ++k) {
        const auto flat = static_cast<std::size_t>(scope[k]);
        const auto& actual_row = demands[flat];
        const double cap = series_capacity(box, flat);
        const double peak_level = config.alpha * cap;
        const auto& pred = scoped_pred[k];
        double series_sum = 0.0;
        std::size_t series_n = 0;
        for (std::size_t t = 0; t < wpd; ++t) {
            const double actual = actual_row[train_len + t];
            if (std::abs(actual) < 1e-9) continue;
            const double err = std::abs(actual - pred[t]) / std::abs(actual);
            if (!std::isfinite(err)) continue;  // belt-and-braces post-ladder
            series_sum += err;
            ++series_n;
            if (actual > peak_level) {
                peak_sum += err;
                ++peak_count;
            }
        }
        if (series_n > 0) {
            const double series_ape = series_sum / static_cast<double>(series_n);
            ape_sum += series_ape;
            ++ape_count;
            if (metrics != nullptr) metrics->observe("predict.ape", series_ape);
        }
    }
    result.ape_all = ape_count > 0 ? ape_sum / static_cast<double>(ape_count) : 0.0;
    result.ape_peak = peak_count > 0 ? peak_sum / static_cast<double>(peak_count) : 0.0;
    accuracy_timer.stop();

    // --- resizing for the evaluation day -------------------------------------
    if (policies.empty()) {
        if (metrics != nullptr) result.metrics = metrics->snapshot();
        return result;
    }
    result.policies.resize(policies.size());
    for (std::size_t p = 0; p < policies.size(); ++p) {
        result.policies[p].policy = policies[p];
    }

    exec::checkpoint(config.cancel, "pipeline.resize");
    ATM_FAULT_SITE(config.fault, "pipeline.resize");
    obs::ScopedTimer resize_timer(metrics, "stage.resize");
    resize_day(box, demands, &result.predicted_demands, train_len, wpd, policies,
               config, result.policies, &result.degradations);
    resize_timer.stop();
    if (metrics != nullptr) result.metrics = metrics->snapshot();
    return result;
}

std::vector<PolicyTickets> evaluate_resize_policies_on_actuals(
    const trace::BoxTrace& box, int windows_per_day, int day, double alpha,
    double epsilon_pct, const std::vector<resize::ResizePolicy>& policies,
    bool use_lower_bounds, obs::MetricsRegistry* metrics) {
    if (box.vms.empty()) {
        throw PipelineError(PipelineErrorCode::kTraceInvalid, "input",
                            "evaluate_resize_policies_on_actuals: empty box");
    }
    const auto wpd = static_cast<std::size_t>(windows_per_day);
    const std::size_t first = static_cast<std::size_t>(day) * wpd;
    if (box.length() < first + wpd) {
        throw PipelineError(PipelineErrorCode::kTraceInvalid, "input",
                            "evaluate_resize_policies_on_actuals: day out of range");
    }

    PipelineConfig config;
    config.alpha = alpha;
    config.epsilon_pct = epsilon_pct;
    config.use_lower_bounds = use_lower_bounds;
    config.metrics = metrics;
    std::vector<PolicyTickets> results(policies.size());
    for (std::size_t p = 0; p < policies.size(); ++p) results[p].policy = policies[p];
    resize_day(box, box.demand_matrix(), nullptr, first, wpd, policies, config,
               results, nullptr);
    return results;
}

}  // namespace atm::core
